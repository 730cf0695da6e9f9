"""Paper-density benchmark of the reproduction; see paperbench/README.md.

    python3 paperbench/run.py --workload paper-dm --seed 0 --seconds 30 \
        --trace 0

Run from the repository root. A timed run makes passes of the workload
while ``--seconds`` lasts (at least :data:`MIN_PASSES`), each in a fresh
child process (``child.py``) with ``src`` on ``PYTHONPATH`` and
``REPRO_FULL=1``, and reports medians over the passes; it times set-up in
a few more fresh processes. The metrics go out as one JSON object on the
last line of stdout: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. A line
before it, starting with ``# meta``, records the host and how each
geometry is routed. Exit code 0 when every point is correct, 1 when any
point failed, 2 when the run could not start (e.g. no ``src/repro`` to
benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh-process passes a timed run makes at least.
MIN_PASSES = 3
#: Fresh processes whose set-up is timed for ``setup_s`` (median).
SETUP_PROBES = 5
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0


def _env(root: str) -> dict[str, str]:
    """The children's environment: this checkout's ``src``, paper scale.

    Other ``REPRO_*`` variables are dropped so no fault injection, cache
    bound or resolution override leaks into the measurement.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_FULL"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args: list[str], env, timeout: float):
    """Run ``child.py``; kill its whole process group on timeout."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + f"\ntimed out after {timeout:.0f} s"
    return proc.returncode, out, err


def _setup_s(workload: str, seed: int, tmp: str, env) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.time()
        code, out, err = _child(
            ["--workload", workload, "--seed", str(seed), "--mode", "probe",
             "--tmp", os.path.join(tmp, f"probe{i}")], env, 60)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        times.append(float(out.strip().splitlines()[-1]) - t0)
    return times


def _meta(env) -> dict:
    """Host, versions and per-geometry engine routing (not metrics)."""
    code, out, err = _child(["--workload", "paper-dm", "--seed", "0",
                             "--mode", "meta", "--tmp", os.devnull], env, 60)
    if code != 0:
        return {"error": err.strip()[-400:]}
    return json.loads(out)


#: Per-layer metrics of layers that run only on ``durable-observed``.
DURABLE_LAYERS = ("pool.attempts", "pool.retries", "pool.busy_share",
                  "durable.journal_records", "durable.store_puts",
                  "durable.store_hits", "durable.resume_s",
                  "obs.overhead_s", "obs.report_s")


def end_to_end(passes: list[dict], setups: list[float],
               peak_mb: float) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of a timed run: medians over its passes.

    Each failure reason counts as one failed point, capped at the points
    attempted (a reason such as a config mismatch can cover them all).
    """
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = min(attempted, len(failures))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "addr_per_s": (statistics.median(
            p["refs"] / p["sim_s"] if p["sim_s"] else 0.0 for p in passes),
            "addresses/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return metrics, attempted, failed, failures


#: Wrapped time outside any point, or rows missing from it, beyond
#: rounding: a wrapper timed work that no point accounts for.
OUTSIDE_TOLERANCE_S = 1e-6


def per_layer(workload: str, base: dict,
              traced: list[dict]) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics of the first traced pass, checked against the rest.

    ``base`` is the untraced pass, ``traced`` the traced passes, each
    from its own fresh process.
    """
    plain, firsts = base["pass"], [t["pass"] for t in traced]
    failures = plain["failures"] + [f for p in firsts for f in p["failures"]]
    attempted = plain["attempted"]
    if any(p["points"] != plain["points"] for p in firsts):
        failures.append("traced and untraced passes returned different "
                        "points")
    layers = [t["layers"] for t in traced]
    moved = sorted(k for k in layers[0] if not k.endswith("_s")
                   and any(m[k] != layers[0][k] for m in layers))
    if moved:
        failures.append(f"per-layer counts differ across traced passes: "
                        f"{moved}")
    for t in traced:
        if t["outside_s"] > OUTSIDE_TOLERANCE_S:
            failures.append(f"the layer rows and the point time differ by "
                            f"{t['outside_s']:.3g} s")
        if t["layers"]["bench.points"] != attempted:
            failures.append(f"{t['layers']['bench.points']} traced point "
                            f"spans for {attempted} points")

    first = firsts[0]
    values = dict(layers[0])
    values.update(base["import"])
    values["bench.point_s"] = traced[0]["point_s"]
    values["bench.trace_overhead"] = first["wall_s"] / plain["wall_s"] - 1.0
    values.update(dict.fromkeys(DURABLE_LAYERS, 0))
    if workload == "durable-observed":
        extra = first["extra"]
        values.update({k: extra[k] for k in DURABLE_LAYERS if k in extra})
        values["obs.overhead_s"] = (plain["extra"].get("cold_s", 0.0)
                                    - base["plain_cold_s"])
        for k, v in extra.get("ledger", {}).items():
            if values[k] != v:
                failures.append(f"{k}: the wrappers counted {values[k]}, "
                                f"the run's ledger {v}")
    metrics = {k: (v, _unit(k)) for k, v in sorted(values.items())}
    failed = min(attempted, len(failures))
    return metrics, attempted, failed, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S - 25.0  # room for probes

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("paperbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    env = _env(root)
    tmp = os.path.join(root, ".paperbench_tmp", str(os.getpid()))
    os.makedirs(tmp)

    def run_child(mode: str, tag: str) -> dict:
        out_path = os.path.join(tmp, f"{tag}.json")
        code, _, err = _child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--mode", mode,
             "--tmp", os.path.join(tmp, tag), "--out", out_path],
            env, deadline - time.monotonic())
        if code != 0 or not os.path.exists(out_path):
            raise RuntimeError(f"{mode} child exited {code}:\n{err[-4000:]}")
        with open(out_path) as fh:
            return json.load(fh)

    try:
        if args.trace:
            base = run_child("untraced", "untraced")
            traced = [run_child("traced", f"traced{i}") for i in range(2)]
            metrics, attempted, failed, failures = per_layer(
                args.workload, base, traced)
            inputs, walls, setups = base["inputs"], [], []
        else:
            passes, t0 = [], time.monotonic()
            while True:
                t_pass = time.monotonic()
                result = run_child("pass", f"pass{len(passes)}")
                passes.append(result["pass"])
                now, took = time.monotonic(), time.monotonic() - t_pass
                if now + took > deadline or (
                        len(passes) >= MIN_PASSES
                        and now - t0 + took > args.seconds):
                    break
            inputs = result["inputs"]
            walls = [p["wall_s"] for p in passes]
            # Every descendant has been waited for: the largest peak RSS
            # any of them reached (the child, CLI runs, pool workers).
            peak_mb = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            setups = _setup_s(args.workload, args.seed, tmp, env)
            metrics, attempted, failed, failures = end_to_end(
                passes, setups, peak_mb)
        meta = _meta(env)
    except RuntimeError as exc:
        print(f"paperbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, inputs=inputs,
                pass_wall_s=walls, setup_probes_s=setups)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 1 if failures else 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.compression", "bench.trace_overhead",
                "pool.busy_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
