"""One pass of a workload in a fresh process; ``run.py`` starts it.

    python3 paperbench/child.py --workload W --seed S \
        --mode probe|meta|pass|untraced|traced --tmp DIR --out RESULT.json

``probe`` does only the set-up (imports, configs, temp dir) and prints
the wall-clock time at which it was ready; ``meta`` prints the run
metadata as JSON. ``pass`` runs one pass of the workload. ``untraced``
runs one pass plus what only the traced run's baseline needs (import
times; for ``durable-observed`` a cold run without ``--run-dir``).
``traced`` runs one pass with the layer wrappers of ``layers.py``
installed. Every pass runs in its own fresh process, so every pass
starts as cold as a user's.

Needs ``src`` on ``PYTHONPATH`` and ``REPRO_FULL=1``; ``run.py`` sets both.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import asdict

import workloads as wl

import repro  # noqa: F401  (set-up cost is part of setup_s)
from repro.experiments import ExperimentConfig
from repro.experiments import lattice, runner


class Pass:
    """Outcome of one pass over a workload's points."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.refs = 0          # demand references of simulated points
        self.sim_s = 0.0       # summed per-point simulation time
        self.points: dict[str, dict] = {}
        self.failures: list[str] = []
        self.extra: dict = {}

    def check(self, expected, key: str, p: dict) -> None:
        self.points[key] = p
        why = wl.check_point(expected, key, nk=p["nk"],
                             degraded=p["degraded"], refs=p["refs"],
                             l1_misses=p["l1_misses"],
                             l2_misses=p["l2_misses"])
        if why:
            self.failures.append(why)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def to_json(self) -> dict:
        return {"wall_s": self.wall_s, "refs": self.refs, "sim_s": self.sim_s,
                "attempted": len(self.points) or 1, "points": self.points,
                "failures": self.failures, "extra": self.extra}


def paper_config() -> ExperimentConfig:
    """The paper's configuration with NK=30 passed explicitly."""
    return ExperimentConfig(nk=wl.NK)


def config_problems(cfg: ExperimentConfig) -> list[str]:
    """The scale tripwire: NK must be 30 and L1/L2 the paper's."""
    out = []
    if cfg.nk != wl.NK:
        out.append(f"ExperimentConfig(nk={wl.NK}) resolved to NK={cfg.nk}")
    if wl.geometry(cfg.l1) != wl.PAPER_L1:
        out.append(f"L1 geometry {wl.geometry(cfg.l1)} != {wl.PAPER_L1}")
    if wl.geometry(cfg.l2) != wl.PAPER_L2:
        out.append(f"L2 geometry {wl.geometry(cfg.l2)} != {wl.PAPER_L2}")
    return out


# ----------------------------------------------------------------------
# paper-dm: serial in-process run_point, no store, journal or metrics
# ----------------------------------------------------------------------

def paper_dm_pass(points, expected, ctx) -> Pass:
    out = Pass()
    cfg = paper_config()
    for why in config_problems(cfg):
        out.fail(why)
    runner.clear_cache()
    t_pass = time.perf_counter()
    for kernel, strategy, n in points:
        key = wl.point_key(kernel, strategy, n, wl.PAPER_L1, wl.PAPER_L2)
        try:
            t0 = time.perf_counter()
            p = runner.run_point(kernel, strategy, n, cfg)
            dt = time.perf_counter() - t0
        except Exception as exc:   # a raising point is a failed point
            traceback.print_exc()
            out.points[key] = None
            out.fail(f"{key}: raised {type(exc).__name__}: {exc}")
            continue
        out.refs += p.refs
        out.sim_s += dt
        out.check(expected, key, asdict(p))
    out.wall_s = time.perf_counter() - t_pass
    return out


# ----------------------------------------------------------------------
# lattice-assoc: run_lattice("JACOBI", n) over its default axes, in the
# seed's order
# ----------------------------------------------------------------------

def lattice_pass(inputs, expected, ctx) -> Pass:
    n, strategies, assocs, lines = inputs
    out = Pass()
    cfg = paper_config()
    for why in config_problems(cfg):
        out.fail(why)
    runner.clear_cache()
    t_pass = time.perf_counter()
    try:
        data = lattice.run_lattice("JACOBI", n, strategies, assocs, lines,
                                   cfg=cfg)
    except Exception as exc:
        traceback.print_exc()
        out.wall_s = time.perf_counter() - t_pass
        for _, _, key in wl.lattice_keys(n):
            out.points[key] = None
        out.fail(f"run_lattice raised {type(exc).__name__}: {exc}")
        return out
    out.wall_s = time.perf_counter() - t_pass
    # run_lattice does nothing per cell besides run_point, so its wall
    # is the summed per-point simulation time.
    out.sim_s = out.wall_s
    for strategy, l1, key in wl.lattice_keys(n):
        cell = data.cells.get((strategy, l1[2], l1[1]))
        if cell is None:
            out.points[key] = None
            out.fail(f"{key}: missing from the lattice")
            continue
        out.refs += cell.refs
        out.check(expected, key, asdict(cell))
    return out


# ----------------------------------------------------------------------
# durable-observed: the CLI, cold then resumed, then obs-report
# ----------------------------------------------------------------------

def _repro(ctx) -> list[str]:
    if ctx["traced"]:
        return [sys.executable, os.path.join(wl.HERE, "traced_cli.py"),
                ctx["shards"]]
    return [sys.executable, "-m", "repro"]


def _cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, proc


def _read_csv(path: str) -> dict[tuple, dict]:
    with open(path, newline="") as fh:
        return {(r["kernel"], r["strategy"], int(r["n"])): r
                for r in csv.DictReader(fh)}


def _run_dirs(ledger: str) -> set[str]:
    return {os.path.dirname(p)
            for p in glob.glob(os.path.join(ledger, "*", "manifest.json"))}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def counters(metrics: dict, name: str, **labels) -> int:
    """Sum of counter ``name`` over entries matching ``labels``."""
    return sum(c["value"] for c in metrics.get("counters", ())
               if c["name"] == name
               and all(c["labels"].get(k) == v for k, v in labels.items()))


def histogram_total(metrics: dict, name: str) -> float:
    return sum(h["total"] for h in metrics.get("histograms", ())
               if h["name"] == name)


#: ``--parallel`` of the durable workload's CLI runs (this host's nproc).
WORKERS = 2


def figures_argv(sizes, work: str, *, observed: bool) -> list[str]:
    argv = ["figures", "--kernel", "JACOBI", "--full"]
    for n in sizes:
        argv += ["--n", str(n)]
    argv += ["--parallel", str(WORKERS),
             "--checkpoint", os.path.join(work, "journal.jsonl"),
             "--point-cache", os.path.join(work, "store")]
    if observed:
        argv += ["--run-dir", os.path.join(work, "ledger")]
    return argv


def durable_pass(sizes, expected, ctx) -> Pass:
    out = Pass()
    work = os.path.join(ctx["tmp"], f"pass{ctx['npass']}")
    ctx["npass"] += 1
    os.makedirs(work)
    ledger = os.path.join(work, "ledger")
    cold_csv = os.path.join(work, "cold.csv")
    warm_csv = os.path.join(work, "warm.csv")
    base = _repro(ctx) + figures_argv(sizes, work, observed=True)
    keys = [wl.point_key(k, s, n, wl.PAPER_L1, wl.PAPER_L2)
            for k, s, n in wl.durable_points(sizes)]

    t_pass = time.perf_counter()
    cold_s, cold = _cli(base + ["--csv", cold_csv])
    cold_dirs = _run_dirs(ledger)
    warm_s, warm = _cli(base + ["--csv", warm_csv])
    warm_dirs = _run_dirs(ledger) - cold_dirs
    for name, proc in (("cold", cold), ("warm", warm)):
        if proc.returncode != 0:
            out.fail(f"{name} run exited {proc.returncode}: "
                     f"{proc.stderr.strip()[-400:]}")
    if len(cold_dirs) != 1 or len(warm_dirs) != 1:
        out.fail(f"expected one ledger run each, got {len(cold_dirs)} "
                 f"cold and {len(warm_dirs)} warm")
        out.points = dict.fromkeys(keys)
        return out
    (cold_dir,), (warm_dir,) = cold_dirs, warm_dirs
    report_s, report = _cli([sys.executable, "-m", "repro", "obs-report",
                             warm_dir])
    out.wall_s = time.perf_counter() - t_pass
    if report.returncode != 0:
        out.fail(f"obs-report exited {report.returncode}: "
                 f"{report.stderr.strip()[-400:]}")

    manifest = _read_json(os.path.join(cold_dir, "manifest.json"))
    if manifest.get("fingerprint") != ctx["fingerprint"]:
        out.fail("the CLI ran another configuration than NK=30 on the "
                 "paper's L1/L2 (fingerprint mismatch)")
    cold_m = _read_json(os.path.join(cold_dir, "metrics.json"))
    warm_m = _read_json(os.path.join(warm_dir, "metrics.json"))
    with open(os.path.join(cold_dir, "events.jsonl")) as fh:
        events = [json.loads(line) for line in fh]
    if any(e.get("kind") == "quarantine" for e in events):
        out.fail("a point was quarantined by the pool")

    try:
        cold_rows, warm_rows = _read_csv(cold_csv), _read_csv(warm_csv)
    except OSError as exc:
        cold_rows, warm_rows = {}, {}
        out.fail(f"no points CSV: {exc}")
    for (k, s, n), key in zip(wl.durable_points(sizes), keys):
        row = cold_rows.get((k, s, n))
        if row is None:
            out.points[key] = None
            out.fail(f"{key}: missing from the cold run's CSV")
            continue
        if warm_rows.get((k, s, n)) != row:
            out.fail(f"{key}: the resumed run returned another point")
        p = dict(row)
        for f in ("n", "nk", "refs", "l1_misses", "l2_misses"):
            p[f] = int(p[f])
        p["degraded"] = p["degraded"] not in ("0", "", "False")
        out.refs += p["refs"]
        out.check(expected, key, p)

    simulated = counters(cold_m, "repro.runner.points", mode="exact")
    if simulated != len(keys):
        out.fail(f"the cold run simulated {simulated} of {len(keys)} points")
    resumed = counters(warm_m, "repro.runner.points", mode="journal")
    if resumed != len(keys):
        out.fail(f"the resumed run served {resumed} of {len(keys)} points "
                 f"from the journal")
    out.sim_s = histogram_total(cold_m, "repro.sim.point_seconds")

    def span_s(name: str) -> float:
        return sum(e["dur_s"] for e in events
                   if e.get("kind") == "span_end" and e.get("name") == name
                   and e.get("node") == "sup")

    def both(name: str) -> int:
        return counters(cold_m, name) + counters(warm_m, name)

    sweep_s = span_s("sweep")
    out.extra = {
        "cold_s": cold_s, "durable.resume_s": warm_s,
        "obs.report_s": report_s,
        "pool.attempts": counters(cold_m, "repro.pool.attempts"),
        "pool.retries": counters(cold_m, "repro.pool.retries"),
        "pool.busy_share": (span_s("point") / (WORKERS * sweep_s)
                            if sweep_s else 0.0),
        "durable.journal_records": both("repro.resilience.checkpoint.records"),
        "durable.store_puts": both("repro.perf.point_cache_puts"),
        "durable.store_hits": both("repro.perf.point_cache_hits"),
        "ledger": {
            "core.select_calls": counters(cold_m, "repro.select.calls"),
            "trace.addresses": counters(cold_m, "repro.trace.addresses"),
            "cache.l1_accesses": counters(cold_m, "repro.sim.accesses",
                                          level="L1"),
            "cache.l1_misses": counters(cold_m, "repro.sim.misses",
                                        level="L1"),
            "cache.l2_accesses": counters(cold_m, "repro.sim.accesses",
                                          level="L2"),
            "cache.l2_misses": counters(cold_m, "repro.sim.misses",
                                        level="L2"),
        },
    }
    return out


def plain_cold_s(sizes, ctx) -> float:
    """Wall of the same cold command without ``--run-dir`` (no obs)."""
    work = os.path.join(ctx["tmp"], f"pass{ctx['npass']}")
    ctx["npass"] += 1
    os.makedirs(work)
    wall, proc = _cli([sys.executable, "-m", "repro"]
                      + figures_argv(sizes, work, observed=False))
    if proc.returncode != 0:
        raise RuntimeError(f"plain cold run exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return wall


PASSES = {"paper-dm": paper_dm_pass, "lattice-assoc": lattice_pass,
          "durable-observed": durable_pass}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def import_times() -> dict[str, float]:
    """``import.total_s`` / ``import.scipy_s`` from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import repro.cli"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()),
                        name.strip().split(".")[0], int(parts[1])))
    # Parents print after their children; walking backwards visits each
    # parent first, so a scipy entry counts only under no scipy parent.
    total = scipy = 0
    stack: list[tuple[int, bool]] = []
    for depth, top, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 1 and top == "repro":
            total += cumulative
        is_scipy = top == "scipy"
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        stack.append((depth, is_scipy))
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6}


def untraced(workload, inputs, expected, ctx) -> dict:
    """The traced run's baseline: one plain pass, plus what only it has."""
    out = {"pass": PASSES[workload](inputs, expected, ctx).to_json()}
    out["import"] = import_times()
    if workload == "durable-observed":
        out["plain_cold_s"] = plain_cold_s(inputs, ctx)
    return out


def traced(workload, inputs, expected, ctx) -> dict:
    """One pass with every layer wrapped (see ``layers.py``)."""
    import layers

    os.makedirs(ctx["shards"])
    ctx["traced"] = True
    tr = layers.Tracer()
    layers.install(tr, ctx["shards"])
    p = PASSES[workload](inputs, expected, ctx)
    if workload == "durable-observed":
        snaps = layers.read_shards(ctx["shards"])
        tr = layers.Tracer()
        for snap in snaps:
            tr.merge(snap)
    else:
        snaps = [tr.snapshot()]
    return {"pass": p.to_json(), "layers": layers.exclusive_metrics(tr),
            "point_s": tr.point_s,
            "outside_s": max(abs(layers.outside_points_s(snap))
                             for snap in snaps)}


def meta() -> dict:
    """Host, versions, partition strategy, engine routing per geometry."""
    import platform

    import numpy

    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.params import CacheParams
    from repro.cache.partition import default_strategy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    l2 = CacheParams(*wl.PAPER_L2, "L2")
    routes = {}
    for line in wl.LATTICE_LINES:
        for ways in wl.LATTICE_ASSOCS:
            l1 = CacheParams(wl.PAPER_L1[0], line, ways, "L1")
            support = CacheHierarchy([l1, l2]).engine_support()
            routes[f"L1 {ways}-way/{line}B"] = [
                [ls.mode, ls.reason, ls.run_mode] for ls in support.levels]
    # A fixed numpy + Python loop, timed three times: tells host-speed
    # drift apart from a change of the program when runs are compared.
    keys = numpy.random.default_rng(0).integers(0, 512, 1 << 22)
    probe = []
    for _ in range(3):
        t0 = time.perf_counter()
        numpy.argsort(keys.astype(numpy.int16), kind="stable")
        sum(range(1 << 22))
        probe.append(time.perf_counter() - t0)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "partition_strategy": default_strategy(),
            "engine_support": routes, "host_probe_s": sorted(probe)[1]}


def setup(workload: str, seed: int, tmp: str) -> tuple:
    """Everything a run needs before its first pass; timed as setup_s."""
    inputs = wl.pick(workload, seed)
    expected = wl.load_expected()
    os.makedirs(tmp, exist_ok=True)
    ctx = {"tmp": tmp, "npass": 0, "shards": os.path.join(tmp, "shards"),
           "traced": False,
           "fingerprint": runner.config_fingerprint(paper_config())}
    return inputs, expected, ctx


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("probe", "meta", "pass", "untraced", "traced"))
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.mode == "meta":
        print(json.dumps(meta()))
        return 0
    inputs, expected, ctx = setup(args.workload, args.seed, args.tmp)
    if args.mode == "probe":
        print(repr(time.time()), flush=True)
        return 0
    if args.mode == "pass":
        result = {"pass": PASSES[args.workload](inputs, expected,
                                                ctx).to_json()}
    elif args.mode == "untraced":
        result = untraced(args.workload, inputs, expected, ctx)
    else:
        result = traced(args.workload, inputs, expected, ctx)
    result["inputs"] = inputs
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
