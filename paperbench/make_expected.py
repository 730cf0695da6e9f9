"""Regenerate or re-verify ``expected.json``, the benchmark's answer table.

    PYTHONPATH=src python3 paperbench/make_expected.py            # write
    PYTHONPATH=src python3 paperbench/make_expected.py --check    # compare

For every point of every workload (``workloads.all_keys``) it
simulates ``(refs, l1_misses, l2_misses)`` twice and requires agreement:

* the default path (``run_point`` with the run-compressed trace and the
  batched engine);
* ``trace_form="flat"``, which bypasses the closed-form run engine.

It then re-simulates one 2-way and one 4-way lattice cell with the
scalar ``SetAssociativeCache`` reference as the L1. Any disagreement
exits 1 without writing. ``--check`` compares against the checked-in
table instead of writing it. It takes about two minutes on a 2-core host.

The simulator is not validated against hardware here: the table makes
the simulated statistics a correctness check of each benchmark run, and
the benchmark's metrics measure host time only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

os.environ["REPRO_FULL"] = "1"

import workloads as wl  # noqa: E402

from repro.cache.hierarchy import CacheHierarchy  # noqa: E402
from repro.cache.params import CacheParams  # noqa: E402
from repro.cache.set_assoc import SetAssociativeCache  # noqa: E402
from repro.core.selector import select  # noqa: E402
from repro.experiments import ExperimentConfig, PointPolicy  # noqa: E402
from repro.experiments.runner import clear_cache, run_point  # noqa: E402
from repro.kernels import KERNELS, Schedule  # noqa: E402

#: Lattice cells re-simulated with the scalar reference L1.
SCALAR_CELLS = (("Orig", (16384, 32, 2)), ("GcdPad", (16384, 32, 4)))


def config(l1: tuple[int, int, int]) -> ExperimentConfig:
    cfg = ExperimentConfig(nk=wl.NK)
    if l1 != wl.PAPER_L1:
        size, line, ways = l1
        cfg = ExperimentConfig(
            nk=wl.NK, l1=CacheParams(size, line, ways, f"L1/{ways}w/{line}B"))
    if (cfg.nk, wl.geometry(cfg.l1), wl.geometry(cfg.l2)) != (
            wl.NK, l1, wl.PAPER_L2):
        raise SystemExit(f"config resolved to NK={cfg.nk}, "
                         f"L1 {wl.geometry(cfg.l1)}, L2 {wl.geometry(cfg.l2)}")
    return cfg


def stats(p) -> list[int]:
    return [p.refs, p.l1_misses, p.l2_misses]


def scalar_stats(kernel: str, strategy: str, n: int,
                 cfg: ExperimentConfig) -> list[int]:
    """The point's statistics with the scalar LRU reference as L1."""
    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    hier = CacheHierarchy(cfg.levels)
    hier.levels[0] = SetAssociativeCache(cfg.l1)
    schedule = Schedule.TILED if sel.tiled else Schedule.UNTILED
    st = hier.run(kern.trace(sel, schedule, structured=True,
                             trace_form="flat"))
    return [st.demand_refs, st.misses(0), st.misses(1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the checked-in table, write nothing")
    args = ap.parse_args()
    bad = 0
    table: dict[str, list[int]] = {}
    for key, (kernel, strategy, n, l1) in sorted(wl.all_keys().items()):
        cfg = config(l1)
        t0 = time.perf_counter()
        auto = stats(run_point(kernel, strategy, n, cfg))
        flat = stats(run_point(kernel, strategy, n, cfg,
                               policy=PointPolicy(trace_form="flat")))
        clear_cache()
        print(f"{key}: {auto} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
        if auto != flat:
            print(f"  MISMATCH flat trace: {flat}", flush=True)
            bad += 1
        table[key] = auto

    n = wl.LATTICE_N
    for strategy, l1 in SCALAR_CELLS:
        key = wl.point_key("JACOBI", strategy, n, l1, wl.PAPER_L2)
        ref = scalar_stats("JACOBI", strategy, n, config(l1))
        print(f"{key}: scalar reference {ref}", flush=True)
        if ref != table[key]:
            print(f"  MISMATCH engine: {table[key]}", flush=True)
            bad += 1

    if args.check:
        checked_in = wl.load_expected()
        for key, got in table.items():
            if checked_in.get(key) != got:
                print(f"{key}: table has {checked_in.get(key)}, "
                      f"simulated {got}", flush=True)
                bad += 1
    if bad:
        print(f"{bad} mismatch(es); expected.json left unchanged")
        return 1
    if not args.check:
        doc = {"about": "(refs, l1_misses, l2_misses) per point, NK=30; "
                        "written by paperbench/make_expected.py",
               "fields": ["refs", "l1_misses", "l2_misses"],
               "scalar_reference_cells": [
                   wl.point_key("JACOBI", s, n, l1, wl.PAPER_L2)
                   for s, l1 in SCALAR_CELLS],
               "points": table}
        with open(wl.EXPECTED_PATH, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(table)} points to {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
