#!/usr/bin/env python
"""Non-conflicting time-skewed tiling (the paper's future work).

For simple stencil codes (one sweep inside a time loop — Figure 5 top),
tiling within a sweep leaves the big prize on the table: reuse *across*
time steps. This example runs T sweeps of 2D Jacobi two ways —

* plain: T full sweeps, the array re-read from memory every sweep;
* skewed: parallelogram tiles over (time, J) whose width is chosen with
  the paper's own conflict machinery so the tile's whole footprint
  (both ping-pong arrays, skew-widened) stays resident —

verifies they compute bitwise-identical grids, and compares simulated
miss rates.

Run:  python examples/time_skewing.py [T]
"""

import sys

import numpy as np

from repro import ExperimentConfig
from repro.cache import CacheHierarchy
from repro.experiments.report import format_table
from repro.timeskew import (
    SkewedSchedule,
    run_reference,
    run_skewed,
    select_skewed_tile,
)
from repro.timeskew.schedule import skewed_trace, untiled_trace


def main() -> None:
    tsteps = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    n, m = 64, 400
    cfg = ExperimentConfig()

    sel = select_skewed_tile(cfg.cs, n, m, tsteps)
    sched = SkewedSchedule(n, m, tsteps, sel.tj)
    print(f"Grid {n} x {m}, T = {tsteps} sweeps")
    print(f"Skewed tile: tj = {sel.tj}, footprint "
          f"{sel.footprint_columns} columns/array "
          f"({sel.footprint_elements} elements, C_s = {cfg.cs}), "
          f"conflict-free = {sel.conflict_free}\n")

    # Bitwise equivalence of the two schedules.
    rng = np.random.default_rng(11)
    b0 = rng.random((n, m))
    ref = run_reference(np.zeros((n, m)), b0.copy(), tsteps)
    skw = run_skewed(np.zeros((n, m)), b0.copy(), sched)
    print(f"bitwise identical results: {np.array_equal(ref, skw)}\n")

    rows = []
    for label, tracer in (("plain sweeps", untiled_trace),
                          ("time-skewed", skewed_trace)):
        st = CacheHierarchy(cfg.levels).run(tracer(sched))
        rows.append([label, f"{100 * st.global_miss_rate(0):.2f}",
                     f"{100 * st.global_miss_rate(1):.2f}"])
    print(format_table(["schedule", "L1 miss %", "L2 miss %"], rows,
                       title="Simulated miss rates (16K L1 / 2M L2)"))


if __name__ == "__main__":
    main()
