#!/usr/bin/env python
"""The three red-black SOR schedules of Figure 12, side by side.

Shows that the naive, fused, and tiled-fused schedules compute the
*bitwise identical* result while touching memory in radically different
orders — and simulates all three through the L1 to show why the paper
bothers: the naive schedule re-reads every plane per colour pass and
wastes half of each cache line, the fused one needs three planes
resident, and the tiled one needs only a tile.

Run:  python examples/redblack_schedules.py [N]
"""

import sys

import numpy as np

from repro import ExperimentConfig, RedBlack3D, Schedule, select
from repro.cache import CacheHierarchy
from repro.experiments.report import format_table
from repro.types import SelectionResult


def simulate(kern: RedBlack3D, schedule: Schedule, sel: SelectionResult,
             cfg: ExperimentConfig):
    st = CacheHierarchy(cfg.levels).run(kern.trace(sel, schedule))
    return (100 * st.global_miss_rate(0), 100 * st.global_miss_rate(1))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    cfg = ExperimentConfig()
    kern = RedBlack3D(n, cfg.nk)

    # Numerics: all three schedules agree bit for bit.
    small = RedBlack3D(17, 12)
    a_naive = small.solve(2, Schedule.UNTILED, seed=3)
    a_fused = small.solve(2, Schedule.FUSED, seed=3)
    a_tiled = small.solve(2, Schedule.TILED, tile=(5, 4), seed=3)
    print("bitwise equal (naive vs fused):",
          np.array_equal(a_naive, a_fused))
    print("bitwise equal (naive vs tiled):",
          np.array_equal(a_naive, a_tiled))

    # Memory behaviour: simulate one sweep of each schedule.
    gcd = select("GcdPad", cfg.cs, n, n, mi=2, mj=2, atd=4)
    untiled = SelectionResult(strategy="Orig", tile=None, di_p=n, dj_p=n)

    rows = []
    for label, schedule, sel in (
            ("naive (two passes)", Schedule.UNTILED, untiled),
            ("fused", Schedule.FUSED, untiled),
            ("tiled fused + GcdPad", Schedule.TILED, gcd)):
        l1, l2 = simulate(kern, schedule, sel, cfg)
        rows.append([label, f"{l1:.1f}", f"{l2:.2f}"])
    print()
    print(format_table(["schedule", "L1 miss %", "L2 miss %"], rows,
                       title=f"REDBLACK schedules at N={n} "
                             f"(16K L1 / 2M L2, write-around)"))


if __name__ == "__main__":
    main()
