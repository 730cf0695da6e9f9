"""The three paper-density workloads, their seeded inputs and their checks.

Every point runs at the paper's scale: NK=30 on the 16K/32B direct-mapped
L1 and the 2M/64B direct-mapped L2 (the lattice varies only the L1's
ways and line). Each workload has one fixed set of points, so every seed
simulates the same work; a seed picks the order the points run in (see
:func:`pick`). ``expected.json`` holds ``(refs, l1_misses, l2_misses)``
for every point.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper-dm", "lattice-assoc", "durable-observed")

#: The paper's Figures 14-19 strategies (``figure_series`` order).
FIGURE_STRATEGIES = ("Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT")
PAPER_KERNELS = ("JACOBI", "REDBLACK", "RESID")
#: ``run_lattice`` defaults, spelled out so the expected table can key them.
LATTICE_STRATEGIES = ("Orig", "GcdPad", "Pad")
LATTICE_ASSOCS = (1, 2, 4)
LATTICE_LINES = (32, 64)
NK = 30

#: ``paper-dm``: the Table 3 block (Figures 14-19) at the bottom of the
#: paper's N grid, and RESID Orig and GcdPad at the bottom of Figures
#: 20-21's, where three planes of an array (3.8 MB) exceed the 2 MB L2.
PAPER_DM_N, PAPER_DM_N_LARGE = 200, 400
#: ``lattice-assoc`` and ``durable-observed`` run below the paper's grid,
#: so that a timed run fits three passes of each: the associative L1s
#: and the observed engine (legacy, classifiers attached) cost more per
#: address than the direct-mapped one.
LATTICE_N = 150
DURABLE_N = (150,)

DEFAULT_SEED = 0


def _shuffled(items, rng: random.Random | None) -> tuple:
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return tuple(items)


def pick(workload: str, seed: int):
    """A workload's inputs for ``seed``: its points, in a seeded order.

    The default seed keeps the canonical order. The sizes are the same
    for every seed: the simulator's cost is far from smooth in N (the
    lattice costs 1.6x as much at N=160 as at N=150, the 18-point block
    4x as much at N=310 as at N=300), so seeds that drew sizes would move
    ``wall_s`` by more than its bound. ``durable-observed`` runs one CLI
    command whose order the benchmark does not choose; its seed changes
    nothing.
    """
    rng = (None if seed == DEFAULT_SEED
           else random.Random(f"{workload}:{seed}"))
    if workload == "paper-dm":
        return _shuffled(paper_dm_points(), rng)
    if workload == "lattice-assoc":
        return (LATTICE_N, _shuffled(LATTICE_STRATEGIES, rng),
                _shuffled(LATTICE_ASSOCS, rng), _shuffled(LATTICE_LINES, rng))
    return DURABLE_N


def paper_dm_points() -> list[tuple[str, str, int]]:
    pts = [(k, s, PAPER_DM_N) for k in PAPER_KERNELS
           for s in FIGURE_STRATEGIES]
    return pts + [("RESID", "Orig", PAPER_DM_N_LARGE),
                  ("RESID", "GcdPad", PAPER_DM_N_LARGE)]


def durable_points(sizes) -> list[tuple[str, str, int]]:
    return [("JACOBI", s, n) for s in FIGURE_STRATEGIES for n in sizes]


# ----------------------------------------------------------------------
# geometry and the expected table
# ----------------------------------------------------------------------

#: (size_bytes, line_bytes, assoc) of the paper's two levels.
PAPER_L1 = (16384, 32, 1)
PAPER_L2 = (2097152, 64, 1)


def geometry(params) -> tuple[int, int, int]:
    return (params.size_bytes, params.line_bytes, params.assoc)


def point_key(kernel: str, strategy: str, n: int, l1, l2,
              nk: int = NK) -> str:
    """Expected-table key; ``l1``/``l2`` are ``(size, line, assoc)``."""
    fmt = ":".join
    return (f"{kernel}/{strategy}/{n}/nk={nk}"
            f"/L1={fmt(map(str, l1))}/L2={fmt(map(str, l2))}")


def lattice_keys(n: int) -> list[tuple[str, tuple, str]]:
    """``(strategy, l1 geometry, key)`` for every JACOBI lattice cell."""
    out = []
    for line in LATTICE_LINES:
        for assoc in LATTICE_ASSOCS:
            l1 = (PAPER_L1[0], line, assoc)
            for s in LATTICE_STRATEGIES:
                out.append((s, l1, point_key("JACOBI", s, n, l1, PAPER_L2)))
    return out


def all_keys() -> dict[str, tuple]:
    """Every expected-table key, mapped to ``(kernel, strategy, n, l1)``."""
    keys = {}
    for k, s, n in paper_dm_points() + durable_points(DURABLE_N):
        keys[point_key(k, s, n, PAPER_L1, PAPER_L2)] = (k, s, n, PAPER_L1)
    for s, l1, key in lattice_keys(LATTICE_N):
        keys[key] = ("JACOBI", s, LATTICE_N, l1)
    return keys


def load_expected() -> dict[str, list[int]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["points"]


def check_point(expected: dict, key: str, *, nk: int, degraded: bool,
                refs: int, l1_misses: int, l2_misses: int) -> str | None:
    """Why this point fails, or ``None`` when it is valid and correct."""
    if nk != NK:
        return f"{key}: ran at NK={nk}, not {NK}"
    if degraded:
        return f"{key}: degraded to the analytic model"
    want = expected.get(key)
    if want is None:
        return f"{key}: no expected statistics"
    got = [refs, l1_misses, l2_misses]
    if got != want:
        return f"{key}: (refs, l1_misses, l2_misses) {got} != {want}"
    return None
