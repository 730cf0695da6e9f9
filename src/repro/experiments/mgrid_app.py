"""Section 4.6: application-level impact of tiling MGRID's RESID.

The paper tiles RESID with GcdPad for the largest grid only and reports
a 6% total-execution-time improvement at the 130^3 reference size,
noting the untiled kernel's L1 miss rate at that size is a modest 6.8%.

Model here:

1. the V-cycle operator structure (how many resid/psinv/rprj3/interp
   invocations per level per iteration) is *measured* by running the
   real solver on a small hierarchy;
2. RESID's misses are *simulated* per level — untiled everywhere for the
   baseline, GcdPad-tiled at the finest level for the optimized variant
   (matching the paper, padding applied by re-declaring the finest
   array);
3. the other operators' misses are estimated as streaming traffic
   (one miss per cache line of data touched) — identical in both
   variants, so they dilute but never bias the improvement;
4. total time comes from the machine model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.kernels import Schedule
from repro.kernels.resid import Resid
from repro.multigrid.hierarchy import GridHierarchy
from repro.multigrid.solver import MGSolver
from repro.perfmodel.model import RunCounts, predict

__all__ = ["MgridAppResult", "mgrid_app", "format_mgrid_app"]

#: Per-point costs (flops, refs) of each operator, from its stencil.
OP_COSTS = {
    "resid": (31.0, 29),
    "psinv": (30.0, 29),
    "rprj3": (34.0, 28),
    "interp": (7.0, 9),
}


@dataclass(frozen=True)
class MgridAppResult:
    finest_n: int
    baseline_seconds: float
    tiled_seconds: float
    resid_share: float          # fraction of baseline time in finest RESID
    finest_resid_l1_rate: float  # untiled, %
    improvement_pct: float
    tile: tuple[int, int]
    padded_dims: tuple[int, int]


def _op_structure(iterations: int) -> dict[int, dict[str, int]]:
    """Measure per-relative-level op counts by running a tiny real solve.

    Returns {depth_below_finest: {op: count}} for the given iteration
    count; the structure is size-independent (same V-cycle shape).
    """
    h = GridHierarchy(finest_level=4, coarsest_level=2)
    rng = np.random.default_rng(0)
    n = h.finest_size
    v = np.zeros((n, n, n))
    v[1:-1, 1:-1, 1:-1] = rng.standard_normal((n - 2,) * 3)
    solver = MGSolver(h)
    solver.solve(v, iterations=iterations)
    fin = h.finest_level
    return {fin - lvl: dict(ops) for lvl, ops in solver.ops.counts.items()}


def _resid_sim(n: int, strategy: str, cfg: ExperimentConfig
               ) -> tuple[int, int, int, tuple, tuple]:
    """Simulate one cubic RESID sweep; returns misses and geometry."""
    kern = Resid(n, n, elem_bytes=cfg.elem_bytes)
    sel = select(strategy, cfg.cs, n, n, mi=kern.meta.mi, mj=kern.meta.mj,
                 atd=kern.meta.atd)
    schedule = Schedule.TILED if sel.tiled else Schedule.UNTILED
    st = CacheHierarchy(cfg.levels).run(kern.trace(sel, schedule))
    tile = sel.tile.as_tuple() if sel.tile else (0, 0)
    return (st.misses(0), st.misses(1), st.demand_refs,
            tile, (sel.di_p, sel.dj_p))


def _streaming_counts(points: int, flops_per: float, refs_per: int,
                      cfg: ExperimentConfig) -> RunCounts:
    """Streaming-op model: every line of touched data misses once."""
    refs = refs_per * points
    l1 = points // cfg.l1.line_elements(cfg.elem_bytes)
    l2 = points // cfg.l2.line_elements(cfg.elem_bytes)
    return RunCounts(iterations=points, flops=flops_per * points,
                     refs=refs, l1_misses=l1, l2_misses=l2)


def mgrid_app(finest_level: int = 7, coarsest_level: int = 2,
              iterations: int = 4,
              cfg: ExperimentConfig | None = None,
              tile_levels: str = "finest") -> MgridAppResult:
    """Model MGRID total time, baseline vs RESID-tiled.

    ``finest_level=7`` gives a 129^3 grid — the reference-class size the
    paper reports (130^3 in NAS's 2^k+2 convention).

    ``tile_levels`` selects the optimized variant: ``"finest"`` tiles
    only the largest grid's RESID (the paper's Section 4.6 experiment);
    ``"all"`` tiles RESID at every level, modeling the paper's "we
    expect additional improvements to arise from tiling the remaining
    subroutines" expectation. Euc3D's cheapness is what makes per-level
    selection plausible in the first place.
    """
    if tile_levels not in ("finest", "all"):
        raise ValueError(f"tile_levels must be 'finest' or 'all', "
                         f"got {tile_levels!r}")
    cfg = cfg or ExperimentConfig()
    h = GridHierarchy(finest_level=finest_level,
                      coarsest_level=coarsest_level)
    structure = _op_structure(iterations)

    total = {"base": 0.0, "tiled": 0.0}
    finest_resid_base = 0.0
    finest_resid_rate = 0.0
    tile = (0, 0)
    padded = (0, 0)

    for depth, ops in structure.items():
        level = finest_level - depth
        if level < coarsest_level:
            continue  # the tiny probe solve had a deeper hierarchy tail
        # NAS MGRID declares grids as (2^l + 2)^3 — the reference input is
        # 130^3, not 129^3 — so the cache simulation uses those dims.
        n = (1 << level) + 2
        points = max(1, (n - 2)) ** 3
        resid_sim = _resid_sim(n, "Orig", cfg)
        for op, count in ops.items():
            flops_per, refs_per = OP_COSTS[op]
            if op in ("resid", "psinv"):
                # psinv is the same 27-point traffic pattern as resid and
                # is never tiled in either variant.
                l1b, l2b, refs, _, _ = resid_sim
                base_counts = RunCounts(iterations=points,
                                        flops=flops_per * points,
                                        refs=refs, l1_misses=l1b,
                                        l2_misses=l2b)
                tile_here = (op == "resid"
                             and (depth == 0 or tile_levels == "all"))
                if tile_here:
                    l1t, l2t, refst, this_tile, this_pad = _resid_sim(
                        n, "GcdPad", cfg)
                    tiles = (math.ceil((n - 2) / this_tile[0])
                             * math.ceil((n - 2) / this_tile[1]))
                    tiled_counts = RunCounts(iterations=points,
                                             flops=flops_per * points,
                                             refs=refst, l1_misses=l1t,
                                             l2_misses=l2t, tiles=tiles)
                    if depth == 0:
                        tile, padded = this_tile, this_pad
                        finest_resid_rate = 100.0 * l1b / refs
                else:
                    tiled_counts = base_counts
            else:
                base_counts = _streaming_counts(points, flops_per,
                                                refs_per, cfg)
                tiled_counts = base_counts
            tb = predict(base_counts, cfg.machine).seconds * count
            tt = predict(tiled_counts, cfg.machine).seconds * count
            total["base"] += tb
            total["tiled"] += tt
            if op == "resid" and depth == 0:
                finest_resid_base += tb

    improvement = 100.0 * (total["base"] - total["tiled"]) / total["base"]
    return MgridAppResult(
        finest_n=(1 << finest_level) + 2,
        baseline_seconds=total["base"],
        tiled_seconds=total["tiled"],
        resid_share=finest_resid_base / total["base"],
        finest_resid_l1_rate=finest_resid_rate,
        improvement_pct=improvement,
        tile=tile,
        padded_dims=padded,
    )


def format_mgrid_app(r: MgridAppResult) -> str:
    return "\n".join([
        f"MGRID application study (finest grid {r.finest_n}^3):",
        f"  untiled finest RESID L1 miss rate : {r.finest_resid_l1_rate:.1f}%",
        f"  finest RESID share of total time  : {100 * r.resid_share:.1f}%",
        f"  GcdPad tile {r.tile}, padded dims {r.padded_dims}",
        f"  modeled time: base {r.baseline_seconds:.3f}s -> "
        f"tiled {r.tiled_seconds:.3f}s",
        f"  total-execution improvement      : {r.improvement_pct:.1f}% "
        f"(paper: 6%)",
    ])
