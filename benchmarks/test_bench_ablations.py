"""Ablation benches for the paper's design arguments.

Each bench isolates one claim the paper makes qualitatively and checks
it holds in simulation:

* Section 2.2 — tiling *two* loops beats tiling all three (extra tile
  boundaries lose reuse);
* Section 2.3 / ATD — the array tile must span the stencil's K-reach;
  an under-deep tile forfeits the group reuse;
* Section 3.5 — cross-interference handling for RESID: padding only the
  reuse-carrying array (the default, as in the paper's MGRID study) vs
  naively padding all arrays vs adding inter-variable padding;
* write policy — the paper's write-around assumption vs write-allocate.
"""

import numpy as np
import pytest

from repro.cache.hierarchy import CacheHierarchy, WritePolicy
from repro.core.euc3d import euc3d
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.kernels import Jacobi3D, Resid, Schedule
from repro.layout.array import ArraySpec
from repro.trace.generator import trace_chunks
from repro.types import SelectionResult, TileSize

from conftest import emit

N = 300


def simulate(kern, sel, cfg, schedule=None, refs=None,
             write_policy=WritePolicy.WRITE_AROUND):
    hier = CacheHierarchy(cfg.levels, write_policy)
    if refs is None:
        chunks = kern.trace(sel, schedule)
    else:
        if schedule is None:
            schedule = Schedule.TILED if sel.tiled else Schedule.UNTILED
        tile = sel.tile
        chunks = trace_chunks(
            kern.iter_chunks(schedule, ti=tile.ti if tile else None,
                             tj=tile.tj if tile else None,
                             tk=sel.array_tile.tk if sel.array_tile else None),
            refs)
    st = hier.run(chunks)
    return 100 * st.global_miss_rate(0), 100 * st.global_miss_rate(1)


def test_two_loop_vs_three_loop_tiling(benchmark, out_dir, cfg):
    """Section 2.2: tiling only (J, I) preserves all reuse; tiling K too
    adds tile boundaries and loses some.

    Uses the *same* (TI, TJ) for both variants and a K extent deep
    enough that the third loop actually partitions K — otherwise a
    single K tile degenerates to the 2-loop schedule.
    """
    nk = 40
    kern = Jacobi3D(N, nk)
    two = select("Euc3D", cfg.cs, N, N, atd=3)
    tk = 8

    def run():
        l1_2, _ = simulate(kern, two, cfg, Schedule.TILED)
        from repro.types import ArrayTile

        three = SelectionResult(strategy="WolfLam3", tile=two.tile,
                                di_p=N, dj_p=N,
                                array_tile=ArrayTile(two.tile.ti,
                                                     two.tile.tj, tk))
        l1_3, _ = simulate(kern, three, cfg, Schedule.TILED_3LOOP)
        return l1_2, l1_3

    l1_2, l1_3 = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "ablation_2loop_vs_3loop", format_table(
        ["variant", "tile", "L1 miss %"],
        [["tile J,I (paper)", f"{two.tile.ti}x{two.tile.tj}", f"{l1_2:.2f}"],
         ["tile K,J,I (Wolf-Lam-style)",
          f"{two.tile.ti}x{two.tile.tj}x{tk}", f"{l1_3:.2f}"]]))
    assert l1_2 < l1_3


def test_array_tile_depth_matters(benchmark, out_dir, cfg):
    """An ATD below the stencil's 3-plane reach forfeits K-group reuse."""
    kern = Jacobi3D(N, cfg.nk)

    def run():
        rows = []
        for atd in (1, 2, 3, 4):
            sel = euc3d(cfg.cs, N, N, atd=atd)
            l1, _ = simulate(kern, sel, cfg, Schedule.TILED)
            rows.append((atd, sel.tile, l1))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "ablation_atd", format_table(
        ["ATD", "tile", "L1 miss %"],
        [[a, f"{t.ti}x{t.tj}", f"{l1:.2f}"] for a, t, l1 in rows]))
    by_atd = {a: l1 for a, _, l1 in rows}
    assert by_atd[3] < by_atd[1]


def test_resid_cross_interference_strategies(benchmark, out_dir, cfg):
    """Section 3.5: layout policy for RESID's three arrays under GcdPad."""
    kern = Resid(N, cfg.nk)
    sel = select("GcdPad", cfg.cs, N, N, mi=2, mj=2, atd=3)

    def layout(pad_all: bool):
        dims = {}
        base = 0
        for name in ("U", "V", "R"):
            if pad_all or name == "U":
                di, dj = sel.di_p, sel.dj_p
            else:
                di, dj = N, N
            spec = ArraySpec(name, di, dj, cfg.nk, base=base)
            dims[name] = spec
            base = spec.end
        return dims

    def run():
        out = {}
        out["pad U only (default)"] = simulate(
            kern, sel, cfg, Schedule.TILED, refs=kern.refs(layout(False)))
        out["pad all arrays"] = simulate(
            kern, sel, cfg, Schedule.TILED, refs=kern.refs(layout(True)))
        from repro.layout.padding import inter_variable_pads

        spread = inter_variable_pads(list(layout(True).values()), cfg.cs)
        out["pad all + inter-variable"] = simulate(
            kern, sel, cfg, Schedule.TILED,
            refs=kern.refs({s.name: s for s in spread}))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "ablation_cross_interference", format_table(
        ["layout", "L1 miss %", "L2 miss %"],
        [[k, f"{v[0]:.2f}", f"{v[1]:.2f}"] for k, v in out.items()]))
    # The default and the inter-padded layout must both beat naive
    # pad-everything (whose whole-cache tile gets sliced by V).
    assert out["pad U only (default)"][0] < out["pad all arrays"][0]
    assert out["pad all + inter-variable"][0] < out["pad all arrays"][0]


def test_write_policy_sensitivity(benchmark, out_dir, cfg):
    """Write-allocate lets A's writes interfere with B's reuse."""
    kern = Jacobi3D(N, cfg.nk)
    sel = SelectionResult(strategy="Orig", tile=None, di_p=N, dj_p=N)

    def run():
        around = simulate(kern, sel, cfg,
                          write_policy=WritePolicy.WRITE_AROUND)
        alloc = simulate(kern, sel, cfg,
                         write_policy=WritePolicy.WRITE_ALLOCATE)
        return around, alloc

    around, alloc = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "ablation_write_policy", format_table(
        ["policy", "L1 miss %", "L2 miss %"],
        [["write-around (paper)", f"{around[0]:.2f}", f"{around[1]:.2f}"],
         ["write-allocate", f"{alloc[0]:.2f}", f"{alloc[1]:.2f}"]]))
    assert around[0] != alloc[0]
