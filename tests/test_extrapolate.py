"""Tests of exact steady-state K-plane extrapolation.

The mode's whole contract is *exactness*: wherever it fires it must
reproduce the full simulation's statistics bit for bit, and wherever
the structural preconditions fail it must fall back to full simulation
(with the reason recorded) rather than approximate. Tiny caches make a
plane wrap L2 at N~64, so the steady state appears — and these tests
run — in milliseconds.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.classify import MissClassifier
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.experiments.extrapolate import (
    ExtrapolationReport,
    simulate_extrapolated,
)
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import _schedule_for, run_point, sweep
from repro.kernels import KERNELS
from repro.perfmodel.machine import ULTRASPARC2_360

CFG = ExperimentConfig(l1=CacheParams(2048, 32, 1, "L1"),
                       l2=CacheParams(65536, 64, 1, "L2"),
                       machine=ULTRASPARC2_360, nk=8)


def point_setup(kernel, strategy, n, cfg=CFG):
    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    return kern, sel, _schedule_for(strategy, kernel, sel)


def run_extrapolated(kernel, strategy, n, cfg=CFG):
    kern, sel, schedule = point_setup(kernel, strategy, n, cfg)
    hier = CacheHierarchy(cfg.levels)
    return simulate_extrapolated(kern, sel, schedule, hier)


def run_full(kernel, strategy, n, cfg=CFG):
    kern, sel, schedule = point_setup(kernel, strategy, n, cfg)
    hier = CacheHierarchy(cfg.levels)
    return hier.run(kern.trace(sel, schedule))


def assert_same_stats(a, b):
    assert a.reads == b.reads and a.writes == b.writes
    for (na, sa), (nb, sb) in zip(a.levels, b.levels):
        assert (na, sa.accesses, sa.misses) == (nb, sb.accesses, sb.misses)


@pytest.mark.parametrize("kernel", ["JACOBI", "RESID", "REDBLACK"])
@pytest.mark.parametrize("n", [64, 100])
def test_fired_statistics_are_bit_identical(kernel, n):
    stats, report = run_extrapolated(kernel, "Orig", n)
    assert report.fired
    assert report.planes_skipped > 0
    assert report.reason is None
    assert_same_stats(stats, run_full(kernel, "Orig", n))


def test_redblack_detects_period_two():
    # Red and black half-sweeps alternate: consecutive planes differ
    # structurally, planes two apart repeat.
    _, report = run_extrapolated("REDBLACK", "Orig", 96)
    assert report.fired
    assert report.period == 2


def test_jacobi_detects_period_one():
    _, report = run_extrapolated("JACOBI", "Orig", 96)
    assert report.fired
    assert report.period == 1


def test_fallback_reason_tiled_schedule():
    stats, report = run_extrapolated("JACOBI", "GcdPad", 64)
    assert not report.fired
    assert report.reason == "tiled_schedule"
    assert report.planes_simulated == -1
    assert_same_stats(stats, run_full("JACOBI", "GcdPad", 64))


def test_fallback_reason_plane_stride():
    # 90*90*8 bytes is not a multiple of the 64-byte L2 line, so planes
    # do not shift tags by a whole number of lines.
    stats, report = run_extrapolated("JACOBI", "Orig", 90)
    assert not report.fired
    assert report.reason == "plane_stride"
    assert_same_stats(stats, run_full("JACOBI", "Orig", 90))


def test_fallback_reason_no_steady_state():
    # With the real 2MB L2 the whole tiny grid stays resident: tags
    # never recur shifted, and the run must complete unextrapolated.
    cfg = ExperimentConfig(machine=ULTRASPARC2_360, nk=8)
    stats, report = run_extrapolated("JACOBI", "Orig", 40, cfg)
    assert not report.fired
    assert report.planes_skipped == 0
    assert report.reason == "no_steady_state"
    assert_same_stats(stats, run_full("JACOBI", "Orig", 40, cfg))


def test_fallback_reason_classifiers():
    kern, sel, schedule = point_setup("JACOBI", "Orig", 64)
    hier = CacheHierarchy(CFG.levels)
    hier.attach_classifiers([MissClassifier(CFG.l1), None])
    stats, report = simulate_extrapolated(kern, sel, schedule, hier)
    assert not report.fired
    assert report.reason == "classifiers"
    assert_same_stats(stats, run_full("JACOBI", "Orig", 64))


def test_fallback_reason_level_not_direct_mapped():
    cfg = ExperimentConfig(l1=CFG.l1,
                           l2=CacheParams(65536, 64, 2, "L2"),
                           machine=ULTRASPARC2_360, nk=8)
    kern, sel, schedule = point_setup("JACOBI", "Orig", 64, cfg)
    _, report = simulate_extrapolated(kern, sel, schedule,
                                      CacheHierarchy(cfg.levels))
    assert not report.fired
    assert report.reason == "level_not_direct_mapped"


def test_report_is_frozen():
    report = ExtrapolationReport(fired=False, planes_simulated=0,
                                 planes_skipped=0, period=0,
                                 reason="no_steady_state")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.fired = True


def test_shifted_tags_roundtrip():
    params = CacheParams(2048, 32, 1, "L1")
    cache = DirectMappedCache(params)
    rng = np.random.default_rng(3)
    cache.access(rng.integers(0, 1 << 20, size=5000) * 8)
    base = cache.tags_snapshot()
    d = 192
    shifted = cache.shifted_tags(base, d)
    # Empty sets stay empty; occupied sets move by d lines exactly.
    assert ((base == -1).sum()) == ((shifted == -1).sum())
    assert not cache.tags_equal_shifted(base, d)
    cache.apply_tag_shift(d)
    assert cache.tags_equal_shifted(base, d)


def test_run_point_records_extrapolated_flag():
    fired = run_point("JACOBI", "Orig", 64, CFG,
                      policy=PointPolicy(extrapolate=True))
    assert fired.extrapolated
    plain = run_point("JACOBI", "Orig", 64, CFG)
    assert not plain.extrapolated
    assert (fired.l1_misses, fired.l2_misses, fired.refs) == \
        (plain.l1_misses, plain.l2_misses, plain.refs)


def test_run_point_extrapolate_fallback_not_flagged():
    r = run_point("JACOBI", "GcdPad", 64, CFG,
                  policy=PointPolicy(extrapolate=True))
    assert not r.extrapolated  # requested but structurally ineligible
    plain = run_point("JACOBI", "GcdPad", 64, CFG)
    assert (r.l1_misses, r.l2_misses) == (plain.l1_misses, plain.l2_misses)


def test_sweep_option_marks_points():
    pts = sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG,
                options=SweepOptions(extrapolate=True))
    assert pts["Orig"][0].extrapolated
    assert not pts["GcdPad"][0].extrapolated
    baseline = sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG)
    for strat in ("Orig", "GcdPad"):
        assert pts[strat][0].l1_misses == baseline[strat][0].l1_misses
        assert pts[strat][0].l2_misses == baseline[strat][0].l2_misses
