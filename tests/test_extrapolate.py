"""Tests of exact steady-state K-plane extrapolation.

The mode's whole contract is *exactness*: wherever it fires it must
reproduce the full simulation's statistics bit for bit, and wherever
the structural preconditions fail the runner must route the point to
full simulation (with the reason recorded) rather than approximate. Tiny caches make a
plane wrap L2 at N~64, so the steady state appears — and these tests
run — in milliseconds.
"""

import contextlib
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
    ineligibility,
    simulate_extrapolated,
)
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    _schedule_for,
    clear_cache,
    run_point,
    sweep,
)
from repro.kernels import KERNELS
from repro.obs import metrics
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


def ineligible_reason(kernel, strategy, n, cfg=CFG, classifiers=False):
    kern, sel, _ = point_setup(kernel, strategy, n, cfg)
    hier = CacheHierarchy(cfg.levels)
    if classifiers:
        hier.attach_classifiers([MissClassifier(cfg.l1), None])
    return ineligibility(sel, hier, kern.specs(sel.di_p, sel.dj_p))


def test_fallback_reason_tiled_schedule():
    assert ineligible_reason("JACOBI", "GcdPad", 64) == "tiled_schedule"


def test_fallback_reason_plane_stride():
    # 90*90*8 bytes is not a multiple of the 64-byte L2 line, so planes
    # do not shift tags by a whole number of lines.
    assert ineligible_reason("JACOBI", "Orig", 90) == "plane_stride"
    # RESID GcdPadNT pads only some arrays: mixed plane strides.
    assert ineligible_reason("RESID", "GcdPadNT", 64) == "plane_stride"


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
    assert ineligible_reason("JACOBI", "Orig", 64,
                             classifiers=True) == "classifiers"


def test_fallback_reason_level_not_direct_mapped():
    cfg = dataclasses.replace(CFG, l2=CacheParams(65536, 64, 2, "L2"))
    assert ineligible_reason("JACOBI", "Orig", 64,
                             cfg) == "level_not_direct_mapped"


def test_eligible_point_has_no_reason():
    assert ineligible_reason("JACOBI", "Orig", 64) is None


def test_ineligible_point_is_refused():
    kern, sel, schedule = point_setup("JACOBI", "GcdPad", 64)
    with pytest.raises(ValueError, match="tiled_schedule"):
        simulate_extrapolated(kern, sel, schedule,
                              CacheHierarchy(CFG.levels))


def test_skipped_planes_are_charged_to_on_chunk():
    # Budgets bound the trace, not its simulated part: every chunk of
    # a full simulation reaches on_chunk, skipped planes included.
    kern, sel, schedule = point_setup("JACOBI", "Orig", 72)
    seen = []
    stats, report = simulate_extrapolated(
        kern, sel, schedule, CacheHierarchy(CFG.levels),
        on_chunk=lambda c: seen.append(len(c)))
    assert report.planes_skipped > 0
    full = list(kern.trace(sel, schedule, trace_form="runs"))
    assert seen == [len(c) for c in full]
    assert sum(seen) == stats.demand_refs


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


STATIC_REASONS = ("tiled_schedule", "classifiers",
                  "level_not_direct_mapped", "plane_stride")

TWO_WAY = dataclasses.replace(CFG, l1=CacheParams(2048, 32, 2, "L1"))

ROUTES = [
    ("JACOBI", "Orig", CFG, False, "fired"),
    ("JACOBI", "GcdPadNT", CFG, False, "fired"),
    ("JACOBI", "Tile", CFG, False, "tiled_schedule"),
    ("REDBLACK", "Orig", CFG, False, "fired"),
    ("REDBLACK", "GcdPadNT", CFG, False, "fired"),
    ("REDBLACK", "Tile", CFG, False, "tiled_schedule"),
    ("RESID", "Orig", CFG, False, "fired"),
    ("RESID", "GcdPadNT", CFG, False, "plane_stride"),
    ("RESID", "Tile", CFG, False, "tiled_schedule"),
    ("RESID", "Orig", TWO_WAY, False, "level_not_direct_mapped"),
    ("RESID", "Orig", CFG, True, "classifiers"),
]


@pytest.fixture
def counters(monkeypatch):
    """Every ``metrics.inc`` call, recorded even with no registry."""
    calls: list[tuple[str, int, dict]] = []
    inc = metrics.inc

    def recording_inc(name, n=1, **labels):
        calls.append((name, n, labels))
        inc(name, n, **labels)

    monkeypatch.setattr(metrics, "inc", recording_inc)
    clear_cache()
    yield calls
    clear_cache()


def total(calls, name):
    return sum(n for nm, n, _ in calls if nm == name)


@pytest.mark.parametrize(
    "kernel, strategy, cfg, observed, expected", ROUTES,
    ids=[f"{k}-{s}-{'2way' if c is TWO_WAY else 'dm'}"
         f"{'-observed' if o else ''}" for k, s, c, o, _ in ROUTES])
def test_default_route_matches_full_simulation(counters, kernel, strategy,
                                               cfg, observed, expected):
    n = 64
    with metrics.collect() if observed else contextlib.nullcontext():
        point = run_point(kernel, strategy, n, cfg)
    routes = [labels for name, _, labels in counters
              if name == "repro.cache.extrapolation"]
    if expected in STATIC_REASONS:
        assert routes == [{"outcome": "fallback", "reason": expected}]
        # Routed-away points are fully simulated from run chunks.
        assert total(counters, "repro.trace.run_chunks") + total(
            counters, "repro.trace.run_fallback") == total(
            counters, "repro.trace.chunks") > 0
        if expected != "tiled_schedule":
            assert total(counters, "repro.trace.run_chunks") > 0
    else:
        assert routes == [{"outcome": expected, "reason": "none"}]
        assert total(counters,
                     "repro.cache.extrapolation_planes_skipped") > 0
    flat = run_point(kernel, strategy, n, cfg,
                     policy=PointPolicy(trace_form="flat"))
    assert (point.refs, point.l1_misses, point.l2_misses) == \
        (flat.refs, flat.l1_misses, flat.l2_misses)


def test_forced_trace_form_means_full_simulation(counters):
    run_point("JACOBI", "Orig", 64, CFG,
              policy=PointPolicy(trace_form="runs"))
    assert [labels for name, _, labels in counters
            if name == "repro.cache.extrapolation"] == \
        [{"outcome": "fallback", "reason": "trace_form"}]
    assert total(counters, "repro.cache.extrapolation_planes_skipped") == 0


def test_sweep_extrapolates_eligible_points(counters):
    # A small chunk bound splits each plane into several chunks.
    pts = sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG,
                options=SweepOptions(chunk_size=4096))
    assert [labels["reason"] for name, _, labels in counters
            if name == "repro.cache.extrapolation"] == \
        ["none", "tiled_schedule"]
    flat = sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG,
                 options=SweepOptions(trace_form="flat"))
    assert pts == flat
