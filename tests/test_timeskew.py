"""Tests for time-skewed tiling (the future-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TileSelectionError
from repro.timeskew import (
    SkewedSchedule,
    run_reference,
    run_skewed,
    select_skewed_tile,
    skewed_footprint_columns,
)
from repro.timeskew.schedule import skewed_trace, untiled_trace

from tests.helpers import collect_trace


class TestSchedule:
    @given(n=st.integers(3, 14), m=st.integers(3, 20),
           ts=st.integers(1, 6), tj=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_coverage_exactly_once(self, n, m, ts, tj):
        assert SkewedSchedule(n, m, ts, tj).coverage_ok()

    @given(n=st.integers(4, 12), m=st.integers(4, 16),
           ts=st.integers(1, 5), tj=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equals_reference(self, n, m, ts, tj):
        rng = np.random.default_rng(1)
        b0 = rng.random((n, m))
        r1 = run_reference(np.zeros((n, m)), b0.copy(), ts)
        r2 = run_skewed(np.zeros((n, m)), b0.copy(),
                        SkewedSchedule(n, m, ts, tj))
        assert np.array_equal(r1, r2)

    def test_windows_monotone_time_within_tile(self):
        sched = SkewedSchedule(8, 16, 4, 5)
        last = {}
        for jj, t, _, _ in sched.windows():
            if jj in last:
                assert t > last[jj]
            last[jj] = t

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SkewedSchedule(2, 10, 2, 3)
        with pytest.raises(ConfigurationError):
            SkewedSchedule(10, 10, 0, 3)
        with pytest.raises(ConfigurationError):
            SkewedSchedule(10, 10, 2, 0)

    def test_run_skewed_shape_check(self):
        sched = SkewedSchedule(6, 6, 2, 2)
        with pytest.raises(ConfigurationError):
            run_skewed(np.zeros((5, 6)), np.zeros((6, 6)), sched)


class TestTraces:
    def test_same_write_multiset(self):
        sched = SkewedSchedule(7, 11, 3, 4)
        a1, w1 = collect_trace(untiled_trace(sched))
        a2, w2 = collect_trace(skewed_trace(sched))
        assert sorted(a1[w1].tolist()) == sorted(a2[w2].tolist())
        assert a1.size == a2.size

    def test_write_count(self):
        sched = SkewedSchedule(7, 11, 3, 4)
        a, w = collect_trace(skewed_trace(sched))
        assert int(w.sum()) == (7 - 2) * (11 - 2) * 3

    def test_ping_pong_alternation(self):
        """Writes at even t target A, at odd t target B."""
        sched = SkewedSchedule(6, 6, 2, 10)  # one tile covers everything
        a, w = collect_trace(skewed_trace(sched))
        writes = a[w] // 8
        half = writes.size // 2
        grid = 6 * 6
        assert np.all(writes[:half] >= grid)   # A lives after B
        assert np.all(writes[half:] < grid)


class TestSelection:
    def test_footprint(self):
        assert skewed_footprint_columns(10, 4) == 15
        with pytest.raises(TileSelectionError):
            skewed_footprint_columns(0, 4)

    def test_conflict_free_fits_cache(self):
        t = select_skewed_tile(2048, 60, 200, 4)
        if t.conflict_free:
            assert t.footprint_elements <= 2048
        assert t.tj >= 1

    def test_pathological_falls_back(self):
        """n dividing C_s: full columns must alias -> capacity fallback."""
        t = select_skewed_tile(2048, 64, 64, 4)
        assert not t.conflict_free

    def test_more_time_steps_narrower_tiles(self):
        t2 = select_skewed_tile(2048, 60, 200, 2)
        t8 = select_skewed_tile(2048, 60, 200, 8)
        assert t8.tj <= t2.tj

    def test_validation(self):
        with pytest.raises(TileSelectionError):
            select_skewed_tile(0, 10, 10, 2)


class TestCacheWin:
    def test_time_reuse_reduces_misses(self):
        """The point of it all: skewing cuts L1 misses vs plain sweeps."""
        from repro.cache import CacheHierarchy, ULTRASPARC2_L1, ULTRASPARC2_L2

        n, m, ts = 64, 300, 6
        sel = select_skewed_tile(2048, n, m, ts)
        sched = SkewedSchedule(n, m, ts, sel.tj)
        levels = [ULTRASPARC2_L1, ULTRASPARC2_L2]
        plain = CacheHierarchy(levels).run(
            untiled_trace(sched)).global_miss_rate(0)
        skewed = CacheHierarchy(levels).run(
            skewed_trace(sched)).global_miss_rate(0)
        assert skewed < 0.6 * plain
