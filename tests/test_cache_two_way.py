"""Tests for the vectorized 2-way LRU simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.two_way import TwoWayCache
from repro.errors import CacheGeometryError


def params(size=512, line=16):
    return CacheParams(size_bytes=size, line_bytes=line, assoc=2)


class TestBasics:
    def test_pair_retention(self):
        # 512B/16B/2-way: 16 sets; 0, 256, 512 share set 0.
        tw = TwoWayCache(params())
        miss = tw.access(np.array([0, 256, 0, 256, 512, 0]))
        # 0 m, 256 m, both hits, 512 evicts LRU(0)... after hits order
        # is (LRU 0, MRU 256) -> wait: 0 m, 256 m, 0 h (MRU 0), 256 h
        # (MRU 256), 512 m evicts 0, 0 m.
        assert miss.tolist() == [True, True, False, False, True, True]

    def test_run_compression_hits(self):
        tw = TwoWayCache(params())
        miss = tw.access(np.array([0, 0, 0, 8, 8]))  # one line
        assert miss.tolist() == [True, False, False, False, False]

    def test_contains(self):
        tw = TwoWayCache(params())
        tw.access(np.array([0, 256]))
        assert tw.contains(0) and tw.contains(256)
        assert not tw.contains(512)

    def test_reset(self):
        tw = TwoWayCache(params())
        tw.access(np.array([0]))
        tw.reset()
        assert tw.stats.accesses == 0
        assert tw.access(np.array([0]))[0]

    def test_rejects_wrong_assoc(self):
        with pytest.raises(CacheGeometryError):
            TwoWayCache(CacheParams(size_bytes=512, line_bytes=16, assoc=1))


@st.composite
def trace(draw):
    n = draw(st.integers(1, 500))
    span = draw(st.sampled_from([1024, 4096, 32768]))
    return np.asarray(draw(st.lists(st.integers(0, span - 1),
                                    min_size=n, max_size=n)),
                      dtype=np.int64)


class TestAgainstScalar:
    @given(addrs=trace())
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_lru(self, addrs):
        p = params()
        tw = TwoWayCache(p)
        sa = SetAssociativeCache(p)
        assert np.array_equal(tw.access(addrs), sa.access(addrs))

    @given(addrs=trace(), nchunks=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_chunking_invariance(self, addrs, nchunks):
        p = params()
        whole = TwoWayCache(p)
        ref = whole.access(addrs)
        chunked = TwoWayCache(p)
        parts = [chunked.access(c) for c in np.array_split(addrs, nchunks)]
        assert np.array_equal(np.concatenate(parts), ref)

    def test_stencil_shaped_trace(self):
        """Regression against real kernel traffic, not just random."""
        from repro.kernels import Jacobi3D
        from repro.types import SelectionResult

        kern = Jacobi3D(40, 8)
        sel = SelectionResult(strategy="Orig", tile=None, di_p=40, dj_p=40)
        p = CacheParams(size_bytes=4096, line_bytes=32, assoc=2)
        tw, sa = TwoWayCache(p), SetAssociativeCache(p)
        for c in kern.trace(sel):
            assert np.array_equal(tw.access(c.read_addresses),
                                  sa.access(c.read_addresses))


class TestHierarchyIntegration:
    def test_build_simulator_picks_two_way(self):
        from repro.cache.factory import build_simulator

        lvl = build_simulator(params())
        assert isinstance(lvl, TwoWayCache)

    def test_two_way_absorbs_direct_mapped_conflicts(self):
        """The motivating comparison: a ping-pong conflict pattern."""
        from repro.cache.direct_mapped import DirectMappedCache

        dm = DirectMappedCache(CacheParams(size_bytes=512, line_bytes=16,
                                           assoc=1))
        tw = TwoWayCache(params())
        pattern = np.tile(np.array([0, 512]), 100)
        dm_miss = int(dm.access(pattern).sum())
        tw_miss = int(tw.access(pattern).sum())
        assert dm_miss == 200  # every access conflicts
        assert tw_miss == 2    # both lines co-reside
