"""Tests for the TLB-as-cache model."""

import numpy as np
import pytest

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.tlb import ULTRASPARC2_DTLB, build_tlb, tlb_params
from repro.errors import CacheGeometryError


class TestGeometry:
    def test_fully_associative_default(self):
        p = tlb_params(64, 8192)
        assert p.num_sets == 1
        assert p.line_bytes == 8192
        assert p.num_lines == 64

    def test_set_associative_option(self):
        p = tlb_params(64, 8192, assoc=2)
        assert p.assoc == 2 and p.num_sets == 32

    def test_validation(self):
        with pytest.raises(CacheGeometryError):
            tlb_params(0)

    def test_preset(self):
        assert ULTRASPARC2_DTLB.num_lines == 64
        assert ULTRASPARC2_DTLB.is_fully_associative


class TestBehaviour:
    def test_build_tlb_picks_simulator(self):
        from repro.cache.two_way import TwoWayCache

        assert isinstance(build_tlb(tlb_params(8)), AssocScanCache)
        assert isinstance(build_tlb(tlb_params(8, assoc=2)), TwoWayCache)

    def test_sequential_walk_hits(self):
        """A unit-stride walk misses once per page."""
        tlb = build_tlb(tlb_params(4, page_bytes=64))
        addrs = np.arange(0, 256, 8)  # 4 pages, 8 accesses each
        miss = tlb.access(addrs)
        assert int(miss.sum()) == 4

    def test_wide_stride_thrashes(self):
        """Touching more pages than entries in rotation misses always."""
        tlb = build_tlb(tlb_params(4, page_bytes=64))
        pages = np.arange(6) * 64
        addrs = np.tile(pages, 10)
        miss = tlb.access(addrs)
        assert bool(miss.all())  # LRU + cyclic over-capacity = no hits

    def test_tile_width_tlb_tradeoff(self):
        """A tile touching <= entries columns-pages reuses translations;
        a wider tile does not — the Mitchell et al. interaction."""
        from repro.kernels import Jacobi3D, Schedule
        from repro.types import SelectionResult, TileSize

        kern = Jacobi3D(96, 6)  # each column 96*8 B; pages 8K
        narrow = SelectionResult("x", TileSize(90, 4), di_p=96, dj_p=96)
        wide = SelectionResult("x", TileSize(4, 90), di_p=96, dj_p=96)

        def tlb_miss_rate(sel):
            tlb = build_tlb(tlb_params(8, page_bytes=8192))
            total = misses = 0
            for c in kern.trace(sel, Schedule.TILED):
                m = tlb.access(c.addresses)
                misses += int(m.sum())
                total += m.size
            return misses / total

        assert tlb_miss_rate(wide) > 2 * tlb_miss_rate(narrow)
