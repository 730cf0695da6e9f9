"""Tests for the vectorized k-way LRU scan and the typed engine API.

``AssocScanCache`` is the generalization of the 2-way run-head trick:
partition by set, prepend the carried LRU stacks as ghost accesses,
compress duplicate runs, and resolve exact stack distances with a
segmented merge-count. Its contract is *bit-for-bit* equality with the
scalar :class:`SetAssociativeCache` reference — per-access miss masks,
not just totals — across associativities, chunk splits, window
boundaries, and mid-stream invalidation. The second half of the file
pins the single-home factory (:func:`build_simulator`) and the typed
``engine_support()`` report that replaced the old boolean
``engine_eligible()``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import build_simulator
from repro.cache.assoc_scan import AssocScanCache
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.tlb import tlb_params
from repro.cache.two_way import TwoWayCache

ASSOCS = (1, 2, 4, 8)


def params(assoc, size=1024, line=16):
    return CacheParams(size_bytes=size, line_bytes=line, assoc=assoc,
                       name=f"{assoc}w")


def mixed_trace(rng, n, line_bytes, span_lines):
    """Hot-set / strided / uniform phases, like real kernel traffic."""
    parts, remaining = [], n
    while remaining > 0:
        seg = min(int(rng.integers(50, 800)), remaining)
        kind = rng.integers(0, 3)
        if kind == 0:
            lines = rng.integers(0, span_lines, size=seg)
        elif kind == 1:
            start = int(rng.integers(0, span_lines))
            lines = (start + np.arange(seg)) % span_lines
        else:
            hot = rng.integers(0, span_lines, size=max(4, seg // 32))
            lines = rng.choice(hot, size=seg)
        offs = rng.integers(0, line_bytes, size=seg)
        parts.append(lines.astype(np.int64) * line_bytes + offs)
        remaining -= seg
    return np.concatenate(parts)


class TestBasics:
    def test_lru_eviction_order(self):
        # 1024B/16B/4-way: 16 sets; lines 0, 256, 512, 768, 1024 share
        # set 0 (stride = num_sets * line = 256).
        sc = AssocScanCache(params(4))
        miss = sc.access(np.array([0, 256, 512, 768, 0, 1024, 256]))
        # Four fills, 0 hits (MRU), 1024 evicts LRU(256), 256 misses.
        assert miss.tolist() == [True, True, True, True, False, True, True]

    def test_run_compression_hits(self):
        sc = AssocScanCache(params(4))
        miss = sc.access(np.array([0, 0, 0, 8, 8]))  # one line
        assert miss.tolist() == [True, False, False, False, False]

    def test_contains_and_resident_lines(self):
        sc = AssocScanCache(params(4))
        sc.access(np.array([0, 256]))
        assert sc.contains(0) and sc.contains(256)
        assert not sc.contains(512)
        assert sorted(sc.resident_lines().tolist()) == [0, 16]

    def test_reset_and_invalidate(self):
        sc = AssocScanCache(params(4))
        sc.access(np.array([0]))
        sc.invalidate()  # drops contents, keeps stats
        assert sc.stats.accesses == 1
        assert bool(sc.access(np.array([0]))[0])
        sc.reset()
        assert sc.stats.accesses == 0

    def test_direct_mapped_degenerate(self):
        """assoc=1 runs the compressed all-heads-miss short-circuit."""
        rng = np.random.default_rng(3)
        addrs = mixed_trace(rng, 4000, 16, 300)
        sc, dm = AssocScanCache(params(1)), DirectMappedCache(params(1))
        assert np.array_equal(sc.access(addrs), dm.access(addrs))


@st.composite
def trace(draw):
    n = draw(st.integers(1, 400))
    span = draw(st.sampled_from([512, 2048, 16384]))
    return np.asarray(draw(st.lists(st.integers(0, span - 1),
                                    min_size=n, max_size=n)),
                      dtype=np.int64)


class TestAgainstScalar:
    @pytest.mark.parametrize("assoc", ASSOCS)
    @given(addrs=trace())
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_lru(self, assoc, addrs):
        p = params(assoc)
        sc, sa = AssocScanCache(p), SetAssociativeCache(p)
        assert np.array_equal(sc.access(addrs), sa.access(addrs))

    @pytest.mark.parametrize("assoc", (2, 4, 8))
    @given(addrs=trace(), nchunks=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_chunking_invariance(self, assoc, addrs, nchunks):
        p = params(assoc)
        ref = AssocScanCache(p).access(addrs)
        chunked = AssocScanCache(p)
        parts = [chunked.access(c) for c in np.array_split(addrs, nchunks)]
        assert np.array_equal(np.concatenate(parts), ref)

    def test_fully_associative_tlb_geometry(self):
        """num_sets == 1 takes the partition-bypass path."""
        p = tlb_params(16, page_bytes=64)
        assert p.num_sets == 1
        rng = np.random.default_rng(11)
        addrs = mixed_trace(rng, 30_000, 64, 40)
        sc, sa = AssocScanCache(p), SetAssociativeCache(p)
        for chunk in np.array_split(addrs, 7):
            assert np.array_equal(sc.access(chunk), sa.access(chunk))
        assert sc.stats.accesses == sa.stats.accesses
        assert sc.stats.misses == sa.stats.misses

    @pytest.mark.parametrize("assoc", (4, 8))
    def test_state_carries_across_internal_windows(self, assoc):
        """Traces longer than the internal window keep exact LRU state."""
        from repro.cache.assoc_scan import _WINDOW

        p = params(assoc, size=4096, line=16)
        rng = np.random.default_rng(assoc)
        addrs = mixed_trace(rng, _WINDOW + 4111, 16,
                            int(1.5 * p.num_lines))
        sc, sa = AssocScanCache(p), SetAssociativeCache(p)
        assert np.array_equal(sc.access(addrs), sa.access(addrs))

    @pytest.mark.parametrize("assoc", (4, 8))
    def test_mid_stream_invalidate(self, assoc):
        p = params(assoc)
        rng = np.random.default_rng(17 + assoc)
        a = mixed_trace(rng, 6000, 16, 200)
        b = mixed_trace(rng, 6000, 16, 200)
        sc, sa = AssocScanCache(p), SetAssociativeCache(p)
        assert np.array_equal(sc.access(a), sa.access(a))
        sc.invalidate(), sa.invalidate()
        assert np.array_equal(sc.access(b), sa.access(b))
        assert (sc.stats.accesses, sc.stats.misses) == \
               (sa.stats.accesses, sa.stats.misses)

    def test_stencil_shaped_trace(self):
        """Regression against real kernel traffic, not just random."""
        from repro.kernels import Jacobi3D
        from repro.types import SelectionResult

        kern = Jacobi3D(40, 8)
        sel = SelectionResult(strategy="Orig", tile=None, di_p=40, dj_p=40)
        p = CacheParams(size_bytes=4096, line_bytes=32, assoc=4)
        sc, sa = AssocScanCache(p), SetAssociativeCache(p)
        for c in kern.trace(sel):
            assert np.array_equal(sc.access(c.read_addresses),
                                  sa.access(c.read_addresses))


class TestGroupedContract:
    """The caller-owns-stats interface the batched engine drives."""

    def test_access_grouped_matches_access(self):
        p = params(4)
        rng = np.random.default_rng(23)
        addrs = mixed_trace(rng, 8000, 16, 150)

        plain = AssocScanCache(p)
        expect = plain.access(addrs)

        grouped = AssocScanCache(p)
        lines = addrs // p.line_bytes
        sets = grouped.set_index(lines.copy())
        order = np.argsort(sets, kind="stable")
        bp = np.r_[0, np.cumsum(np.bincount(sets, minlength=p.num_sets))]
        miss_sorted, n_miss = grouped.access_grouped(lines[order], bp)
        miss = np.empty(addrs.size, dtype=bool)
        miss[order] = miss_sorted
        assert np.array_equal(miss, expect)
        assert n_miss == int(expect.sum())
        # Caller owns stats: access_grouped itself counts nothing.
        assert grouped.stats.accesses == 0


class TestFactory:
    def test_geometry_routing(self):
        assert isinstance(build_simulator(params(1)), DirectMappedCache)
        assert isinstance(build_simulator(params(2)), TwoWayCache)
        assert isinstance(build_simulator(params(4)), AssocScanCache)
        assert isinstance(build_simulator(tlb_params(8)), AssocScanCache)

    def test_scalar_reference_never_chosen(self):
        for assoc in ASSOCS:
            sim = build_simulator(params(assoc))
            assert not isinstance(sim, SetAssociativeCache)


class TestEngineSupport:
    L1 = CacheParams(1024, 32, 1, "L1")
    L2 = CacheParams(8 * 1024, 32, 1, "L2")

    def test_equal_line_sizes_take_per_level_mode(self):
        support = CacheHierarchy([self.L1, self.L2]).engine_support()
        assert [ls.mode for ls in support.levels] == ["per_level"] * 2
        assert support.level("L1").reason == "direct_mapped"

    def test_per_level_modes_and_reasons(self):
        levels = [CacheParams(1024, 16, 1, "L1"),
                  CacheParams(4 * 1024, 16, 2, "L2.2w"),
                  CacheParams(16 * 1024, 16, 4, "L3.4w"),
                  tlb_params(8)]
        support = CacheHierarchy(levels).engine_support()
        assert support.level("L1").mode == "per_level"
        assert support.level("L1").reason == "direct_mapped"
        assert support.level("L2.2w").mode == "assoc_scan"
        assert support.level("L2.2w").reason == "two_way_vectorized"
        assert support.level("L3.4w").mode == "assoc_scan"
        assert support.level("L3.4w").reason == "set_associative"
        tlb = support.levels[-1]
        assert (tlb.mode, tlb.reason) == ("assoc_scan", "fully_associative")
        with pytest.raises(KeyError):
            support.level("L9")

    def test_classifiers_keep_engine_routing(self):
        """Attached classifiers ride the engine: routes are unchanged and
        run() records the per_level/assoc_scan modes, never legacy."""
        from repro.cache.classify import MissClassifier
        from repro.obs import metrics

        levels = [self.L1, CacheParams(16 * 1024, 32, 4, "L2.4w")]
        plain = CacheHierarchy(levels)
        hier = CacheHierarchy(levels)
        classifiers = [MissClassifier(p) for p in levels]
        hier.attach_classifiers(classifiers)
        assert hier.engine_support() == plain.engine_support()
        assert [ls.mode for ls in hier.engine_support().levels] == \
            ["per_level", "assoc_scan"]

        addrs = mixed_trace(np.random.default_rng(5), 20_000, 32, 2000)
        with metrics.collect() as reg:
            stats = hier.run(iter(np.array_split(addrs, 3)))
        modes = {(r["labels"]["level"], r["labels"]["mode"])
                 for r in reg.snapshot()["counters"]
                 if r["name"] == "repro.cache.engine_level_mode"}
        assert modes == {("L1", "per_level"), ("L2.4w", "assoc_scan")}
        for (_, st), cls in zip(stats.levels, classifiers):
            assert st.misses > 0 and cls.total == st.misses

    def test_engine_eligible_shim_removed(self):
        """The deprecated ``engine_eligible()`` shim is gone for good."""
        hier = CacheHierarchy([self.L1, self.L2])
        assert not hasattr(hier, "engine_eligible")
        assert not hasattr(CacheHierarchy, "engine_eligible")
        # Nor is there a go/no-go bit or a run_mode echo left to consult.
        support = hier.engine_support()
        assert not hasattr(support, "eligible")
        assert not hasattr(support.levels[0], "run_reason")

    def test_run_support_modes_and_reasons(self):
        support = CacheHierarchy([self.L1, self.L2]).engine_support()
        l1 = support.level("L1")
        assert l1.run_mode == "materialize"
        # Deeper levels see the demand stream of the level above, never
        # the runs themselves.
        l2 = support.level("L2")
        assert l2.run_mode == "demand"

        # Every first-level simulator expands runs the same way.
        for assoc in (2, 4):
            hier = CacheHierarchy([CacheParams(4 * 1024, 16, assoc, "L1")])
            assert hier.engine_support().level("L1").run_mode == \
                "materialize"

    @pytest.mark.parametrize("assoc", (4, 64))
    def test_hierarchy_run_matches_scalar_with_assoc_level(self, assoc):
        """End-to-end: a k-way L1 under the engine equals the reference."""
        l1 = CacheParams(1024, 16, assoc, "L1")
        rng = np.random.default_rng(41 + assoc)
        addrs = mixed_trace(rng, 40_000, 16, 300)
        chunks = np.array_split(addrs, 5)

        stats = CacheHierarchy([l1, CacheParams(8 * 1024, 16, 1, "L2")]) \
            .run(iter(chunks))
        sims = [SetAssociativeCache(l1),
                SetAssociativeCache(CacheParams(8 * 1024, 16, 1, "L2"))]
        for chunk in chunks:
            cur = chunk
            for sim in sims:
                cur = cur[sim.access(cur)]
        for (_, st), sim in zip(stats.levels, sims):
            assert st.accesses == sim.stats.accesses
            assert st.misses == sim.stats.misses
