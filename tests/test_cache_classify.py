"""Tests for 3C miss classification (cold / conflict / capacity)."""

import numpy as np
import pytest

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.classify import MISS_CLASSES, MissClassifier
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.two_way import TwoWayCache
from repro.core.selector import select
from repro.errors import ConfigurationError
from repro.kernels import KERNELS
from repro.trace.runs import RunChunk


def tiny_params(size_bytes=256, line_bytes=16, assoc=1, name="L1"):
    return CacheParams(size_bytes=size_bytes, line_bytes=line_bytes,
                       assoc=assoc, name=name)


def classify_stream(params, addrs):
    """Run one level + classifier over a stream; return (stats, classifier)."""
    h = CacheHierarchy([params])
    cls = MissClassifier(params)
    h.attach_classifiers([cls])
    h.access(np.asarray(addrs, dtype=np.int64))
    return h.stats().levels[0][1], cls


class TestClassification:
    def test_first_touches_are_cold(self):
        st, cls = classify_stream(tiny_params(), [0, 16, 32])
        assert cls.counts == {"cold": 3, "conflict": 0, "capacity": 0}
        assert cls.total == st.misses == 3

    def test_conflict_when_shadow_hits(self):
        # 0 and 256 alias in a 256B direct-mapped cache but both fit a
        # fully associative cache of the same capacity (16 lines).
        p = tiny_params()
        st, cls = classify_stream(p, [0, 256, 0, 256, 0, 256])
        assert st.misses == 6
        assert cls.counts["cold"] == 2
        assert cls.counts["conflict"] == 4
        assert cls.counts["capacity"] == 0

    def test_capacity_when_working_set_overflows(self):
        # Cycle through 2x the capacity in LRU order: after the cold
        # pass every miss also misses in the fully associative shadow.
        p = tiny_params()
        lines = p.num_lines
        stream = list(range(0, 2 * lines * 16, 16)) * 3
        addrs = [a for a in stream]
        st, cls = classify_stream(p, addrs)
        assert cls.counts["cold"] == 2 * lines
        assert cls.counts["capacity"] == st.misses - 2 * lines
        assert cls.counts["conflict"] == 0

    def test_identity_holds_for_random_streams(self, rng):
        p = tiny_params()
        addrs = rng.integers(0, 4096, size=2000) * 8
        st, cls = classify_stream(p, addrs)
        assert cls.total == st.misses
        assert sum(cls.counts.values()) == st.misses
        assert set(cls.counts) == set(MISS_CLASSES)


class TestKernelIdentity:
    """The acceptance identity on real kernel traces, both levels."""

    @pytest.mark.parametrize("kernel", ["JACOBI", "RESID"])
    @pytest.mark.parametrize("strategy", ["Orig", "GcdPad"])
    def test_class_totals_equal_level_misses(self, kernel, strategy,
                                             tiny_config):
        from repro.core.selector import select
        from repro.kernels import KERNELS

        n = 12
        kern = KERNELS[kernel](n, tiny_config.nk)
        meta = kern.meta
        sel = select(strategy, tiny_config.cs, n, n,
                     mi=meta.mi, mj=meta.mj, atd=meta.atd)
        specs = kern.specs(sel.di_p, sel.dj_p)
        ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
                  for s in specs.values()]
        h = CacheHierarchy(tiny_config.levels)
        classifiers = [MissClassifier(p, ranges)
                       for p in tiny_config.levels]
        h.attach_classifiers(classifiers)
        stats = h.run(kern.trace(sel, trace_form="runs"))
        for (name, st), cls in zip(stats.levels, classifiers):
            assert cls.total == st.misses, name
            # Every miss address falls inside some kernel array.
            assert sum(cls.by_array.values()) == st.misses, name


class TestResetSemantics:
    def test_invalidate_keeps_seen_and_counts(self):
        p = tiny_params()
        cls = MissClassifier(p)
        h = CacheHierarchy([p])
        h.attach_classifiers([cls])
        h.access(np.array([0, 16]))
        h.invalidate()
        # Re-fetch after the flush: a miss, but not a cold one.
        h.access(np.array([0]))
        st = h.stats().levels[0][1]
        assert st.misses == 3
        assert cls.total == 3
        assert cls.counts["cold"] == 2

    def test_reset_forgets_everything(self):
        cls = MissClassifier(tiny_params())
        cls.classify(np.array([0, 16]), np.array([True, True]))
        cls.reset()
        assert cls.total == 0
        cls.classify(np.array([0]), np.array([True]))
        assert cls.counts["cold"] == 1  # cold again: history gone

    def test_hierarchy_reset_resets_classifiers(self):
        p = tiny_params()
        cls = MissClassifier(p)
        h = CacheHierarchy([p])
        h.attach_classifiers([cls])
        h.access(np.array([0]))
        h.reset()
        assert cls.total == 0

    def test_attach_validates_length(self):
        h = CacheHierarchy([tiny_params()])
        with pytest.raises(ConfigurationError):
            h.attach_classifiers([None, None])


class TestArrayAttribution:
    def test_misses_bucketed_by_range(self):
        p = tiny_params()
        arrays = [("A", 0, 1024), ("B", 1024, 2048)]
        cls = MissClassifier(p, arrays)
        addrs = np.array([0, 1024, 512, 1536])
        cls.classify(addrs, np.array([True, True, False, True]))
        assert cls.by_array == {"A": 1, "B": 2}

    def test_out_of_range_addresses_unattributed(self):
        cls = MissClassifier(tiny_params(), [("A", 0, 64)])
        cls.classify(np.array([0, 4096]), np.array([True, True]))
        assert cls.by_array == {"A": 1}
        assert cls.total == 2  # classification itself still counts both


# ----------------------------------------------------------------------
# Classifiers fed by run()'s batched engine vs per-chunk access()
# ----------------------------------------------------------------------

L2 = CacheParams(64 * 1024, 64, 1, "L2")
#: name -> (L1 params, simulator class run() must drive the L1 with).
L1_GEOMETRIES = {
    "direct_mapped": (CacheParams(2048, 32, 1, "L1"), DirectMappedCache),
    "two_way": (CacheParams(2048, 32, 2, "L1"), TwoWayCache),
    "four_way": (CacheParams(2048, 32, 4, "L1"), AssocScanCache),
    "scalar_reference": (CacheParams(2048, 32, 4, "L1"),
                         SetAssociativeCache),
}


def _point(kernel="JACOBI", strategy="Orig", n=80, nk=5):
    """A kernel point big enough for run chunks and several engine
    windows; N=80 makes the plane a multiple of the 2 KB L1, so the
    direct-mapped L1 sees conflict misses as well as capacity ones."""
    kern = KERNELS[kernel](n, nk)
    meta = kern.meta
    sel = select(strategy, 256, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    specs = kern.specs(sel.di_p, sel.dj_p)
    ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
              for s in specs.values()]
    return kern, sel, ranges


def _classified(geometry, ranges):
    """A two-level hierarchy (hand-built L1 where asked) + classifiers."""
    l1, sim = L1_GEOMETRIES[geometry]
    hier = CacheHierarchy([l1, L2])
    if not isinstance(hier.levels[0], sim):
        hier.levels[0] = sim(l1)
    classifiers = [MissClassifier(p, ranges) for p in (l1, L2)]
    hier.attach_classifiers(classifiers)
    return hier, classifiers


def _outcome(hier, classifiers):
    stats = hier.stats()
    return ([(st.accesses, st.misses) for _, st in stats.levels],
            [(cls.counts, cls.by_array) for cls in classifiers])


def _reference(geometry, chunks, ranges, invalidate_at=()):
    """Classification through the per-chunk access() loop."""
    hier, classifiers = _classified(geometry, ranges)
    for idx, chunk in enumerate(chunks):
        if idx in invalidate_at:
            hier.invalidate()
        hier.access(chunk.addresses, chunk.write_mask)
    return _outcome(hier, classifiers)


class TestEngineClassification:
    """3C and per-array counts are bit-identical whether the classifiers
    are fed from run()'s batched engine or from per-chunk access()."""

    @pytest.mark.parametrize("geometry", L1_GEOMETRIES)
    @pytest.mark.parametrize("form", ["flat", "runs"])
    def test_run_matches_access(self, geometry, form):
        kern, sel, ranges = _point()
        expect = _reference(geometry, kern.trace(sel), ranges)
        assert sum(expect[1][0][0].values()) == expect[0][0][1]
        for chunk_size in (None, 50_000, 4099):
            hier, classifiers = _classified(geometry, ranges)
            chunks = list(kern.trace(sel, chunk_size=chunk_size,
                                     trace_form=form))
            if form == "runs" and chunk_size != 4099:
                assert any(isinstance(c, RunChunk) for c in chunks)
            hier.run(iter(chunks))
            assert _outcome(hier, classifiers) == expect, chunk_size

    @pytest.mark.parametrize("geometry", L1_GEOMETRIES)
    def test_mid_stream_invalidate(self, geometry):
        """An invalidate() during run() flushes the engine's buffered
        windows into the classifiers before their shadows are cleared.

        Chunks hold ~2600 reads: chunk 9 follows one full 16K-address
        window and chunk 35 one full 64K associative-scan window, so at
        both the shadows have history and the engine has a remainder
        buffered."""
        kern, sel, ranges = _point()
        chunks = list(kern.trace(sel, chunk_size=3000))
        at = {9, 35}
        expect = _reference(geometry, chunks, ranges, invalidate_at=at)

        hier, classifiers = _classified(geometry, ranges)
        seen = []

        def on_chunk(chunk):
            if len(seen) in at:
                hier.invalidate()
            seen.append(chunk)

        hier.run(iter(chunks), on_chunk=on_chunk)
        assert _outcome(hier, classifiers) == expect
