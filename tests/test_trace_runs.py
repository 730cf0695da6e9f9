"""Tests for affine run-compressed traces (``repro.trace.runs``).

The contract under test is absolute: every consumer must see the exact
interleaved reference stream whether a chunk arrives materialized or as
``(base, stride, count)`` runs, and the cache engine must produce
bit-for-bit the same statistics from runs as from the flat path — and
as the scalar :class:`SetAssociativeCache` reference — across kernels,
strategies, geometries, chunk splits, and mid-stream invalidation.
"""

import numpy as np
import pytest

import repro.trace.runs as runs_mod
from repro.cache.hierarchy import CacheHierarchy, WritePolicy
from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.selector import select
from repro.errors import TraceError
from repro.experiments.runner import _schedule_for
from repro.kernels import KERNELS
from repro.layout.array import allocate
from repro.obs import metrics
from repro.trace.generator import (Ref, TraceChunk, _refs_by_spec,
                                   trace_chunks)
from repro.trace.runs import (MIN_CHUNK_ADDRESSES, MIN_RUN_LENGTH, RunChunk,
                              compress_iter_chunk, materialize_runs)

GEOMETRIES = {
    "std":    [CacheParams(16384, 32, 1, "L1"),
               CacheParams(1 << 20, 64, 1, "L2")],
    "wide64": [CacheParams(16384, 64, 1, "L1"),
               CacheParams(1 << 20, 64, 1, "L2")],
    "wide64_2way": [CacheParams(16384, 64, 2, "L1"),
                    CacheParams(1 << 20, 64, 1, "L2")],
    "wide64_4way": [CacheParams(16384, 64, 4, "L1"),
                    CacheParams(1 << 20, 64, 1, "L2")],
    "assoc4": [CacheParams(16384, 32, 4, "L1"),
               CacheParams(1 << 20, 64, 4, "L2")],
    "l1only": [CacheParams(16384, 32, 1, "L1")],
    "micro":  [CacheParams(512, 32, 1, "L1"),
               CacheParams(4096, 32, 1, "L2")],
}

KERNEL_STRATEGIES = [(k, s) for k in ("JACOBI", "RESID", "REDBLACK", "PSINV")
                     for s in ("Orig", "GcdPad")]


def _kernel_chunks(kernel, strategy, n, nk, form):
    k = KERNELS[kernel](n, nk)
    sel = select(strategy, 16384, n, n,
                 mi=k.meta.mi, mj=k.meta.mj, atd=k.meta.atd)
    sched = _schedule_for(strategy, kernel, sel)
    return k.trace(sel, schedule=sched, trace_form=form)


def _run_stats(kernel, strategy, n, nk, form, geometry):
    hier = CacheHierarchy(GEOMETRIES[geometry], WritePolicy.WRITE_AROUND)
    st = hier.run(_kernel_chunks(kernel, strategy, n, nk, form))
    return (st.reads, st.writes,
            tuple((name, s.accesses, s.misses) for name, s in st.levels))


def _scalar_stats(kernel, strategy, n, nk, geometry):
    """The same point through the scalar write-around reference stack."""
    sims = [SetAssociativeCache(p) for p in GEOMETRIES[geometry]]
    reads = writes = 0
    for chunk in _kernel_chunks(kernel, strategy, n, nk, "flat"):
        addrs, w = chunk.addresses, chunk.write_mask
        nw = int(np.count_nonzero(w))
        reads += addrs.size - nw
        writes += nw
        cur = addrs[~w]
        for sim in sims:
            cur = cur[sim.access(cur)]
    return (reads, writes,
            tuple((p.name, sim.stats.accesses, sim.stats.misses)
                  for p, sim in zip(GEOMETRIES[geometry], sims)))


def _interleaved_rows(n_rows, n_cols, eb=8):
    """Synthetic i/j/k for ``n_cols`` rows of ``n_rows`` unit-stride
    iterations each (the untiled-interior shape)."""
    i = np.tile(np.arange(1, n_rows + 1, dtype=np.int64), n_cols)
    j = np.repeat(np.arange(1, n_cols + 1, dtype=np.int64), n_rows)
    k = np.ones(n_rows * n_cols, dtype=np.int64)
    return i, j, k


def _two_array_refs(n, elem_bytes=8):
    specs = allocate([("B", n, n, n), ("A", n, n, n)],
                     elem_bytes=elem_bytes)
    return [Ref(specs["B"], -1, 0, 0), Ref(specs["B"], 1, 0, 0),
            Ref(specs["B"], 0, 0, 0),
            Ref(specs["A"], 0, 0, 0, is_write=True)]


class TestMaterializeRuns:
    def test_matches_naive_expansion(self):
        rng = np.random.default_rng(7)
        counts = np.array([5, 1, 12, 3], dtype=np.int64)
        strides = np.array([8, 0, 16, 8], dtype=np.int64)
        bases = rng.integers(0, 1 << 20, size=(4, 3)).astype(np.int64)
        out = materialize_runs(bases, strides, counts)
        rows = [bases[g] + t * strides[g]
                for g in range(4) for t in range(counts[g])]
        assert np.array_equal(out, np.stack(rows))

    def test_empty(self):
        out = materialize_runs(np.empty((0, 4), dtype=np.int64),
                               np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64))
        assert out.shape == (0, 4)

    def test_runchunk_roundtrip_properties(self):
        bases = np.array([[0, 100], [64, 264]], dtype=np.int64)
        chunk = RunChunk(bases, np.array([8, 8], dtype=np.int64),
                         np.array([4, 6], dtype=np.int64),
                         np.array([False, True]))
        assert chunk.n_segments == 2 and chunk.n_refs == 2
        assert chunk.n_iters == 10 and chunk.n_addresses == 20
        assert len(chunk) == 20 and chunk.n_runs == 4
        assert chunk.reads == 10 and chunk.writes == 10
        assert np.array_equal(chunk.read_bases, bases[:, :1])
        mat = chunk.materialize()
        assert isinstance(mat, TraceChunk)
        assert mat.matrix.shape == (10, 2)
        assert mat.matrix[1].tolist() == [8, 108]


class TestCompressIterChunk:
    def test_untiled_rows_compress_and_roundtrip(self):
        n_rows, n_cols = 200, 50
        i, j, k = _interleaved_rows(n_rows, n_cols)
        refs = _two_array_refs(256)
        chunk = compress_iter_chunk(i, j, k, _refs_by_spec(refs),
                                    len(refs),
                                    np.array([r.is_write for r in refs]))
        assert isinstance(chunk, RunChunk)
        assert chunk.n_segments == n_cols
        assert np.all(chunk.strides == 8)
        assert np.all(chunk.counts == n_rows)
        flat = next(iter(trace_chunks(iter([(i, j, k)]), refs,
                                      max_addresses=0)))
        assert np.array_equal(chunk.materialize().matrix, flat.matrix)
        assert np.array_equal(chunk.wmask_row, flat.wmask_row)

    def test_stride2_rows_compress(self):
        # REDBLACK-style rows: I advances by 2 within a color's row.
        n_rows, n_cols = 100, 100
        i, j, k = _interleaved_rows(n_rows, n_cols)
        i = 2 * i - 1
        refs = _two_array_refs(256)
        chunk = compress_iter_chunk(i, j, k, _refs_by_spec(refs),
                                    len(refs),
                                    np.array([r.is_write for r in refs]))
        assert isinstance(chunk, RunChunk)
        assert np.all(chunk.strides == 16)
        flat = next(iter(trace_chunks(iter([(i, j, k)]), refs,
                                      max_addresses=0)))
        assert np.array_equal(chunk.materialize().matrix, flat.matrix)

    def test_small_chunk_falls_back(self):
        i, j, k = _interleaved_rows(64, 2)
        refs = _two_array_refs(128)
        assert 64 * 2 * len(refs) < MIN_CHUNK_ADDRESSES
        assert compress_iter_chunk(i, j, k, _refs_by_spec(refs), len(refs),
                                   np.array([r.is_write for r in refs])
                                   ) == "small_chunk"

    def test_irregular_chunk_falls_back(self):
        rng = np.random.default_rng(3)
        i, j, k = _interleaved_rows(200, 50)
        perm = rng.permutation(i.size)
        refs = _two_array_refs(256)
        assert compress_iter_chunk(i[perm], j[perm], k[perm],
                                   _refs_by_spec(refs), len(refs),
                                   np.array([r.is_write for r in refs])
                                   ) == "low_compression"

    def test_mixed_elem_bytes_falls_back(self):
        i, j, k = _interleaved_rows(2048, 8)
        s8 = allocate([("A", 64, 64, 64)], elem_bytes=8)
        s4 = allocate([("B", 64, 64, 64)], elem_bytes=4)
        refs = [Ref(s8["A"], 0, 0, 0), Ref(s4["B"], 0, 0, 0)]
        assert compress_iter_chunk(i, j, k, _refs_by_spec(refs), len(refs),
                                   np.array([False, False])
                                   ) == "mixed_elem_bytes"


class TestGeneratorRunsForm:
    def test_stream_equivalence_and_mixed_forms(self):
        # A 128-plane is ~63k addresses for 4 refs, comfortably past
        # the MIN_CHUNK_ADDRESSES floor, so runs really get emitted.
        refs = _two_array_refs(128)
        from repro.trace.enumerators import untiled_3d

        flat = list(trace_chunks(untiled_3d(128, 6), refs, form="flat"))
        runs = list(trace_chunks(untiled_3d(128, 6), refs, form="runs"))
        assert any(isinstance(c, RunChunk) for c in runs)
        f = np.concatenate([c.addresses for c in flat])
        r = np.concatenate([(c.materialize() if isinstance(c, RunChunk)
                             else c).addresses for c in runs])
        assert np.array_equal(f, r)

    @pytest.mark.parametrize("max_addresses", (0, 8192, 500_000))
    def test_chunk_split_invariance(self, max_addresses):
        """Splitting granularity never changes the represented stream —
        including splits small enough that every chunk stays flat."""
        refs = _two_array_refs(128)
        from repro.trace.enumerators import untiled_3d

        ref_stream = np.concatenate([
            c.addresses for c in trace_chunks(untiled_3d(128, 6), refs,
                                              form="flat", max_addresses=0)])
        got = np.concatenate([
            (c.materialize() if isinstance(c, RunChunk) else c).addresses
            for c in trace_chunks(untiled_3d(128, 6), refs, form="runs",
                                  max_addresses=max_addresses)])
        assert np.array_equal(ref_stream, got)

    def test_flat_form_yields_trace_chunks(self):
        """One chunk type: no tuple form, no ``structured=`` switch."""
        refs = _two_array_refs(16)
        from repro.trace.enumerators import untiled_3d

        chunks = list(trace_chunks(untiled_3d(16, 4), refs))
        assert chunks and all(isinstance(c, TraceChunk) for c in chunks)
        assert not hasattr(TraceChunk, "pair")
        with pytest.raises(TypeError):
            list(trace_chunks(untiled_3d(16, 4), refs, structured=True))

    def test_unknown_form_rejected(self):
        refs = _two_array_refs(16)
        from repro.trace.enumerators import untiled_3d

        with pytest.raises(TraceError, match="unknown trace form"):
            list(trace_chunks(untiled_3d(16, 4), refs, form="zip"))

    def test_fallback_metrics_emitted(self):
        refs = _two_array_refs(16)
        from repro.trace.enumerators import untiled_3d

        with metrics.collect() as reg:
            list(trace_chunks(untiled_3d(16, 4), refs, form="runs"))
        assert reg.counter_total("repro.trace.run_fallback",
                                 reason="small_chunk") > 0
        assert reg.counter_total("repro.trace.run_chunks") == 0


class TestEngineDifferential:
    """Runs must be bit-for-bit equal to flat — the tentpole invariant."""

    @pytest.mark.parametrize("kernel,strategy", KERNEL_STRATEGIES)
    @pytest.mark.parametrize("geometry", ("std", "micro"))
    def test_kernel_matrix(self, kernel, strategy, geometry, monkeypatch):
        # Lift the generator's chunk-size floor so the tiny test grids
        # emit real run chunks for every kernel, not just the wide ones.
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        flat = _run_stats(kernel, strategy, 40, 10, "flat", geometry)
        runs = _run_stats(kernel, strategy, 40, 10, "runs", geometry)
        assert flat == runs

    @pytest.mark.parametrize("kernel,strategy",
                             (("PSINV", "GcdPad"), ("RESID", "Orig")))
    def test_kernel_matrix_default_floor(self, kernel, strategy):
        # With the default floor, wide-stencil kernels still emit runs
        # (28/21 refs per iteration clear MIN_CHUNK_ADDRESSES at n=50).
        flat = _run_stats(kernel, strategy, 50, 12, "flat", "std")
        runs = _run_stats(kernel, strategy, 50, 12, "runs", "std")
        assert flat == runs

    @pytest.mark.parametrize("geometry", ("std", "wide64", "wide64_2way",
                                          "wide64_4way", "assoc4",
                                          "l1only"))
    def test_runs_match_flat(self, geometry, monkeypatch):
        """With the chunk-size floor off every kernel emits run chunks;
        runs, flat and the scalar reference agree on every geometry,
        64-byte L1 lines at 1, 2 and 4 ways included."""
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        for kernel, strategy in (("JACOBI", "Orig"), ("JACOBI", "GcdPad"),
                                 ("RESID", "GcdPad"), ("REDBLACK", "Orig")):
            flat = _run_stats(kernel, strategy, 40, 10, "flat", geometry)
            runs = _run_stats(kernel, strategy, 40, 10, "runs", geometry)
            assert flat == runs, (kernel, strategy, geometry)
        assert runs == _scalar_stats("REDBLACK", "Orig", 40, 10, geometry)

    def _invalidate_mid_stream(self, geometry):
        results = {}
        for form in ("flat", "runs"):
            chunks = list(_kernel_chunks("RESID", "Orig", 40, 10, form))
            assert len(chunks) >= 2
            hier = CacheHierarchy(GEOMETRIES[geometry],
                                  WritePolicy.WRITE_AROUND)
            hier.run(iter(chunks[:len(chunks) // 2]))
            hier.invalidate()
            st = hier.run(iter(chunks[len(chunks) // 2:]))
            results[form] = (st.reads, st.writes,
                             tuple((name, s.accesses, s.misses)
                                   for name, s in st.levels))
        assert results["flat"] == results["runs"]

    def test_mid_stream_invalidate(self, monkeypatch):
        """A cold restart half-way through the stream must not break
        runs/flat equivalence (carried stats + fresh engine epoch)."""
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        self._invalidate_mid_stream("std")

    @pytest.mark.parametrize("geometry", ("wide64", "wide64_2way",
                                          "wide64_4way"))
    def test_mid_stream_invalidate_wide_lines(self, geometry, monkeypatch):
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        self._invalidate_mid_stream(geometry)

    def test_min_run_length_guard_holds(self, monkeypatch):
        # The generator's own floor: emitted run chunks always average
        # at least MIN_RUN_LENGTH iterations per segment.
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        seen = 0
        for chunk in _kernel_chunks("JACOBI", "Orig", 40, 10, "runs"):
            if isinstance(chunk, RunChunk):
                seen += 1
                assert chunk.n_iters >= chunk.n_segments * MIN_RUN_LENGTH
        assert seen > 0
