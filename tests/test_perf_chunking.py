"""Differential tests of chunk-streamed trace generation.

The streaming fast path exists to bound peak memory, not to change
results: splitting only re-batches the same program-ordered reference
string. These tests prove that at every layer — raw iteration chunks,
generated address traces, and full simulated points — and check the
``repro.trace.chunk_splits`` metric that makes the re-batching visible.
"""

import numpy as np
import pytest

from repro.core.selector import select
from repro.errors import TraceError
from repro.experiments.options import PointPolicy
from repro.experiments.runner import _schedule_for, run_point
from repro.kernels import KERNELS
from repro.obs import metrics
from repro.trace.enumerators import bounded_chunks, untiled_3d
from repro.trace.generator import DEFAULT_CHUNK_ADDRESSES

from tests.helpers import collect_trace


def kernel_trace(kernel, strategy, n, cfg, chunk_size):
    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    inter_pad = cfg.cs if cfg.inter_pad else None
    return kern.trace(sel, schedule, inter_pad_cache=inter_pad,
                      chunk_size=chunk_size)


class TestBoundedChunks:
    def test_reslicing_preserves_iteration_order(self):
        whole = [np.concatenate(xs) for xs in
                 zip(*untiled_3d(12, 8))]
        for bound in (1, 7, 100, 10**9):
            sliced = [np.concatenate(xs) for xs in
                      zip(*bounded_chunks(untiled_3d(12, 8), bound))]
            for a, b in zip(whole, sliced):
                np.testing.assert_array_equal(a, b)

    def test_bound_is_respected(self):
        for i, j, k in bounded_chunks(untiled_3d(20, 8), 37):
            assert i.size <= 37
            assert i.size == j.size == k.size

    def test_slices_are_views_not_copies(self):
        # O(chunk) peak memory relies on re-slicing yielding views.
        chunks = list(bounded_chunks(untiled_3d(12, 8), 50))
        assert any(c[0].base is not None for c in chunks)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(TraceError, match="max_iterations"):
            list(bounded_chunks(untiled_3d(12, 8), 0))

    def test_split_metric_counts_extra_chunks(self):
        n_chunks = sum(1 for _ in untiled_3d(12, 8))
        with metrics.collect() as reg:
            n_split = sum(1 for _ in bounded_chunks(untiled_3d(12, 8), 17))
        counters = {c["name"]: c["value"]
                    for c in reg.snapshot()["counters"]}
        assert counters["repro.trace.chunk_splits"] == n_split - n_chunks

    def test_undersized_chunks_pass_through_unsplit(self):
        with metrics.collect() as reg:
            out = list(bounded_chunks(untiled_3d(12, 8), 10**9))
        assert len(out) == sum(1 for _ in untiled_3d(12, 8))
        assert not any(c["name"] == "repro.trace.chunk_splits"
                       for c in reg.snapshot()["counters"])


class TestTraceStreamEquality:
    @pytest.mark.parametrize("kernel,strategy", [
        ("JACOBI", "Orig"), ("JACOBI", "GcdPad"),
        ("RESID", "GcdPad"), ("REDBLACK", "Orig"),
    ])
    def test_chunked_trace_is_bitwise_equal(self, kernel, strategy,
                                            tiny_config):
        mono = collect_trace(
            kernel_trace(kernel, strategy, 24, tiny_config, chunk_size=0))
        for chunk_size in (1, 64, 1000, 10**8):
            a, w = collect_trace(kernel_trace(kernel, strategy, 24,
                                              tiny_config, chunk_size))
            np.testing.assert_array_equal(a, mono[0])
            np.testing.assert_array_equal(w, mono[1])

    def test_chunk_size_bounds_addresses_per_chunk(self, tiny_config):
        for chunk in kernel_trace("JACOBI", "GcdPad", 24,
                                  tiny_config, chunk_size=128):
            assert chunk.addresses.size <= 128
            assert chunk.addresses.size == chunk.write_mask.size

    def test_default_bound_is_the_documented_constant(self, tiny_config):
        # The default path must engage the bound (not stream unbounded):
        # a tiny point never trips it, so check the wiring directly.
        assert DEFAULT_CHUNK_ADDRESSES == 1 << 20
        for chunk in kernel_trace("RESID", "GcdPad", 24, tiny_config,
                                  chunk_size=None):
            assert chunk.addresses.size <= DEFAULT_CHUNK_ADDRESSES


class TestPointDifferential:
    def test_simulated_point_independent_of_chunk_size(self, tiny_config):
        mono = run_point("JACOBI", "GcdPad", 40, tiny_config,
                         policy=PointPolicy(chunk_size=0))
        for chunk_size in (256, 4096, 10**7):
            chunked = run_point("JACOBI", "GcdPad", 40, tiny_config,
                                policy=PointPolicy(chunk_size=chunk_size))
            assert chunked == mono

    def test_default_policy_matches_plain_run_point(self, tiny_config):
        # The memoized plain path and an explicit default policy must
        # agree: same stream, same numbers.
        plain = run_point("RESID", "Orig", 40, tiny_config)
        assert run_point("RESID", "Orig", 40, tiny_config,
                         policy=PointPolicy(chunk_size=None)) == plain
