"""Tests for the address-trace generator."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.layout.array import allocate
from repro.trace.enumerators import untiled_3d
from repro.trace.generator import Ref, count_refs, kernel_refs, trace_chunks


class TestRefs:
    def test_kernel_refs_order(self):
        specs = allocate([("B", 5, 5, 5), ("A", 5, 5, 5)])
        refs = kernel_refs(specs,
                           reads=[("B", -1, 0, 0), ("B", 1, 0, 0)],
                           writes=[("A", 0, 0, 0)])
        assert [r.is_write for r in refs] == [False, False, True]
        assert refs[0].array.name == "B"

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            kernel_refs({}, reads=[])

    def test_count_refs(self):
        specs = allocate([("A", 5, 5, 5)])
        refs = kernel_refs(specs, reads=[("A", 0, 0, 0)] * 3,
                           writes=[("A", 0, 0, 0)])
        assert count_refs(refs) == (3, 1)


class TestTraceChunks:
    def test_interleaving_and_addresses(self):
        specs = allocate([("B", 4, 4, 4), ("A", 4, 4, 4)])
        refs = [Ref(specs["B"], -1, 0, 0), Ref(specs["B"], 1, 0, 0),
                Ref(specs["A"], 0, 0, 0, is_write=True)]
        chunks = list(trace_chunks(untiled_3d(4, 4), refs))
        addrs, w = chunks[0].addresses, chunks[0].write_mask
        # First iteration is (I=2, J=2, K=2) 1-based -> (1,1,1) 0-based.
        b = specs["B"]
        a = specs["A"]
        assert addrs[0] == b.addr(0, 1, 1) * 8
        assert addrs[1] == b.addr(2, 1, 1) * 8
        assert addrs[2] == a.addr(1, 1, 1) * 8
        assert w.tolist()[:3] == [False, False, True]

    def test_write_mask_periodic(self):
        specs = allocate([("A", 5, 5, 5)])
        refs = [Ref(specs["A"], 0, 0, 0), Ref(specs["A"], 0, 0, 0,
                                              is_write=True)]
        for chunk in trace_chunks(untiled_3d(5, 5), refs):
            w = chunk.write_mask
            assert w.reshape(-1, 2)[:, 0].sum() == 0
            assert w.reshape(-1, 2)[:, 1].all()

    def test_byte_addresses_scale_with_elem_size(self):
        specs4 = allocate([("A", 4, 4, 4)], elem_bytes=4)
        refs = [Ref(specs4["A"], 0, 0, 0, is_write=True)]
        addrs = next(iter(trace_chunks(untiled_3d(4, 4), refs))).addresses
        assert addrs[0] == specs4["A"].addr(1, 1, 1) * 4

    def test_requires_refs(self):
        with pytest.raises(TraceError):
            list(trace_chunks(untiled_3d(4, 4), []))

    def test_skips_empty_chunks(self):
        specs = allocate([("A", 9, 9, 4)])
        refs = [Ref(specs["A"], 0, 0, 0, is_write=True)]

        def chunks():
            empty = np.empty(0, dtype=np.int64)
            yield empty, empty, empty
            yield (np.array([2]), np.array([2]), np.array([2]))

        out = list(trace_chunks(chunks(), refs))
        assert len(out) == 1
