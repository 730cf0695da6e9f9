"""Turn iteration chunks plus reference lists into address traces.

For each iteration the kernel issues its references in program order;
for a chunk of ``n`` iterations and ``R`` references the interleaved
trace is the row-major flattening of an ``(n, R)`` address matrix — all
vectorized, no Python-level per-iteration work.

Memory is bounded: incoming iteration chunks are re-sliced through
:func:`repro.trace.enumerators.bounded_chunks` so no yielded address
chunk exceeds ``max_addresses`` entries (default
:data:`DEFAULT_CHUNK_ADDRESSES`, ~8 MB of int64). A large-N RESID
point would otherwise materialize a hundred-megabyte address matrix
per tile slab; with the bound, peak memory is O(chunk) regardless of
problem size, and the stream is **bit-for-bit identical** — splitting
only re-batches the same program-ordered reference string (the
differential tests in ``tests/test_perf_chunking.py`` prove it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.layout.array import ArraySpec
from repro.obs import metrics

__all__ = ["Ref", "TraceChunk", "trace_chunks", "kernel_refs",
           "count_refs", "DEFAULT_CHUNK_ADDRESSES", "TRACE_FORMS"]

#: Default bound on addresses per yielded chunk (``2**20`` int64 = 8 MB).
#: Large enough that numpy call overhead is negligible, small enough
#: that the largest paper-density point (RESID, N = 700) streams in
#: bounded memory instead of materializing ~120 MB tile slabs.
DEFAULT_CHUNK_ADDRESSES = 1 << 20


@dataclass(frozen=True)
class Ref:
    """One static reference: array + constant subscript offsets.

    Offsets are relative to the (1-based) iteration coordinates; the
    generator converts to the 0-based :class:`ArraySpec` origin.
    """

    array: ArraySpec
    oi: int = 0
    oj: int = 0
    ok: int = 0
    is_write: bool = False


def kernel_refs(specs: dict[str, ArraySpec],
                reads: Iterable[tuple[str, int, int, int]],
                writes: Iterable[tuple[str, int, int, int]] = ()) -> list[Ref]:
    """Build a program-ordered reference list: reads first, then writes."""
    refs = [Ref(specs[a], oi, oj, ok) for a, oi, oj, ok in reads]
    refs += [Ref(specs[a], oi, oj, ok, is_write=True)
             for a, oi, oj, ok in writes]
    if not refs:
        raise TraceError("kernel has no references")
    return refs


def count_refs(refs: list[Ref]) -> tuple[int, int]:
    """(reads, writes) per iteration."""
    w = sum(1 for r in refs if r.is_write)
    return len(refs) - w, w


@dataclass(frozen=True)
class TraceChunk:
    """One program-ordered trace chunk in its natural (matrix) shape.

    Row ``r`` holds iteration ``r``'s references in program order; the
    row-major flattening (:attr:`addresses`) is the interleaved address
    stream. Keeping the matrix lets consumers slice by reference
    position — with the reads-first reference convention of
    :func:`kernel_refs`, :attr:`read_addresses` is a column slice and a
    write-around hierarchy never materializes a per-address boolean
    mask at all.
    """

    matrix: np.ndarray      #: ``(n_iters, n_refs)`` int64 byte addresses
    wmask_row: np.ndarray   #: ``(n_refs,)`` per-reference write flags

    @property
    def n_iters(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_addresses(self) -> int:
        """Addresses in this chunk (form-agnostic; see ``RunChunk``)."""
        return self.matrix.size

    def __len__(self) -> int:
        return self.matrix.size

    @property
    def reads(self) -> int:
        """Read accesses in this chunk."""
        nw = int(np.count_nonzero(self.wmask_row))
        return self.n_iters * (self.matrix.shape[1] - nw)

    @property
    def writes(self) -> int:
        """Write accesses in this chunk."""
        return self.n_iters * int(np.count_nonzero(self.wmask_row))

    @property
    def addresses(self) -> np.ndarray:
        """The flat interleaved address stream (a zero-copy view)."""
        return self.matrix.reshape(-1)

    @property
    def write_mask(self) -> np.ndarray:
        """Per-address write flags aligned with :attr:`addresses`."""
        return np.tile(self.wmask_row, self.n_iters)

    @property
    def read_addresses(self) -> np.ndarray:
        """The read accesses only, still in program order.

        With reads-first reference lists (the :func:`kernel_refs`
        contract) this is a column slice; otherwise it falls back to
        boolean selection. Either way the result equals
        ``addresses[~write_mask]``.
        """
        nw = int(np.count_nonzero(self.wmask_row))
        if nw == 0:
            return self.addresses
        nr = self.matrix.shape[1] - nw
        if not self.wmask_row[:nr].any():   # reads-first layout
            return self.matrix[:, :nr].reshape(-1)
        return self.matrix[:, ~self.wmask_row].reshape(-1)


def _refs_by_spec(refs: list[Ref]) -> list[tuple[ArraySpec, list]]:
    """Group references by array, precomputing per-ref byte offsets.

    A reference's address is linear in the iteration coordinates:
    ``addr_array(i + oi - 1, ...) * eb  ==  addr_array(i, j, k) * eb
    + const`` with ``const = ((oi-1) + (oj-1)*di + (ok-1)*plane) * eb``
    folded at build time (exact int64 algebra — every reference of one
    array then costs a single vector add off a shared base column).
    """
    groups: dict[int, tuple[ArraySpec, list]] = {}
    for col, ref in enumerate(refs):
        spec = ref.array
        const = ((ref.oi - 1)
                 + (ref.oj - 1) * spec.di
                 + (ref.ok - 1) * spec.plane) * spec.elem_bytes
        groups.setdefault(id(spec), (spec, []))[1].append(
            (col, np.int64(const)))
    return list(groups.values())


#: Row-block budget for the address-matrix fill, in matrix elements
#: (~1 MB of int64): each block's columns are written while the block
#: is still cache-resident, instead of streaming the whole multi-MB
#: matrix once per reference.
_FILL_BLOCK_ELEMENTS = 1 << 17


#: Valid ``form`` values for :func:`trace_chunks` (``"auto"`` resolves
#: to one of these before the generator is built).
TRACE_FORMS = ("flat", "runs")


def trace_chunks(iter_chunks, refs: list[Ref],
                 max_addresses: int | None = None,
                 form: str = "flat",
                 ) -> Iterator:
    """Yield program-ordered trace chunks.

    ``iter_chunks`` yields 1-based ``(I, J, K)`` coordinate arrays (see
    :mod:`repro.trace.enumerators`); each output chunk is a
    :class:`TraceChunk` interleaving the per-iteration references
    (``.addresses``/``.write_mask`` give the flat stream; the hierarchy
    engine reads ``.read_addresses`` without materializing per-address
    write masks).

    ``form="runs"`` compresses each chunk into a
    :class:`~repro.trace.runs.RunChunk` of per-reference
    ``(base, stride, count)`` runs when its iteration pattern is affine
    enough (see :mod:`repro.trace.runs`), falling back to a
    materialized :class:`TraceChunk` otherwise — consumers see a mix of
    both forms representing the identical reference stream.

    ``max_addresses`` bounds the size of every yielded chunk (and with
    it the peak size of the address matrix built here): ``None`` means
    :data:`DEFAULT_CHUNK_ADDRESSES`, ``0`` disables the bound and
    yields one chunk per incoming iteration chunk (the pre-streaming
    monolithic behaviour). Splitting never changes the reference
    stream, only its batching.
    """
    if not refs:
        raise TraceError("no references")
    if max_addresses is not None and max_addresses < 0:
        raise TraceError(
            f"max_addresses must be >= 0, got {max_addresses}")
    if form not in TRACE_FORMS:
        raise TraceError(
            f"unknown trace form {form!r}; valid: {TRACE_FORMS}")
    nrefs = len(refs)
    wmask_row = np.array([r.is_write for r in refs], dtype=bool)
    groups = _refs_by_spec(refs)
    blk = max(1, _FILL_BLOCK_ELEMENTS // nrefs)

    if max_addresses is None:
        max_addresses = DEFAULT_CHUNK_ADDRESSES
    if max_addresses:
        from repro.trace.enumerators import bounded_chunks

        iter_chunks = bounded_chunks(iter_chunks,
                                     max(1, max_addresses // nrefs))

    if form == "runs":
        from repro.trace.runs import compress_iter_chunk

    for i, j, k in iter_chunks:
        n = i.size
        if n == 0:
            continue
        metrics.inc("repro.trace.chunks")
        metrics.inc("repro.trace.addresses", n * nrefs)
        if form == "runs":
            run = compress_iter_chunk(i, j, k, groups, nrefs, wmask_row)
            if isinstance(run, str):    # fallback reason
                metrics.inc("repro.trace.run_fallback", reason=run)
            else:
                metrics.inc("repro.trace.run_chunks")
                metrics.inc("repro.trace.runs", run.n_runs)
                metrics.inc("repro.trace.run_addresses", run.n_addresses)
                yield run
                continue
        matrix = np.empty((n, nrefs), dtype=np.int64)
        for s in range(0, n, blk):
            e = min(n, s + blk)
            ib, jb, kb = i[s:e], j[s:e], k[s:e]
            for spec, cols in groups:
                # 1-based coordinates; each ref's subscript offset is
                # pre-folded into its byte constant (see _refs_by_spec).
                base = spec.addr_array(ib, jb, kb)
                base *= spec.elem_bytes
                for col, const in cols:
                    np.add(base, const, out=matrix[s:e, col])
        yield TraceChunk(matrix, wmask_row)
