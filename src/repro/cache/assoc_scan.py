"""Vectorized exact-LRU set-associative simulation (segmented scan).

The scalar reference model (:mod:`repro.cache.set_assoc`) walks one
OrderedDict per set, a few million accesses per second. This module
resolves the same exact LRU hits/misses with segmented numpy scans and
no Python-level per-access loop, for *any* associativity — k-way levels
and fully associative TLBs included. The direct-mapped
(:mod:`repro.cache.direct_mapped`) and 2-way (:mod:`repro.cache.two_way`)
specializations stay faster for their geometries; this class covers
everything they cannot (see :func:`repro.cache.factory.build_simulator`).

The window algorithm, given accesses stably partitioned by set
(:func:`repro.cache.partition.partition` — program order within each
set's segment):

1. **Ghost prepend.** Each occupied set's carried LRU stack (at most
   ``assoc`` lines) is prepended to its segment in LRU-to-MRU order.
   Replaying those "ghost" accesses reconstructs the set's exact LRU
   state, so carried state needs no special-casing anywhere else; ghost
   verdicts are discarded at the end.
2. **Run-head compression.** An access equal to its predecessor in the
   same segment always hits and removing it changes no other access's
   stack distance (its duplicate neighbour keeps the line in every
   enclosing interval), so only run heads are scanned — stencil traces
   compress severalfold (spatial locality), TLB page traces by orders
   of magnitude.
3. **Previous occurrence.** ``P[i]`` = the previous compressed position
   of line ``i`` (-1 if none), from one stable sort of the line ids.
   Equal lines share a set and segments are contiguous, so ``P`` never
   crosses a segment boundary. For ``assoc == 1`` the scan ends here:
   compression makes every run head a direct-mapped miss.
4. **Stack distance.** With segment-relative positions ``p``, the
   number of distinct lines strictly between an access and its previous
   occurrence is ``d[i] = C[i] - p[P[i]] - 1`` where
   ``C[i] = #{t < i, same segment : p[P[t]] <= p[P[i]]}``: positions at
   or before ``P[i]`` contribute exactly ``p[P[i]] + 1`` (every ``P``
   points strictly backwards), and positions inside the interval count
   precisely when they are the first occurrence of their line there —
   one per distinct line. ``C`` is a dominance count, computed by a
   vectorized bottom-up merge count with *segment-aligned* blocks: per
   power-of-two width, one sort + ``searchsorted`` counts each ordered
   pair at the single width where its positions split into the two
   halves of one block, so the level count is ``log2`` of the longest
   segment, not of the window.
5. **Verdict and state.** A run head misses iff ``P[i] == -1`` (line
   not resident) or ``d[i] >= assoc`` (pushed out since last use);
   non-heads hit. The new per-set stack is each segment's last
   ``assoc`` distinct lines by recency — the last-occurrence positions,
   which ascend by recency within a segment.

Bit-for-bit identity with :class:`SetAssociativeCache` (including
chunk-split invariance and mid-stream ``invalidate()``) is enforced by
the differential tests in ``tests/test_cache_assoc_scan.py``.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheStats
from repro.cache.params import CacheParams
from repro.cache.partition import partition

__all__ = ["AssocScanCache"]

#: Addresses per internally simulated window for direct ``access()``
#: calls: bounds the scratch arrays (a few MB at this size) while
#: amortizing the per-window partition and ghost-replay costs.
_WINDOW = 1 << 16


def _seg_prefix_leq(vals: np.ndarray, rel: np.ndarray, seg: np.ndarray,
                    seg_len: np.ndarray) -> np.ndarray:
    """``C[i] = #{t < i, seg[t] == seg[i] : vals[t] <= vals[i]}``.

    ``rel`` holds segment-relative positions, ``seg`` the segment id
    per element, ``seg_len`` each segment's length. Bottom-up merge
    count: at width ``w`` every position pairs the halves of one
    ``2w``-aligned block *within its segment*; each same-segment
    ordered pair ``(t, i)`` splits into the two halves of one block at
    exactly one width (the highest differing bit of their relative
    positions), so summing per-width left-half counts over all widths
    counts each pair once. Per width: one sort of block-offset
    composite keys plus a ``searchsorted`` — no per-element Python.
    """
    m = vals.size
    C = np.zeros(m, dtype=np.int64)
    longest = int(seg_len.max()) if seg_len.size else 0
    if m < 2 or longest < 2:
        return C
    # Composite key = block * M + shifted value; M exceeds the value
    # span so keys order by (block, value). vals >= -1 here
    # (previous-occurrence positions), so the +1 shift keeps every key
    # component non-negative.
    shifted = vals + np.int64(1)
    M = np.int64(int(shifted.max()) + 1)
    level = 0
    while (1 << level) < longest:
        # Segment-aligned blocks of size 2w: block_base reserves a
        # disjoint block-id range per segment so blocks never span
        # segments (cross-segment pairs must not be counted).
        nblk_seg = (seg_len + (2 << level) - 1) >> (level + 1)
        block_base = np.zeros(seg_len.size + 1, dtype=np.int64)
        np.cumsum(nblk_seg, out=block_base[1:])
        blk = block_base[seg] + (rel >> (level + 1))
        right = ((rel >> level) & 1) == 1
        nblk = int(block_base[-1])
        lkeys = blk[~right] * M + shifted[~right]
        lkeys.sort()
        pos = np.searchsorted(lkeys, blk[right] * M + shifted[right],
                              side="right")
        before = np.zeros(nblk + 1, dtype=np.int64)
        np.cumsum(np.bincount(blk[~right], minlength=nblk), out=before[1:])
        C[right] += pos - before[blk[right]]
        level += 1
    return C


class AssocScanCache:
    """Streaming exact-LRU set-associative simulator (vectorized).

    Parameters
    ----------
    params:
        Cache geometry; any ``assoc >= 1`` (``num_sets == 1`` models a
        fully associative cache, e.g. a TLB).
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._line_shift = int(params.line_bytes).bit_length() - 1
        self._set_mask = params.num_sets - 1
        if params.num_sets <= (1 << 15):
            self._set_dtype = np.int16
        else:
            self._set_dtype = np.int32
        self._set_mask_narrow = self._set_dtype(params.num_sets - 1)
        self.stats = CacheStats()
        # Per-set LRU stack: row ``s`` holds its resident lines in
        # columns [assoc - depth[s], assoc), LRU first, MRU last;
        # unused columns are -1 (no byte address maps to a negative
        # line id).
        self._stack = np.full((params.num_sets, params.assoc), -1,
                              dtype=np.int64)
        self._depth = np.zeros(params.num_sets, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache AND zero the statistics (a fresh simulator)."""
        self.stats = CacheStats()
        self._stack.fill(-1)
        self._depth.fill(0)

    def invalidate(self) -> None:
        """Empty the cache but keep the statistics (mid-stream flush)."""
        self._stack.fill(-1)
        self._depth.fill(0)

    # ------------------------------------------------------------------
    def set_index(self, lines: np.ndarray) -> np.ndarray:
        """Set indices for line ids, in the partition-friendly dtype.

        Same narrow-then-mask trick as the direct-mapped simulator: the
        truncating downcast preserves the low ``log2(num_sets)`` bits
        the mask keeps, avoiding a full-width int64 temporary.
        """
        sets = lines.astype(self._set_dtype)
        np.bitwise_and(sets, self._set_mask_narrow, out=sets)
        return sets

    def access_grouped(self, l_sorted: np.ndarray,
                       bp: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against carried state.

        Same contract as
        :meth:`repro.cache.direct_mapped.DirectMappedCache.access_grouped`:
        ``l_sorted`` holds line ids grouped by set index (program order
        within each group), ``bp`` the partition boundaries; returns
        ``(miss_sorted, n_miss)`` in the partitioned order and updates
        the per-set LRU stacks. The caller owns statistics.
        """
        n = l_sorted.size
        if n == 0:
            return np.zeros(0, dtype=bool), 0
        A = self.params.assoc

        occ = np.flatnonzero(bp[1:] > bp[:-1])   # occupied set ids
        seg_start = bp[occ]
        seg_len = bp[occ + 1] - seg_start
        depth = self._depth[occ]                 # ghosts per segment
        cum = np.cumsum(depth)                   # inclusive ghost totals
        cum_excl = cum - depth
        total_ghosts = int(cum[-1])
        m = n + total_ghosts

        # Extended array: each segment prefixed by its ghost stack.
        seg_id = np.repeat(np.arange(occ.size), seg_len)
        real_pos = np.arange(n, dtype=np.int64) + cum[seg_id]
        ext_start = seg_start + cum_excl
        ext = np.empty(m, dtype=np.int64)
        ext[real_pos] = l_sorted
        if total_ghosts:
            ghost_seg = np.repeat(np.arange(occ.size), depth)
            ghost_j = (np.arange(total_ghosts, dtype=np.int64)
                       - cum_excl[ghost_seg])
            ext[ext_start[ghost_seg] + ghost_j] = \
                self._stack[occ[ghost_seg], A - depth[ghost_seg] + ghost_j]

        # Run-head compression: an access equal to its in-segment
        # predecessor always hits and removing it changes no stack
        # distance (see module docstring); only heads are scanned.
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(ext[1:], ext[:-1], out=head[1:])
        head[ext_start] = True
        hidx = np.flatnonzero(head)
        core = ext[hidx]
        mc = core.size
        # Compressed-space segment starts/lengths and per-element
        # segment-relative positions.
        hcount = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(head, out=hcount[1:])
        c_start = hcount[ext_start]
        c_len = np.empty(occ.size, dtype=np.int64)
        c_len[:-1] = c_start[1:] - c_start[:-1]
        c_len[-1] = mc - c_start[-1]
        c_seg = np.repeat(np.arange(occ.size), c_len)
        rel = np.arange(mc, dtype=np.int64) - c_start[c_seg]

        # Previous occurrence of each line (-1 = first in window),
        # segment-relative: equal lines always share a segment.
        order2 = np.argsort(core, kind="stable")
        P = np.full(mc, -1, dtype=np.int64)
        if mc > 1:
            c2 = core[order2]
            P[order2[1:]] = np.where(c2[1:] == c2[:-1], order2[:-1],
                                     np.int64(-1))
        seen = P >= 0
        Prel = np.where(seen, P - c_start[c_seg], np.int64(-1))

        # Verdict per run head: a distinct-line change always misses a
        # direct-mapped set; for A >= 2, resident iff the stack
        # distance (distinct lines since last use) stays below A.
        if A == 1 or not seen.any():
            miss_core = ~seen if A > 1 else np.ones(mc, dtype=bool)
        else:
            C = _seg_prefix_leq(Prel, rel, c_seg, c_len)
            miss_core = ~seen
            np.logical_or(miss_core, C - Prel - 1 >= A, out=miss_core)
        miss_ext = np.zeros(m, dtype=bool)   # non-heads hit
        miss_ext[hidx] = miss_core
        miss_sorted = miss_ext[real_pos]

        # New carried state: each segment's last A distinct lines by
        # recency. Last occurrences ascend by recency within a segment
        # (position order IS recency order), so the per-segment tail of
        # length A, MRU in the last column, is the new stack.
        last = np.ones(mc, dtype=bool)
        last[P[seen]] = False
        last_pos = np.flatnonzero(last)
        seg_of = c_seg[last_pos]
        counts = np.bincount(seg_of, minlength=occ.size)
        rank_from_end = (np.cumsum(counts)[seg_of] - 1
                         - np.arange(last_pos.size))
        keep = rank_from_end < A
        self._stack[occ] = -1
        self._stack[occ[seg_of[keep]], A - 1 - rank_from_end[keep]] = \
            core[last_pos[keep]]
        self._depth[occ] = np.minimum(counts, A)
        return miss_sorted, int(np.count_nonzero(miss_sorted))

    def access(self, byte_addrs: np.ndarray) -> np.ndarray:
        """Simulate a chunk of accesses; return the boolean miss mask."""
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        n = byte_addrs.size
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        fully_assoc = self.params.num_sets == 1
        for s in range(0, n, _WINDOW):
            window = byte_addrs[s:s + _WINDOW]
            lines = window >> self._line_shift
            if fully_assoc:
                # One set: the stream is already "partitioned".
                bp = np.array([0, lines.size], dtype=np.int64)
                miss_sorted, _ = self.access_grouped(lines, bp)
                out[s:s + _WINDOW] = miss_sorted
            else:
                order, bp = partition(self.set_index(lines),
                                      self.params.num_sets)
                miss_sorted, _ = self.access_grouped(lines[order], bp)
                out[s:s + _WINDOW][order] = miss_sorted
        self.stats.accesses += n
        self.stats.misses += int(np.count_nonzero(out))
        return out

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        """Whether the line holding ``byte_addr`` is currently resident."""
        line = int(byte_addr) >> self._line_shift
        return bool((self._stack[line & self._set_mask] == line).any())

    def resident_lines(self) -> np.ndarray:
        """All line ids currently resident (sorted)."""
        return np.sort(self._stack[self._stack >= 0])
