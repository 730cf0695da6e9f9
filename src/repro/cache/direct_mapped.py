"""Vectorized direct-mapped cache simulation.

This is the fast path behind every miss-rate experiment in the paper
(both its caches are direct-mapped). The simulator never loops over
individual accesses in Python; each chunk is processed with
a few numpy passes:

1. map byte addresses to line ids (shift) and set indices (mask);
2. stably partition accesses by set index
   (:func:`repro.cache.partition.partition`, a stable argsort) — within
   a set's segment the accesses remain in program order;
3. a non-first access in a segment misses iff its line differs from the
   immediately preceding access to the same set; the first access of each
   segment compares against the carried per-set resident tag;
4. the last access of each segment becomes the new resident tag.

Step 3 is exact for direct-mapped caches because the hit/miss outcome of
an access depends only on the single line currently resident in its set,
which is always the line of the previous access to that set.

State is carried across chunks, so traces can be streamed.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheStats
from repro.cache.params import CacheParams
from repro.cache.partition import partition
from repro.errors import CacheGeometryError

__all__ = ["DirectMappedCache"]


class DirectMappedCache:
    """Streaming direct-mapped cache simulator (vectorized).

    Parameters
    ----------
    params:
        Cache geometry; ``params.assoc`` must be 1.
    """

    def __init__(self, params: CacheParams):
        if not params.is_direct_mapped:
            raise CacheGeometryError(
                f"DirectMappedCache requires assoc=1, got {params.assoc}")
        self.params = params
        self._line_shift = int(params.line_bytes).bit_length() - 1
        self._set_mask = np.int64(params.num_sets - 1)
        # Set-index dtype: the narrowest that holds a set index (int16
        # covers up to 32768 sets, both of the paper's caches), so the
        # keys cost the least memory traffic through the partition.
        if params.num_sets <= (1 << 15):
            self._set_dtype = np.int16
        elif params.num_sets <= (1 << 31):
            self._set_dtype = np.int32
        else:  # pragma: no cover - absurd geometry
            self._set_dtype = np.int64
        self._set_mask_narrow = self._set_dtype(params.num_sets - 1)
        self.stats = CacheStats()
        # Resident line id per set; -1 = invalid (no byte address maps to it).
        self._tags = np.full(params.num_sets, -1, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache AND zero the statistics (a fresh simulator)."""
        self.stats = CacheStats()
        self._tags.fill(-1)

    def invalidate(self) -> None:
        """Empty the cache but keep the statistics (mid-stream flush)."""
        self._tags.fill(-1)

    # ------------------------------------------------------------------
    def set_index(self, lines: np.ndarray) -> np.ndarray:
        """Set indices for line ids, in the partition-friendly dtype.

        Narrow first, mask in place: the mask keeps only the low
        log2(num_sets) bits, which a truncating downcast preserves
        exactly, so this equals ``(lines & mask).astype(dtype)`` without
        the intermediate full-width int64 temporary — one fewer
        chunk-sized allocation per access on the hot path.
        """
        sets = lines.astype(self._set_dtype)
        np.bitwise_and(sets, self._set_mask_narrow, out=sets)
        return sets

    def access_grouped(self, l_sorted: np.ndarray,
                       bp: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against carried tags.

        ``l_sorted`` holds line ids grouped by set index (program order
        within each group) and ``bp`` the group boundaries as returned
        by :func:`repro.cache.partition.partition` (set ``s`` occupies
        ``l_sorted[bp[s]:bp[s + 1]]``). Returns ``(miss_sorted,
        n_miss)`` in the partitioned order and updates the resident
        tags; the caller owns statistics (this is the shared kernel
        under both :meth:`access` and the batched hierarchy engine,
        which account accesses differently).
        """
        n = l_sorted.size
        miss_sorted = np.empty(n, dtype=bool)
        if n == 0:
            return miss_sorted, 0
        if n > 1:
            np.not_equal(l_sorted[1:], l_sorted[:-1], out=miss_sorted[1:])
        occupied = np.flatnonzero(bp[1:] > bp[:-1])  # sets with accesses
        starts = bp[occupied]
        # First access of each segment consults the carried resident tag
        # (overwriting the meaningless cross-segment comparison there).
        miss_sorted[starts] = self._tags[occupied] != l_sorted[starts]
        # Last access of each segment leaves its line resident.
        self._tags[occupied] = l_sorted[bp[occupied + 1] - 1]
        return miss_sorted, int(np.count_nonzero(miss_sorted))

    def access(self, byte_addrs: np.ndarray) -> np.ndarray:
        """Simulate a chunk of accesses; return the boolean miss mask."""
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        n = byte_addrs.size
        if n == 0:
            return np.zeros(0, dtype=bool)

        lines = byte_addrs >> self._line_shift
        order, bp = partition(self.set_index(lines), self.params.num_sets)
        miss_sorted, n_miss = self.access_grouped(lines[order], bp)

        miss = np.empty(n, dtype=bool)
        miss[order] = miss_sorted

        self.stats.accesses += n
        self.stats.misses += n_miss
        return miss

    # ------------------------------------------------------------------
    # tag-state primitives for steady-state extrapolation
    # ------------------------------------------------------------------
    def tags_snapshot(self) -> np.ndarray:
        """A copy of the per-set resident line ids (-1 = empty set)."""
        return self._tags.copy()

    def shifted_tags(self, base: np.ndarray, d_lines: int) -> np.ndarray:
        """``base`` advanced by ``d_lines``: the tag array a stream
        shifted by ``d_lines`` cache lines would leave behind.

        A line ``L`` resident in set ``L & (S-1)`` maps to line
        ``L + d`` resident in set ``(L + d) & (S-1)`` — a roll of the
        tag array by ``d mod S`` with ``d`` added to occupied entries.
        """
        rolled = np.roll(base, int(d_lines) % self.params.num_sets)
        return np.where(rolled >= 0, rolled + np.int64(d_lines),
                        np.int64(-1))

    def tags_equal_shifted(self, base: np.ndarray, d_lines: int) -> bool:
        """Whether the current tags equal ``base`` shifted by ``d_lines``."""
        return bool(np.array_equal(self._tags,
                                   self.shifted_tags(base, d_lines)))

    def apply_tag_shift(self, d_lines: int) -> None:
        """Replace the tags with their own shift (state fast-forward)."""
        self._tags = self.shifted_tags(self._tags, d_lines)

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        """Whether the line holding ``byte_addr`` is currently resident."""
        line = byte_addr >> self._line_shift
        return bool(self._tags[line & int(self._set_mask)] == line)

    def resident_lines(self) -> np.ndarray:
        """Line ids currently in the cache (for inspection/tests)."""
        return self._tags[self._tags >= 0].copy()
