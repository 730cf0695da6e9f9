"""Batched hierarchy engine.

:meth:`CacheHierarchy.run <repro.cache.hierarchy.CacheHierarchy.run>`
drives every trace through this engine. It produces **bit-for-bit**
the same :class:`HierarchyStats` as the per-chunk ``access()`` loop —
the differential tests in ``tests/test_cache_engine.py`` hold it to
that — by exploiting a property both paths share: direct-mapped/LRU
simulation with carried state is *split-invariant*, so the stream may
be re-batched freely without changing a single miss.

**Windowed batching.** Every level consumes its input stream in
windows of about :data:`BATCH_TARGET` addresses. Chunks smaller than a
window (tiled schedules emit dozens of tiny per-tile chunks) are
buffered and concatenated so the fixed per-call numpy cost is paid
once per window; chunks larger than a window are *split*, so the
partition and segment scans keep a cache-resident working set. A level
with many sets (the paper's 32768-set L2) takes windows of twice its
set count, because the partition boundaries and the occupied-set scan
cost O(sets) per window.

**Per-level demand buffering.** A level's demand stream (the misses it
forwards) is buffered the same way, so L2 is also simulated in
full-size windows instead of one small call per L1 window. Levels are
decoupled by their carried state: only the order of each level's own
input matters, and buffering preserves it.

**One path.** Each window is partitioned by its level's set index
(:func:`repro.cache.partition.partition`), simulated through the
level's ``access_grouped`` kernel, and its misses, put back in program
order, are the next level's input. Affine run chunks
(:class:`~repro.trace.runs.RunChunk`) are materialized first. A shared
single-sort mode (equal L1/L2 line sizes only) and a closed-form run
path (L1 simulated from per-line run intervals) were removed because
neither paid on the paper's geometry; EXPERIMENTS.md has the numbers.

**Miss classification.** A level's attached
:class:`~repro.cache.classify.MissClassifier` gets each window and its
program-order miss mask (built from the demand stream's positions).

The engine is created per ``run()`` and owns no cache state — tags and
statistics live in the level simulators exactly as before, so carried
state still flows across ``run()`` calls and mixed ``run()``/
``access()`` usage.
"""

from __future__ import annotations

import numpy as np

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.partition import partition
from repro.obs import metrics
from repro.trace.runs import materialize_runs

__all__ = ["HierarchyEngine", "BATCH_TARGET"]

#: Target addresses per simulated window (128 KB of int64): large
#: enough to amortize numpy call overhead, small enough that the
#: partition and segment scans stay cache-resident.
BATCH_TARGET = 1 << 14

#: Window size for associative-scan levels: the LRU scan replays each
#: occupied set's carried stack as ghost accesses every window, so its
#: fixed cost (up to ``num_sets * assoc`` ghosts) wants more
#: amortization than the direct-mapped scatter does.
ASSOC_BATCH_TARGET = 1 << 16


class HierarchyEngine:
    """Buffers cacheable addresses and simulates them level by level.

    Parameters
    ----------
    levels:
        The hierarchy's live level simulators (state + stats holders).
    params:
        Matching :class:`~repro.cache.params.CacheParams` per level.
    classifiers:
        Optional per-level miss classifiers (``None`` entries allowed).
    """

    def __init__(self, levels, params, classifiers=None):
        self._levels = list(levels)
        self._classifiers = list(classifiers or [None] * len(self._levels))
        self._shifts = [int(p.line_bytes).bit_length() - 1 for p in params]
        self._nsets = [p.num_sets for p in params]
        self._nlev = len(self._levels)
        self._bufs: list[list[np.ndarray]] = [[] for _ in levels]
        self._pending = [0] * self._nlev
        # A window costs O(num_sets) on top of its length (partition
        # boundaries, occupied-set scans), so many-set levels such as
        # the paper's 32768-set L2 take proportionally longer windows.
        self._wins = [max(ASSOC_BATCH_TARGET
                          if isinstance(lvl, AssocScanCache)
                          else BATCH_TARGET, 2 * p.num_sets)
                      for lvl, p in zip(self._levels, params)]

    # ------------------------------------------------------------------
    def feed(self, byte_addrs: np.ndarray) -> None:
        """Buffer one cacheable (already write-filtered) address array."""
        self._feed_level(0, byte_addrs)

    def feed_runs(self, bases: np.ndarray, strides: np.ndarray,
                  counts: np.ndarray) -> None:
        """Materialize one chunk of cacheable affine runs, then feed it.

        ``bases`` is ``(n_segments, n_refs)`` — already write-filtered
        by the caller — with per-segment ``strides``/``counts`` (see
        :class:`~repro.trace.runs.RunChunk`).
        """
        self.feed(materialize_runs(bases, strides, counts).reshape(-1))

    def flush(self) -> None:
        """Simulate everything buffered so far (idempotent when empty)."""
        for i in range(self._nlev):
            # Flushing level i feeds level i+1's buffer, which the next
            # iteration drains — nearest level first, by construction.
            self._flush_level(i)

    # ------------------------------------------------------------------
    def _feed_level(self, i: int, stream: np.ndarray) -> None:
        if stream.size == 0:
            return
        self._bufs[i].append(stream)
        self._pending[i] += stream.size
        if self._pending[i] >= self._wins[i]:
            self._flush_level(i)

    def _flush_level(self, i: int) -> None:
        buf = self._bufs[i]
        if not buf:
            return
        batch = buf[0] if len(buf) == 1 else np.concatenate(buf)
        buf.clear()
        self._pending[i] = 0
        forward = i + 1 < self._nlev
        win = self._wins[i]
        for s in range(0, batch.size, win):
            demand = self._process(i, batch[s:s + win])
            if forward and demand is not None:
                self._feed_level(i + 1, demand)

    def _process(self, i: int, window: np.ndarray) -> np.ndarray | None:
        """Simulate one window at level ``i``; return its demand stream
        (missed byte addresses in program order), or ``None`` at the
        last level."""
        lvl = self._levels[i]
        cls = self._classifiers[i]
        last = i + 1 == self._nlev
        if i == 0:
            metrics.inc("repro.cache.batches")
        if isinstance(lvl, (DirectMappedCache, AssocScanCache)):
            # Both expose the same caller-owns-stats partitioned
            # contract: set_index() + access_grouped(l_sorted, bp).
            lines = window >> self._shifts[i]
            order, bp = partition(lvl.set_index(lines), self._nsets[i])
            miss_sorted, nmiss = lvl.access_grouped(lines[order], bp)
            lvl.stats.accesses += window.size
            lvl.stats.misses += nmiss
            if last and cls is None:
                return None
            # Demand stream back in program order: the misses'
            # positions, mapped through the permutation and sorted.
            pos = order[miss_sorted]
            pos.sort()
            if cls is not None:
                miss = np.zeros(window.size, dtype=bool)
                miss[pos] = True
                cls.classify(window, miss)
            return None if last else window[pos]
        miss = lvl.access(window)   # 2-way levels keep their own path
        if cls is not None:
            cls.classify(window, miss)
        return None if last else window[miss]
