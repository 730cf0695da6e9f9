"""Multi-level cache hierarchy with write policies.

Composes per-level simulators so that level ``i+1`` observes exactly the
accesses that missed in level ``i`` (demand-miss filtering). Two write
policies are supported:

* **write-around** (the paper's assumption, matching the UltraSparc2's
  write-through non-allocating L1): writes never touch any cache level;
  they are counted separately and, optionally, in miss-rate denominators.
* **write-allocate**: writes behave exactly like reads.

Miss rates come in two flavours; the distinction matters when comparing
with the paper's Table 3:

* *local*  — level misses / level accesses;
* *global* — level misses / total demand references, which is how the
  paper's per-kernel "L2 miss rate" columns read (L2 rates far below
  L1 rates even though most L2 traffic hits).

Reset semantics are explicit (they used to be a trap): calling a
*level's* ``reset()`` mid-stream zeroes that level's counters without
the hierarchy noticing — its accumulated statistics silently vanish
from the final totals while the hierarchy's read/write counters keep
counting, so miss-rate denominators no longer match their numerators.
Use :meth:`CacheHierarchy.invalidate` to model a mid-stream cold
restart (contents dropped, statistics preserved by merging into the
hierarchy's carry accumulators) and :meth:`CacheHierarchy.reset` to
zero everything.

:meth:`CacheHierarchy.run` streams a whole trace through the batched
:class:`~repro.cache.engine.HierarchyEngine`; attached miss
classifiers (:mod:`repro.cache.classify`) ride the same engine, so an
observed run simulates exactly like a plain one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.base import CacheLevel, CacheStats
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.engine import HierarchyEngine
from repro.cache.factory import build_simulator
from repro.cache.params import CacheParams
from repro.cache.two_way import TwoWayCache
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.trace.generator import TraceChunk
from repro.trace.runs import RunChunk

__all__ = ["WritePolicy", "CacheHierarchy", "HierarchyStats",
           "EngineSupport", "LevelSupport"]


class WritePolicy(enum.Enum):
    """How writes interact with the hierarchy."""

    WRITE_AROUND = "write-around"
    WRITE_ALLOCATE = "write-allocate"


@dataclass(slots=True)
class HierarchyStats:
    """Aggregated statistics for a simulated hierarchy run."""

    levels: list[tuple[str, CacheStats]] = field(default_factory=list)
    reads: int = 0
    writes: int = 0

    @property
    def demand_refs(self) -> int:
        """All demand references, reads plus writes."""
        return self.reads + self.writes

    def local_miss_rate(self, level: int) -> float:
        return self.levels[level][1].miss_rate

    def global_miss_rate(self, level: int, include_writes: bool = True) -> float:
        """Level misses over total references (the paper's convention)."""
        denom = self.demand_refs if include_writes else self.reads
        if denom == 0:
            return 0.0
        return self.levels[level][1].misses / denom

    def misses(self, level: int) -> int:
        return self.levels[level][1].misses

    def summary(self) -> str:
        parts = [f"refs={self.demand_refs} (r={self.reads}, w={self.writes})"]
        for name, st in self.levels:
            parts.append(f"{name}: miss={st.misses} "
                         f"local={st.miss_rate:.2%} ")
        return "  ".join(parts)


@dataclass(frozen=True)
class LevelSupport:
    """How the batched engine will drive one hierarchy level."""

    #: The level's ``CacheParams.name``.
    name: str
    #: ``per_level`` — own partition + direct-mapped segmented scan;
    #: ``assoc_scan`` — vectorized exact-LRU path (k-way/fully-assoc
    #: stack-distance scan, or the 2-way run-head specialization);
    #: ``legacy`` — the level's own scalar ``access()`` per window.
    mode: str
    #: Machine-readable cause, mirroring the extrapolation-reason
    #: pattern (:class:`~repro.experiments.extrapolate.ExtrapolationReport`):
    #: ``direct_mapped`` / ``two_way_vectorized`` /
    #: ``set_associative`` / ``fully_associative`` /
    #: ``scalar_reference``.
    reason: str
    #: How the level consumes :class:`~repro.trace.runs.RunChunk`
    #: input: ``materialize`` — runs are expanded to flat addresses
    #: first (the first level); ``demand`` — the level never sees runs,
    #: only the flat miss-filtered demand of the level above.
    run_mode: str


@dataclass(frozen=True)
class EngineSupport:
    """Typed report of how :meth:`CacheHierarchy.run` simulates.

    ``levels`` says *how* each level will be simulated and why — so
    tooling (``obs-report``, benchmarks, tests) can assert on coverage
    instead of reverse-engineering it from isinstance checks. Attached
    miss classifiers do not change it: they ride the same engine.
    """

    levels: tuple[LevelSupport, ...]

    def level(self, name: str) -> LevelSupport:
        """The entry for the level named ``name`` (KeyError if absent)."""
        for ls in self.levels:
            if ls.name == name:
                return ls
        raise KeyError(name)


def _level_support(lvl: CacheLevel, params: CacheParams,
                   idx: int) -> LevelSupport:
    """Classify one level for the engine's per-level path."""
    if isinstance(lvl, DirectMappedCache):
        mode, reason = "per_level", "direct_mapped"
    elif isinstance(lvl, TwoWayCache):
        mode, reason = "assoc_scan", "two_way_vectorized"
    elif isinstance(lvl, AssocScanCache):
        mode = "assoc_scan"
        reason = ("fully_associative" if params.num_sets == 1
                  else "set_associative")
    else:
        # Anything else (e.g. a hand-built SetAssociativeCache) is driven
        # window by window through its own access() — exact but scalar.
        mode, reason = "legacy", "scalar_reference"
    return LevelSupport(params.name, mode, reason,
                        "demand" if idx else "materialize")


class CacheHierarchy:
    """A stack of inclusive-filtered cache levels fed by one trace.

    Parameters
    ----------
    levels:
        Cache parameters ordered nearest-first (L1, L2, ...).
    write_policy:
        See :class:`WritePolicy`; defaults to the paper's write-around.
    """

    def __init__(self, levels: list[CacheParams],
                 write_policy: WritePolicy = WritePolicy.WRITE_AROUND):
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        self.params = list(levels)
        self.write_policy = write_policy
        self._levels: list[CacheLevel] = [build_simulator(p) for p in levels]
        # Statistics carried over from invalidated level instances, so a
        # mid-stream invalidate never loses counts (see module docstring).
        self._carry: list[CacheStats] = [CacheStats() for _ in levels]
        self._classifiers: list = [None] * len(levels)
        #: Live batching engine while a run() is in flight (see run()).
        self._engine: HierarchyEngine | None = None
        self.reads = 0
        self.writes = 0

    def _sync_engine(self) -> None:
        """Simulate anything the in-flight engine has buffered.

        Called before any operation that reads or mutates level state
        out-of-band (stats, invalidate, reset, a direct access), so
        buffered accesses land *before* the operation in stream order.
        """
        if self._engine is not None:
            self._engine.flush()

    def reset(self) -> None:
        """Zero everything: contents, per-level stats, carried stats."""
        self._sync_engine()
        for lvl in self._levels:
            lvl.reset()
        self._carry = [CacheStats() for _ in self._levels]
        for cls in self._classifiers:
            if cls is not None:
                cls.reset()
        self.reads = 0
        self.writes = 0

    def invalidate(self, level: int | None = None) -> None:
        """Drop cache *contents* without losing statistics.

        A level's live counters are merged into the hierarchy's carry
        accumulator before the level is cleared, so :meth:`stats` keeps
        reporting totals for the whole stream — the explicit way to
        model a mid-stream cold restart (context switch, flush).
        ``level=None`` invalidates every level.
        """
        self._sync_engine()
        targets = range(len(self._levels)) if level is None else [level]
        for i in targets:
            lvl = self._levels[i]
            self._carry[i].merge(lvl.stats)
            lvl.reset()
            if self._classifiers[i] is not None:
                self._classifiers[i].invalidate()

    # ------------------------------------------------------------------
    def attach_classifiers(self, classifiers: list) -> None:
        """Attach per-level miss classifiers (``None`` entries allowed).

        Each :class:`~repro.cache.classify.MissClassifier` observes
        exactly the access stream its level sees (demand-miss filtered)
        and the level's miss mask, in program order, whether the stream
        arrives through :meth:`access` or through :meth:`run`'s batched
        engine — so classified totals match ``CacheStats.misses`` per
        level.
        """
        if len(classifiers) != len(self._levels):
            raise ConfigurationError(
                f"need one classifier slot per level "
                f"({len(self._levels)}), got {len(classifiers)}")
        self._classifiers = list(classifiers)

    @property
    def classifiers(self) -> list:
        return self._classifiers

    @property
    def levels(self) -> list[CacheLevel]:
        """The live level simulators, nearest-first (shared objects)."""
        return self._levels

    def advance_stats(self, level_deltas: list[tuple[int, int]],
                      reads: int = 0, writes: int = 0) -> None:
        """Account statistics for accesses that were *not* simulated.

        ``level_deltas`` holds one ``(accesses, misses)`` pair per
        level. Used by the steady-state extrapolation path
        (:mod:`repro.experiments.extrapolate`), which proves the counts
        in closed form instead of replaying the stream.
        """
        if len(level_deltas) != len(self._levels):
            raise ConfigurationError(
                f"need one (accesses, misses) delta per level "
                f"({len(self._levels)}), got {len(level_deltas)}")
        for lvl, (da, dm) in zip(self._levels, level_deltas):
            lvl.stats.accesses += int(da)
            lvl.stats.misses += int(dm)
        self.reads += int(reads)
        self.writes += int(writes)

    # ------------------------------------------------------------------
    def _cacheable(self, byte_addrs: np.ndarray,
                   is_write: np.ndarray | None) -> np.ndarray:
        """Count reads/writes and return the write-policy-filtered stream."""
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        n = byte_addrs.size
        if is_write is None:
            self.reads += n
            return byte_addrs
        is_write = np.asarray(is_write, dtype=bool)
        if is_write.shape != byte_addrs.shape:
            raise ConfigurationError("is_write mask shape mismatch")
        nw = int(np.count_nonzero(is_write))
        self.writes += nw
        self.reads += n - nw
        if self.write_policy is WritePolicy.WRITE_AROUND:
            return byte_addrs[~is_write]
        return byte_addrs

    def access(self, byte_addrs: np.ndarray,
               is_write: np.ndarray | None = None) -> np.ndarray:
        """Stream one chunk through every level.

        ``is_write`` is an optional boolean mask aligned with
        ``byte_addrs``. Returns the L1 miss mask over the *cacheable*
        accesses in program order (all accesses under write-allocate,
        reads only under write-around).
        """
        self._sync_engine()
        cacheable = self._cacheable(byte_addrs, is_write)

        current = cacheable
        first_miss: np.ndarray | None = None
        for i, lvl in enumerate(self._levels):
            if current.size == 0:
                miss = np.zeros(0, dtype=bool)
            else:
                miss = lvl.access(current)
                if self._classifiers[i] is not None:
                    self._classifiers[i].classify(current, miss)
            if first_miss is None:
                first_miss = miss
            current = current[miss]
        assert first_miss is not None
        return first_miss

    # ------------------------------------------------------------------
    def engine_support(self) -> EngineSupport:
        """Typed per-level report of how :meth:`run` will simulate.

        See :class:`EngineSupport`. The classification mirrors the
        simulator dispatch in :class:`~repro.cache.engine.HierarchyEngine`.
        """
        return EngineSupport(
            levels=tuple(_level_support(lvl, p, idx)
                         for idx, (lvl, p)
                         in enumerate(zip(self._levels, self.params))))

    def run(self, chunks, on_chunk=None) -> HierarchyStats:
        """Consume an iterable of chunks and return the statistics.

        Each chunk is a :class:`~repro.trace.generator.TraceChunk`, a
        :class:`~repro.trace.runs.RunChunk`, or a plain array of read
        addresses. The trace is consumed incrementally, so peak memory
        stays O(chunk buffer), never O(trace). ``on_chunk(chunk)``
        (optional) fires before each chunk is consumed (``len(chunk)``
        is its address count); the experiment runner uses it for budget
        deadlines and fault-injection ticks without breaking the
        streaming structure.

        Chunks are driven through the batched
        :class:`~repro.cache.engine.HierarchyEngine` (identical
        statistics to per-chunk :meth:`access`, far fewer passes);
        attached miss classifiers observe each level's windows in
        program order from inside the engine.
        """
        for ls in self.engine_support().levels:
            metrics.inc("repro.cache.engine_level_mode",
                        level=ls.name, mode=ls.mode)
        engine = HierarchyEngine(self._levels, self.params,
                                 self._classifiers)
        around = self.write_policy is WritePolicy.WRITE_AROUND
        self._engine = engine
        try:
            for chunk in chunks:
                if on_chunk is not None:
                    on_chunk(chunk)
                if isinstance(chunk, RunChunk):
                    self.reads += chunk.reads
                    self.writes += chunk.writes
                    engine.feed_runs(
                        chunk.read_bases if around else chunk.bases,
                        chunk.strides, chunk.counts)
                elif isinstance(chunk, TraceChunk):
                    self.reads += chunk.reads
                    self.writes += chunk.writes
                    engine.feed(chunk.read_addresses if around
                                else chunk.addresses)
                elif isinstance(chunk, tuple):
                    raise TypeError("trace chunks are TraceChunk, RunChunk "
                                    "or read-address arrays, not tuples")
                else:
                    engine.feed(self._cacheable(chunk, None))
            engine.flush()
        finally:
            self._engine = None
        return self.stats()

    def stats(self) -> HierarchyStats:
        """Totals for the whole stream, including invalidated epochs."""
        if self._engine is not None:
            self._engine.flush()
        merged = []
        for p, lvl, carry in zip(self.params, self._levels, self._carry):
            st = carry.copy()
            st.merge(lvl.stats)
            merged.append((p.name, st))
        return HierarchyStats(levels=merged, reads=self.reads,
                              writes=self.writes)
