"""Trace-driven cache simulation substrate.

The paper evaluates its transformations with simulated miss rates on the
UltraSparc2's 16K direct-mapped L1 and 2M direct-mapped L2. This package
provides that simulator:

* :class:`~repro.cache.params.CacheParams` — geometry (size, line,
  associativity) with byte/element conversions;
* :class:`~repro.cache.direct_mapped.DirectMappedCache` — vectorized
  (numpy sort-by-set segmented scan) direct-mapped simulator, the fast
  path used by all paper experiments;
* :class:`~repro.cache.assoc_scan.AssocScanCache` — vectorized exact
  LRU for arbitrary associativity (segmented stack-distance scan over
  the set partition), with
  :class:`~repro.cache.set_assoc.SetAssociativeCache` kept as the
  scalar ground-truth reference it is differentially tested against;
* :func:`~repro.cache.factory.build_simulator` — the single
  geometry→simulator policy (hierarchy levels and TLBs both route
  through it);
* :class:`~repro.cache.hierarchy.CacheHierarchy` — multi-level
  composition with write-around / write-allocate policies;
* :mod:`~repro.cache.partition` / :class:`~repro.cache.engine.HierarchyEngine`
  — the stable set partition and the batched engine behind
  ``CacheHierarchy.run`` (bit-identical statistics, one partition per
  window per level instead of one per chunk);
* :class:`~repro.cache.classify.MissClassifier` — shadow
  fully-associative simulation splitting misses into cold / conflict /
  capacity (the paper's Section 2-3 story, made measurable);
* :mod:`~repro.cache.reuse` — reuse-distance and working-set analysis.
"""

from repro.cache.params import CacheParams, ULTRASPARC2_L1, ULTRASPARC2_L2
from repro.cache.base import CacheStats
from repro.cache.assoc_scan import AssocScanCache
from repro.cache.classify import MISS_CLASSES, MissClassifier
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.engine import BATCH_TARGET, HierarchyEngine
from repro.cache.factory import build_simulator
from repro.cache.partition import default_strategy, partition
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.two_way import TwoWayCache
from repro.cache.tlb import ULTRASPARC2_DTLB, build_tlb, tlb_params
from repro.cache.hierarchy import (
    CacheHierarchy,
    EngineSupport,
    HierarchyStats,
    LevelSupport,
    WritePolicy,
)

__all__ = [
    "AssocScanCache",
    "BATCH_TARGET",
    "CacheParams",
    "CacheStats",
    "EngineSupport",
    "HierarchyEngine",
    "LevelSupport",
    "MISS_CLASSES",
    "MissClassifier",
    "DirectMappedCache",
    "SetAssociativeCache",
    "TwoWayCache",
    "CacheHierarchy",
    "HierarchyStats",
    "WritePolicy",
    "build_simulator",
    "default_strategy",
    "partition",
    "ULTRASPARC2_L1",
    "ULTRASPARC2_L2",
    "ULTRASPARC2_DTLB",
    "build_tlb",
    "tlb_params",
]
