"""Experiment configuration: cache geometry, problem sizes, resolution.

The paper's setup (Section 4.2): 16K/2M direct-mapped caches, problem
sizes ``N x N x 30`` with N in 200..400 (400..700 for the large-size
RESID study), float64 elements, write-around caches.

Resolution control: full paper-density sweeps simulate billions of
references; by default the harness uses a coarse N grid and a shallower
K extent, which preserves every qualitative shape (miss rates reach
steady state within a few planes). Set ``REPRO_FULL=1`` for
paper-density runs. The environment only chooses *defaults*: an
explicitly passed ``nk`` is always kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cache.params import CacheParams, ULTRASPARC2_L1, ULTRASPARC2_L2
from repro.perfmodel.machine import MachineModel, ULTRASPARC2_360

__all__ = ["ExperimentConfig", "default_sizes", "full_resolution"]


def full_resolution() -> bool:
    """Whether paper-density sweeps were requested via ``REPRO_FULL=1``."""
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


def default_sizes(lo: int = 200, hi: int = 400,
                  full: bool | None = None) -> list[int]:
    """Problem sizes to sweep; paper density is step 10."""
    if full is None:
        full = full_resolution()
    step = 10 if full else 50
    return list(range(lo, hi + 1, step))


def _default_nk() -> int:
    """K extent when none is passed: the paper's 30 under ``REPRO_FULL``,
    else 11 — ~3x cheaper, same per-plane steady state, and odd so that
    GcdPad's 512-mod-2048 planes never alias multi-array bases exactly
    (an even DK would: 512*12 = 0 mod 2048)."""
    return 30 if full_resolution() else 11


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything :func:`repro.experiments.runner.run_point` needs."""

    l1: CacheParams = ULTRASPARC2_L1
    l2: CacheParams = ULTRASPARC2_L2
    machine: MachineModel = ULTRASPARC2_360
    elem_bytes: int = 8
    nk: int = field(default_factory=_default_nk)
    #: Count write references in miss-rate denominators (the trace always
    #: carries them; write-around keeps them out of the caches).
    include_writes: bool = True
    #: Apply Section 3.5 inter-variable padding to multi-array kernels
    #: (off by default: the paper's RESID experiments *tolerate*
    #: cross-interference; see the ablation bench).
    inter_pad: bool = False

    @property
    def cs(self) -> int:
        """L1 capacity in elements — the C_s all selection algorithms use."""
        return self.l1.capacity_elements(self.elem_bytes)

    @property
    def levels(self) -> list[CacheParams]:
        return [self.l1, self.l2]
