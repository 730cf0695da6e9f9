"""Experiment harness: regenerate every table and figure of the paper.

Per-experiment entry points (see DESIGN.md's index):

* :mod:`~repro.experiments.table1` — non-conflicting tile enumeration;
* :mod:`~repro.experiments.table3` — average improvements, 3 kernels x
  5 transformations;
* :mod:`~repro.experiments.figures` — per-size miss-rate and MFlops
  series (Figures 14-19), plus the large-size RESID study (20-21);
* :mod:`~repro.experiments.fig22` — padding memory overhead;
* :mod:`~repro.experiments.mgrid_app` — MGRID application speedup;
* :mod:`~repro.experiments.section1` — capacity-threshold verification.

Everything funnels through :func:`~repro.experiments.runner.run_point`,
which simulates one (kernel, strategy, N) configuration end to end.
Results are memoized per process so benches can share sweeps.
"""

from repro.experiments.config import ExperimentConfig, default_sizes
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    PointResult,
    open_checkpoint,
    open_store,
    run_point,
    sweep,
)
from repro.experiments.transforms_table import TRANSFORMS, PAPER_STRATEGIES
from repro.resilience import PointBudget

__all__ = [
    "ExperimentConfig",
    "default_sizes",
    "PointBudget",
    "PointPolicy",
    "PointResult",
    "SweepOptions",
    "open_checkpoint",
    "open_store",
    "run_point",
    "sweep",
    "TRANSFORMS",
    "PAPER_STRATEGIES",
]
