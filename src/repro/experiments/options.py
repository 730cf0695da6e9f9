"""Typed option bundles for the experiment harness.

Resilience and parallelism features once grew ``sweep`` / ``table3``
/ ``figure_series`` a sprawl of keyword arguments (``checkpoint=``,
``budget=``, ``parallel=``, ``point_timeout=``, ...). This module
collapses the sprawl into two frozen dataclasses:

* :class:`SweepOptions` — everything a *sweep* may carry: resilience
  (checkpoint directory, per-point budget), parallelism (worker count,
  hard point timeout), and performance (persistent point cache, trace
  chunk size). Passed as one ``options=`` argument.
* :class:`PointPolicy` — everything *one point's* execution may carry;
  the single ``run_point(..., policy=)`` entry point replaced the old
  ``run_point`` / ``run_point_resilient`` / ``run_point_analytic``
  trio.

Both are frozen (hashable, safe to share across threads and to ship to
worker processes) and validate in ``__post_init__`` so a bad value
fails at construction, where the typo is, not deep inside a sweep.

The legacy keyword forms (and their shims) completed their deprecation
cycle and are **removed**: passing ``checkpoint=`` etc. to ``sweep`` /
``table3`` / ``figure_series`` now raises :class:`TypeError` like any
other unknown keyword.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.resilience import PointBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.store import PointStore

__all__ = ["SweepOptions", "PointPolicy"]


@dataclass(frozen=True)
class SweepOptions:
    """Execution options for one sweep (``sweep``/``table3``/``figures``).

    ==================  ====================================================
    field               meaning
    ==================  ====================================================
    ``checkpoint``      checkpoint directory (or an open
                        :class:`~repro.perf.store.PointStore`) bound to
                        the sweep's configuration; every completed point,
                        degraded ones too, is recorded there and skipped
                        on resume
    ``budget``          per-point :class:`~repro.resilience.PointBudget`;
                        over-budget points degrade to the analytic model
    ``parallel``        worker-process count (1 = serial)
    ``point_timeout``   hard per-point wall clock, seconds (SIGKILL under
                        ``parallel``; an in-process wall budget serially)
    ``point_cache``     persistent point store — a directory path or an
                        open :class:`~repro.perf.store.PointStore`; points
                        are reused across processes and across runs
    ``chunk_size``      addresses per simulated trace chunk (``None`` =
                        the generator default, ``0`` = unbounded)
    ``trace_form``      ``"auto"`` (default) / ``"runs"`` / ``"flat"``:
                        how traces reach the simulator. ``auto`` lets
                        the point's shape pick the route: exact K-plane
                        extrapolation for untiled direct-mapped points
                        (see :mod:`repro.experiments.extrapolate`),
                        run-compressed full simulation otherwise
                        (identical statistics); forcing a value means
                        full simulation in that form, for benchmarking
                        and differential tests
    ==================  ====================================================
    """

    checkpoint: "str | os.PathLike | PointStore | None" = None
    budget: PointBudget | None = None
    parallel: int = 1
    point_timeout: float | None = None
    point_cache: "str | os.PathLike | PointStore | None" = None
    chunk_size: int | None = None
    trace_form: str = "auto"

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(
                f"parallel must be >= 1, got {self.parallel}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be positive, got {self.point_timeout}")
        _check_chunk_size(self.chunk_size)
        _check_trace_form(self.trace_form)

    @property
    def plain(self) -> bool:
        """No per-point machinery: the memoized fast path applies.

        A forced ``trace_form`` routes around the memo: every form is
        bit-for-bit identical, but benchmarks force a form precisely to
        *measure* it, and a memo hit would silently measure nothing.
        """
        return (self.checkpoint is None and self.budget is None
                and self.point_cache is None and self.chunk_size is None
                and self.trace_form == "auto")

    def point_policy(self, checkpoint=None, store=None) -> "PointPolicy":
        """The per-point policy this sweep implies (serial path).

        ``checkpoint``/``store`` are the *opened* stores resolved from
        :attr:`checkpoint`/:attr:`point_cache` by the runner.
        """
        return PointPolicy(budget=self.budget, checkpoint=checkpoint,
                           store=store, chunk_size=self.chunk_size,
                           trace_form=self.trace_form)


@dataclass(frozen=True)
class PointPolicy:
    """How one point may be computed (``run_point(..., policy=)``).

    ==============  ========================================================
    field           meaning
    ==============  ========================================================
    ``analytic``    skip exact simulation; return the analytical miss-model
                    estimate (``degraded=True``)
    ``budget``      retry/degrade bounds for the exact simulation
    ``checkpoint``  open checkpoint store consulted first and recorded to
                    after (degraded results included)
    ``store``       open persistent point store, consulted next and
                    recorded to with exact results only
    ``chunk_size``  addresses per trace chunk (``None`` = default bound,
                    ``0`` = unbounded); affects memory/timing only — the
                    simulated statistics are bit-for-bit independent of it
    ``trace_form``  ``"auto"`` / ``"runs"`` / ``"flat"`` — how the trace
                    reaches the simulator; a forced form means full
                    simulation (identical statistics; see
                    :class:`SweepOptions`)
    ==============  ========================================================

    The default policy (all fields default) is the memoized exact fast
    path. Any non-default field routes around the in-process memo: the
    checkpoint and store are then the caches of record.
    """

    analytic: bool = False
    budget: PointBudget | None = None
    checkpoint: "PointStore | None" = None
    store: "PointStore | None" = None
    chunk_size: int | None = None
    trace_form: str = "auto"

    def __post_init__(self) -> None:
        _check_chunk_size(self.chunk_size)
        _check_trace_form(self.trace_form)
        if self.analytic and (self.budget is not None
                              or self.chunk_size is not None
                              or self.trace_form != "auto"):
            raise ConfigurationError(
                "an analytic policy simulates nothing: budget/chunk_size/"
                "trace_form do not apply")

    @property
    def plain(self) -> bool:
        """True when the memoized exact fast path may serve this point."""
        return (not self.analytic and self.budget is None
                and self.checkpoint is None and self.store is None
                and self.chunk_size is None and self.trace_form == "auto")


def _check_chunk_size(chunk_size: int | None) -> None:
    if chunk_size is not None and chunk_size < 0:
        raise ConfigurationError(
            f"chunk_size must be >= 0 (0 = unbounded), got {chunk_size}")


def _check_trace_form(trace_form: str) -> None:
    from repro.trace.generator import TRACE_FORMS

    valid = ("auto",) + TRACE_FORMS
    if trace_form not in valid:
        raise ConfigurationError(
            f"unknown trace_form {trace_form!r}; valid: {valid}")
