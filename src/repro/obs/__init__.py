"""Observability layer: structured events, metrics, logging, profiling.

Three cooperating pieces, all disabled (near-zero-cost) by default:

* :mod:`~repro.obs.events` — an event bus with nested timed spans
  (``span("sweep") > span("point") > span("simulate")``) and a JSONL
  sink with atomic writes; resilience messages (retries, checkpoint
  resumes, degradations) land in the same timeline.
* :mod:`~repro.obs.metrics` — a process-local registry of counters /
  gauges / histograms: per-level cold/conflict/capacity miss
  breakdowns, trace volume, Euc3D/Pad search effort, memo hit rates.
  Metric names are a stable interface (see the module docstring).
* :mod:`~repro.obs.profile` — opt-in per-phase wall-clock and
  ``tracemalloc`` peak-memory capture attached to span-end events.

The CLI wires them up per run (``--log-json``, ``--metrics``,
``--profile``, ``-v/-q``) through :func:`session`; ``repro obs-report``
(:mod:`~repro.obs.report`) renders the artifacts afterwards. Library
code only ever calls the cheap module-level hooks
(``events.emit``/``events.span``/``metrics.inc``), so importing
:mod:`repro` never configures logging or starts tracing.
"""

from __future__ import annotations

import contextlib
import logging
import pathlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs import context, events, metrics
from repro.obs.context import RunContext
from repro.obs.events import EventBus, JsonlSink, MemorySink, NullSink
from repro.obs.logsetup import setup_cli_logging, verbosity_to_level
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EventBus",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "MetricsRegistry",
    "RunContext",
    "Session",
    "session",
    "reset_in_child",
    "setup_cli_logging",
    "verbosity_to_level",
    "context",
    "events",
    "metrics",
]


def reset_in_child() -> None:
    """Disable observability inherited by a worker process.

    A forked pool worker shares the parent's live event bus (and its
    JSONL sink buffer) and metrics registry; if the child wrote through
    them it would race the supervisor for the run's artifacts. The
    supervisor remains the single writer of the run's own artifacts;
    workers that should keep tracing get their own shard via
    :func:`repro.obs.context.init_worker` instead.
    """
    context.init_worker(None)

log = logging.getLogger(__name__)


@dataclass
class Session:
    """Handles for one instrumented run (what :func:`session` yields)."""

    bus: EventBus
    registry: MetricsRegistry | None
    log_json: pathlib.Path | None
    metrics_path: pathlib.Path | None
    #: The run's identity (always present; ledgered when run_path set).
    run_context: RunContext | None = None
    #: ``LEDGER/<run_id>`` when the session runs under ``--run-dir``.
    run_path: pathlib.Path | None = None
    #: Caller-extensible artifact paths recorded into the manifest
    #: (the CLI seeds checkpoint/store/CSV; ``bench`` adds its output).
    artifacts: dict = field(default_factory=dict)


def _finalize_metrics(reg: MetricsRegistry) -> None:
    """Derived metrics recorded once, at session close."""
    try:
        from repro.experiments.runner import cache_info

        ci = cache_info()
        reg.gauge("repro.runner.memo.hits").set(ci.hits)
        reg.gauge("repro.runner.memo.misses").set(ci.misses)
        reg.gauge("repro.runner.memo.currsize").set(ci.currsize)
    except Exception:  # pragma: no cover - runner not imported/available
        pass
    addrs = reg.counter_total("repro.trace.addresses")
    secs = reg.histogram("repro.sim.point_seconds").total
    if secs > 0:
        reg.gauge("repro.sim.addresses_per_second").set(round(addrs / secs, 1))


def _config_fingerprint() -> str | None:
    """Best-effort default-config fingerprint for the manifest."""
    try:
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import config_fingerprint

        return config_fingerprint(ExperimentConfig())
    except Exception:  # pragma: no cover - config import failure
        return None


@contextlib.contextmanager
def session(log_json: str | pathlib.Path | None = None,
            metrics_path: str | pathlib.Path | None = None,
            profile: bool = False,
            verbose: int = 0, quiet: int = 0,
            command: str | None = None,
            run_dir: str | pathlib.Path | None = None,
            argv: list[str] | None = None,
            progress: bool = False) -> Iterator[Session]:
    """One instrumented run: install sinks, wrap it in a ``run`` span.

    Everything is torn down — and every artifact flushed — on exit,
    including exceptional exit, so a failed run still leaves its event
    timeline and metrics snapshot on disk for diagnosis.

    ``run_dir`` points at a run *ledger*: the session allocates
    ``run_dir/<run_id>/``, defaults the event/metrics artifacts into
    it, arranges worker-shard propagation and live ``status.json``
    publication, and seals a CRC'd manifest (outcome, wall time,
    metrics digest, artifact paths) on exit — even exceptional exit.
    Without ``run_dir`` a context still exists (so parallel sweeps
    with ``--log-json`` keep worker traces), but nothing is ledgered.
    """
    from repro.obs import ledger

    setup_cli_logging(verbose, quiet)
    run_path = None
    status_path = None
    if run_dir is not None:
        ctx0 = context.new_context(progress=progress)
        paths = ledger.start_run(run_dir, run_id=ctx0.run_id,
                                 trace_id=ctx0.trace_id,
                                 command=command, argv=argv)
        run_path = paths.root
        status_path = paths.status
        if log_json is None:
            log_json = paths.events
        if metrics_path is None:
            metrics_path = paths.metrics
        ctx = RunContext(run_id=ctx0.run_id, trace_id=ctx0.trace_id,
                         node="sup", shard_dir=paths.shards,
                         status_path=status_path, progress=progress)
    else:
        shard_dir = (pathlib.Path(f"{log_json}.shards")
                     if log_json else None)
        ctx = context.new_context(shard_dir=shard_dir, progress=progress)

    sink = JsonlSink(log_json) if log_json else None
    bus = EventBus(sink, profile=profile, context=ctx)
    reg = MetricsRegistry() if metrics_path else None
    ses = Session(bus=bus, registry=reg,
                  log_json=pathlib.Path(log_json) if log_json else None,
                  metrics_path=(pathlib.Path(metrics_path)
                                if metrics_path else None),
                  run_context=ctx, run_path=run_path)

    outcome = "ok"
    with contextlib.ExitStack() as stack:
        if profile:
            from repro.obs import profile as _profile

            _profile.start()
            stack.callback(_profile.stop)
        stack.enter_context(context.activate(ctx))
        stack.enter_context(events.use(bus))
        if reg is not None:
            stack.enter_context(metrics.collect(reg))
        try:
            with bus.span("run", command=command or "?"):
                if bus.enabled:
                    bus.emit("run_context", run_id=ctx.run_id,
                             trace_id=ctx.trace_id, argv=argv)
                yield ses
        except BaseException as exc:
            from repro.errors import SweepInterrupted

            outcome = ("interrupted" if isinstance(exc, SweepInterrupted)
                       else f"error:{type(exc).__name__}")
            raise
        finally:
            if reg is not None:
                _finalize_metrics(reg)
                if ses.metrics_path is not None:
                    reg.write(ses.metrics_path)
                    log.info("metrics snapshot written to %s",
                             ses.metrics_path)
            bus.close()
            if ses.log_json is not None:
                log.info("run events written to %s", ses.log_json)
            if run_path is not None:
                artifacts = dict(ses.artifacts)
                if ses.log_json is not None:
                    artifacts.setdefault("events", str(ses.log_json))
                if ses.metrics_path is not None:
                    artifacts.setdefault("metrics", str(ses.metrics_path))
                try:
                    ledger.finalize_run(
                        run_path, outcome=outcome,
                        fingerprint=_config_fingerprint(),
                        metrics=(ledger.metrics_digest(reg.snapshot())
                                 if reg is not None else None),
                        artifacts=artifacts)
                    log.info("run %s ledgered under %s (outcome: %s)",
                             ctx.run_id, run_path, outcome)
                except Exception:  # pragma: no cover - ledger best-effort
                    log.exception("failed to finalize run manifest")
