"""Supervised process-pool execution of independent work units.

The paper's sweeps are embarrassingly parallel — every (kernel,
strategy, N) point is independent — but scaling them across cores
introduces the failure modes in-process budgets cannot catch: a worker
OOM-killed by the kernel, a segfault in a native extension, a hang the
GIL never returns from. This module runs each work unit in its **own
child process** under a supervisor that:

* monitors worker **heartbeats** (a daemon thread in every worker beats
  over the result pipe) and enforces a hard per-attempt **wall-clock
  timeout** with SIGKILL;
* treats a crash (any exit without a result), a timeout, a hang, an
  in-worker exception, or a **corrupt payload** (fails the caller's
  round-trip validator) as one failed attempt, retried with exponential
  backoff up to ``max_retries`` times;
* **quarantines** a task whose attempts are exhausted: the caller's
  ``fallback`` (the experiment runner degrades to the analytic miss
  model, ``degraded=True``) supplies a stand-in so sweeps always
  complete with a full result set;
* remains the **single writer** of durable state: workers return
  payloads over the pipe and the supervisor's ``on_result`` callback
  (which owns the checkpoint) records them — checkpoint-safe
  concurrency by construction.

The pool is generic: it executes any picklable ``fn(args) -> payload``
keyed task list and knows nothing about experiments. Worker lifecycle
is observable (``worker_start`` / ``worker_exit`` / ``point_retry`` /
``quarantine`` events, ``repro.pool.*`` metrics) and deterministically
testable via the process-fault plan of
:mod:`repro.resilience.faults` (``REPRO_FAULT_WORKER``).

Platform notes: the ``fork`` start method is preferred (cheap, test
functions need not be importable); ``spawn`` works for importable
worker functions. :func:`available` is False where multiprocessing
cannot run at all — callers degrade to their serial path.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError, PoolError
from repro.resilience import faults
from repro.resilience.signals import DrainState

__all__ = ["PoolPolicy", "TaskOutcome", "available", "run_supervised"]

log = logging.getLogger(__name__)

#: Supervisor poll granularity: the latency floor for noticing a dead
#: worker or an expired deadline. Results themselves wake the loop
#: immediately via ``connection.wait``.
_POLL_SECONDS = 0.05

_JOIN_SECONDS = 5.0


def available() -> bool:
    """Whether this platform can run supervised worker processes."""
    try:
        import multiprocessing as mp

        return bool(mp.get_all_start_methods())
    except (ImportError, NotImplementedError, OSError):  # pragma: no cover
        return False


def _context():
    """Prefer ``fork`` (cheap, closure-friendly); fall back to spawn."""
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


@dataclass(frozen=True)
class PoolPolicy:
    """Supervision parameters for one pool run.

    ``point_timeout`` is the hard per-attempt wall clock (SIGKILL on
    expiry); ``heartbeat_grace`` — how long a worker may go without a
    heartbeat before being declared hung — is ``None`` (disabled) by
    default because a loaded machine can starve a beat scheduler-side;
    enable it for hang detection faster than the wall timeout.
    """

    workers: int = 2
    point_timeout: float | None = None
    heartbeat_seconds: float = 0.5
    heartbeat_grace: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be positive, got {self.point_timeout}")
        if self.heartbeat_seconds <= 0:
            raise ConfigurationError(
                f"heartbeat_seconds must be positive, "
                f"got {self.heartbeat_seconds}")
        if self.heartbeat_grace is not None and self.heartbeat_grace <= 0:
            raise ConfigurationError(
                f"heartbeat_grace must be positive, "
                f"got {self.heartbeat_grace}")
        if self.max_retries < 0 or self.backoff_seconds < 0:
            raise ConfigurationError(
                f"retries/backoff must be non-negative: {self}")


@dataclass
class TaskOutcome:
    """What happened to one task across all its attempts."""

    key: tuple
    payload: dict | None = None
    attempts: int = 0
    quarantined: bool = False
    #: Never attempted (or abandoned pre-retry) because a graceful
    #: drain was requested; the task is checkpoint-resumable.
    skipped: bool = False
    #: One human-readable reason per failed attempt, in order.
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A worker produced (and validation accepted) the payload."""
        return self.payload is not None and not self.quarantined


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_main(conn, fn, args, fault, heartbeat_seconds,
                 obs_spec=None) -> None:
    """Child-process entry: run ``fn(args)``, stream heartbeats + result.

    The pipe is the only channel back; sends are serialized by a lock
    because the heartbeat thread shares the connection. Inherited
    observability state (a forked parent's live event bus / metrics
    registry) is replaced first: with an ``obs_spec`` the worker traces
    into its own shard (parented under the supervisor's task span),
    without one it goes silent — either way the supervisor stays the
    single writer of the run's own artifacts. The shard is flushed
    *before* the terminal pipe message, so the supervisor never merges
    a shard that is still being written.
    """
    from repro.obs import context as obs_context

    obs_context.init_worker(obs_spec)
    faults.reset_in_child()
    send_lock = threading.Lock()
    beating = threading.Event()
    beating.set()

    def _send(msg) -> bool:
        try:
            with send_lock:
                conn.send(msg)
            return True
        except Exception:
            return False

    def _beat() -> None:
        while beating.is_set():
            if not _send(("hb",)):
                return
            time.sleep(heartbeat_seconds)

    threading.Thread(target=_beat, daemon=True).start()
    try:
        if fault is not None and fault.action in ("kill", "hang"):
            faults.apply_worker_fault(fault, stop_heartbeat=beating.clear)
        payload = fn(args)
        if fault is not None and fault.action == "corrupt":
            payload = faults.corrupt_payload(payload)
        beating.clear()
        obs_context.finalize_worker()
        _send(("ok", payload))
    except BaseException as exc:
        beating.clear()
        obs_context.finalize_worker()
        _send(("err", type(exc).__name__, str(exc)))
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

@dataclass
class _Pending:
    index: int
    key: tuple
    args: Any
    attempts: int
    eligible_at: float
    #: Open supervised span id covering launch → retries → terminal
    #: state; allocated on first launch, carried across retries.
    span: str | None = None


@dataclass
class _Running:
    index: int
    key: tuple
    args: Any
    attempts: int          # failed attempts before this one
    proc: Any
    conn: Any
    deadline: float | None
    last_beat: float
    started: float = 0.0
    span: str | None = None


def run_supervised(fn: Callable[[Any], dict],
                   tasks: Iterable[tuple[tuple, Any]],
                   policy: PoolPolicy | None = None, *,
                   validate: Callable[[tuple, dict], Any] | None = None,
                   fallback: Callable[[tuple, Any], dict] | None = None,
                   on_result: Callable[[tuple, dict, bool], None] | None = None,
                   fault_plan: dict[int, faults.WorkerFault] | None = None,
                   drain: DrainState | None = None,
                   span_name: str = "task",
                   observer=None,
                   ) -> list[TaskOutcome]:
    """Execute keyed tasks in supervised child processes.

    ``tasks`` is an iterable of ``(key, args)`` with unique hashable
    keys; ``fn(args)`` runs in a child and must return a picklable
    payload dict. ``validate(key, payload)`` (optional) round-trip
    checks every worker payload — a raise counts as a failed attempt
    and the bad payload is discarded, never delivered. ``fallback(key,
    args)`` supplies a quarantined task's stand-in payload, computed in
    the supervisor. ``on_result(key, payload, quarantined)`` fires for
    every delivered payload, in completion order — the checkpoint hook.

    Returns one :class:`TaskOutcome` per task, in submission order.
    ``fault_plan`` defaults to the ``REPRO_FAULT_WORKER`` environment
    plan (see :mod:`repro.resilience.faults`).

    ``drain`` (a :class:`~repro.resilience.signals.DrainState`) makes
    the pool signal-aware: once a drain is requested, no new workers
    launch, in-flight workers finish (and record via ``on_result``),
    and everything still pending is marked ``skipped`` — resumable,
    not failed.

    Each task gets one supervised ``span_name`` span on the event bus,
    opened at first launch and closed at its terminal state (outcome
    ok/quarantined/skipped, total attempts) — retries live inside it.
    When the active run context has a shard directory, every launch
    carries a :func:`repro.obs.context.worker_spec` so the worker's own
    spans land in a shard parented under the task span; shards are
    merged back into the run trace after the pool finishes. ``observer``
    (a :class:`~repro.obs.status.StatusPublisher`) receives a
    ``pool_tick(running, pending)`` per supervision cycle.
    """
    # Lazy import: obs depends on resilience.atomic, so the reverse
    # edge must not exist at module import time.
    from multiprocessing import connection as mp_connection

    from repro.obs import context as obs_context
    from repro.obs import events, metrics

    policy = policy or PoolPolicy()
    if fault_plan is None:
        fault_plan = faults.worker_fault_plan()
    ctx = _context()
    bus = events.get_bus()
    specs_issued = False

    outcomes: dict[tuple, TaskOutcome] = {}
    order: list[tuple] = []
    pending: list[_Pending] = []
    for i, (key, args) in enumerate(tasks, start=1):
        key = tuple(key)
        if key in outcomes:
            raise PoolError(f"duplicate task key {key!r}")
        outcomes[key] = TaskOutcome(key=key)
        order.append(key)
        pending.append(_Pending(i, key, args, 0, 0.0))
    metrics.set_gauge("repro.pool.workers", policy.workers)

    def _reap(r: _Running) -> None:
        r.proc.join(timeout=_JOIN_SECONDS)
        if r.proc.is_alive():  # pragma: no cover - defensive
            r.proc.kill()
            r.proc.join(timeout=_JOIN_SECONDS)
        try:
            r.conn.close()
        except Exception:
            pass

    def _kill(r: _Running) -> None:
        r.proc.kill()
        _reap(r)

    def _close_span(span: str | None, key: tuple, outcome: str,
                    attempts: int) -> None:
        if span is not None:
            bus.close_span(span, key=list(key), outcome=outcome,
                           attempts=attempts, supervised=True)

    def _launch(p: _Pending) -> _Running:
        nonlocal specs_issued
        fault = fault_plan.get(p.index)
        if fault is not None and p.attempts > 0 and not fault.every_attempt:
            fault = None  # first-attempt faults let the retry succeed
        if p.span is None:
            p.span = bus.open_span(span_name, key=list(p.key),
                                   supervised=True)
        spec = obs_context.worker_spec(
            parent_span_id=p.span, label=f"t{p.index}a{p.attempts + 1}")
        specs_issued = specs_issued or spec is not None
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(send, fn, p.args, fault, policy.heartbeat_seconds, spec),
            daemon=True)
        proc.start()
        send.close()  # child's end only; EOF on our side when it dies
        now = time.monotonic()
        events.emit("worker_start", key=list(p.key), pid=proc.pid,
                    attempt=p.attempts + 1,
                    fault=fault.action if fault else None)
        deadline = (now + policy.point_timeout
                    if policy.point_timeout is not None else None)
        return _Running(p.index, p.key, p.args, p.attempts, proc, recv,
                        deadline, now, started=now, span=p.span)

    def _finish_failure(r: _Running, reason: str, outcome: str) -> None:
        out = outcomes[r.key]
        attempts = r.attempts + 1
        out.attempts = attempts
        out.failures.append(reason)
        events.emit("worker_exit", key=list(r.key), pid=r.proc.pid,
                    outcome=outcome, reason=reason, attempt=attempts,
                    exitcode=r.proc.exitcode)
        metrics.inc("repro.pool.attempts", outcome=outcome)
        if attempts <= policy.max_retries:
            delay = policy.backoff_seconds * (2 ** (attempts - 1))
            log.warning("pool: %s attempt %d/%d failed (%s); retrying "
                        "in %.2fs", r.key, attempts,
                        policy.max_retries + 1, reason, delay)
            events.emit("point_retry", key=list(r.key), attempt=attempts,
                        reason=outcome)
            metrics.inc("repro.pool.retries")
            pending.append(_Pending(r.index, r.key, r.args, attempts,
                                    time.monotonic() + delay, span=r.span))
            return
        out.quarantined = True
        log.warning("pool: %s quarantined after %d failed attempts "
                    "(last: %s)", r.key, attempts, reason)
        events.emit("quarantine", key=list(r.key), attempts=attempts,
                    reason=outcome)
        metrics.inc("repro.pool.quarantined")
        if fallback is not None:
            payload = fallback(r.key, r.args)
            out.payload = payload
            if on_result is not None:
                on_result(r.key, payload, True)
        _close_span(r.span, r.key, "quarantined", attempts)

    def _finish_success(r: _Running, payload: dict) -> None:
        out = outcomes[r.key]
        if validate is not None:
            try:
                validate(r.key, payload)
            except Exception as exc:
                _finish_failure(
                    r, f"corrupt payload ({type(exc).__name__}: {exc})",
                    "corrupt")
                return
        out.attempts = r.attempts + 1
        out.payload = payload
        events.emit("worker_exit", key=list(r.key), pid=r.proc.pid,
                    outcome="ok", attempt=out.attempts)
        metrics.inc("repro.pool.attempts", outcome="ok")
        if on_result is not None:
            on_result(r.key, payload, False)
        _close_span(r.span, r.key, "ok", out.attempts)

    def _drain(r: _Running):
        """Consume buffered messages; the first terminal one wins.

        Returns ``("ok", payload)`` / ``("err", reason)`` / ``"eof"``
        (pipe closed without a result) / ``None`` (only heartbeats).
        """
        try:
            while r.conn.poll():
                msg = r.conn.recv()
                if msg[0] == "hb":
                    r.last_beat = time.monotonic()
                elif msg[0] == "ok":
                    return ("ok", msg[1])
                elif msg[0] == "err":
                    return ("err", f"worker raised {msg[1]}: {msg[2]}")
        except (EOFError, OSError):
            return "eof"
        return None

    running: list[_Running] = []
    try:
        while pending or running:
            if drain is not None and drain.requested and pending:
                for p in pending:
                    outcomes[p.key].skipped = True
                    _close_span(p.span, p.key, "skipped", p.attempts)
                log.info("pool: drain requested (%s) — %d pending task(s) "
                         "skipped, %d in flight finishing",
                         drain.signal_name(), len(pending), len(running))
                events.emit("pool_drain", signal=drain.signal_name(),
                            skipped=len(pending), in_flight=len(running))
                metrics.inc("repro.pool.drained_tasks", len(pending))
                pending.clear()
            now = time.monotonic()
            while len(running) < policy.workers:
                i = next((j for j, p in enumerate(pending)
                          if p.eligible_at <= now), None)
                if i is None:
                    break
                running.append(_launch(pending.pop(i)))
            if not running:
                # Only backoff-delayed tasks left: sleep to eligibility.
                nxt = min(p.eligible_at for p in pending)
                time.sleep(min(max(0.0, nxt - now), 0.25))
                continue
            ready = mp_connection.wait([r.conn for r in running],
                                       timeout=_POLL_SECONDS)
            now = time.monotonic()
            still: list[_Running] = []
            for r in running:
                res = _drain(r) if r.conn in ready else None
                if res is None and not r.proc.is_alive():
                    # Died between polls; pick up any result that raced in.
                    res = _drain(r) or "eof"
                if res is None:
                    if r.deadline is not None and now >= r.deadline:
                        _kill(r)
                        _finish_failure(
                            r, f"wall timeout after {policy.point_timeout}s "
                               f"(SIGKILL)", "timeout")
                    elif (policy.heartbeat_grace is not None
                          and now - r.last_beat > policy.heartbeat_grace):
                        _kill(r)
                        _finish_failure(
                            r, f"no heartbeat for {policy.heartbeat_grace}s "
                               f"(SIGKILL)", "hang")
                    else:
                        still.append(r)
                elif res == "eof":
                    _reap(r)
                    _finish_failure(
                        r, f"worker died without a result "
                           f"(exitcode {r.proc.exitcode})", "crash")
                elif res[0] == "ok":
                    _reap(r)
                    _finish_success(r, res[1])
                else:
                    _reap(r)
                    _finish_failure(r, res[1], "error")
            running = still
            if observer is not None:
                observer.pool_tick(
                    [{"pid": r.proc.pid, "key": list(r.key),
                      "attempt": r.attempts + 1,
                      "since_s": round(now - r.started, 2)}
                     for r in running],
                    len(pending))
    finally:
        for r in running:  # interrupted: never leak children
            try:
                _kill(r)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        if specs_issued:
            obs_context.merge_worker_shards()

    return [outcomes[k] for k in order]
