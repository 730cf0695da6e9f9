"""Deterministic fault injection for resilience testing.

Long sweeps fail in boring, reproducible ways: a process dies on the
k-th simulation, a point stalls past its deadline, a checkpoint entry
is truncated by a power cut. This module scripts those failures exactly so
tests can prove that resume-after-crash and budget-triggered
degradation actually work — no monkeypatching of library internals, no
timing races.

The experiment runner calls :func:`tick` at two *sites*:

* ``"simulate"`` — once at the start of every exact point simulation;
* ``"chunk"`` — once per trace chunk inside a simulation.

An installed :class:`FaultInjector` counts calls per site and fires the
actions scheduled for that call index: raise an exception (a crash or a
:class:`repro.errors.RetryableError`) or advance a :class:`FakeClock`
(a stall, which the budget's deadline then converts into
:class:`repro.errors.BudgetExceededError`). With no injector installed
:func:`tick` is a no-op, so production sweeps pay one ``None`` check.

:func:`corrupt_file` mangles durable files the way real crashes do
(torn tail, appended garbage) for the recovery tests.

**Process-level faults** target the supervised worker pool
(:mod:`repro.resilience.pool`), whose failure modes — a SIGKILL'd
worker, a hung worker, a worker returning garbage — cannot be expressed
as in-process exceptions. They are scripted through the
``REPRO_FAULT_WORKER`` environment variable (or an explicit plan passed
to ``run_supervised``): a comma/semicolon-separated list of
``action:index[:all]`` entries, where ``action`` is ``kill`` (worker
SIGKILLs itself), ``hang`` (worker stops heartbeating and sleeps
forever — the supervisor's timeout must reap it), or ``corrupt``
(worker returns a truncated, type-mangled payload), and ``index`` is
the 1-based task submission index. By default a fault fires only on the
task's *first* attempt (so retries succeed — proving the retry path);
``:all`` makes it fire on every attempt (forcing quarantine). The
supervisor parses the plan and ships each attempt's directive to its
worker, so firing is deterministic regardless of scheduling.

**IO faults** (``REPRO_FAULT_IO=mode:path_glob[:nth]``) script the
filesystem lying: ``torn_write`` (the write stops halfway and dies),
``enospc`` (disk full), ``eio`` (read or write error), ``fsync_fail``
(the pre-rename fsync fails). They fire inside the atomic writer
(:mod:`repro.resilience.atomic`) and the point-store read path, so
every durability claim — old artifact intact on a failed write, corrupt
reads quarantined, never served — is provable by tests. The glob
matches the target's basename or full path; ``nth`` counts matching
operations within one process (``0`` = every one).

**Supervisor faults** (``REPRO_FAULT_SUPERVISOR=action:nth[:before]``,
action in ``kill|term|int``) signal the *supervisor itself* at the
``nth`` checkpoint-record boundary — ``kill`` is the chaos harness's
supervisor crash (resume must be lossless), ``term``/``int`` exercise
graceful draining. ``:before`` fires before the record is durably
flushed, losing the in-flight point.
"""

from __future__ import annotations

import contextlib
import fnmatch
import os
import pathlib
import re
import signal
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["FakeClock", "FaultInjector", "inject", "tick",
           "active_clock", "active_sleep", "corrupt_file",
           "WorkerFault", "WORKER_FAULT_ENV", "worker_fault_plan",
           "apply_worker_fault", "corrupt_payload", "reset_in_child",
           "IOFault", "IOFaultPlan", "IO_FAULT_ENV", "io_fault_plan",
           "inject_io", "io_check",
           "SupervisorFault", "SUPERVISOR_FAULT_ENV",
           "supervisor_fault_plan", "inject_supervisor",
           "supervisor_check", "fire_supervisor"]


class FakeClock:
    """A manually-advanced monotonic clock (starts at 0.0)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep`` that advances this clock instead."""
        self.advance(seconds)


class FaultInjector:
    """Scripts exceptions and clock jumps at exact call indices.

    Call indices are 1-based per site; an index can carry both a clock
    advance and an exception (the advance fires first, mirroring a
    process that stalls and *then* dies).
    """

    def __init__(self, clock: FakeClock | None = None):
        self.clock = clock
        self._counts: dict[str, int] = {}
        self._raises: dict[tuple[str, int], Exception] = {}
        self._advances: dict[tuple[str, int], float] = {}

    # -- scheduling ----------------------------------------------------
    def fail_on(self, site: str, call: int,
                exc: Exception) -> "FaultInjector":
        """Raise ``exc`` on the ``call``-th tick of ``site``."""
        self._raises[(site, call)] = exc
        return self

    def advance_on(self, site: str, call: int,
                   seconds: float) -> "FaultInjector":
        """Jump the fake clock on the ``call``-th tick of ``site``."""
        if self.clock is None:
            raise ConfigurationError(
                "advance_on requires a FaultInjector(clock=FakeClock())")
        self._advances[(site, call)] = seconds
        return self

    # -- firing --------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many times ``site`` has ticked."""
        return self._counts.get(site, 0)

    def tick(self, site: str) -> None:
        k = self._counts.get(site, 0) + 1
        self._counts[site] = k
        jump = self._advances.get((site, k))
        if jump is not None and self.clock is not None:
            self.clock.advance(jump)
        exc = self._raises.get((site, k))
        if exc is not None:
            raise exc


_ACTIVE: FaultInjector | None = None


@contextlib.contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of the ``with`` block."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = prev


def tick(site: str) -> None:
    """Fire the active injector's actions for ``site`` (no-op if none)."""
    if _ACTIVE is not None:
        _ACTIVE.tick(site)


def active_clock(default: Callable[[], float] = time.monotonic
                 ) -> Callable[[], float]:
    """The installed injector's fake clock, or ``default``."""
    if _ACTIVE is not None and _ACTIVE.clock is not None:
        return _ACTIVE.clock
    return default


def active_sleep(default: Callable[[float], None] = time.sleep
                 ) -> Callable[[float], None]:
    """A sleep matching :func:`active_clock` (fake time never blocks)."""
    if _ACTIVE is not None and _ACTIVE.clock is not None:
        return _ACTIVE.clock.sleep
    return default


# ----------------------------------------------------------------------
# process-level faults (worker pool)
# ----------------------------------------------------------------------

#: Environment variable holding the default worker fault plan.
WORKER_FAULT_ENV = "REPRO_FAULT_WORKER"

_WORKER_ACTIONS = ("kill", "hang", "corrupt")


@dataclass(frozen=True)
class WorkerFault:
    """One scripted worker failure: ``action`` at task ``index``."""

    action: str          # kill | hang | corrupt
    index: int           # 1-based task submission index
    every_attempt: bool = False  # fire on retries too (forces quarantine)


def worker_fault_plan(spec: str | None = None) -> dict[int, "WorkerFault"]:
    """Parse a worker fault plan (``REPRO_FAULT_WORKER`` by default).

    ``spec`` is a comma/semicolon-separated list of
    ``action:index[:all]`` entries — see the module docstring. Returns
    a mapping of task index to fault; empty when no plan is set.
    """
    if spec is None:
        spec = os.environ.get(WORKER_FAULT_ENV, "")
    plan: dict[int, WorkerFault] = {}
    for entry in re.split(r"[,;]", spec):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3) or parts[0] not in _WORKER_ACTIONS:
            raise ConfigurationError(
                f"bad worker fault entry {entry!r}; expected "
                f"action:index[:all] with action in "
                f"{'|'.join(_WORKER_ACTIONS)}")
        try:
            index = int(parts[1])
        except ValueError:
            raise ConfigurationError(
                f"bad worker fault index in {entry!r}") from None
        if index < 1:
            raise ConfigurationError(
                f"worker fault index must be >= 1, got {index}")
        every = False
        if len(parts) == 3:
            if parts[2] != "all":
                raise ConfigurationError(
                    f"bad worker fault modifier {parts[2]!r} in {entry!r}; "
                    f"only 'all' is valid")
            every = True
        plan[index] = WorkerFault(parts[0], index, every)
    return plan


def apply_worker_fault(fault: WorkerFault,
                       stop_heartbeat: Callable[[], None] | None = None
                       ) -> None:
    """Execute a ``kill``/``hang`` fault inside the worker process.

    ``corrupt`` is not handled here — the worker computes its result
    first and the caller mangles it with :func:`corrupt_payload`. Both
    kill and hang stop the heartbeat thread first, mirroring a process
    that goes dark before it dies (or never dies).
    """
    if fault.action == "kill":
        if stop_heartbeat is not None:
            stop_heartbeat()
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.action == "hang":
        if stop_heartbeat is not None:
            stop_heartbeat()
        while True:  # pragma: no cover - reaped by the supervisor's SIGKILL
            time.sleep(3600)


def corrupt_payload(payload: dict) -> dict:
    """Deterministically mangle a result payload.

    Drops one key (truncation) and type-mangles another (a float that
    became a string), plus a marker key no schema expects — the three
    ways a half-written or version-skewed payload actually breaks
    round-tripping.
    """
    bad = dict(payload)
    if bad:
        bad.pop(sorted(bad)[0])
    if bad:
        key = sorted(bad)[-1]
        bad[key] = f"<corrupt:{bad[key]!r}>"
    bad["__corrupt__"] = True
    return bad


def reset_in_child() -> None:
    """Uninstall any inherited in-process injector (forked workers).

    Worker faults are scripted by the supervisor per attempt; a fork
    must not also inherit the parent's in-process injector, whose call
    counts would fire at meaningless indices. The same applies to
    context-injected IO and supervisor fault plans (env-var plans are
    re-parsed per process, which is what chaos subprocesses want).
    """
    global _ACTIVE, _IO_ACTIVE, _SUPERVISOR_ACTIVE
    _ACTIVE = None
    _IO_ACTIVE = None
    _SUPERVISOR_ACTIVE = None


# ----------------------------------------------------------------------
# IO faults (atomic writes, store reads)
# ----------------------------------------------------------------------

#: Environment variable holding the default IO fault plan.
IO_FAULT_ENV = "REPRO_FAULT_IO"

#: mode -> the IO ops it fires at. ``torn_write`` and ``enospc`` strike
#: while bytes are being written, ``fsync_fail`` at the pre-rename
#: fsync, ``eio`` on writes *and* reads (a disk that lies both ways).
_IO_MODE_OPS = {
    "torn_write": ("write",),
    "enospc": ("write",),
    "eio": ("write", "read"),
    "fsync_fail": ("fsync",),
}


@dataclass(frozen=True)
class IOFault:
    """One scripted IO failure: ``mode`` on the nth op matching a glob."""

    mode: str            # torn_write | enospc | eio | fsync_fail
    pattern: str         # fnmatch glob against the basename or full path
    nth: int = 1         # 1-based count of matching ops; 0 = every one

    def matches_path(self, path: os.PathLike | str) -> bool:
        s = str(path)
        return (fnmatch.fnmatch(os.path.basename(s), self.pattern)
                or fnmatch.fnmatch(s, self.pattern))


class IOFaultPlan:
    """A parsed IO fault plan with per-fault firing counters."""

    def __init__(self, faults_: list[IOFault]):
        self.faults = list(faults_)
        self._counts = [0] * len(self.faults)

    def check(self, op: str, path: os.PathLike | str) -> IOFault | None:
        """Count this ``op`` against every fault; return one that fires."""
        fired = None
        for i, f in enumerate(self.faults):
            if op not in _IO_MODE_OPS[f.mode] or not f.matches_path(path):
                continue
            self._counts[i] += 1
            if f.nth == 0 or self._counts[i] == f.nth:
                fired = fired or f
        return fired


def io_fault_plan(spec: str | None = None) -> IOFaultPlan:
    """Parse an IO fault plan (``REPRO_FAULT_IO`` by default).

    ``spec`` is a comma/semicolon-separated list of
    ``mode:path_glob[:nth]`` entries, e.g.
    ``torn_write:ckpt/*:2, eio:point-cache*``. ``nth`` counts matching
    IO operations 1-based within one process (``0`` = every one).
    """
    if spec is None:
        spec = os.environ.get(IO_FAULT_ENV, "")
    faults_: list[IOFault] = []
    for entry in re.split(r"[,;]", spec):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3) or parts[0] not in _IO_MODE_OPS:
            raise ConfigurationError(
                f"bad IO fault entry {entry!r}; expected "
                f"mode:path_glob[:nth] with mode in "
                f"{'|'.join(sorted(_IO_MODE_OPS))}")
        nth = 1
        if len(parts) == 3:
            try:
                nth = int(parts[2])
            except ValueError:
                raise ConfigurationError(
                    f"bad IO fault count in {entry!r}") from None
            if nth < 0:
                raise ConfigurationError(
                    f"IO fault count must be >= 0, got {nth}")
        faults_.append(IOFault(parts[0], parts[1], nth))
    return IOFaultPlan(faults_)


_IO_ACTIVE: IOFaultPlan | None = None
#: (spec string, plan) cache so env-driven plans keep their firing
#: counters across calls within one process.
_IO_ENV_PLAN: tuple[str, IOFaultPlan] | None = None


@contextlib.contextmanager
def inject_io(plan: IOFaultPlan | str) -> Iterator[IOFaultPlan]:
    """Install an IO fault plan for the duration of the ``with`` block."""
    global _IO_ACTIVE
    if isinstance(plan, str):
        plan = io_fault_plan(plan)
    prev = _IO_ACTIVE
    _IO_ACTIVE = plan
    try:
        yield plan
    finally:
        _IO_ACTIVE = prev


def io_check(op: str, path: os.PathLike | str) -> IOFault | None:
    """The fault to fire for this IO ``op`` on ``path``, if any.

    Consults the context-injected plan first, else the
    ``REPRO_FAULT_IO`` environment plan (parsed once per spec value per
    process, so counters persist). With neither, this is one dict
    lookup and one ``None`` check — the production fast path.
    """
    global _IO_ENV_PLAN
    if _IO_ACTIVE is not None:
        return _IO_ACTIVE.check(op, path)
    spec = os.environ.get(IO_FAULT_ENV)
    if not spec:
        return None
    if _IO_ENV_PLAN is None or _IO_ENV_PLAN[0] != spec:
        _IO_ENV_PLAN = (spec, io_fault_plan(spec))
    return _IO_ENV_PLAN[1].check(op, path)


# ----------------------------------------------------------------------
# supervisor faults (chaos: kill/signal the supervisor itself)
# ----------------------------------------------------------------------

#: Environment variable holding the default supervisor fault plan.
SUPERVISOR_FAULT_ENV = "REPRO_FAULT_SUPERVISOR"

_SUPERVISOR_ACTIONS = {"kill": signal.SIGKILL, "term": signal.SIGTERM,
                       "int": signal.SIGINT}


@dataclass(frozen=True)
class SupervisorFault:
    """One scripted supervisor failure at a checkpoint-record boundary.

    ``action`` is ``kill`` (SIGKILL self — the chaos harness's
    supervisor crash), ``term`` or ``int`` (SIGTERM/SIGINT self — the
    graceful-drain path). ``nth`` is the 1-based count of ticks at the
    site; ``before`` fires *before* the record is durably flushed (the
    point in flight is lost and must be re-run) rather than after.
    """

    action: str          # kill | term | int
    nth: int             # 1-based site tick index
    before: bool = False


class SupervisorFaultPlan:
    """Parsed supervisor fault plan with per-site counters."""

    def __init__(self, faults_: list[SupervisorFault]):
        self.faults = list(faults_)
        self._counts: dict[str, int] = {}

    def check(self, site: str) -> SupervisorFault | None:
        k = self._counts.get(site, 0) + 1
        self._counts[site] = k
        for f in self.faults:
            if f.nth == k:
                return f
        return None


def supervisor_fault_plan(spec: str | None = None) -> SupervisorFaultPlan:
    """Parse a supervisor fault plan (``REPRO_FAULT_SUPERVISOR``).

    ``spec`` entries are ``action:nth[:before]`` with ``action`` in
    ``kill|term|int`` — e.g. ``kill:3`` SIGKILLs the supervisor right
    after the 3rd checkpoint record is written; ``kill:3:before`` right
    before it (losing the in-flight point).
    """
    if spec is None:
        spec = os.environ.get(SUPERVISOR_FAULT_ENV, "")
    faults_: list[SupervisorFault] = []
    for entry in re.split(r"[,;]", spec):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3) or parts[0] not in _SUPERVISOR_ACTIONS:
            raise ConfigurationError(
                f"bad supervisor fault entry {entry!r}; expected "
                f"action:nth[:before] with action in "
                f"{'|'.join(sorted(_SUPERVISOR_ACTIONS))}")
        try:
            nth = int(parts[1])
        except ValueError:
            raise ConfigurationError(
                f"bad supervisor fault index in {entry!r}") from None
        if nth < 1:
            raise ConfigurationError(
                f"supervisor fault index must be >= 1, got {nth}")
        before = False
        if len(parts) == 3:
            if parts[2] != "before":
                raise ConfigurationError(
                    f"bad supervisor fault modifier {parts[2]!r} in "
                    f"{entry!r}; only 'before' is valid")
            before = True
        faults_.append(SupervisorFault(parts[0], nth, before))
    return SupervisorFaultPlan(faults_)


_SUPERVISOR_ACTIVE: SupervisorFaultPlan | None = None
_SUPERVISOR_ENV_PLAN: tuple[str, SupervisorFaultPlan] | None = None


@contextlib.contextmanager
def inject_supervisor(plan: SupervisorFaultPlan | str
                      ) -> Iterator[SupervisorFaultPlan]:
    """Install a supervisor fault plan for the ``with`` block."""
    global _SUPERVISOR_ACTIVE
    if isinstance(plan, str):
        plan = supervisor_fault_plan(plan)
    prev = _SUPERVISOR_ACTIVE
    _SUPERVISOR_ACTIVE = plan
    try:
        yield plan
    finally:
        _SUPERVISOR_ACTIVE = prev


def supervisor_check(site: str) -> SupervisorFault | None:
    """Tick a supervisor fault site; return the fault due now, if any.

    Like :func:`io_check`: context-injected plan first, else the
    environment plan with counters persisted across calls.
    """
    global _SUPERVISOR_ENV_PLAN
    if _SUPERVISOR_ACTIVE is not None:
        return _SUPERVISOR_ACTIVE.check(site)
    spec = os.environ.get(SUPERVISOR_FAULT_ENV)
    if not spec:
        return None
    if _SUPERVISOR_ENV_PLAN is None or _SUPERVISOR_ENV_PLAN[0] != spec:
        _SUPERVISOR_ENV_PLAN = (spec, supervisor_fault_plan(spec))
    return _SUPERVISOR_ENV_PLAN[1].check(site)


def fire_supervisor(fault: SupervisorFault) -> None:
    """Deliver a supervisor fault to this process.

    ``kill`` never returns; ``term``/``int`` return after the signal
    handler runs (the graceful-drain handlers just set a flag).
    """
    os.kill(os.getpid(), _SUPERVISOR_ACTIONS[fault.action])


def corrupt_file(path: str | pathlib.Path,
                 mode: str = "truncate") -> pathlib.Path:
    """Damage a durable file the way real interruptions do.

    ``truncate`` cuts the last line in half (kill during a non-atomic
    write or copy); ``garbage`` appends a non-JSON line. Returns the
    path.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if mode == "truncate":
        lines = text.splitlines()
        lines[-1] = lines[-1][: max(1, len(lines[-1]) // 2)]
        path.write_text("\n".join(lines) + "\n")
    elif mode == "garbage":
        path.write_text(text + "!!! not json {{{" + "\n")
    else:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; valid: truncate, garbage")
    return path
