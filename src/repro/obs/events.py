"""Structured run events: nested timed spans over pluggable sinks.

The event bus is the backbone of the observability layer
(:mod:`repro.obs`): every experiment phase — a sweep, one simulated
point, one exact simulation — opens a *span*, and anything noteworthy
in between (a retry, a checkpoint resume, a degraded point) is emitted
as a point event. Spans nest; the bus stamps every record with a
monotonic sequence number, timestamps, and the enclosing span path, so
a run's JSONL file totally orders everything that happened.

Design constraints:

* **Disabled must be near-free.** The default global bus carries a
  :class:`NullSink`; :func:`emit` returns after one truthiness check
  and :func:`span` hands back a shared no-op context manager. Hot
  paths may call these unconditionally.
* **Durable files are never half-written.** :class:`JsonlSink` buffers
  lines and rewrites the whole file through
  :func:`repro.resilience.atomic.atomic_write_text`, so a killed run
  leaves a parseable event file (the same durability contract as
  point stores).

Event schema (stable, version 1)
--------------------------------

Every record carries ``v`` (schema version), ``seq`` (monotonic per
run), ``ts`` (unix time), ``t`` (seconds since the bus started),
``kind``, and ``span`` (the ``/``-joined path of enclosing spans at
emit time). ``kind == "span_start"`` and ``"span_end"`` add ``name``
plus the span's attributes; ``span_end`` also carries ``dur_s``, any
result fields attached through the span handle, ``error`` (exception
type name) when the span exited exceptionally, and — under profiling —
``mem_peak_kb`` (tracemalloc peak since span entry). All other kinds
are free-form point events (``retry``, ``degraded``,
``checkpoint_resume``, ...).

Additive fields (still version 1, absent on old files):

* Spans carry ``span_id`` (unique within the run: ``<node>:<hex>``)
  and ``parent_id`` (the enclosing span's id, omitted at the root), so
  a merged multi-process trace stays causally linked even though each
  process keeps its own ``seq``.
* When a :class:`~repro.obs.context.RunContext` is attached to the
  bus, every record is stamped with ``run`` (the run id) and ``node``
  (``sup`` for the supervisor, ``w<pid>`` for a pool worker).
"""

from __future__ import annotations

import atexit
import contextlib
import json
import pathlib
import time
import weakref
from typing import Any, Iterator

from repro.resilience.atomic import atomic_write_text

__all__ = [
    "SCHEMA_VERSION",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "EventBus",
    "get_bus",
    "use",
    "emit",
    "span",
    "disarm_inherited_sinks",
]

SCHEMA_VERSION = 1


class NullSink:
    """Discards everything; the disabled bus's sink."""

    __slots__ = ()

    def write(self, record: dict) -> None:  # pragma: no cover - never called
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Keeps records in a list (tests and in-process consumers)."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Live JsonlSinks whose atexit flush is armed; forked children disarm
#: them (see :func:`disarm_inherited_sinks`) so a worker never rewrites
#: the supervisor's event file with an inherited buffer.
_ARMED_SINKS: "weakref.WeakSet[JsonlSink]" = weakref.WeakSet()


class JsonlSink:
    """Writes events as JSON lines, atomically rewritten on flush.

    Lines are buffered and the whole file is rewritten through
    :func:`~repro.resilience.atomic.atomic_write_text` every
    ``flush_every`` events and on :meth:`close`, so readers (and a
    process killed mid-run) always see a valid JSONL prefix of the
    event stream — never a torn line. The buffer is additionally
    flushed at interpreter exit (``atexit``), so a run that never
    reaches its close path — an unhandled crash, ``sys.exit`` deep in a
    library — still loses at most nothing; only SIGKILL can cost the
    current unflushed batch.
    """

    def __init__(self, path: str | pathlib.Path, flush_every: int = 256):
        self.path = pathlib.Path(path)
        self._lines: list[str] = []
        self._dirty = 0
        self._flush_every = max(1, flush_every)
        atexit.register(self.flush)
        _ARMED_SINKS.add(self)

    def write(self, record: dict) -> None:
        self._lines.append(json.dumps(record, default=repr))
        self._dirty += 1
        if self._dirty >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        if self._dirty:
            atomic_write_text(self.path, "\n".join(self._lines) + "\n")
            self._dirty = 0

    def close(self) -> None:
        self.flush()
        self.disarm()

    def disarm(self) -> None:
        """Drop the atexit hook (idempotent; buffered lines stay)."""
        atexit.unregister(self.flush)
        _ARMED_SINKS.discard(self)


def disarm_inherited_sinks() -> None:
    """Neutralize every armed JsonlSink in a forked child.

    A forked pool worker inherits the parent's sink objects *and* their
    atexit registrations; left armed, a child exiting through the
    normal interpreter path would rewrite the supervisor's event file
    with a stale buffer, racing the single writer. Workers call this
    (via ``obs.context.init_worker`` / ``obs.reset_in_child``) before
    installing their own bus.
    """
    for sink in list(_ARMED_SINKS):
        sink._lines.clear()
        sink._dirty = 0
        sink.disarm()


class _NullSpan:
    """Reusable no-op span: enters to a fresh dict, never emits."""

    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: emits start/end records and times the body.

    Entering yields a dict; fields assigned to it become part of the
    ``span_end`` record (e.g. ``sp["l1_rate"] = ...``).
    """

    __slots__ = ("_bus", "_name", "_attrs", "_out", "_t0", "_mem",
                 "_sid", "_parent")

    def __init__(self, bus: "EventBus", name: str, attrs: dict):
        self._bus = bus
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> dict:
        bus = self._bus
        self._sid = bus._next_span_id()
        self._parent = bus.current_parent_id()
        ids = {"span_id": self._sid}
        if self._parent is not None:
            ids["parent_id"] = self._parent
        bus.emit("span_start", name=self._name, **ids, **self._attrs)
        bus._stack.append(self._name)
        bus._span_ids.append(self._sid)
        self._out: dict[str, Any] = {}
        self._mem = None
        if bus.profile:
            from repro.obs import profile as _profile

            self._mem = _profile.phase_enter()
        self._t0 = time.perf_counter()
        return self._out

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        bus = self._bus
        if bus._stack and bus._stack[-1] == self._name:
            bus._stack.pop()
            if bus._span_ids:
                bus._span_ids.pop()
        fields = dict(self._attrs)
        fields.update(self._out)
        if self._mem is not None:
            from repro.obs import profile as _profile

            fields["mem_peak_kb"] = _profile.phase_exit(self._mem)
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        fields["span_id"] = self._sid
        if self._parent is not None:
            fields["parent_id"] = self._parent
        bus.emit("span_end", name=self._name, dur_s=dur, **fields)
        if len(bus._stack) <= bus._base_depth:
            # A top-level span just closed: make the timeline durable
            # now, not at the next flush_every boundary — a run killed
            # between phases loses nothing already completed.
            bus.flush()
        return False


class EventBus:
    """Sequences, stamps, and routes events to a sink.

    A bus built on a :class:`NullSink` (the default) is *disabled*:
    ``emit`` returns immediately and ``span`` yields a shared no-op
    context manager, so instrumentation left in hot paths costs one
    branch.
    """

    def __init__(self, sink=None, *, profile: bool = False,
                 context=None, parent_span_id: str | None = None,
                 span_prefix: list[str] | None = None):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)
        self.profile = profile and self.enabled
        #: Optional :class:`~repro.obs.context.RunContext`; when set,
        #: every record is stamped with ``run`` and ``node``.
        self.context = context
        #: Root parent for this bus's top-level spans — a worker bus
        #: anchors its spans under the supervisor's point span.
        self._parent0 = parent_span_id
        self._seq = 0
        self._id_seq = 0
        self._t0 = time.perf_counter()
        #: Span-path prefix inherited from the spawning process, so a
        #: worker's records render under the same path as serial runs
        #: (e.g. ``run/sweep/point``). Names only; ids come via
        #: ``parent_span_id``.
        self._stack: list[str] = list(span_prefix or [])
        self._base_depth = len(self._stack)
        self._span_ids: list[str] = []
        #: Manually opened spans (id -> (name, t0, parent)); see
        #: :meth:`open_span`.
        self._manual: dict[str, tuple[str, float, str | None]] = {}

    # ------------------------------------------------------------------
    def _next_span_id(self) -> str:
        self._id_seq += 1
        node = self.context.node if self.context is not None else "l"
        return f"{node}:{self._id_seq:x}"

    def current_parent_id(self) -> str | None:
        """The span id a new span would be parented under right now."""
        return self._span_ids[-1] if self._span_ids else self._parent0

    def emit(self, kind: str, **fields) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        record = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "ts": time.time(),
            "t": round(time.perf_counter() - self._t0, 6),
            "kind": kind,
            "span": "/".join(self._stack),
        }
        if self.context is not None:
            record["run"] = self.context.run_id
            record["node"] = self.context.node
        record.update(fields)
        self._seq += 1
        self.sink.write(record)

    def span(self, name: str, **attrs):
        """A nested timed phase; see :class:`_Span` for the handle."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    # ------------------------------------------------------------------
    def open_span(self, name: str, **attrs) -> str | None:
        """Begin a span detached from the ``with``-nesting stack.

        For phases whose begin/end are separated across callbacks (a
        pool task spanning launch → retries → terminal outcome) rather
        than lexical scope. Returns the span id to pass to
        :meth:`close_span`, or ``None`` when the bus is disabled. The
        span parents under whatever span is current at open time, but
        does not itself become the parent of subsequently opened spans.
        """
        if not self.enabled:
            return None
        sid = self._next_span_id()
        parent = self.current_parent_id()
        self._manual[sid] = (name, time.perf_counter(), parent)
        ids = {"span_id": sid}
        if parent is not None:
            ids["parent_id"] = parent
        self.emit("span_start", name=name, **ids, **attrs)
        return sid

    def close_span(self, span_id: str | None, **fields) -> None:
        """End a span opened with :meth:`open_span` (``None`` is a no-op)."""
        if span_id is None or not self.enabled:
            return
        name, t0, parent = self._manual.pop(span_id, ("?", None, None))
        ids: dict[str, Any] = {"span_id": span_id}
        if parent is not None:
            ids["parent_id"] = parent
        if t0 is not None:
            ids["dur_s"] = time.perf_counter() - t0
        self.emit("span_end", name=name, **ids, **fields)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


#: The process-global bus; disabled until a CLI session (or a test)
#: installs a real sink via :func:`use`.
_BUS = EventBus()


def get_bus() -> EventBus:
    """The currently installed global bus."""
    return _BUS


@contextlib.contextmanager
def use(bus: EventBus) -> Iterator[EventBus]:
    """Install ``bus`` globally for the duration of the ``with`` block."""
    global _BUS
    prev = _BUS
    _BUS = bus
    try:
        yield bus
    finally:
        _BUS = prev


def emit(kind: str, **fields) -> None:
    """Emit on the global bus (one branch when disabled)."""
    bus = _BUS
    if bus.enabled:
        bus.emit(kind, **fields)


def span(name: str, **attrs):
    """Open a span on the global bus (shared no-op when disabled)."""
    return _BUS.span(name, **attrs)
