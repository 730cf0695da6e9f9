"""Graceful SIGINT/SIGTERM draining for checkpointed sweeps.

A long sweep interrupted by Ctrl-C or a scheduler's SIGTERM should not
die mid-point with work in flight: points that are already simulating
represent real compute, and the checkpoint makes everything
finished durable. :func:`graceful_drain` installs handlers that convert
the *first* SIGINT/SIGTERM into a drain request — the sweep stops
starting new points, lets in-flight points finish and be recorded, then
raises :class:`repro.errors.SweepInterrupted` (the CLI maps it to the
conventional exit code 130). A *second* signal aborts immediately via
``KeyboardInterrupt`` — the operator's escape hatch from a stuck drain.

Handlers are process-global state, so installation is restricted to the
main thread (Python requires this) and is a no-op elsewhere: a sweep
running inside a worker thread simply keeps default signal behaviour.
Only checkpointed/stored sweeps install the drain — a plain in-memory
sweep has nothing durable to protect, and Ctrl-C should kill it the
ordinary way.
"""

from __future__ import annotations

import contextlib
import logging
import signal
import threading
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["DrainState", "graceful_drain"]

log = logging.getLogger(__name__)

_DRAIN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@dataclass
class DrainState:
    """Whether (and how) a drain has been requested."""

    requested: bool = False
    signum: int | None = None
    count: int = 0
    #: Filled by the sweep as it drains, for the interrupt message.
    completed: int = 0
    _installed: bool = field(default=False, repr=False)

    def signal_name(self) -> str:
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown signum
            return str(self.signum)


@contextlib.contextmanager
def graceful_drain() -> Iterator[DrainState]:
    """Install drain-on-first-signal handlers for the ``with`` block.

    Yields a :class:`DrainState` the sweep polls between points (serial)
    or between scheduling decisions (the supervised pool). Previous
    handlers are restored on exit. Off the main thread this yields an
    inert state and installs nothing.
    """
    state = DrainState()
    if threading.current_thread() is not threading.main_thread():
        yield state
        return

    def _handler(signum, frame) -> None:
        state.count += 1
        state.requested = True
        state.signum = signum
        if state.count >= 2:
            # Second signal: the operator wants out *now*.
            raise KeyboardInterrupt
        log.warning("received %s: draining — in-flight points will "
                    "finish and be checkpointed; signal again to abort",
                    DrainState(signum=signum).signal_name())

    previous = {}
    try:
        for sig in _DRAIN_SIGNALS:
            previous[sig] = signal.signal(sig, _handler)
        state._installed = True
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield state
        return
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
