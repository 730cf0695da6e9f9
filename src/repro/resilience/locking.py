"""Advisory cross-process file locking for shared durable state.

Multiple sweeps — and, per the ROADMAP, the future tile-advisor
service — share one :class:`~repro.perf.store.PointStore` (a point
cache or a checkpoint). Entries are immutable files written
atomically, so puts need no lock; the multi-step mutations do — two
concurrent LRU evictions can thrash a store, and ``fsck --repair``
must not move entries under an eviction. :class:`FileLock` serializes
those critical sections.

Two implementations, chosen at runtime:

* **fcntl** (POSIX, the normal path): ``flock(LOCK_EX)`` on a ``.lock``
  sidecar. The kernel releases the lock when the holder dies, however
  it dies — SIGKILL included — so there is no staleness to manage.
* **lockfile fallback** (no ``fcntl``): ``O_CREAT|O_EXCL`` creation of
  the sidecar containing the holder's pid and timestamp. A crashed
  holder leaves the file behind; acquisition performs **stale-lock
  takeover** when the recorded pid is no longer alive or the lock has
  outlived ``stale_seconds``.

Locks are acquired with a bounded wait (:class:`repro.errors.LockError`
on timeout), are not reentrant, and protect *mutations only* — readers
stay lock-free because every artifact is written atomically
(:mod:`repro.resilience.atomic`), so a read observes either the old
record or the new one.
"""

from __future__ import annotations

import contextlib
import errno
import logging
import os
import pathlib
import time

from repro.errors import ConfigurationError, LockError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock", "DEFAULT_TIMEOUT", "DEFAULT_STALE_SECONDS",
           "resolve_stale_seconds"]

log = logging.getLogger(__name__)

#: Default acquisition wait. Store critical sections are one directory
#: scan plus unlinks, so contention clears in milliseconds; a long
#: wait here means a wedged (but live) holder, which we surface.
DEFAULT_TIMEOUT = 30.0

#: Default age past which a fallback lockfile may be taken over.
#: Override per deployment with ``REPRO_LOCK_STALE_S`` (positive
#: seconds): long-running services want a shorter horizon than a
#: ten-minute batch sweep, crash-looping CI sometimes a longer one.
DEFAULT_STALE_SECONDS = 600.0

_POLL_SECONDS = 0.02


def resolve_stale_seconds(value: float | None = None) -> float:
    """The effective stale-takeover age: arg > env > default.

    A malformed or non-positive ``REPRO_LOCK_STALE_S`` raises
    :class:`~repro.errors.ConfigurationError` (the CLI maps it to exit
    2) rather than silently falling back — a typo here must not turn
    into a lock that can never be broken or one stolen instantly.
    """
    if value is not None:
        return value
    raw = os.environ.get("REPRO_LOCK_STALE_S")
    if raw is None or not raw.strip():
        return DEFAULT_STALE_SECONDS
    try:
        seconds = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_LOCK_STALE_S must be a number of seconds, "
            f"got {raw!r}") from None
    if seconds <= 0:
        raise ConfigurationError(
            f"REPRO_LOCK_STALE_S must be positive, got {raw!r}")
    return seconds


class FileLock:
    """An advisory, exclusive, cross-process lock on ``path``.

    ``path`` is the lock *sidecar* itself (callers conventionally use
    ``<artifact>.lock`` or ``<storedir>/.lock``). Use as a context
    manager::

        with FileLock(store_root / ".lock"):
            ...evict or repair the store...

    Not reentrant: acquiring a lock this process already holds raises
    :class:`~repro.errors.LockError` immediately (it would deadlock the
    fcntl path on some platforms and always deadlock the fallback).
    """

    def __init__(self, path: str | os.PathLike, *,
                 timeout: float = DEFAULT_TIMEOUT,
                 stale_seconds: float | None = None):
        self.path = pathlib.Path(path)
        self.timeout = timeout
        #: ``None`` defers to ``REPRO_LOCK_STALE_S`` (validated), then
        #: :data:`DEFAULT_STALE_SECONDS`.
        self.stale_seconds = resolve_stale_seconds(stale_seconds)
        self._fd: int | None = None
        self._held_fallback = False

    # ------------------------------------------------------------------
    @property
    def held(self) -> bool:
        return self._fd is not None or self._held_fallback

    def acquire(self) -> None:
        if self.held:
            raise LockError(f"lock {self.path} is already held by this "
                            f"process (FileLock is not reentrant)")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + max(0.0, self.timeout)
        if fcntl is not None:
            self._acquire_fcntl(deadline)
        else:  # pragma: no cover - exercised via _acquire_lockfile tests
            self._acquire_lockfile(deadline)

    def release(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        elif self._held_fallback:
            self._held_fallback = False
            try:
                self.path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _acquire_fcntl(self, deadline: float) -> None:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EAGAIN):
                        raise LockError(
                            f"cannot lock {self.path}: {exc}") from exc
                    if time.monotonic() >= deadline:
                        raise LockError(
                            f"timed out after {self.timeout}s waiting for "
                            f"lock {self.path} (held by another live "
                            f"process)") from None
                    time.sleep(_POLL_SECONDS)
            # Advisory metadata for humans inspecting a contended lock;
            # correctness never depends on it (flock dies with us).
            try:
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()} {time.time():.3f}\n".encode())
            except OSError:
                pass
            self._fd = fd
        except BaseException:
            if self._fd is None:
                os.close(fd)
            raise

    # ------------------------------------------------------------------
    def _acquire_lockfile(self, deadline: float) -> None:
        """O_EXCL lockfile with stale-lock takeover (no-fcntl platforms)."""
        while True:
            try:
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                os.write(fd, f"{os.getpid()} {time.time():.3f}\n".encode())
                os.close(fd)
                self._held_fallback = True
                return
            except FileExistsError:
                if self._steal_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    raise LockError(
                        f"timed out after {self.timeout}s waiting for "
                        f"lock {self.path}") from None
                time.sleep(_POLL_SECONDS)
            except OSError as exc:
                raise LockError(f"cannot lock {self.path}: {exc}") from exc

    def _steal_if_stale(self) -> bool:
        """Remove the lockfile if its recorded holder is provably gone."""
        try:
            raw = self.path.read_text().split()
            pid = int(raw[0])
            stamp = float(raw[1]) if len(raw) > 1 else 0.0
        except (OSError, ValueError, IndexError):
            # Unreadable/garbled lockfile: age it out via mtime.
            try:
                stamp = self.path.stat().st_mtime
            except OSError:
                return True  # vanished: retry the create
            pid = None
        alive = pid is not None and _pid_alive(pid)
        expired = (time.time() - stamp) > self.stale_seconds
        # A holder is broken only when provably dead or aged out. An
        # unreadable pid (garbled lockfile) is *not* proof of death —
        # wait for the age criterion instead of stealing a live lock.
        if (alive or pid is None) and not expired:
            return False
        log.warning("breaking stale lock %s (pid %s %s, age %.0fs)",
                    self.path, pid, "alive" if alive else "dead",
                    time.time() - stamp)
        with contextlib.suppress(OSError):
            self.path.unlink()
        return True


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - conservative
        return True
