"""Atomic file writes: temp file in the target directory + ``os.replace``.

POSIX ``rename(2)`` within one filesystem is atomic, so readers (and a
process killed mid-write) observe either the old content or the new —
never a half-written artifact. Every durable artifact this package
produces (point-store entries, run manifests, CSV exports, benchmark
tables) funnels through here.

Durability is two-level: the temp file is fsync'd before the swap (the
*bytes* survive power loss) and the containing directory is fsync'd
after it (the *name* survives power loss — without the directory sync a
crash can leave the rename itself unjournaled and the file reverts to
its old content on some filesystems).

Failure contract: any OS-level failure while producing the new content
(a torn write, ENOSPC, EIO, a failed temp-file fsync) leaves the **old
artifact untouched**, removes the temp file, and raises
:class:`repro.errors.StorageError` — a typed, catchable surface instead
of a raw ``OSError`` escaping from deep inside a sweep. The injectable
IO fault layer (:mod:`repro.resilience.faults`, ``REPRO_FAULT_IO``)
scripts exactly those failures so the contract is proven by tests.

A writer killed between ``mkstemp`` and ``os.replace`` leaves its temp
file behind; ``repro fsck`` reports it as an orphan and ``--repair``
removes it.
"""

from __future__ import annotations

import errno
import os
import pathlib
import tempfile

from repro.errors import StorageError
from repro.resilience import faults

__all__ = ["atomic_write_text"]


def _fsync_dir(dirpath: pathlib.Path) -> None:
    """Best-effort fsync of a directory, making a rename durable.

    Platforms without ``O_DIRECTORY`` (or filesystems that refuse to
    fsync directories) degrade silently — the rename is still atomic,
    just not guaranteed to survive power loss.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(dirpath, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_payload(fh, path: pathlib.Path, text: str) -> None:
    """Write ``text`` to the temp file, firing any scripted write fault."""
    fault = faults.io_check("write", path)
    if fault is not None:
        if fault.mode == "torn_write":
            # Half the bytes land, then the writer "dies": the torn
            # content exists only in the temp file, which the error
            # path removes — the destination must never tear.
            fh.write(text[: max(1, len(text) // 2)])
            fh.flush()
            raise OSError(errno.EIO, f"injected torn write ({path})")
        if fault.mode == "enospc":
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC (no space left) ({path})")
        if fault.mode == "eio":
            raise OSError(errno.EIO, f"injected EIO ({path})")
    fh.write(text)
    fh.flush()
    if faults.io_check("fsync", path) is not None:
        raise OSError(errno.EIO, f"injected fsync failure ({path})")
    os.fsync(fh.fileno())


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically; returns the resolved path.

    Parent directories are created as needed. The temporary file lives
    next to the target (same filesystem, so the final ``os.replace`` is
    a true atomic rename) and is fsync'd before the swap, as is the
    containing directory after it; on any failure the temp file is
    removed, the original file is left untouched, and OS-level failures
    surface as :class:`~repro.errors.StorageError`.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            _write_payload(fh, path, text)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise StorageError(
                f"atomic write to {path} failed ({exc}); the previous "
                f"content is intact") from exc
        raise
    return path

