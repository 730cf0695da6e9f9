"""Persistent, content-addressed point store with LRU eviction.

A :class:`PointStore` caches completed simulation points on disk so
repeated ``table3``/``figures`` invocations — serial or parallel,
within one process or across many — never re-simulate a point that any
previous run already finished. It is the cross-process, cross-run
counterpart of the runner's in-memory memo.

Addressing is by content, never by trust: an entry lives at

    ``<root>/<config_fingerprint>/<kernel>-<strategy>-<n>-<hash>.json``

where the fingerprint (:func:`repro.experiments.runner.config_fingerprint`)
covers everything that affects a point's numbers (cache geometry,
machine model, K extent, package version) and the hash covers the point
key. A config change therefore lands in a different subdirectory and
can never serve stale numbers; the reader additionally verifies the
recorded key and fingerprint before returning a payload, so an entry
copied into another configuration's subdirectory is quarantined, not
served as that configuration's numbers.

A sweep's ``--checkpoint`` is an unbounded store of its own
(:func:`repro.experiments.runner.open_checkpoint`): it binds to one
fingerprint and also records degraded points, which the shared
``--point-cache`` never holds.

Integrity: every entry carries a CRC32C-style checksum
(:mod:`repro.resilience.integrity`) over its canonical JSON body.
A corrupt, truncated, or checksum-failing entry is **never silently
served**: it reads as a miss and is moved to the store's
``.quarantine/`` directory with a provenance sidecar (what failed,
when, which process noticed), counted under ``repro.integrity.*``
metrics. Version 1 entries (pre-checksum) are upgraded in place on
first read.

Durability and bounds:

* writes are atomic (:mod:`repro.resilience.atomic`), so a killed
  writer leaves either the old entry or the new one, never a torn
  file;
* total size is bounded by ``max_bytes`` (default from
  ``REPRO_POINT_CACHE_BYTES``, 256 MB; ``<= 0`` disables the bound; a
  malformed value raises :class:`~repro.errors.ConfigurationError`) —
  after every put, least-recently-*used* entries (mtime order; a get
  refreshes its entry's mtime) are evicted until the store fits.

Concurrency: entries are immutable once written and writes are atomic,
so readers stay lock-free — a read observes either the old entry or
the new one. The one multi-step mutation, LRU eviction, runs under the
store's advisory file lock (``<root>/.lock``,
:mod:`repro.resilience.locking`) so two processes evicting at once
cannot thrash each other below budget; if the lock cannot be had the
eviction is skipped (the next put retries).

Observability: ``repro.perf.point_cache_{hits,misses,puts,evictions}``
counters plus ``point_cache`` events (see :mod:`repro.obs`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import re
from dataclasses import dataclass

from repro.errors import ConfigurationError, LockError
from repro.obs import events, metrics
from repro.resilience import faults
from repro.resilience.atomic import atomic_write_text
from repro.resilience.integrity import (QUARANTINE_DIR, attach_crc,
                                        quarantine_file, verify_crc)
from repro.resilience.locking import FileLock

__all__ = ["PointStore", "StoreInfo", "DEFAULT_MAX_BYTES"]

log = logging.getLogger(__name__)

#: Default byte budget when ``REPRO_POINT_CACHE_BYTES`` is unset: a
#: paper-density sweep's ~900 points is well under 1 MB, so 256 MB
#: accommodates hundreds of configurations before eviction starts.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry schema: v1 (PR 3) had no checksum; v2 adds ``crc``. v1 entries
#: are still readable and are upgraded on first hit.
_ENTRY_VERSION = 2
_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


def _env_max_bytes() -> int | None:
    """Byte budget from ``REPRO_POINT_CACHE_BYTES``.

    A malformed value raises :class:`~repro.errors.ConfigurationError`
    (CLI exit 2) instead of silently becoming the default: a typo must
    not turn an intended bound into 256 MB, or an intended "unbounded"
    into evictions.
    """
    raw = os.environ.get("REPRO_POINT_CACHE_BYTES", "")
    if not raw.strip():
        return DEFAULT_MAX_BYTES
    try:
        v = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_POINT_CACHE_BYTES must be an integer byte count "
            f"(<= 0 = unbounded), got {raw!r}") from None
    return v if v > 0 else None


def fingerprint_dirname(fingerprint) -> str:
    """Name of the subdirectory filing entries under ``fingerprint``."""
    return _SAFE.sub("_", str(fingerprint))[:64]


@dataclass(frozen=True)
class StoreInfo:
    """Point-in-time shape of a store (``repro cache info``)."""

    root: str
    entries: int
    bytes: int
    max_bytes: int | None
    fingerprints: int

    def summary(self) -> str:
        cap = f"{self.max_bytes}" if self.max_bytes is not None else "unbounded"
        return (f"point cache at {self.root}: {self.entries} entries, "
                f"{self.bytes} bytes (budget {cap}), "
                f"{self.fingerprints} configuration(s)")


class PointStore:
    """On-disk cache of simulated point payloads (see module docstring).

    Parameters
    ----------
    root:
        Store directory (created lazily on first put).
    max_bytes:
        Byte budget for LRU eviction. ``None`` reads
        ``REPRO_POINT_CACHE_BYTES`` (default 256 MB); ``<= 0`` disables
        the bound.
    """

    def __init__(self, root: str | os.PathLike, *,
                 max_bytes: int | None = None):
        self.root = pathlib.Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"point cache path {self.root} exists and is not a directory")
        if max_bytes is None:
            max_bytes = _env_max_bytes()
        elif max_bytes <= 0:
            max_bytes = None
        self.max_bytes = max_bytes
        self._lock = FileLock(self.root / ".lock")

    # ------------------------------------------------------------------
    def fingerprint_dir(self, fingerprint: str) -> pathlib.Path:
        """The subdirectory holding ``fingerprint``'s entries."""
        return self.root / fingerprint_dirname(fingerprint)

    def _entry_path(self, fingerprint: str, key: tuple) -> pathlib.Path:
        canon = json.dumps(list(key), separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        human = _SAFE.sub("_", "-".join(str(p) for p in key))[:80]
        return self.fingerprint_dir(fingerprint) / f"{human}-{digest}.json"

    def get(self, fingerprint: str, key: tuple) -> dict | None:
        """Payload for ``key`` under ``fingerprint``, or ``None``.

        A hit refreshes the entry's mtime (the LRU clock). A corrupt or
        checksum-failing entry, or one recording another key or
        fingerprint than it is filed under, is quarantined (with
        provenance) and reads as a miss — the caller just re-simulates
        and overwrites it. A pre-checksum (v1) entry that validates is
        upgraded to the current format in place.
        """
        path = self._entry_path(fingerprint, key)
        version = _ENTRY_VERSION
        try:
            if faults.io_check("read", path) is not None:
                raise OSError(f"injected EIO reading {path}")
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):
                raise ValueError(f"malformed point-cache entry {path}")
            version = entry.get("v")
            if version not in (1, _ENTRY_VERSION):
                raise ValueError(
                    f"unsupported point-cache entry version {version!r} "
                    f"in {path}")
            if (entry.get("key") != list(key)
                    or not isinstance(entry.get("payload"), dict)):
                raise ValueError(f"malformed point-cache entry {path}")
            if version >= _ENTRY_VERSION and not verify_crc(entry):
                metrics.inc("repro.integrity.crc_failures", artifact="store")
                raise ValueError(
                    f"checksum mismatch in point-cache entry {path}")
            if entry.get("fingerprint") != fingerprint:
                raise ValueError(
                    f"point-cache entry {path} records fingerprint "
                    f"{entry.get('fingerprint')!r}, not {fingerprint!r}")
        except FileNotFoundError:
            self._miss(key)
            return None
        except (ValueError, OSError) as exc:
            log.warning("quarantining unreadable point-cache entry %s (%s)",
                        path, exc)
            quarantine_file(path, reason=str(exc), artifact="store",
                            root=self.root)
            self._miss(key)
            return None
        if version < _ENTRY_VERSION:
            # Lossless upgrade: same payload, now checksummed.
            self.put(fingerprint, key, entry["payload"])
        else:
            _touch_quiet(path)
        metrics.inc("repro.perf.point_cache_hits")
        events.emit("point_cache", op="hit", key=list(key))
        return entry["payload"]

    def _miss(self, key: tuple) -> None:
        metrics.inc("repro.perf.point_cache_misses")
        events.emit("point_cache", op="miss", key=list(key))

    def put(self, fingerprint: str, key: tuple, payload: dict) -> None:
        """Record ``payload`` atomically, then evict down to budget."""
        path = self._entry_path(fingerprint, key)
        entry = attach_crc({"v": _ENTRY_VERSION, "fingerprint": fingerprint,
                            "key": list(key), "payload": payload})
        atomic_write_text(path, json.dumps(entry, sort_keys=True) + "\n")
        metrics.inc("repro.perf.point_cache_puts")
        events.emit("point_cache", op="put", key=list(key))
        if self.max_bytes is not None:
            self._evict(keep=path)

    def discard(self, fingerprint: str, key: tuple, *,
                reason: str = "discarded by caller") -> bool:
        """Quarantine the entry for ``key``, if present.

        For callers that validate payloads *semantically* above the
        store's own integrity checks (e.g. the runner's result-shape
        validation): a payload that fails there must not be re-served
        on the next lookup. Returns True if an entry was removed.
        """
        path = self._entry_path(fingerprint, key)
        if not path.exists():
            return False
        log.warning("discarding point-cache entry %s (%s)", path, reason)
        quarantine_file(path, reason=reason, artifact="store",
                        root=self.root)
        return True

    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        """Names of the fingerprint subdirectories present, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(d.name for d in self.root.iterdir()
                      if d.is_dir() and not d.name.startswith("."))

    def _entries(self) -> list[tuple[float, int, pathlib.Path]]:
        """(mtime, size, path) for every entry currently on disk.

        Dot-directories (``.quarantine``, lock sidecars) are not
        entries and are never listed — quarantined files in particular
        must not count against the LRU budget or get "evicted".
        """
        out = []
        if not self.root.is_dir():
            return out
        for sub in self.root.iterdir():
            if not sub.is_dir() or sub.name.startswith("."):
                continue
            for p in sub.glob("*.json"):
                try:
                    st = p.stat()
                except OSError:  # pragma: no cover - racing unlink
                    continue
                out.append((st.st_mtime, st.st_size, p))
        return out

    def _evict(self, keep: pathlib.Path) -> int:
        """Drop least-recently-used entries until the store fits.

        Runs under the store lock so concurrent processes cannot both
        scan a full store and evict twice the needed bytes. The
        just-written entry (``keep``) is never evicted, so a budget
        smaller than one entry still caches the most recent point. A
        lock timeout skips eviction — the budget is advisory and the
        next put will retry.
        """
        try:
            with self._lock:
                return self._evict_locked(keep)
        except LockError as exc:
            log.warning("skipping point-cache eviction (%s)", exc)
            return 0

    def _evict_locked(self, keep: pathlib.Path) -> int:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            if _unlink_quiet(path):
                total -= size
                evicted += 1
        if evicted:
            metrics.inc("repro.perf.point_cache_evictions", evicted)
            events.emit("point_cache", op="evict", entries=evicted)
            log.debug("point cache evicted %d entries (budget %d bytes)",
                      evicted, self.max_bytes)
        return evicted

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry (and empty fingerprint dirs); return count.

        Quarantined artifacts are kept — they are evidence, and
        ``repro fsck`` reports them; remove ``.quarantine/`` by hand
        once inspected.
        """
        removed = 0
        for _, _, path in self._entries():
            if _unlink_quiet(path):
                removed += 1
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir() and sub.name != QUARANTINE_DIR:
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        events.emit("point_cache", op="clear", entries=removed)
        return removed

    def info(self) -> StoreInfo:
        entries = self._entries()
        fps = {p.parent for _, _, p in entries}
        return StoreInfo(root=str(self.root), entries=len(entries),
                         bytes=sum(size for _, size, _ in entries),
                         max_bytes=self.max_bytes, fingerprints=len(fps))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointStore({str(self.root)!r}, max_bytes={self.max_bytes})"


def _unlink_quiet(path: pathlib.Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _touch_quiet(path: pathlib.Path) -> None:
    try:
        os.utime(path)
    except OSError:  # pragma: no cover - racing eviction
        pass
