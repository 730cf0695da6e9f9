"""Record checksums, configuration fingerprints and quarantine.

Every durable record the harness writes — a point-store entry (the
``--point-cache`` and the ``--checkpoint`` are both stores), a run
manifest — carries a CRC32C-style checksum over its canonical JSON
body (sorted keys, minimal separators, the ``crc`` field itself
excluded). A reader recomputes the checksum before trusting a record;
a mismatch means the filesystem lied (torn write on a non-atomic copy,
bit rot, a partial ``cp``) and the record is **never silently served**:
it is quarantined with provenance and the point is re-simulated.

Quarantine moves the damaged file under a ``.quarantine/`` directory
next to the artifact and writes a ``<name>.meta.json`` sidecar
recording what was damaged, why, when, and by which process — enough
provenance to debug the underlying disk or copy step later. Everything
is counted under ``repro.integrity.*`` metrics:

* ``repro.integrity.crc_failures{artifact=store}``
* ``repro.integrity.quarantined{artifact=store|run|shard}``

The checksum is ``zlib.crc32`` (the stdlib's castagnoli-class CRC; no
new dependencies), rendered as 8 lowercase hex digits.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
import zlib
from typing import Any, Mapping

__all__ = ["fingerprint", "record_crc", "attach_crc", "verify_crc",
           "quarantine_file", "QUARANTINE_DIR"]

#: Directory name (sibling of / inside the artifact) holding damaged
#: records moved out of service. Starts with a dot so store entry scans
#: and LRU eviction never pick quarantined files back up.
QUARANTINE_DIR = ".quarantine"


def fingerprint(payload: Mapping[str, Any]) -> str:
    """Stable hex digest of a JSON-serializable configuration payload.

    Key order does not matter; non-JSON values are stringified (their
    ``repr`` participates in the hash, which is what frozen dataclass
    configs want).
    """
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record_crc(body: Mapping[str, Any]) -> str:
    """Checksum of a record body, excluding any ``crc`` field.

    Canonicalization (sorted keys, minimal separators) makes the digest
    independent of dict ordering and whitespace, so a record survives a
    parse/re-serialize round trip.
    """
    payload = {k: v for k, v in body.items() if k != "crc"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def attach_crc(body: dict) -> dict:
    """Return ``body`` with its ``crc`` field (re)computed."""
    out = dict(body)
    out["crc"] = record_crc(out)
    return out


def verify_crc(body: Mapping[str, Any]) -> bool:
    """Whether ``body`` carries a ``crc`` that matches its content."""
    crc = body.get("crc")
    return isinstance(crc, str) and crc == record_crc(body)


def quarantine_file(path: str | pathlib.Path, *, reason: str,
                    artifact: str,
                    root: str | pathlib.Path | None = None
                    ) -> pathlib.Path | None:
    """Move a damaged file into quarantine with a provenance sidecar.

    ``root`` is the directory that owns the quarantine (defaults to the
    file's parent); the file lands at ``<root>/.quarantine/<name>.<ts>``
    with ``<name>.<ts>.meta.json`` beside it recording the reason,
    original path, wall-clock time, and pid. Returns the quarantined
    path, or ``None`` when the file vanished first (racing writer) or
    the move failed — in which case the file is unlinked as a last
    resort so a poisoned record cannot be re-read forever.
    """
    # Lazy import: obs depends on resilience.atomic, so resilience
    # modules must not import obs at module import time.
    from repro.obs import events, metrics

    path = pathlib.Path(path)
    qdir = pathlib.Path(root) if root is not None else path.parent
    qdir = qdir / QUARANTINE_DIR
    stamp = f"{time.time():.6f}".replace(".", "_")
    target = qdir / f"{path.name}.{stamp}"
    moved: pathlib.Path | None = None
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
        moved = target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    if moved is not None:
        meta = {"reason": reason, "artifact": artifact,
                "original_path": str(path), "quarantined_at": time.time(),
                "pid": os.getpid()}
        try:
            target.with_name(target.name + ".meta.json").write_text(
                json.dumps(meta, sort_keys=True) + "\n")
        except OSError:
            pass
    metrics.inc("repro.integrity.quarantined", artifact=artifact)
    events.emit("integrity_quarantine", path=str(path), artifact=artifact,
                reason=reason, quarantined_to=str(moved) if moved else None)
    return moved
