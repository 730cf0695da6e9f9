"""``repro fsck``: verify (and optionally repair) durable artifacts.

Point stores (a ``--point-cache`` or a ``--checkpoint`` directory) and
run ledgers carry per-record checksums
(:mod:`repro.resilience.integrity`); the readers quarantine damage
lazily as they trip over it. ``fsck`` is the eager counterpart: walk
an artifact end to end, report the integrity status of every record,
and — with ``--repair`` — quarantine what is damaged so subsequent
runs see a clean artifact. The CLI maps a damaged artifact to a
nonzero exit code, which is what lets CI gate on "the chaos run left
no corruption behind".

Verification is read-only and lock-free (atomic writers guarantee a
reader sees whole files). Store repair takes the store's advisory lock
while it moves entries, so it cannot interleave with an eviction.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import FsckError
from repro.resilience.integrity import (QUARANTINE_DIR, quarantine_file,
                                        verify_crc)
from repro.resilience.locking import FileLock

__all__ = ["FsckFinding", "FsckReport", "fsck_path", "fsck_store",
           "fsck_run", "fsck_ledger"]


@dataclass(frozen=True)
class FsckFinding:
    """One record's verdict: where, what state, and why."""

    where: str          # path relative to the artifact root
    status: str         # ok | legacy | damaged | repaired | orphan
    detail: str = ""

    @property
    def bad(self) -> bool:
        return self.status in ("damaged", "repaired", "orphan")


@dataclass
class FsckReport:
    """Everything ``repro fsck`` learned about one artifact."""

    target: str
    kind: str  # "store" | "run" | "ledger"
    findings: list[FsckFinding] = field(default_factory=list)
    repaired: bool = False
    #: Fatal structural problem (not a directory, no manifest, ...).
    fatal: str | None = None

    def add(self, where: str, status: str, detail: str = "") -> None:
        self.findings.append(FsckFinding(where, status, detail))

    @property
    def ok(self) -> bool:
        return self.fatal is None and not any(f.bad for f in self.findings)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.status] = out.get(f.status, 0) + 1
        return out

    def render(self, *, verbose: bool = False) -> str:
        lines = [f"fsck {self.kind} {self.target}"]
        if self.fatal:
            lines.append(f"  FATAL: {self.fatal}")
        for f in self.findings:
            if not verbose and f.status == "ok":
                continue
            detail = f" ({f.detail})" if f.detail else ""
            lines.append(f"  {f.status:>8}  {f.where}{detail}")
        counts = ", ".join(f"{n} {s}" for s, n in sorted(self.counts.items()))
        verdict = "clean" if self.ok else (
            "repaired" if self.repaired else "DAMAGED")
        lines.append(f"  {verdict}: {counts or 'empty artifact'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def fsck_path(path: str | pathlib.Path, *, repair: bool = False,
              ) -> FsckReport:
    """Dispatch on artifact shape.

    A directory holding a ``manifest.json`` is one ledgered run; a
    directory whose children hold them is a run ledger (every run is
    checked); any other directory is a point store — a
    ``--point-cache`` or a ``--checkpoint``. Files are refused: the
    JSONL checkpoint journal is no longer a format this build reads.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        from repro.obs.ledger import MANIFEST_NAME

        if (path / MANIFEST_NAME).is_file():
            return fsck_run(path, repair=repair)
        if any((d / MANIFEST_NAME).is_file() for d in path.iterdir()
               if d.is_dir()):
            return fsck_ledger(path, repair=repair)
        return fsck_store(path, repair=repair)
    if path.exists():
        raise FsckError(
            f"{path} is a file; checkpoint journals are no longer read "
            f"(a checkpoint is a store directory) — fsck checks a store, "
            f"a run ledger or a run directory")
    raise FsckError(f"{path}: no such store directory, run directory or "
                    f"run ledger")


# ----------------------------------------------------------------------
def fsck_store(root: str | pathlib.Path, *,
               repair: bool = False) -> FsckReport:
    """Verify every entry of a point store; optionally quarantine damage."""
    root = pathlib.Path(root)
    report = FsckReport(target=str(root), kind="store")
    if not root.is_dir():
        report.fatal = "not a directory"
        return report
    # Repair moves entries: hold the store lock so no eviction runs
    # over the same files meanwhile.
    lock = FileLock(root / ".lock") if repair else contextlib.nullcontext()
    with lock:
        for sub in sorted(root.iterdir()):
            if not sub.is_dir() or sub.name.startswith("."):
                continue
            for p in sorted(sub.glob("*.json")):
                where = str(p.relative_to(root))
                status, detail = _check_store_entry(p)
                if status == "damaged" and repair:
                    quarantine_file(p, reason=f"fsck --repair: {detail}",
                                    artifact="store", root=root)
                    status = "repaired"
                    report.repaired = True
                report.add(where, status, detail)
            for tmp in sub.glob("*.tmp"):
                report.add(str(tmp.relative_to(root)), "orphan",
                           "temp file from a killed writer")
                if repair:
                    try:
                        tmp.unlink()
                    except OSError:  # pragma: no cover - racing writer
                        pass
    qdir = root / QUARANTINE_DIR
    if qdir.is_dir():
        held = sum(1 for q in qdir.iterdir()
                   if q.is_file() and not q.name.endswith(".meta.json"))
        if held:
            report.add(QUARANTINE_DIR, "ok",
                       f"{held} previously quarantined artifact(s) held")
    return report


def _check_store_entry(path: pathlib.Path) -> tuple[str, str]:
    from repro.perf import store as _store

    try:
        entry = json.loads(path.read_text())
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
    except OSError as exc:
        return "damaged", f"unreadable: {exc}"
    except ValueError as exc:
        return "damaged", f"unparseable: {exc}"
    v = entry.get("v")
    if v not in (1, _store._ENTRY_VERSION):
        return "damaged", f"unsupported entry version {v!r}"
    if not isinstance(entry.get("key"), list) \
            or not isinstance(entry.get("payload"), dict):
        return "damaged", "malformed entry (key/payload)"
    if v >= _store._ENTRY_VERSION and not verify_crc(entry):
        return "damaged", "checksum mismatch"
    if _store.fingerprint_dirname(entry.get("fingerprint")) \
            != path.parent.name:
        return "damaged", (f"filed under {path.parent.name}, records "
                           f"fingerprint {entry.get('fingerprint')!r}")
    if v < _store._ENTRY_VERSION:
        return "legacy", f"v{v} entry (pre-checksum; upgraded on next hit)"
    return "ok", f"key={entry['key']!r}"


# ----------------------------------------------------------------------
def fsck_run(run_dir: str | pathlib.Path, *,
             repair: bool = False) -> FsckReport:
    """Verify one ledgered run directory (``.../LEDGER/<run_id>``).

    Checks the CRC'd ``manifest.json`` and ``status.json``, flags
    leftover worker shards (``shards/`` is transient: merged into the
    run trace and removed — anything still there came from a killed
    run) and stray ``.tmp`` files as ``orphan``. ``--repair``
    quarantines damaged files (provenance preserved) and removes the
    orphans.
    """
    from repro.obs.ledger import MANIFEST_NAME, STATUS_NAME

    run_dir = pathlib.Path(run_dir)
    report = FsckReport(target=str(run_dir), kind="run")
    if not run_dir.is_dir():
        report.fatal = "not a directory"
        return report

    for name in (MANIFEST_NAME, STATUS_NAME):
        path = run_dir / name
        if not path.is_file():
            if name == MANIFEST_NAME:
                report.fatal = f"no {name}"
                report.add(name, "damaged", "missing")
            continue
        status, detail = _check_crc_json(path)
        if status == "damaged" and repair:
            quarantine_file(path, reason=f"fsck --repair: {detail}",
                            artifact="run", root=run_dir)
            report.repaired = True
            status = "repaired"
        report.add(name, status, detail)

    shards = run_dir / "shards"
    if shards.is_dir():
        leftover = sorted(p for p in shards.iterdir() if p.is_file())
        for p in leftover:
            report.add(str(p.relative_to(run_dir)), "orphan",
                       "unmerged worker shard from a killed run")
            if repair:
                quarantine_file(p, reason="fsck --repair: unmerged "
                                "worker shard", artifact="shard",
                                root=run_dir)
                report.repaired = True
        if repair and not any(shards.iterdir()):
            try:
                shards.rmdir()
            except OSError:  # pragma: no cover - racing writer
                pass
    for tmp in run_dir.glob("*.tmp"):
        report.add(tmp.name, "orphan", "temp file from a killed writer")
        if repair:
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racing writer
                pass
    qdir = run_dir / QUARANTINE_DIR
    if qdir.is_dir():
        held = sum(1 for q in qdir.iterdir()
                   if q.is_file() and not q.name.endswith(".meta.json"))
        if held:
            report.add(QUARANTINE_DIR, "ok",
                       f"{held} previously quarantined artifact(s) held")
    return report


def fsck_ledger(ledger_dir: str | pathlib.Path, *,
                repair: bool = False) -> FsckReport:
    """Verify every run of a ``--run-dir`` ledger in one report."""
    from repro.obs.ledger import MANIFEST_NAME

    ledger_dir = pathlib.Path(ledger_dir)
    report = FsckReport(target=str(ledger_dir), kind="ledger")
    runs = sorted(d for d in ledger_dir.iterdir()
                  if d.is_dir() and (d / MANIFEST_NAME).is_file())
    if not runs:
        report.fatal = "no ledgered runs (no <run_id>/manifest.json)"
        return report
    for run in runs:
        sub = fsck_run(run, repair=repair)
        prefix = run.name
        if sub.fatal:
            report.add(prefix, "damaged", sub.fatal)
        for f in sub.findings:
            report.add(f"{prefix}/{f.where}", f.status, f.detail)
        report.repaired = report.repaired or sub.repaired
    return report


def _check_crc_json(path: pathlib.Path) -> tuple[str, str]:
    """Verdict for one CRC'd JSON artifact (manifest/status)."""
    try:
        obj = json.loads(path.read_text())
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
    except OSError as exc:
        return "damaged", f"unreadable: {exc}"
    except ValueError as exc:
        return "damaged", f"unparseable: {exc}"
    if "crc" not in obj:
        return "legacy", "no checksum attached"
    if not verify_crc(obj):
        return "damaged", "checksum mismatch"
    detail = ", ".join(
        f"{k}={obj[k]!r}" for k in ("run_id", "outcome") if k in obj)
    return "ok", detail
