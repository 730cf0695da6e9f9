"""Tests for ``repro fsck`` — eager verify/repair of durable artifacts."""

import json

import pytest

from repro.cli import main
from repro.errors import FsckError
from repro.perf.store import PointStore
from repro.resilience.fsck import fsck_path, fsck_store
from repro.resilience.integrity import QUARANTINE_DIR, attach_crc


FP = "fsck-test-fp"


def make_checkpoint(path, n_points=3):
    """A checkpoint directory (an unbounded store) with ``n_points``."""
    store = PointStore(path, max_bytes=0)
    for i in range(n_points):
        store.put(FP, ("K", i), {"x": i})
    return store


def flip_payload(store, i):
    """Change entry ``i``'s content without refreshing its crc."""
    path = store._entry_path(FP, ("K", i))
    entry = json.loads(path.read_text())
    entry["payload"]["x"] = 999
    path.write_text(json.dumps(entry))
    return path


class TestFsckJournal:
    """``repro fsck`` on a ``--checkpoint`` directory."""

    def test_clean_journal_is_ok(self, tmp_path):
        make_checkpoint(tmp_path / "ck")
        report = fsck_path(tmp_path / "ck")
        assert report.kind == "store"
        assert report.ok and not report.repaired
        assert report.counts == {"ok": 3}
        assert "clean" in report.render()

    def test_crc_mismatch_reported_per_record(self, tmp_path):
        store = make_checkpoint(tmp_path / "ck")
        victim = flip_payload(store, 1)
        report = fsck_path(tmp_path / "ck")
        assert not report.ok
        assert report.counts == {"ok": 2, "damaged": 1}
        bad = [f for f in report.findings if f.status == "damaged"]
        assert bad[0].where == str(victim.relative_to(store.root))
        assert "checksum" in bad[0].detail

    def test_unparseable_line_reported(self, tmp_path):
        store = make_checkpoint(tmp_path / "ck")
        store._entry_path(FP, ("K", 0)).write_text("!!! not json")
        report = fsck_path(tmp_path / "ck")
        assert not report.ok
        assert report.counts["damaged"] == 1

    def test_repair_quarantines_and_rewrites_good_records(self, tmp_path):
        store = make_checkpoint(tmp_path / "ck")
        flip_payload(store, 1)
        report = fsck_path(store.root, repair=True)
        assert report.repaired and not report.ok  # damage found -> gate CI
        # Two good entries, one repaired, plus the quarantine note.
        assert report.counts == {"ok": 3, "repaired": 1}
        # The damaged entry is held as evidence...
        qdir = store.root / QUARANTINE_DIR
        assert any(not q.name.endswith(".meta.json")
                   for q in qdir.iterdir())
        # ...and the checkpoint verifies clean and resumes.
        assert fsck_path(store.root).ok
        assert store.get(FP, ("K", 0)) == {"x": 0}
        assert store.get(FP, ("K", 2)) == {"x": 2}
        assert store.get(FP, ("K", 1)) is None  # dropped: re-simulated

    def test_newer_entry_version_is_damaged(self, tmp_path):
        store = make_checkpoint(tmp_path / "ck", n_points=1)
        path = store._entry_path(FP, ("K", 0))
        entry = json.loads(path.read_text())
        entry["v"] = 99
        path.write_text(json.dumps(attach_crc(entry)))
        report = fsck_path(store.root)
        assert report.counts == {"damaged": 1}
        assert "unsupported entry version 99" in report.findings[0].detail

    def test_misfiled_entry_is_damaged(self, tmp_path):
        """An entry copied under another configuration's fingerprint
        directory is damage, not data."""
        store = make_checkpoint(tmp_path / "ck", n_points=1)
        src = store._entry_path(FP, ("K", 0))
        dst = store._entry_path("other-fp", ("K", 0))
        dst.parent.mkdir()
        dst.write_text(src.read_text())
        report = fsck_path(store.root)
        assert report.counts == {"ok": 1, "damaged": 1}
        bad = [f for f in report.findings if f.status == "damaged"]
        assert "records fingerprint" in bad[0].detail

    def test_orphan_tmp_reported_and_removed_on_repair(self, tmp_path):
        store = make_checkpoint(tmp_path / "ck")
        orphan = store.fingerprint_dir(FP) / "K-0.json.1234.tmp"
        orphan.write_text("half a write")
        report = fsck_path(store.root)
        assert not report.ok and report.counts["orphan"] == 1
        assert orphan.exists()  # verify is read-only
        fsck_path(store.root, repair=True)
        assert not orphan.exists()

    def test_unreadable_target_is_fatal(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("{}\n")
        report = fsck_store(path)  # a file, via fsck_store
        assert report.fatal == "not a directory"


class TestFsckStore:
    def _seed(self, tmp_path, n=3):
        store = PointStore(tmp_path / "store")
        for i in range(n):
            store.put(FP, ("K", "S", i), {"x": i})
        return store

    def test_clean_store_is_ok(self, tmp_path):
        self._seed(tmp_path)
        report = fsck_store(tmp_path / "store")
        assert report.ok
        assert report.counts == {"ok": 3}

    def test_corrupt_entry_detected_and_repaired(self, tmp_path):
        store = self._seed(tmp_path)
        victim = store._entry_path(FP, ("K", "S", 1))
        entry = json.loads(victim.read_text())
        entry["payload"]["x"] = 999  # stale crc
        victim.write_text(json.dumps(entry))
        report = fsck_store(store.root)
        assert not report.ok and report.counts["damaged"] == 1
        assert victim.exists()  # verify is read-only

        repaired = fsck_store(store.root, repair=True)
        assert repaired.repaired
        assert not victim.exists()
        assert (store.root / QUARANTINE_DIR).is_dir()
        # Post-repair the store verifies clean (quarantine held aside).
        assert fsck_store(store.root).ok

    def test_truncated_entry_detected(self, tmp_path):
        store = self._seed(tmp_path)
        victim = store._entry_path(FP, ("K", "S", 0))
        victim.write_text(victim.read_text()[: victim.stat().st_size // 2])
        report = fsck_store(store.root)
        assert not report.ok
        assert any("unparseable" in f.detail for f in report.findings)

    def test_legacy_v1_entry_flagged_not_damaged(self, tmp_path):
        store = self._seed(tmp_path, n=1)
        victim = store._entry_path(FP, ("K", "S", 0))
        entry = json.loads(victim.read_text())
        entry.pop("crc")
        entry["v"] = 1
        victim.write_text(json.dumps(entry))
        report = fsck_store(store.root)
        assert report.ok
        assert report.counts == {"legacy": 1}

    def test_quarantined_artifacts_are_reported_held(self, tmp_path):
        store = self._seed(tmp_path)
        victim = store._entry_path(FP, ("K", "S", 2))
        victim.write_text("{broken")
        assert store.get(FP, ("K", "S", 2)) is None  # lazily quarantined
        report = fsck_store(store.root)
        assert report.ok
        held = [f for f in report.findings if f.where == QUARANTINE_DIR]
        assert held and "1 previously quarantined" in held[0].detail

    def test_orphan_tmp_in_store(self, tmp_path):
        store = self._seed(tmp_path, n=1)
        sub = next(d for d in store.root.iterdir() if d.is_dir())
        (sub / "entry.json.99.tmp").write_text("torn")
        report = fsck_store(store.root)
        assert not report.ok and report.counts["orphan"] == 1
        fsck_store(store.root, repair=True)
        assert not (sub / "entry.json.99.tmp").exists()


class TestDispatchAndCli:
    def test_dispatch_on_shape(self, tmp_path):
        PointStore(tmp_path / "store").put(FP, ("K",), {"x": 1})
        assert fsck_path(tmp_path / "store").kind == "store"
        journal = tmp_path / "j.jsonl"
        journal.write_text("{}\n")
        with pytest.raises(FsckError, match="no longer read"):
            fsck_path(journal)

    def test_dispatch_missing_target(self, tmp_path):
        with pytest.raises(FsckError, match="no such"):
            fsck_path(tmp_path / "nope")

    def test_cli_exit_codes(self, tmp_path, capsys):
        store = make_checkpoint(tmp_path / "ck")
        assert main(["fsck", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

        flip_payload(store, 1)
        assert main(["fsck", str(store.root)]) == 1  # damage gates CI
        assert main(["fsck", str(store.root), "--repair"]) == 1  # found
        assert main(["fsck", str(store.root)]) == 0  # now actually clean

    def test_cli_missing_target_is_usage_error(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope")]) == 2
        assert "no such" in capsys.readouterr().err

    def test_cli_journal_file_is_usage_error(self, tmp_path, capsys):
        """A JSONL checkpoint journal from an older build is no longer
        read: fsck refuses the file with exit 2."""
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(json.dumps({"kind": "header", "version": 3,
                                       "fingerprint": FP}) + "\n")
        assert main(["fsck", str(journal)]) == 2
        err = capsys.readouterr().err
        assert "journals are no longer read" in err

    def test_cli_show_ok_lists_every_record(self, tmp_path, capsys):
        make_checkpoint(tmp_path / "ck", n_points=2)
        main(["fsck", str(tmp_path / "ck"), "--show-ok"])
        out = capsys.readouterr().out
        assert out.count("key=") == 2


class TestFsckRunAndLedger:
    """``repro fsck`` on ledgered run directories and whole ledgers."""

    def _make_run(self, ledger, run_id="20260807-120000-abcd",
                  outcome="ok"):
        from repro.obs.ledger import MANIFEST_NAME, STATUS_NAME

        d = ledger / run_id
        d.mkdir(parents=True)
        (d / MANIFEST_NAME).write_text(json.dumps(attach_crc(
            {"v": 1, "run_id": run_id, "outcome": outcome,
             "argv": ["repro", "sweep"]})))
        (d / STATUS_NAME).write_text(json.dumps(attach_crc(
            {"v": 1, "run_id": run_id, "state": "done", "done": 3})))
        return d

    def _corrupt_crc(self, path):
        """Change a record's content without refreshing its crc."""
        path.write_text(path.read_text().replace('"run_id"', '"run_idX"'))

    def test_clean_run_is_ok_and_dispatches(self, tmp_path):
        run = self._make_run(tmp_path / "ledger")
        report = fsck_path(run)
        assert report.kind == "run" and report.ok
        assert report.counts == {"ok": 2}  # manifest + status
        assert "run_id=" in report.findings[0].detail

    def test_missing_manifest_is_fatal(self, tmp_path):
        run = self._make_run(tmp_path / "ledger")
        (run / "manifest.json").unlink()
        # Without the manifest the directory no longer *looks* like a
        # run, so exercise fsck_run directly (dispatch sees a store).
        from repro.resilience.fsck import fsck_run

        report = fsck_run(run)
        assert not report.ok and "no manifest.json" in report.fatal

    def test_damaged_manifest_detected_then_repaired(self, tmp_path):
        from repro.resilience.fsck import fsck_run

        run = self._make_run(tmp_path / "ledger")
        self._corrupt_crc(run / "manifest.json")
        report = fsck_run(run)
        assert not report.ok
        assert report.counts == {"ok": 1, "damaged": 1}
        assert (run / "manifest.json").exists()  # verify is read-only

        repaired = fsck_run(run, repair=True)
        assert repaired.repaired
        # status still ok, manifest repaired, quarantine-held note.
        assert repaired.counts == {"ok": 2, "repaired": 1}
        assert not (run / "manifest.json").exists()
        assert (run / QUARANTINE_DIR).is_dir()

    def test_legacy_uncrcd_status_flagged_not_damaged(self, tmp_path):
        from repro.resilience.fsck import fsck_run

        run = self._make_run(tmp_path / "ledger")
        (run / "status.json").write_text(json.dumps({"state": "done"}))
        report = fsck_run(run)
        assert report.ok
        assert report.counts == {"ok": 1, "legacy": 1}

    def test_orphan_shards_and_tmp_removed_on_repair(self, tmp_path):
        from repro.resilience.fsck import fsck_run

        run = self._make_run(tmp_path / "ledger")
        shards = run / "shards"
        shards.mkdir()
        (shards / "w0-metrics.json").write_text("{}")
        (run / "trace.jsonl.77.tmp").write_text("half a write")
        report = fsck_run(run)
        assert not report.ok and report.counts["orphan"] == 2
        assert (shards / "w0-metrics.json").exists()  # read-only verify

        repaired = fsck_run(run, repair=True)
        assert repaired.repaired
        assert not shards.exists()  # emptied and removed
        assert not (run / "trace.jsonl.77.tmp").exists()
        assert fsck_run(run).ok

    def test_ledger_aggregates_runs_with_prefixes(self, tmp_path):
        ledger = tmp_path / "ledger"
        self._make_run(ledger, run_id="run-a")
        bad = self._make_run(ledger, run_id="run-b")
        self._corrupt_crc(bad / "manifest.json")
        report = fsck_path(ledger)
        assert report.kind == "ledger" and not report.ok
        damaged = [f for f in report.findings if f.status == "damaged"]
        assert [f.where for f in damaged] == ["run-b/manifest.json"]
        assert any(f.where == "run-a/manifest.json" and f.status == "ok"
                   for f in report.findings)

    def test_ledger_repair_propagates(self, tmp_path):
        from repro.resilience.fsck import fsck_ledger

        ledger = tmp_path / "ledger"
        self._make_run(ledger, run_id="run-a")
        bad = self._make_run(ledger, run_id="run-b")
        self._corrupt_crc(bad / "status.json")
        report = fsck_ledger(ledger, repair=True)
        assert report.repaired
        assert fsck_ledger(ledger).ok

    def test_empty_ledger_is_fatal(self, tmp_path):
        from repro.resilience.fsck import fsck_ledger

        (tmp_path / "ledger").mkdir()
        report = fsck_ledger(tmp_path / "ledger")
        assert not report.ok and "no ledgered runs" in report.fatal

    def test_cli_run_and_ledger_exit_codes(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        run = self._make_run(ledger)
        assert main(["fsck", str(run)]) == 0
        assert main(["fsck", str(ledger)]) == 0
        # Damage the (optional) status snapshot: repair quarantines it
        # and the run verifies clean again. (A quarantined *manifest*
        # would leave the run fatally incomplete — that is reported,
        # not hidden.)
        self._corrupt_crc(run / "status.json")
        assert main(["fsck", str(ledger)]) == 1
        assert main(["fsck", str(ledger), "--repair"]) == 1  # found damage
        assert main(["fsck", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
