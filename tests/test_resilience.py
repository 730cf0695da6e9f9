"""Unit tests for the resilience primitives (checkpoint, budget, faults)."""

import json

import pytest

from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ConfigurationError,
    RetryableError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import SweepOptions
from repro.experiments.runner import (
    config_fingerprint,
    open_checkpoint,
    sweep,
)
from repro.resilience import (
    Deadline,
    PointBudget,
    atomic_write_text,
    fingerprint,
    run_with_retries,
    verify_crc,
)
from repro.resilience import faults
from repro.resilience.integrity import QUARANTINE_DIR


class TestAtomicWrite:
    def test_creates_parents_and_writes(self, tmp_path):
        p = atomic_write_text(tmp_path / "a" / "b" / "f.txt", "hello")
        assert p.read_text() == "hello"

    def test_replaces_existing(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "old")
        atomic_write_text(p, "new")
        assert p.read_text() == "new"

    def test_no_temp_leftovers(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "x")
        assert [f.name for f in tmp_path.iterdir()] == ["f.txt"]


class TestFingerprint:
    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_non_json_values_stringified(self):
        assert fingerprint({"x": object}) == fingerprint({"x": object})


class TestJournal:
    """The checkpoint: an unbounded point store bound to one
    configuration fingerprint (:func:`open_checkpoint`)."""

    KEY = ("JACOBI", "Orig", 40)

    def test_create_and_record(self, tmp_path, tiny_config):
        ck = open_checkpoint(tmp_path / "ck", tiny_config)
        fp = config_fingerprint(tiny_config)
        assert ck.max_bytes is None  # eviction would lose resume progress
        assert ck.get(fp, self.KEY) is None
        ck.put(fp, self.KEY, {"value": 42})
        assert ck.get(fp, self.KEY) == {"value": 42}

    def test_reopen_resumes(self, tmp_path, tiny_config):
        fp = config_fingerprint(tiny_config)
        ck = open_checkpoint(tmp_path / "ck", tiny_config)
        ck.put(fp, ("K", "S", 1), {"value": 1})
        ck.put(fp, ("K", "S", 2), {"value": 2})
        again = open_checkpoint(tmp_path / "ck", tiny_config)
        assert again.get(fp, ("K", "S", 2)) == {"value": 2}
        assert again.info().entries == 2

    def test_fingerprint_mismatch_refused(self, tmp_path, tiny_config,
                                          tiny_l1, tiny_l2):
        ck = open_checkpoint(tmp_path / "ck", tiny_config)
        ck.put(config_fingerprint(tiny_config), self.KEY, {})
        other = ExperimentConfig(l1=tiny_l1, l2=tiny_l2, nk=5)
        with pytest.raises(CheckpointError, match="different configuration"):
            open_checkpoint(tmp_path / "ck", other)

    def test_corrupt_trailing_line_recovered(self, tmp_path, tiny_config):
        """A torn entry (its line cut short by a kill during a non-atomic
        copy) is never served: it is quarantined and the point is
        simulated again."""
        ckpt = tmp_path / "ck"
        opts = SweepOptions(checkpoint=ckpt)
        first = sweep("JACOBI", ["Orig"], [40], tiny_config, options=opts)
        (entry,) = ckpt.glob("*/*.json")
        faults.corrupt_file(entry, "truncate")
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = sweep("JACOBI", ["Orig"], [40], tiny_config,
                          options=opts)
        assert inj.calls("simulate") == 1
        assert again == first
        assert len(list((ckpt / QUARANTINE_DIR).glob("*.meta.json"))) == 1
        assert verify_crc(json.loads(entry.read_text()))  # rewritten whole

    def test_appended_garbage_recovered(self, tmp_path, tiny_config):
        ckpt = tmp_path / "ck"
        opts = SweepOptions(checkpoint=ckpt)
        first = sweep("JACOBI", ["Orig"], [40], tiny_config, options=opts)
        (entry,) = ckpt.glob("*/*.json")
        faults.corrupt_file(entry, "garbage")
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = sweep("JACOBI", ["Orig"], [40], tiny_config,
                          options=opts)
        assert inj.calls("simulate") == 1
        assert again == first

    def test_not_a_journal_rejected(self, tmp_path, tiny_config):
        """A file at the checkpoint path — e.g. a JSONL journal from an
        older build — is refused, never parsed or overwritten."""
        path = tmp_path / "sweep.jsonl"
        old = json.dumps({"kind": "header", "version": 3,
                          "fingerprint": "f"}) + "\n"
        path.write_text(old)
        with pytest.raises(CheckpointError,
                           match="journals are no longer read"):
            open_checkpoint(path, tiny_config)
        assert path.read_text() == old


class TestJournalVersioning:
    """A checkpoint binds to the configuration *and* the package version
    that wrote it (both are in its fingerprint); entries from a newer
    entry format are never served."""

    KEY = ("JACOBI", "Orig", 40)

    def test_mismatch_error_names_both_fingerprints(self, tmp_path,
                                                    tiny_config, tiny_l1,
                                                    tiny_l2):
        open_checkpoint(tmp_path / "ck", tiny_config)
        other = ExperimentConfig(l1=tiny_l1, l2=tiny_l2, nk=5)
        with pytest.raises(CheckpointError) as ei:
            open_checkpoint(tmp_path / "ck", other)
        msg = str(ei.value)
        assert config_fingerprint(tiny_config) in msg
        assert config_fingerprint(other) in msg

    def test_newer_header_version_refused(self, tmp_path, tiny_config,
                                          monkeypatch):
        """A checkpoint written by another (e.g. newer) repro version is
        refused, not mixed with this build's numbers."""
        import repro

        monkeypatch.setattr(repro, "__version__", "99.0.0")
        open_checkpoint(tmp_path / "ck", tiny_config)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="different configuration"):
            open_checkpoint(tmp_path / "ck", tiny_config)

    def test_newer_record_version_refused(self, tmp_path, tiny_config):
        """An entry in a format newer than this build reads is
        quarantined and re-simulated, never guessed at."""
        ckpt = tmp_path / "ck"
        opts = SweepOptions(checkpoint=ckpt)
        first = sweep("JACOBI", ["Orig"], [40], tiny_config, options=opts)
        (entry,) = ckpt.glob("*/*.json")
        rec = json.loads(entry.read_text())
        rec["v"] = 99
        entry.write_text(json.dumps(rec))
        fp = config_fingerprint(tiny_config)
        assert open_checkpoint(ckpt, tiny_config).get(fp, self.KEY) is None
        assert len(list((ckpt / QUARANTINE_DIR).glob("*.meta.json"))) == 1
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = sweep("JACOBI", ["Orig"], [40], tiny_config,
                          options=opts)
        assert inj.calls("simulate") == 1
        assert again == first


class TestWorkerFaultPlan:
    def test_empty_when_unset(self, monkeypatch):
        monkeypatch.delenv(faults.WORKER_FAULT_ENV, raising=False)
        assert faults.worker_fault_plan() == {}

    def test_parses_entries_and_modifier(self):
        plan = faults.worker_fault_plan("kill:1, hang:3:all; corrupt:7")
        assert plan[1] == faults.WorkerFault("kill", 1, False)
        assert plan[3] == faults.WorkerFault("hang", 3, True)
        assert plan[7] == faults.WorkerFault("corrupt", 7, False)

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:2")
        assert faults.worker_fault_plan() == {
            2: faults.WorkerFault("kill", 2, False)}

    @pytest.mark.parametrize("spec", [
        "explode:1", "kill", "kill:zero", "kill:0", "kill:1:always"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            faults.worker_fault_plan(spec)

    def test_corrupt_payload_truncates_and_mangles(self):
        bad = faults.corrupt_payload({"a": 1, "b": 2.5, "c": 3})
        assert "a" not in bad               # truncated
        assert isinstance(bad["c"], str)    # type-mangled
        assert bad["__corrupt__"] is True

    def test_reset_in_child_uninstalls_injector(self):
        inj = faults.FaultInjector()
        with faults.inject(inj):
            faults.reset_in_child()
            faults.tick("site")
        assert inj.calls("site") == 0


class TestBudget:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PointBudget(wall_seconds=0)
        with pytest.raises(ConfigurationError):
            PointBudget(max_refs=-1)
        with pytest.raises(ConfigurationError):
            PointBudget(max_retries=-1)

    def test_bounded_property(self):
        assert not PointBudget().bounded
        assert PointBudget(wall_seconds=1).bounded
        assert PointBudget(max_refs=10).bounded

    def test_hashable_for_memoization(self):
        assert hash(PointBudget(wall_seconds=1.0)) is not None

    def test_deadline_wall_clock(self):
        clock = faults.FakeClock()
        d = Deadline(PointBudget(wall_seconds=10), clock)
        d.check(100)
        clock.advance(11)
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            d.check(1)

    def test_deadline_trace_length(self):
        d = Deadline(PointBudget(max_refs=100), faults.FakeClock())
        d.check(60)
        with pytest.raises(BudgetExceededError, match="trace budget"):
            d.check(60)


class TestRetries:
    def test_success_after_transient_failures(self):
        calls = {"n": 0}
        naps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RetryableError("transient")
            return "ok"

        out = run_with_retries(flaky, PointBudget(max_retries=2,
                                                  backoff_seconds=0.1),
                               sleep=naps.append)
        assert out == "ok" and calls["n"] == 3
        assert naps == [0.1, 0.2]  # exponential backoff

    def test_exhaustion_reraises(self):
        def always():
            raise RetryableError("still down")

        with pytest.raises(RetryableError):
            run_with_retries(always, PointBudget(max_retries=1),
                             sleep=lambda s: None)

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def crash():
            calls["n"] += 1
            raise RuntimeError("hard crash")

        with pytest.raises(RuntimeError):
            run_with_retries(crash, PointBudget(max_retries=5),
                             sleep=lambda s: None)
        assert calls["n"] == 1

    def test_budget_exceeded_not_retried(self):
        calls = {"n": 0}

        def over():
            calls["n"] += 1
            raise BudgetExceededError("out of time")

        with pytest.raises(BudgetExceededError):
            run_with_retries(over, PointBudget(max_retries=5),
                             sleep=lambda s: None)
        assert calls["n"] == 1


class TestFaultInjector:
    def test_fails_on_exact_call_index(self):
        inj = faults.FaultInjector().fail_on("site", 3, RetryableError("x"))
        inj.tick("site")
        inj.tick("site")
        with pytest.raises(RetryableError):
            inj.tick("site")
        assert inj.calls("site") == 3
        inj.tick("site")  # 4th call is clean again

    def test_sites_are_independent(self):
        inj = faults.FaultInjector().fail_on("a", 1, RuntimeError("x"))
        inj.tick("b")
        assert inj.calls("a") == 0 and inj.calls("b") == 1

    def test_advance_requires_clock(self):
        with pytest.raises(ConfigurationError):
            faults.FaultInjector().advance_on("s", 1, 5.0)

    def test_advance_fires_before_exception(self):
        clock = faults.FakeClock()
        inj = faults.FaultInjector(clock=clock)
        inj.advance_on("s", 2, 100.0)
        inj.tick("s")
        assert clock() == 0.0
        inj.tick("s")
        assert clock() == 100.0

    def test_inject_installs_and_restores(self):
        inj = faults.FaultInjector(clock=faults.FakeClock())
        assert faults.active_clock() is not inj.clock
        with faults.inject(inj):
            assert faults.active_clock() is inj.clock
            faults.tick("anything")
        assert inj.calls("anything") == 1
        assert faults.active_clock() is not inj.clock
        faults.tick("anything")  # no-op after uninstall
        assert inj.calls("anything") == 1

    def test_active_sleep_advances_fake_clock(self):
        clock = faults.FakeClock()
        with faults.inject(faults.FaultInjector(clock=clock)):
            faults.active_sleep()(2.5)
        assert clock() == 2.5

    def test_corrupt_unknown_mode(self, tmp_path):
        p = tmp_path / "f"
        p.write_text("x\n")
        with pytest.raises(ConfigurationError):
            faults.corrupt_file(p, "melt")
