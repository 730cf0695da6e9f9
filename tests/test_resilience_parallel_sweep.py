"""End-to-end tests of the supervised parallel sweep executor.

The load-bearing property is **differential**: a parallel sweep must
produce byte-identical results to the serial path on the same grid —
including under injected worker kills — and serial and parallel runs
must be able to resume each other's checkpoints. Quarantine is
proven with ``:all`` faults: the sweep still completes with a full
result set, the poisoned point carrying ``degraded=True``.
"""

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    _check_payload,
    _point_to_payload,
    run_point,
    sweep,
)
from repro.obs import EventBus, MemorySink, events
from repro.obs.report import summarize
from repro.resilience import faults
from repro.resilience.pool import available
from tests.helpers import checkpoint_entries, checkpoint_points

pytestmark = pytest.mark.skipif(
    not available(), reason="multiprocessing unavailable")

SIZES = [40, 64]
STRATS = ["Orig", "GcdPad"]


def flat(res):
    return [p for pts in res.values() for p in pts]


class TestDifferential:
    def test_parallel_matches_serial(self, tiny_config):
        serial = sweep("JACOBI", STRATS, SIZES, tiny_config)
        par = sweep("JACOBI", STRATS, SIZES, tiny_config,
                    options=SweepOptions(parallel=4))
        assert par == serial

    def test_randomized_grid_matches(self, rng, tiny_config):
        sizes = sorted(int(n) for n in rng.choice(range(30, 80), size=3,
                                                  replace=False))
        for kernel in ("JACOBI", "RESID"):
            serial = sweep(kernel, STRATS, sizes, tiny_config)
            par = sweep(kernel, STRATS, sizes, tiny_config,
                        options=SweepOptions(parallel=4))
            assert par == serial, f"{kernel} parallel/serial divergence"

    def test_matches_under_injected_worker_kills(self, rng, monkeypatch,
                                                 tiny_config):
        # Kill two random first attempts: the retries must reproduce the
        # serial results exactly.
        n_tasks = len(STRATS) * len(SIZES)
        victims = rng.choice(range(1, n_tasks + 1), size=2, replace=False)
        monkeypatch.setenv(faults.WORKER_FAULT_ENV,
                           ",".join(f"kill:{v}" for v in victims))
        par = sweep("JACOBI", STRATS, SIZES, tiny_config,
                    options=SweepOptions(parallel=2))
        monkeypatch.delenv(faults.WORKER_FAULT_ENV)
        serial = sweep("JACOBI", STRATS, SIZES, tiny_config)
        assert par == serial

    def test_parallel_journal_matches_serial_journal(self, monkeypatch,
                                                     tmp_path, tiny_config):
        sweep("JACOBI", STRATS, SIZES, tiny_config,
              options=SweepOptions(checkpoint=tmp_path / "serial"))
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1")
        sweep("JACOBI", STRATS, SIZES, tiny_config,
              options=SweepOptions(checkpoint=tmp_path / "par",
                                   parallel=2))

        assert (checkpoint_points(tmp_path / "par")
                == checkpoint_points(tmp_path / "serial"))


class TestQuarantine:
    def test_poison_point_quarantined_to_analytic(self, monkeypatch,
                                                  tiny_config):
        # Task 1 is ("Orig", 40) in submission order; kill every attempt.
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all")
        res = sweep("JACOBI", STRATS, SIZES, tiny_config,
                    options=SweepOptions(parallel=2))
        assert len(flat(res)) == len(STRATS) * len(SIZES)  # full grid
        poisoned = res["Orig"][0]
        assert poisoned.degraded
        assert poisoned == run_point("JACOBI", "Orig", SIZES[0], tiny_config,
                                     policy=PointPolicy(analytic=True))
        healthy = [p for p in flat(res) if p is not poisoned]
        assert not any(p.degraded for p in healthy)

    def test_quarantined_point_is_journaled(self, monkeypatch, tmp_path,
                                            tiny_config):
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all")
        ckpt = tmp_path / "q"
        sweep("JACOBI", STRATS, SIZES, tiny_config,
              options=SweepOptions(checkpoint=ckpt, parallel=2))
        points = checkpoint_points(ckpt)
        assert len(points) == len(STRATS) * len(SIZES)
        assert points[("JACOBI", "Orig", SIZES[0])]["degraded"] is True

    def test_hung_worker_reaped_and_retried(self, monkeypatch, tiny_config):
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "hang:2")
        res = sweep("JACOBI", STRATS, [40], tiny_config,
                    options=SweepOptions(parallel=2, point_timeout=2.0))
        assert len(flat(res)) == 2
        assert not any(p.degraded for p in flat(res))


class TestJournalInterop:
    def test_serial_journal_resumed_by_parallel(self, tmp_path, tiny_config):
        ckpt = tmp_path / "s"
        serial = sweep("JACOBI", STRATS, SIZES, tiny_config,
                       options=SweepOptions(checkpoint=ckpt))
        inj = faults.FaultInjector()
        with faults.inject(inj):
            par = sweep("JACOBI", STRATS, SIZES, tiny_config,
                        options=SweepOptions(checkpoint=ckpt, parallel=2))
        # Every point came from the checkpoint: no worker ever spawned, so
        # the supervisor's in-process injector saw no simulate ticks.
        assert inj.calls("simulate") == 0
        assert par == serial

    def test_parallel_journal_resumed_by_serial(self, tmp_path, tiny_config):
        ckpt = tmp_path / "p"
        par = sweep("JACOBI", STRATS, SIZES, tiny_config,
                    options=SweepOptions(checkpoint=ckpt, parallel=2))
        inj = faults.FaultInjector()
        with faults.inject(inj):
            serial = sweep("JACOBI", STRATS, SIZES, tiny_config,
                           options=SweepOptions(checkpoint=ckpt))
        assert inj.calls("simulate") == 0
        assert serial == par

    def test_partial_serial_journal_finished_in_parallel(self, tmp_path,
                                                         tiny_config):
        ckpt = tmp_path / "half"
        sweep("JACOBI", ["Orig"], SIZES, tiny_config,
              options=SweepOptions(checkpoint=ckpt))
        res = sweep("JACOBI", STRATS, SIZES, tiny_config,
                    options=SweepOptions(checkpoint=ckpt, parallel=2))
        assert len(flat(res)) == len(STRATS) * len(SIZES)
        assert res == sweep("JACOBI", STRATS, SIZES, tiny_config)


class TestCheckPayloadRegressions:
    """A dying worker's half-written payload must never be checkpointed."""

    @pytest.fixture
    def payload(self, tiny_config):
        return _point_to_payload(run_point("JACOBI", "Orig", 40,
                                           tiny_config))

    KEY = ("JACOBI", "Orig", 40)

    def test_good_payload_round_trips(self, payload):
        r = _check_payload(self.KEY, payload)
        assert (r.kernel, r.strategy, r.n) == self.KEY

    def test_truncated_payload_rejected(self, payload):
        # 'extrapolated' is the one legitimately optional field: records
        # written before it existed must keep validating (as False).
        for field in set(payload) - {"extrapolated"}:
            bad = dict(payload)
            bad.pop(field)
            with pytest.raises(CheckpointError):
                _check_payload(self.KEY, bad)

    def test_pre_extrapolated_payload_accepted(self, payload):
        # Records from before the 'extrapolated' flag existed have the
        # shape of records written since it was removed: no such key.
        assert "extrapolated" not in payload
        assert _point_to_payload(_check_payload(self.KEY, payload)) == \
            payload

    @pytest.mark.parametrize("flag", [True, False])
    def test_extrapolated_flag_accepted_and_dropped(self, payload, flag):
        legacy = dict(payload, extrapolated=flag)
        assert _check_payload(self.KEY, legacy) == \
            _check_payload(self.KEY, payload)

    def test_non_bool_extrapolated_rejected(self, payload):
        bad = dict(payload)
        bad["extrapolated"] = 1
        with pytest.raises(CheckpointError, match="extrapolated"):
            _check_payload(self.KEY, bad)

    def test_type_mangled_fields_rejected(self, payload):
        for field in ("l1_rate", "mflops", "refs", "n", "degraded"):
            bad = dict(payload)
            bad[field] = f"<corrupt:{bad[field]!r}>"
            with pytest.raises(CheckpointError):
                _check_payload(self.KEY, bad)

    def test_bool_masquerading_as_int_rejected(self, payload):
        bad = dict(payload)
        bad["refs"] = True
        with pytest.raises(CheckpointError, match="refs"):
            _check_payload(self.KEY, bad)

    def test_identity_mismatch_rejected(self, payload):
        with pytest.raises(CheckpointError, match="does not match its key"):
            _check_payload(("JACOBI", "Orig", 99), payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(CheckpointError, match="not a mapping"):
            _check_payload(self.KEY, ["not", "a", "dict"])

    def test_injected_corruption_is_caught(self, payload):
        with pytest.raises(CheckpointError):
            _check_payload(self.KEY, faults.corrupt_payload(payload))

    def test_corrupt_worker_payload_never_journaled(self, monkeypatch,
                                                    tmp_path, tiny_config):
        # Even with corruption on *every* attempt the checkpoint ends up
        # with a valid (quarantined analytic) record, never the garbage.
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "corrupt:1:all")
        ckpt = tmp_path / "c"
        res = sweep("JACOBI", ["Orig"], [40], tiny_config,
                    options=SweepOptions(checkpoint=ckpt, parallel=2))
        assert res["Orig"][0].degraded
        entries = checkpoint_entries(ckpt)
        assert len(entries) == 1
        for rec in entries:
            assert "__corrupt__" not in rec["payload"]
            _check_payload(tuple(rec["key"]), rec["payload"])


class TestObservability:
    def test_retry_and_quarantine_visible_in_report(self, monkeypatch,
                                                    tiny_config):
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all, kill:2")
        sink = MemorySink()
        with events.use(EventBus(sink)):
            sweep("JACOBI", STRATS, [40], tiny_config,
                  options=SweepOptions(parallel=2))
        s = summarize(sink.records)
        assert s.points == 2
        assert s.degraded == 1
        assert s.quarantined == 1
        assert s.pool_retries >= 1
        # kill:1:all burns 3 attempts, kill:2 one extra + 1 success.
        assert s.worker_attempts >= 4

    def test_serial_sweep_reports_no_pool_activity(self, tiny_config):
        sink = MemorySink()
        with events.use(EventBus(sink)):
            sweep("JACOBI", STRATS, [40], tiny_config,
                  options=SweepOptions(parallel=1))
        s = summarize(sink.records)
        assert s.worker_attempts == 0 and s.quarantined == 0


class TestValidationAndFallbacks:
    def test_bad_parallel_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError, match="parallel"):
            sweep("JACOBI", ["Orig"], [40], tiny_config,
                  options=SweepOptions(parallel=0))

    def test_bad_point_timeout_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError, match="point_timeout"):
            sweep("JACOBI", ["Orig"], [40], tiny_config,
                  options=SweepOptions(point_timeout=-1))

    def test_unavailable_pool_degrades_to_serial(self, monkeypatch,
                                                 tiny_config):
        from repro.resilience import pool

        monkeypatch.setattr(pool, "available", lambda: False)
        res = sweep("JACOBI", STRATS, [40], tiny_config,
                    options=SweepOptions(parallel=4))
        assert res == sweep("JACOBI", STRATS, [40], tiny_config)

    def test_serial_point_timeout_acts_as_wall_budget(self, tiny_config):
        clock = faults.FakeClock()
        inj = faults.FaultInjector(clock=clock).advance_on("chunk", 2, 1e6)
        with faults.inject(inj):
            res = sweep("JACOBI", ["Orig"], [40], tiny_config,
                        options=SweepOptions(parallel=1, point_timeout=30.0))
        assert res["Orig"][0].degraded
