"""Fault-injection tests of resilient sweep execution.

These prove the acceptance scenarios end to end on the tiny (2KB L1)
configuration: a sweep killed mid-run resumes from its checkpoint
without re-simulating finished points; a point that exceeds its budget
or exhausts its retries degrades to the analytic miss model instead of
failing the sweep; damaged checkpoint entries are quarantined and
re-simulated, and a checkpoint of another configuration is refused.
"""

import pytest

from repro.errors import CheckpointError, RetryableError
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    _point_to_payload,
    config_fingerprint,
    open_checkpoint,
    run_point,
    sweep,
)
from repro.experiments.table3 import table3
from repro.perf.store import PointStore
from repro.resilience import PointBudget
from repro.resilience import faults
from repro.resilience.integrity import QUARANTINE_DIR
from tests.helpers import checkpoint_points

SIZES = [40, 64, 90]
STRATS = ["Orig", "GcdPad"]
N_POINTS = len(SIZES) * len(STRATS)


def flat(res):
    return [p for pts in res.values() for p in pts]


def analytic(kernel, strategy, n, cfg):
    return run_point(kernel, strategy, n, cfg,
                     policy=PointPolicy(analytic=True))


class TestAnalyticFallbackResult:
    def test_tiled_point_is_sane(self, tiny_config):
        a = analytic("JACOBI", "GcdPad", 48, tiny_config)
        e = run_point("JACOBI", "GcdPad", 48, tiny_config)
        assert a.degraded and not e.degraded
        assert a.tile == e.tile and a.di_p == e.di_p  # selection is exact
        assert 0 < a.l1_rate < 100 and a.l2_rate <= a.l1_rate
        assert a.mflops > 0 and a.seconds > 0

    def test_untiled_tracks_simulation_at_benign_size(self, tiny_config):
        a = analytic("JACOBI", "Orig", 40, tiny_config)
        e = run_point("JACOBI", "Orig", 40, tiny_config)
        # Capacity-only model: same ballpark at a benign size.
        assert a.l1_rate == pytest.approx(e.l1_rate, rel=0.5)

    @pytest.mark.parametrize("kernel", ["JACOBI", "REDBLACK", "RESID"])
    def test_every_kernel_has_a_fallback(self, kernel, tiny_config):
        for strategy in ("Orig", "GcdPad"):
            a = analytic(kernel, strategy, 40, tiny_config)
            assert a.degraded and a.refs > 0 and a.mflops > 0


class TestResumeAfterCrash:
    def test_crash_then_resume_skips_finished_points(self, tmp_path,
                                                     tiny_config):
        ckpt = tmp_path / "sweep"
        crash_at = 4
        inj = faults.FaultInjector().fail_on("simulate", crash_at,
                                             RuntimeError("killed"))
        with faults.inject(inj):
            with pytest.raises(RuntimeError, match="killed"):
                sweep("JACOBI", STRATS, SIZES, tiny_config,
                      options=SweepOptions(checkpoint=ckpt))
        # Everything before the crash is checkpointed.
        assert len(checkpoint_points(ckpt)) == crash_at - 1

        inj2 = faults.FaultInjector()
        with faults.inject(inj2):
            res = sweep("JACOBI", STRATS, SIZES, tiny_config,
                        options=SweepOptions(checkpoint=ckpt))
        # Only the unfinished points were re-simulated.
        assert inj2.calls("simulate") == N_POINTS - (crash_at - 1)
        assert [p.n for p in res["Orig"]] == SIZES
        assert not any(p.degraded for p in flat(res))

    def test_resumed_results_match_uninterrupted_run(self, tmp_path,
                                                     tiny_config):
        ckpt = tmp_path / "sweep"
        inj = faults.FaultInjector().fail_on("simulate", 3,
                                             RuntimeError("killed"))
        with faults.inject(inj):
            with pytest.raises(RuntimeError):
                sweep("JACOBI", STRATS, SIZES, tiny_config,
                      options=SweepOptions(checkpoint=ckpt))
        resumed = sweep("JACOBI", STRATS, SIZES, tiny_config,
                        options=SweepOptions(checkpoint=ckpt))
        direct = sweep("JACOBI", STRATS, SIZES, tiny_config)
        assert flat(resumed) == flat(direct)

    def test_completed_journal_resumes_with_zero_simulation(self, tmp_path,
                                                            tiny_config):
        ckpt = tmp_path / "sweep"
        sweep("JACOBI", STRATS, SIZES, tiny_config,
              options=SweepOptions(checkpoint=ckpt))
        inj = faults.FaultInjector()
        with faults.inject(inj):
            res = sweep("JACOBI", STRATS, SIZES, tiny_config,
                        options=SweepOptions(checkpoint=ckpt))
        assert inj.calls("simulate") == 0
        assert len(flat(res)) == N_POINTS

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path, tiny_config,
                                                 tiny_l1, tiny_l2):
        ckpt = tmp_path / "sweep"
        sweep("JACOBI", ["Orig"], [40], tiny_config,
              options=SweepOptions(checkpoint=ckpt))
        other = ExperimentConfig(l1=tiny_l1, l2=tiny_l2, nk=5)
        assert config_fingerprint(other) != config_fingerprint(tiny_config)
        with pytest.raises(CheckpointError, match="different configuration"):
            sweep("JACOBI", ["Orig"], [40], other,
                  options=SweepOptions(checkpoint=ckpt))

    def test_corrupt_trailing_line_rerun_recovers(self, tmp_path,
                                                  tiny_config):
        ckpt = tmp_path / "sweep"
        sweep("JACOBI", STRATS, SIZES, tiny_config,
              options=SweepOptions(checkpoint=ckpt))
        victim = sorted(ckpt.glob("*/*.json"))[-1]
        faults.corrupt_file(victim, "truncate")
        inj = faults.FaultInjector()
        with faults.inject(inj):
            res = sweep("JACOBI", STRATS, SIZES, tiny_config,
                        options=SweepOptions(checkpoint=ckpt))
        # Exactly the damaged point was re-simulated; the rest resumed.
        assert inj.calls("simulate") == 1
        assert len(flat(res)) == N_POINTS

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_mangled_checkpoint_entry_quarantined(self, tmp_path,
                                                  tiny_config, parallel):
        """A CRC-valid entry whose payload fails validation is
        quarantined and its point re-simulated, serially and in
        parallel — never served, never a crashed sweep."""
        if parallel > 1:
            from repro.resilience.pool import available

            if not available():
                pytest.skip("multiprocessing unavailable")
        ckpt = tmp_path / "ck"
        key = ("JACOBI", "Orig", 40)
        good = run_point(*key, tiny_config)
        open_checkpoint(ckpt, tiny_config).put(
            config_fingerprint(tiny_config), key,
            dict(_point_to_payload(good), l1_misses="12"))
        res = sweep("JACOBI", ["Orig"], [40], tiny_config,
                    options=SweepOptions(checkpoint=ckpt,
                                         parallel=parallel))
        assert res["Orig"] == [good]
        assert len(list((ckpt / QUARANTINE_DIR).glob("*.meta.json"))) == 1
        # The re-simulated point replaced the poisoned entry.
        assert checkpoint_points(ckpt)[key] == _point_to_payload(good)


class TestBudgetDegradation:
    def test_timeout_mid_simulation_degrades(self, tiny_config):
        clock = faults.FakeClock()
        inj = faults.FaultInjector(clock=clock).advance_on("chunk", 2, 1e6)
        with faults.inject(inj):
            r = run_point("JACOBI", "Orig", 40, tiny_config,
                          policy=PointPolicy(
                              budget=PointBudget(wall_seconds=30)))
        assert r.degraded
        assert r == analytic("JACOBI", "Orig", 40, tiny_config)

    def test_trace_length_budget_degrades_deterministically(self,
                                                            tiny_config):
        r = run_point("JACOBI", "GcdPad", 40, tiny_config,
                      policy=PointPolicy(budget=PointBudget(max_refs=100)))
        assert r.degraded and r.tile is not None

    def test_generous_budget_stays_exact(self, tiny_config):
        r = run_point("JACOBI", "Orig", 40, tiny_config,
                      policy=PointPolicy(
                          budget=PointBudget(wall_seconds=3600)))
        assert not r.degraded
        assert r == run_point("JACOBI", "Orig", 40, tiny_config)

    def test_budget_sweep_mixes_exact_and_degraded(self, tmp_path,
                                                   tiny_config):
        # A trace-length bound between the two problem sizes: N=40
        # points simulate exactly, N=64 points degrade to the model.
        res = sweep("JACOBI", STRATS, [40, 64], tiny_config,
                    options=SweepOptions(
                        checkpoint=tmp_path / "b",
                        budget=PointBudget(max_refs=100_000)))
        flags = {(p.strategy, p.n): p.degraded for p in flat(res)}
        # N=40 traces (~61k refs) fit in the budget; N=64 (~161k) do not.
        assert flags[("Orig", 40)] is False
        assert flags[("Orig", 64)] is True

    def test_degraded_point_is_journaled_and_resumed(self, tmp_path,
                                                     tiny_config):
        ckpt = tmp_path / "b"
        budget = PointBudget(max_refs=100)
        first = run_point("JACOBI", "Orig", 40, tiny_config,
                          policy=PointPolicy(
                              budget=budget,
                              checkpoint=open_checkpoint(ckpt,
                                                         tiny_config)))
        assert first.degraded
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = run_point("JACOBI", "Orig", 40, tiny_config,
                              policy=PointPolicy(
                                  budget=budget,
                                  checkpoint=open_checkpoint(ckpt,
                                                             tiny_config)))
        assert inj.calls("simulate") == 0
        assert again == first and again.degraded


class TestLegacyExtrapolatedRecords:
    """Checkpoints and stores written while K-plane extrapolation was an
    opt-in carry an ``extrapolated`` flag per point; they must keep
    resuming and serving the identical points."""

    KEY = ("JACOBI", "Orig", 64)

    @pytest.fixture
    def legacy(self, tiny_config):
        fresh = run_point(*self.KEY, tiny_config)
        return fresh, dict(_point_to_payload(fresh), extrapolated=True)

    def test_journal_resumes_bit_identically(self, tmp_path, tiny_config,
                                             legacy):
        fresh, payload = legacy
        ckpt = tmp_path / "legacy"
        open_checkpoint(ckpt, tiny_config).put(
            config_fingerprint(tiny_config), self.KEY, payload)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            res = sweep("JACOBI", ["Orig"], [64], tiny_config,
                        options=SweepOptions(checkpoint=ckpt))
        assert inj.calls("simulate") == 0
        assert res["Orig"] == [fresh]

    def test_store_serves_bit_identically(self, tmp_path, tiny_config,
                                          legacy):
        fresh, payload = legacy
        store = PointStore(tmp_path / "store")
        store.put(config_fingerprint(tiny_config), self.KEY, payload)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            served = run_point(*self.KEY, tiny_config,
                               policy=PointPolicy(store=store))
        assert inj.calls("simulate") == 0
        assert served == fresh


class TestRetryPolicy:
    def test_transient_failure_retried_to_success(self, tiny_config):
        inj = faults.FaultInjector(clock=faults.FakeClock())
        inj.fail_on("simulate", 1, RetryableError("transient"))
        with faults.inject(inj):
            r = run_point("JACOBI", "Orig", 40, tiny_config,
                          policy=PointPolicy(budget=PointBudget()))
        assert not r.degraded
        assert inj.calls("simulate") == 2

    def test_exhausted_retries_degrade(self, tiny_config):
        inj = faults.FaultInjector(clock=faults.FakeClock())
        for k in (1, 2, 3):
            inj.fail_on("simulate", k, RetryableError("still broken"))
        with faults.inject(inj):
            r = run_point("JACOBI", "Orig", 40, tiny_config,
                          policy=PointPolicy(
                              budget=PointBudget(max_retries=2)))
        assert r.degraded
        assert inj.calls("simulate") == 3


class TestTable3Checkpoint:
    def test_table3_resumes_from_shared_journal(self, tmp_path, tiny_config):
        ckpt = tmp_path / "t3"
        kwargs = dict(kernels=("JACOBI",), strategies=("GcdPad",),
                      sizes=[40, 64], cfg=tiny_config)
        first = table3(options=SweepOptions(checkpoint=ckpt), **kwargs)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            second = table3(options=SweepOptions(checkpoint=ckpt), **kwargs)
        assert inj.calls("simulate") == 0
        assert second.summaries == first.summaries

    def test_format_notes_degraded_points(self, tiny_config):
        from repro.experiments.table3 import format_table3

        res = table3(kernels=("JACOBI",), strategies=("GcdPad",),
                     sizes=[40, 64], cfg=tiny_config,
                     options=SweepOptions(
                         budget=PointBudget(max_refs=50_000)))
        txt = format_table3(res)
        assert "degraded" in txt and "analytic" in txt

    def test_exact_format_has_no_degraded_note(self, tiny_config):
        from repro.experiments.table3 import format_table3

        res = table3(kernels=("JACOBI",), strategies=("GcdPad",),
                     sizes=[40], cfg=tiny_config)
        assert "degraded" not in format_table3(res)
