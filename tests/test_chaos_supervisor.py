"""Supervisor-crash chaos harness.

The strongest durability claim in the resilience layer is that the
*supervisor itself* may die at any checkpoint-record boundary — SIGKILL,
no warning, no cleanup — and a resumed sweep still produces bit-identical
results with no lost and no duplicated points. These tests prove it the
blunt way: fork a child, let ``REPRO_FAULT_SUPERVISOR`` SIGKILL it at a
randomized record index (before or after the entry is written), then
resume from the survivor checkpoint directory in the parent and compare
against an uninterrupted baseline.

SIGTERM/SIGINT take the graceful path instead: the sweep drains
(in-flight work finishes and is checkpointed), raises
:class:`~repro.errors.SweepInterrupted`, and the CLI maps it to the
conventional exit code 130 — with the checkpoint cleanly resumable.
"""

import os
import random
import signal

import pytest

import repro.cli as cli
from repro.cache.params import CacheParams
from repro.errors import StorageError, SweepInterrupted
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import SweepOptions
from repro.experiments.runner import config_fingerprint, sweep
from repro.perfmodel.machine import ULTRASPARC2_360
from repro.resilience import faults
from repro.resilience.fsck import fsck_store
from tests.helpers import checkpoint_entries

KERNEL = "JACOBI"
STRATEGIES = ["Orig", "GcdPad"]
SIZES = [16, 20, 24]
N_POINTS = len(STRATEGIES) * len(SIZES)

CFG = ExperimentConfig(
    l1=CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1"),
    l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
    machine=ULTRASPARC2_360, nk=8)

# Child exit codes (anything the fault didn't cause is EXIT_ERROR).
EXIT_OK = 99
EXIT_INTERRUPTED = 77
EXIT_ERROR = 70


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted ground truth every chaos trial must reproduce."""
    return sweep(KERNEL, STRATEGIES, SIZES, CFG)


def _spawn_sweep(checkpoint, fault_spec, *, parallel=1,
                 point_cache=None):
    """Fork a child that runs the sweep under a supervisor fault plan.

    Returns the raw ``waitpid`` status. The child exits EXIT_OK on
    normal completion, EXIT_INTERRUPTED on a graceful drain, EXIT_ERROR
    on anything unexpected — and simply dies by signal for ``kill``.
    """
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        code = EXIT_ERROR
        try:
            os.environ[faults.SUPERVISOR_FAULT_ENV] = fault_spec
            faults.reset_in_child()
            opts = SweepOptions(checkpoint=checkpoint, parallel=parallel,
                                point_cache=point_cache)
            sweep(KERNEL, STRATEGIES, SIZES, CFG, options=opts)
            code = EXIT_OK
        except SweepInterrupted:
            code = EXIT_INTERRUPTED
        except BaseException:
            pass
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return status


def _checkpoint_keys(path):
    """The key of every entry currently in the checkpoint directory."""
    return [tuple(e["key"]) for e in checkpoint_entries(path)]


class TestRandomizedSigkill:
    def test_twenty_randomized_kills_resume_bit_identical(self, tmp_path,
                                                          baseline):
        """The headline chaos differential: 20+ randomized SIGKILLs.

        Each trial kills the sweep at a random checkpoint-record
        boundary (randomly before or after the entry is written),
        verifies the survivor checkpoint fscks clean, resumes, and
        demands bit-identical results with no lost or duplicated points.
        """
        rnd = random.Random(0xC0FFEE)
        for trial in range(20):
            nth = rnd.randint(1, N_POINTS)
            before = rnd.random() < 0.5
            spec = f"kill:{nth}" + (":before" if before else "")
            path = tmp_path / f"trial{trial}"
            status = _spawn_sweep(path, spec)

            ctx = f"trial {trial}: {spec}"
            assert os.WIFSIGNALED(status), ctx
            assert os.WTERMSIG(status) == signal.SIGKILL, ctx

            # The crash left a verifiable checkpoint with exactly the
            # entries that were durably written before the kill.
            expect = nth - 1 if before else nth
            keys = _checkpoint_keys(path)
            assert len(keys) == expect, ctx
            assert len(set(keys)) == len(keys), ctx
            assert fsck_store(path).ok, ctx

            # Resume: bit-identical to the uninterrupted baseline.
            resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                            options=SweepOptions(checkpoint=path))
            assert resumed == baseline, ctx

            # No lost, no duplicated points after the resume.
            keys = _checkpoint_keys(path)
            assert sorted(keys) == sorted(
                (KERNEL, s, n) for s in STRATEGIES for n in SIZES), ctx

    def test_kill_before_first_flush_resumes_from_nothing(self, tmp_path,
                                                          baseline):
        path = tmp_path / "early"
        status = _spawn_sweep(path, "kill:1:before")
        assert os.WIFSIGNALED(status)
        # Only the fingerprint directory made it to disk; resume
        # recomputes everything.
        assert len(list(path.iterdir())) == 1
        assert _checkpoint_keys(path) == []
        assert fsck_store(path).ok
        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path))
        assert resumed == baseline

    def test_kill_mid_parallel_sweep(self, tmp_path, baseline):
        from repro.resilience import pool

        if not pool.available():
            pytest.skip("multiprocessing unavailable")
        path = tmp_path / "par"
        status = _spawn_sweep(path, "kill:3", parallel=2)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL
        keys = _checkpoint_keys(path)
        assert len(keys) == 3 and len(set(keys)) == 3
        assert fsck_store(path).ok
        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path, parallel=2))
        assert resumed == baseline


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_resumable(self, tmp_path, baseline):
        """First SIGTERM: finish in flight, record, SweepInterrupted."""
        path = tmp_path / "term"
        status = _spawn_sweep(path, "term:2")
        assert os.WIFEXITED(status)
        assert os.WEXITSTATUS(status) == EXIT_INTERRUPTED
        # The point whose record fired the signal was still checkpointed
        # — that is the drain contract (no work in flight is lost).
        assert len(_checkpoint_keys(path)) == 2
        assert fsck_store(path).ok
        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path))
        assert resumed == baseline

    def test_sigint_drain_in_process(self, tmp_path, baseline):
        path = tmp_path / "int"
        with faults.inject_supervisor("int:1"):
            with pytest.raises(SweepInterrupted) as exc_info:
                sweep(KERNEL, STRATEGIES, SIZES, CFG,
                      options=SweepOptions(checkpoint=path))
        exc = exc_info.value
        assert exc.signum == signal.SIGINT
        assert exc.completed >= 1
        assert exc.completed + exc.skipped == N_POINTS
        assert "resume" in str(exc)
        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path))
        assert resumed == baseline

    def test_plain_sweep_installs_no_handlers(self):
        """A non-durable sweep keeps ordinary Ctrl-C behaviour."""
        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        sweep(KERNEL, ["Orig"], [16], CFG)
        after = (signal.getsignal(signal.SIGINT),
                 signal.getsignal(signal.SIGTERM))
        assert after == before

    def test_cli_maps_sweep_interrupted_to_130(self, monkeypatch, capsys):
        def boom(argv=None):
            raise SweepInterrupted("sweep drained after SIGTERM: 3 "
                                   "point(s) completed", signum=15,
                                   completed=3, skipped=2)
        monkeypatch.setattr(cli, "_run", boom)
        assert cli.main(["table3"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestChaosWithIOFaults:
    def test_kill_plus_torn_write_on_resume(self, tmp_path, baseline):
        """Compound chaos: SIGKILL mid-sweep, then a torn write during
        the resume — the checkpoint must never be left unverifiable."""
        path = tmp_path / "compound"
        status = _spawn_sweep(path, "kill:2")
        assert os.WIFSIGNALED(status)
        assert fsck_store(path).ok

        def snapshot():
            return {p.relative_to(path): p.read_bytes()
                    for p in path.rglob("*") if p.is_file()}

        before = snapshot()
        # The resume's very first checkpoint write tears. Entry writes
        # are atomic, so the directory is byte-identical afterwards.
        with faults.inject_io(f"torn_write:{path}/*"):
            with pytest.raises(StorageError):
                sweep(KERNEL, STRATEGIES, SIZES, CFG,
                      options=SweepOptions(checkpoint=path))
        assert snapshot() == before
        assert fsck_store(path).ok

        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path))
        assert resumed == baseline
        assert fsck_store(path).ok

    def test_store_survives_kill_and_serves_resume(self, tmp_path,
                                                   baseline):
        """A killed sweep's store entries are still valid cache hits."""
        ckpt = tmp_path / "ckpt"
        cache = tmp_path / "cache"
        status = _spawn_sweep(ckpt, "kill:4", point_cache=cache)
        assert os.WIFSIGNALED(status)
        assert fsck_store(cache).ok

        # Resume with a *fresh* checkpoint: every completed point must
        # be served from the shared store, not recomputed.
        inj = faults.FaultInjector()
        with faults.inject(inj):
            resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                            options=SweepOptions(
                                checkpoint=tmp_path / "fresh",
                                point_cache=cache))
        assert resumed == baseline
        # kill:4 fired right after the 4th checkpoint write, which
        # happens *before* that point's store put — so exactly 3 points
        # were durably cached and 3 had to be recomputed.
        assert inj.calls("simulate") == N_POINTS - 3


def test_fingerprint_covers_chaos_grid():
    """Guard: the checkpoints above all bind to one fingerprint — if the
    config stopped fingerprinting deterministically, every resume test
    here would silently start from scratch and prove nothing."""
    assert config_fingerprint(CFG) == config_fingerprint(CFG)
    j_fp = config_fingerprint(CFG)
    other = ExperimentConfig(
        l1=CacheParams(size_bytes=4096, line_bytes=32, assoc=1, name="L1"),
        l2=CFG.l2, machine=ULTRASPARC2_360, nk=8)
    assert config_fingerprint(other) != j_fp
