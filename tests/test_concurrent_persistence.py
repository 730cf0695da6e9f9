"""Concurrent sweeps sharing one checkpoint / one point store.

The persistence layer's acceptance claim: two sweeps may share a
PointStore and resume the same checkpoint directory *at the same time*
without interleaved corruption. These tests run real concurrent processes
(fork), let them race on the shared artifacts, and then hold the result
to the same standard as the chaos harness — fsck clean, no lost or
duplicated records, bit-identical results.
"""

import os

import pytest

from repro.cache.params import CacheParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import SweepOptions
from repro.experiments.runner import config_fingerprint, open_checkpoint, sweep
from repro.perf.store import PointStore
from repro.perfmodel.machine import ULTRASPARC2_360
from repro.resilience import faults
from repro.resilience.fsck import fsck_store
from tests.helpers import checkpoint_entries

KERNEL = "JACOBI"
STRATEGIES = ["Orig", "GcdPad"]
SIZES = [16, 20, 24]
ALL_KEYS = sorted((KERNEL, s, n) for s in STRATEGIES for n in SIZES)

CFG = ExperimentConfig(
    l1=CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1"),
    l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
    machine=ULTRASPARC2_360, nk=8)
FP = config_fingerprint(CFG)

EXIT_OK = 99
EXIT_ERROR = 70


def _fork_sweep(**options):
    """Fork a child running the standard grid; return its pid."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        code = EXIT_ERROR
        try:
            faults.reset_in_child()
            sweep(KERNEL, STRATEGIES, SIZES, CFG,
                  options=SweepOptions(**options))
            code = EXIT_OK
        except BaseException:
            pass
        finally:
            os._exit(code)
    return pid


def _wait_ok(pid):
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == EXIT_OK, \
        f"child {pid} failed: status {status}"


class TestSharedJournal:
    """Writers sharing one checkpoint directory."""

    def test_two_journal_objects_merge_each_others_records(self, tmp_path):
        """Writers on one checkpoint see, never clobber, each other's
        entries."""
        a = open_checkpoint(tmp_path / "ck", CFG)
        b = open_checkpoint(tmp_path / "ck", CFG)
        a.put(FP, ("K", 1), {"x": 1})
        b.put(FP, ("K", 2), {"x": 2})
        assert b.get(FP, ("K", 1)) == {"x": 1}
        a.put(FP, ("K", 3), {"x": 3})
        assert a.get(FP, ("K", 2)) == {"x": 2}

        fresh = open_checkpoint(tmp_path / "ck", CFG)
        assert {fresh.get(FP, ("K", i))["x"] for i in (1, 2, 3)} == {1, 2, 3}
        assert fsck_store(tmp_path / "ck").ok

    def test_cross_process_journal_writers(self, tmp_path):
        """A forked writer's entries survive the parent's writes."""
        path = tmp_path / "ck"
        parent_ck = open_checkpoint(path, CFG)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            code = EXIT_ERROR
            try:
                child_ck = open_checkpoint(path, CFG)
                for i in range(5):
                    child_ck.put(FP, ("child", i), {"i": i})
                code = EXIT_OK
            except BaseException:
                pass
            finally:
                os._exit(code)
        # Parent races its own entries against the child's.
        for i in range(5):
            parent_ck.put(FP, ("parent", i), {"i": i})
        _wait_ok(pid)

        parent_ck.put(FP, ("parent", "last"), {"i": -1})
        for i in range(5):
            assert parent_ck.get(FP, ("child", i)) == {"i": i}
            assert parent_ck.get(FP, ("parent", i)) == {"i": i}
        keys = [tuple(e["key"]) for e in checkpoint_entries(path)]
        assert len(keys) == len(set(keys)) == 11
        assert fsck_store(path).ok

    def test_two_concurrent_sweeps_resume_one_journal(self, tmp_path):
        """The acceptance scenario: concurrent sweeps, one checkpoint."""
        path = tmp_path / "shared"
        pids = [_fork_sweep(checkpoint=path) for _ in range(2)]
        for pid in pids:
            _wait_ok(pid)
        assert fsck_store(path).ok
        keys = [tuple(e["key"]) for e in checkpoint_entries(path)]
        # Every point exactly once: nothing lost, nothing duplicated.
        assert sorted(keys) == ALL_KEYS

        # A third, serial run resumes entirely from the checkpoint.
        inj = faults.FaultInjector()
        with faults.inject(inj):
            resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                            options=SweepOptions(checkpoint=path))
        assert inj.calls("simulate") == 0
        assert resumed == sweep(KERNEL, STRATEGIES, SIZES, CFG)


class TestSharedStore:
    def test_two_concurrent_sweeps_share_one_store(self, tmp_path):
        cache = tmp_path / "cache"
        pids = [_fork_sweep(point_cache=cache) for _ in range(2)]
        for pid in pids:
            _wait_ok(pid)
        assert fsck_store(cache).ok

        store = PointStore(cache)
        fp = config_fingerprint(CFG)
        for key in ALL_KEYS:
            assert store.get(fp, key) is not None, key

        # The warm run is served entirely from the shared store.
        inj = faults.FaultInjector()
        with faults.inject(inj):
            warm = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                         options=SweepOptions(point_cache=cache))
        assert inj.calls("simulate") == 0
        assert warm == sweep(KERNEL, STRATEGIES, SIZES, CFG)

    def test_cross_process_store_hit(self, tmp_path):
        """A point simulated in one process is a hit in another."""
        cache = tmp_path / "cache"
        pid = _fork_sweep(point_cache=cache)
        _wait_ok(pid)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            sweep(KERNEL, STRATEGIES, SIZES, CFG,
                  options=SweepOptions(point_cache=cache))
        assert inj.calls("simulate") == 0

    def test_concurrent_eviction_does_not_thrash(self, tmp_path):
        """Two stores over one root evicting at once stay lock-serial."""
        root = tmp_path / "cache"
        a = PointStore(root, max_bytes=2048)
        b = PointStore(root, max_bytes=2048)
        for i in range(20):
            (a if i % 2 == 0 else b).put("fp", ("K", i), {"i": i})
        # Whatever survived the interleaved evictions is intact.
        assert fsck_store(root).ok
        survivors = [k for k in range(20) if a.get("fp", ("K", k))]
        assert survivors, "eviction removed everything"
        assert a.info().bytes <= 2048


class TestJournalPlusStoreConcurrently:
    def test_full_shared_stack(self, tmp_path):
        """Both artifacts shared by two concurrent sweeps at once."""
        path = tmp_path / "ck"
        cache = tmp_path / "cache"
        pids = [_fork_sweep(checkpoint=path, point_cache=cache)
                for _ in range(2)]
        for pid in pids:
            _wait_ok(pid)
        assert fsck_store(path).ok
        assert fsck_store(cache).ok
        resumed = sweep(KERNEL, STRATEGIES, SIZES, CFG,
                        options=SweepOptions(checkpoint=path,
                                             point_cache=cache))
        assert resumed == sweep(KERNEL, STRATEGIES, SIZES, CFG)
