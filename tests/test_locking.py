"""Tests for the advisory cross-process file lock."""

import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, LockError
from repro.resilience.locking import (DEFAULT_STALE_SECONDS, FileLock,
                                      _pid_alive, resolve_stale_seconds)


class TestBasics:
    def test_acquire_release_context(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held

    def test_creates_parent_directories(self, tmp_path):
        with FileLock(tmp_path / "deep" / "er" / "x.lock"):
            pass
        assert (tmp_path / "deep" / "er").is_dir()

    def test_not_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with pytest.raises(LockError, match="not reentrant"):
                lock.acquire()
        # ...and the failed re-acquire did not poison the lock.
        with lock:
            assert lock.held

    def test_two_objects_same_path_exclude(self, tmp_path):
        a = FileLock(tmp_path / "x.lock")
        b = FileLock(tmp_path / "x.lock", timeout=0.05)
        with a:
            with pytest.raises(LockError, match="timed out"):
                b.acquire()
        with b:  # released by a's exit
            assert b.held

    def test_release_without_acquire_is_noop(self, tmp_path):
        FileLock(tmp_path / "x.lock").release()


class TestCrossProcess:
    def _hold_in_child(self, path, hold_seconds):
        """Fork a child that grabs the lock and sleeps holding it."""
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            try:
                with FileLock(path):
                    time.sleep(hold_seconds)
            finally:
                os._exit(0)
        return pid

    def test_contention_blocks_then_succeeds(self, tmp_path):
        path = tmp_path / "x.lock"
        # Child signals acquisition via a marker file so the parent
        # never races the fork.
        marker = tmp_path / "held"
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            try:
                with FileLock(path):
                    marker.write_text("1")
                    time.sleep(0.3)
            finally:
                os._exit(0)
        try:
            deadline = time.monotonic() + 5.0
            while not marker.exists():
                assert time.monotonic() < deadline, "child never locked"
                time.sleep(0.01)
            short = FileLock(path, timeout=0.05)
            with pytest.raises(LockError, match="timed out"):
                short.acquire()
            with FileLock(path, timeout=10.0):
                pass  # waits out the child's 0.3s hold
        finally:
            os.waitpid(pid, 0)

    def test_lock_survives_nothing_after_sigkill(self, tmp_path):
        """fcntl locks die with the holder — SIGKILL included."""
        path = tmp_path / "x.lock"
        marker = tmp_path / "held"
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            try:
                FileLock(path).acquire()
                marker.write_text("1")
                time.sleep(60)
            finally:
                os._exit(0)
        deadline = time.monotonic() + 5.0
        while not marker.exists():
            assert time.monotonic() < deadline, "child never locked"
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        with FileLock(path, timeout=5.0):
            pass  # the kernel released the dead child's lock


class TestLockfileFallback:
    """The no-fcntl path: O_EXCL lockfile with stale takeover."""

    def _fallback(self, path, **kw):
        lock = FileLock(path, **kw)
        lock._acquire_lockfile(time.monotonic() + lock.timeout)
        return lock

    def test_acquire_writes_pid_and_release_unlinks(self, tmp_path):
        path = tmp_path / "x.lock"
        lock = self._fallback(path)
        assert lock.held
        assert int(path.read_text().split()[0]) == os.getpid()
        lock.release()
        assert not path.exists()

    def test_live_fresh_holder_blocks(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text(f"{os.getpid()} {time.time():.3f}\n")
        lock = FileLock(path, timeout=0.05)
        with pytest.raises(LockError, match="timed out"):
            lock._acquire_lockfile(time.monotonic() + lock.timeout)

    def test_dead_holder_is_stolen(self, tmp_path):
        path = tmp_path / "x.lock"
        # A pid that cannot be alive: fork+exit and reap it.
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os._exit(0)
        os.waitpid(pid, 0)
        path.write_text(f"{pid} {time.time():.3f}\n")
        lock = self._fallback(path, timeout=2.0)
        assert lock.held
        lock.release()

    def test_expired_holder_is_stolen(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text(f"{os.getpid()} {time.time() - 3600:.3f}\n")
        lock = self._fallback(path, timeout=2.0, stale_seconds=600.0)
        assert lock.held
        lock.release()

    def test_garbled_lockfile_ages_out_by_mtime(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("not a pid at all\n")
        old = time.time() - 3600
        os.utime(path, (old, old))
        lock = self._fallback(path, timeout=2.0, stale_seconds=600.0)
        assert lock.held
        lock.release()

    def test_garbled_but_fresh_lockfile_blocks(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("garbage\n")
        lock = FileLock(path, timeout=0.05, stale_seconds=600.0)
        with pytest.raises(LockError, match="timed out"):
            lock._acquire_lockfile(time.monotonic() + lock.timeout)


class TestPidAlive:
    def test_self_is_alive(self):
        assert _pid_alive(os.getpid())

    def test_nonpositive_never_alive(self):
        assert not _pid_alive(0)
        assert not _pid_alive(-1)

    def test_reaped_child_is_dead(self):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os._exit(0)
        os.waitpid(pid, 0)
        assert not _pid_alive(pid)


class TestStaleSecondsEnv:
    """``REPRO_LOCK_STALE_S``: env-configurable stale-lock takeover age."""

    def test_default_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_STALE_S", raising=False)
        assert resolve_stale_seconds() == DEFAULT_STALE_SECONDS

    def test_blank_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_STALE_S", "   ")
        assert resolve_stale_seconds() == DEFAULT_STALE_SECONDS

    def test_env_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LOCK_STALE_S", "12.5")
        assert resolve_stale_seconds() == 12.5
        assert FileLock(tmp_path / "x.lock").stale_seconds == 12.5

    def test_explicit_argument_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LOCK_STALE_S", "12.5")
        assert resolve_stale_seconds(3.0) == 3.0
        lock = FileLock(tmp_path / "x.lock", stale_seconds=3.0)
        assert lock.stale_seconds == 3.0

    @pytest.mark.parametrize("bad", ["not-a-number", "0", "-5", "nan?"])
    def test_malformed_env_is_a_configuration_error(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_LOCK_STALE_S", bad)
        with pytest.raises(ConfigurationError, match="REPRO_LOCK_STALE_S"):
            resolve_stale_seconds()

    def test_cli_maps_malformed_env_to_exit_2(self, monkeypatch, tmp_path,
                                              capsys):
        """The first lock acquisition (fsck --repair) surfaces the typo
        as a usage error, not a crash or a silent default."""
        from repro.cli import main
        from repro.perf.store import PointStore

        store = PointStore(tmp_path / "ck", max_bytes=0)
        store.put("fp", ("K", 1), {"x": 1})
        entry = store._entry_path("fp", ("K", 1))
        entry.write_text(entry.read_text().replace('"x": 1', '"x": 2'))

        monkeypatch.setenv("REPRO_LOCK_STALE_S", "soon")
        assert main(["fsck", str(store.root), "--repair"]) == 2
        assert "REPRO_LOCK_STALE_S" in capsys.readouterr().err
