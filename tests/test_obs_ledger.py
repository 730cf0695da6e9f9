"""Tests for the run ledger, live status, and the runs/watch CLI."""

import io
import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.obs import ledger
from repro.obs.status import (StatusPublisher, format_status, read_status,
                              watch)


def _make_run(tmp_path, run_id="20260101-000000-aaaaaa", outcome="ok",
              **finalize_kw):
    paths = ledger.start_run(tmp_path / "ledger", run_id=run_id,
                             trace_id="t" * 16, command="table3 --n 8",
                             argv=["table3", "--n", "8"])
    if outcome is not None:
        ledger.finalize_run(paths.root, outcome=outcome, **finalize_kw)
    return paths


class TestManifest:
    def test_start_then_finalize_round_trip(self, tmp_path):
        paths = _make_run(tmp_path, outcome=None)
        m = ledger.read_manifest(paths.root)
        assert m["outcome"] == "running" and m["argv"] == ["table3", "--n", "8"]
        assert "integrity" not in m
        ledger.finalize_run(paths.root, outcome="ok",
                            fingerprint="f" * 8,
                            metrics={"points": 18},
                            artifacts={"csv": "/tmp/p.csv", "none": None})
        m = ledger.read_manifest(paths.root)
        assert m["outcome"] == "ok" and m["wall_s"] >= 0
        assert m["metrics"]["points"] == 18
        assert m["artifacts"] == {"csv": "/tmp/p.csv"}
        # finalize also seals the status file's outcome
        assert read_status(paths.status)["outcome"] == "ok"

    def test_crc_tamper_is_flagged_not_trusted(self, tmp_path):
        paths = _make_run(tmp_path)
        body = json.loads(paths.manifest.read_text())
        body["outcome"] = "definitely-fine"
        paths.manifest.write_text(json.dumps(body))
        m = ledger.read_manifest(paths.root)
        assert m["integrity"] == "crc mismatch"
        assert "INTEGRITY" in ledger.format_manifest(m)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ExperimentError):
            ledger.read_manifest(tmp_path)
        assert ledger.read_manifest(tmp_path, strict=False) == {}


class TestResolveListGc:
    def test_resolve_by_dir_id_and_latest(self, tmp_path):
        a = _make_run(tmp_path, run_id="20260101-000000-aaaaaa")
        b = _make_run(tmp_path, run_id="20260102-000000-bbbbbb")
        led = tmp_path / "ledger"
        assert ledger.resolve_run(a.root) == a.root
        assert ledger.resolve_run("20260101-000000-aaaaaa",
                                  ledger_dir=led) == a.root
        assert ledger.resolve_run(led) == b.root  # latest wins
        with pytest.raises(ExperimentError):
            ledger.resolve_run("nope", ledger_dir=led)

    def test_list_and_gc_keep_newest(self, tmp_path):
        for i in range(5):
            _make_run(tmp_path, run_id=f"2026010{i}-000000-{i:06d}")
        led = tmp_path / "ledger"
        rows = ledger.list_runs(led)
        assert [r["run_id"][7] for r in rows] == list("01234")
        removed = ledger.gc_runs(led, keep=2)
        assert len(removed) == 3
        assert [r["run_id"][7] for r in ledger.list_runs(led)] == list("34")
        out = ledger.format_runs(ledger.list_runs(led))
        assert "run id" in out and "ok" in out

    def test_metrics_digest_extracts_percentiles(self):
        snap = {
            "counters": [{"name": "repro.runner.points", "labels": {},
                          "value": 18}],
            "histograms": [{"name": "repro.sim.point_seconds", "labels": {},
                            "count": 18, "p50": 0.01, "p90": 0.02,
                            "p95": 0.03, "max": 0.04}],
            "gauges": [{"name": "repro.sim.addresses_per_second",
                        "labels": {}, "value": 1e6}],
        }
        d = ledger.metrics_digest(snap)
        assert d["points"] == 18
        assert d["point_seconds"]["p95"] == 0.03
        assert d["addresses_per_second"] == 1e6


class TestStatusPublisher:
    def test_snapshot_counts_and_rate(self, tmp_path):
        path = tmp_path / "status.json"
        pub = StatusPublisher(path, total=4, run_id="r1", kernel="JACOBI",
                              interval=0.0)
        pub.point_done()
        pub.point_done(degraded=True)
        pub.point_done(quarantined=True, degraded=True)
        st = read_status(path)
        assert st["done"] == 3 and st["total"] == 4
        assert st["degraded"] == 2 and st["quarantined"] == 1
        assert st["points_per_s"] > 0 and st["eta_s"] is not None
        assert st["outcome"] == "running"
        line = format_status(st)
        assert "3/4 points" in line and "2 degraded" in line

    def test_rate_limited_publish(self, tmp_path):
        path = tmp_path / "status.json"
        pub = StatusPublisher(path, total=10, interval=3600.0)
        pub.point_done()  # first publish goes through
        first = path.read_text()
        pub.point_done()  # inside the interval: suppressed
        assert path.read_text() == first
        pub.finish()  # forced
        assert read_status(path)["done"] == 2

    def test_first_publish_on_freshly_booted_clock(self, tmp_path):
        """A monotonic clock reading below ``interval`` (a host up for
        less than the interval) must not swallow the first publish."""
        path = tmp_path / "status.json"
        now = [5.0]
        pub = StatusPublisher(path, total=3, interval=3600.0,
                              clock=lambda: now[0])
        pub.point_done()
        assert read_status(path)["done"] == 1
        now[0] = 6.0
        pub.point_done()  # inside the interval: suppressed
        assert read_status(path)["done"] == 1
        now[0] = 3606.0
        pub.point_done()  # interval elapsed since the first publish
        assert read_status(path)["done"] == 3

    def test_crc_tamper_flagged(self, tmp_path):
        path = tmp_path / "status.json"
        StatusPublisher(path, total=1, interval=0.0).point_done()
        body = json.loads(path.read_text())
        body["done"] = 999
        path.write_text(json.dumps(body))
        assert read_status(path)["integrity"] == "crc mismatch"

    def test_for_run_requires_endpoint(self, tmp_path):
        from repro.obs.context import RunContext

        assert StatusPublisher.for_run(None, total=1) is None
        ctx = RunContext(run_id="r", trace_id="t")
        assert StatusPublisher.for_run(ctx, total=1) is None
        ctx = RunContext(run_id="r", trace_id="t",
                         status_path=tmp_path / "s.json")
        pub = StatusPublisher.for_run(ctx, total=5, kernel="RESID")
        assert pub is not None and pub.total == 5

    def test_progress_line_to_stderr(self, tmp_path, capsys):
        pub = StatusPublisher(None, total=2, progress=True, interval=0.0)
        pub.point_done()
        assert "1/2 points" in capsys.readouterr().err


class TestWatch:
    def test_finished_run_prints_and_exits_by_outcome(self, tmp_path):
        paths = _make_run(tmp_path, outcome="ok")
        out = io.StringIO()
        assert watch(paths.root, stream=out) == 0
        assert "-> ok" in out.getvalue()
        paths = _make_run(tmp_path, run_id="20260103-000000-cccccc",
                          outcome="error:ValueError")
        assert watch(paths.root, stream=io.StringIO()) == 1

    def test_once_on_running_run(self, tmp_path):
        paths = _make_run(tmp_path, outcome=None)
        out = io.StringIO()
        assert watch(paths.root, once=True, stream=out) == 0
        assert "running" in out.getvalue() or "0/?" in out.getvalue()

    def test_timeout_on_stuck_run(self, tmp_path):
        paths = _make_run(tmp_path, outcome=None)
        out = io.StringIO()
        assert watch(paths.root, interval=0.01, timeout=0.05,
                     stream=out) == 1
        assert "timed out" in out.getvalue()


class TestRunsCli:
    @pytest.fixture
    def led(self, tmp_path):
        _make_run(tmp_path, run_id="20260101-000000-aaaaaa",
                  metrics={"points": 18})
        _make_run(tmp_path, run_id="20260102-000000-bbbbbb")
        return str(tmp_path / "ledger")

    def test_list_show_gc(self, led, capsys):
        assert main(["runs", "list", "--run-dir", led]) == 0
        out = capsys.readouterr().out
        assert "20260101-000000-aaaaaa" in out and "ok" in out
        assert main(["runs", "show", "20260101-000000-aaaaaa",
                     "--run-dir", led]) == 0
        out = capsys.readouterr().out
        assert "points   : 18" in out and "table3 --n 8" in out
        assert main(["runs", "show", "--run-dir", led]) == 0  # latest
        assert "bbbbbb" in capsys.readouterr().out
        assert main(["runs", "gc", "--run-dir", led, "--keep", "1"]) == 0
        assert "removed 1 run(s)" in capsys.readouterr().out

    def test_usage_errors(self, led, tmp_path):
        assert main(["runs", "list", "--run-dir",
                     str(tmp_path / "missing")]) == 2
        assert main(["runs", "gc", "--run-dir", led, "--keep", "-1"]) == 2
        assert main(["runs", "show", "nope", "--run-dir", led]) == 2
        assert main(["watch", str(tmp_path / "missing"), "--once"]) == 2
        assert main(["watch", led, "--interval", "0"]) == 2

    def test_watch_cli_on_finished_run(self, led):
        assert main(["watch", led, "--once"]) == 0
