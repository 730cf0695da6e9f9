"""Differential chaos tests for the tile-advisor service.

These drive the *real* stack — :class:`AdvisorService` on a
:class:`PoolBackend` running the supervised worker pool — under the
scripted process/IO faults of :mod:`repro.resilience.faults`, and
assert the service's durable invariants:

* every accepted query is answered **exactly once**, within its
  deadline (plus scheduler slack), with a valid provenance tier;
* degraded answers are always labelled (``degraded`` + ``reason``),
  and non-degraded answers never are;
* shed queries are rejected with a *typed* ``OverloadedError`` —
  never silently dropped;
* the store never serves torn bytes (corrupt entries quarantine into
  a cold miss) and never contains degraded payloads;
* a failed store write degrades durability (no reuse), never the
  answer itself.

Worker faults are scripted via ``REPRO_FAULT_WORKER`` exactly as for
sweeps; small problem sizes keep each exact simulation in the tens of
milliseconds. (pytest-asyncio is not a dependency; scenarios run under
``asyncio.run``.)
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PointResult, _point_to_payload
from repro.perf.store import PointStore
from repro.resilience.integrity import QUARANTINE_DIR
from repro.resilience import faults, pool
from repro.service import api
from repro.service.api import PROVENANCE_TIERS, AdvisorQuery
from repro.service.backend import PoolBackend
from repro.service.breaker import CLOSED, OPEN, CircuitBreaker
from repro.service.core import AdvisorService

pytestmark = pytest.mark.skipif(not pool.available(),
                                reason="multiprocessing unavailable")

_SLACK_S = 2.0  # scheduler/process-reap slack on top of the deadline


def exact_payload(key) -> dict:
    kernel, strategy, n = key
    return _point_to_payload(PointResult(
        kernel=kernel, strategy=strategy, n=n, nk=11,
        l1_rate=5.0, l2_rate=1.0, l1_misses=100, l2_misses=10,
        refs=1000, mflops=90.0, seconds=0.01, tile=(10, 6),
        di_p=n + 2, dj_p=n + 2, degraded=False))


def build(tmp_path, *, deadline_s=30.0, queue_limit=32, workers=2,
          point_timeout=20.0, breaker=None):
    cfg = ExperimentConfig()
    store = PointStore(tmp_path / "store")
    backend = PoolBackend(cfg, store=store, workers=workers,
                          point_timeout=point_timeout).start()
    svc = AdvisorService(backend, cfg=cfg, store=store, breaker=breaker,
                        deadline_s=deadline_s, queue_limit=queue_limit)
    return svc, backend, store


def check_answer(ans, deadline_s: float) -> None:
    """The per-answer invariants every chaos scenario must preserve."""
    assert ans.provenance in PROVENANCE_TIERS
    assert ans.degraded == (ans.provenance == "analytic")
    if ans.degraded:
        assert ans.reason, "degraded answers must carry a reason"
    else:
        assert ans.reason is None
    assert 0 <= ans.latency_ms <= (deadline_s + _SLACK_S) * 1000
    assert ans.mflops > 0 and ans.l1_rate >= 0


# ----------------------------------------------------------------------
# the differential chaos test
# ----------------------------------------------------------------------

def test_worker_kills_lose_no_accepted_query(tmp_path, monkeypatch):
    """Under ``kill`` faults: exactly one labelled answer per query."""
    monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all")
    # Threshold high enough that the scripted kills never open the
    # breaker mid-test — breaker behaviour has its own test below.
    svc, backend, store = build(
        tmp_path, deadline_s=30.0,
        breaker=CircuitBreaker(failure_threshold=100))

    warm = [("JACOBI", "GcdPad", 24), ("RESID", "Pad", 28)]
    for key in warm:
        store.put(svc.fingerprint, key, exact_payload(key))
    queries = (
        [AdvisorQuery(kernel=k, n=n, strategy=s) for k, s, n in warm]
        + [AdvisorQuery(kernel="JACOBI", n=n) for n in (26, 30, 34, 38)]
        + [AdvisorQuery(kernel="JACOBI", n=30),    # duplicates: coalesce
           AdvisorQuery(kernel="JACOBI", n=34)])

    async def go():
        return await asyncio.gather(*(svc.ask(q) for q in queries),
                                    return_exceptions=True)

    t0 = time.monotonic()
    answers = asyncio.run(go())
    elapsed = time.monotonic() - t0
    backend.close()

    # Exactly one answer per accepted query — no losses, no dupes, no
    # stray exceptions (nothing shed at this queue limit).
    assert len(answers) == len(queries)
    for ans in answers:
        assert not isinstance(ans, BaseException), ans
        check_answer(ans, svc.deadline_s)
    assert elapsed < svc.deadline_s + _SLACK_S

    # Warm keys answered from the store, exact, untouched by the chaos.
    for ans in answers[:2]:
        assert ans.provenance == "exact" and ans.source == "store"
    # The kill fault quarantined at least one cold simulation — and the
    # service labelled it, rather than erroring or hanging.
    reasons = {a.reason for a in answers if a.degraded}
    assert reasons == {"quarantined"}
    # Duplicates coalesced onto the original in-flight simulations.
    assert svc.coalesced == 2
    assert svc.accepted == len(queries) and svc.shed == 0
    assert svc.answered == len(queries)

    # Durability: whatever was answered exact-via-simulation is now
    # warm, and nothing degraded was ever stored.
    for ans in answers:
        stored = store.get(svc.fingerprint,
                           (ans.kernel, ans.strategy, ans.n))
        if ans.source == "simulated":
            assert stored is not None and not stored.get("degraded")
        if stored is not None:
            assert not stored.get("degraded")


def test_hang_faults_degrade_within_deadline(tmp_path, monkeypatch):
    """A hung worker is reaped by the pool; the waiter's deadline still
    bounds the answer, served analytic with a reason."""
    monkeypatch.setenv(faults.WORKER_FAULT_ENV, "hang:1:all")
    svc, backend, store = build(
        tmp_path, deadline_s=1.0, point_timeout=5.0,
        breaker=CircuitBreaker(failure_threshold=100))

    async def go():
        return await svc.ask(AdvisorQuery(kernel="JACOBI", n=26))

    t0 = time.monotonic()
    ans = asyncio.run(go())
    elapsed = time.monotonic() - t0
    backend.close()
    check_answer(ans, svc.deadline_s)
    assert ans.provenance == "analytic" and ans.reason == "deadline"
    assert elapsed < svc.deadline_s + _SLACK_S


# ----------------------------------------------------------------------
# storage chaos: torn reads, failed writes
# ----------------------------------------------------------------------

def test_corrupt_store_entry_quarantined_never_served_torn(tmp_path):
    svc, backend, store = build(tmp_path)
    key = ("JACOBI", "GcdPad", 26)
    store.put(svc.fingerprint, key, exact_payload(key))
    entries = [p for p in (tmp_path / "store").rglob("*.json")
               if QUARANTINE_DIR not in p.parts]
    assert len(entries) == 1
    entries[0].write_text('{"torn": ')  # a write died halfway

    async def go():
        return await svc.ask(AdvisorQuery(kernel="JACOBI", n=26))

    ans = asyncio.run(go())
    backend.close()
    check_answer(ans, svc.deadline_s)
    # The torn entry was a *miss*: answered by a fresh simulation (or
    # its analytic fallback) — never by the torn bytes.
    assert ans.source in ("simulated", "analytic")
    assert (tmp_path / "store" / QUARANTINE_DIR).exists()


def test_store_write_failure_degrades_reuse_not_the_answer(tmp_path):
    svc, backend, store = build(tmp_path)
    spec = f"enospc:{tmp_path / 'store'}/*:0"  # every store write fails

    async def go():
        return await svc.ask(AdvisorQuery(kernel="JACOBI", n=26))

    with faults.inject_io(spec):
        ans = asyncio.run(go())
    backend.close()
    check_answer(ans, svc.deadline_s)
    # The simulation's answer was served exact even though persisting
    # it failed; the key simply stays cold.
    assert ans.provenance == "exact" and ans.source == "simulated"
    assert store.get(svc.fingerprint, ("JACOBI", "GcdPad", 26)) is None


# ----------------------------------------------------------------------
# breaker: opens under repeated quarantine, recovers when faults clear
# ----------------------------------------------------------------------

def test_breaker_opens_under_faults_and_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all")
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.3)
    svc, backend, store = build(tmp_path, breaker=breaker)

    async def one(n):
        return await svc.ask(AdvisorQuery(kernel="JACOBI", n=n))

    a1 = asyncio.run(one(26))
    check_answer(a1, svc.deadline_s)
    assert a1.reason == "quarantined" and breaker.state == OPEN

    # While open: no backend call, instant analytic with the reason.
    a2 = asyncio.run(one(30))
    assert a2.provenance == "analytic" and a2.reason == "breaker_open"

    # Faults clear, cooldown elapses: the half-open probe simulates for
    # real, succeeds, and closes the breaker.
    monkeypatch.delenv(faults.WORKER_FAULT_ENV)
    time.sleep(0.35)
    a3 = asyncio.run(one(34))
    backend.close()
    check_answer(a3, svc.deadline_s)
    assert a3.provenance == "exact" and a3.source == "simulated"
    assert breaker.state == CLOSED


# ----------------------------------------------------------------------
# the wire: socket server end-to-end with drain
# ----------------------------------------------------------------------

class FakeDrain:
    requested = False
    completed = 0

    def signal_name(self) -> str:
        return "SIGTERM"


def test_socket_server_end_to_end_with_drain(tmp_path):
    from repro.service.server import _serve_async

    svc, backend, store = build(tmp_path, deadline_s=10.0)
    warm_key = ("JACOBI", "GcdPad", 24)
    store.put(svc.fingerprint, warm_key, exact_payload(warm_key))
    sock = tmp_path / "advisor.sock"
    drain = FakeDrain()

    async def client():
        reader, writer = await asyncio.open_unix_connection(str(sock))
        requests = [
            {"op": "ping", "id": 0},
            {"op": "ask", "id": 1, "kernel": "JACOBI", "n": 24},
            {"op": "ask", "id": 2, "kernel": "JACOBI", "n": 28},  # cold
            {"op": "ask", "id": 3, "kernel": "BOGUS", "n": 8},
            {"op": "status", "id": 4},
        ]
        for payload in requests:
            writer.write(api.encode(payload))
        await writer.drain()
        writer.write_eof()
        responses = {}
        while len(responses) < len(requests):
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            assert line, "server closed before answering everything"
            obj = json.loads(line)
            responses[obj["id"]] = obj
        writer.close()
        return responses

    async def go():
        server_task = asyncio.ensure_future(_serve_async(
            svc, backend, socket_path=sock, stdio=False,
            drain=drain, status=None))
        for _ in range(100):
            if sock.exists():
                break
            await asyncio.sleep(0.02)
        responses = await client()
        drain.requested = True
        rc = await asyncio.wait_for(server_task, timeout=30)
        return responses, rc

    responses, rc = asyncio.run(go())
    assert rc == 0 and not sock.exists()  # clean drain removed the socket

    assert responses[0]["ok"] and responses[0]["pong"]
    warm = responses[1]
    assert warm["ok"] and warm["answer"]["provenance"] == "exact"
    assert warm["answer"]["source"] == "store"
    cold = responses[2]
    assert cold["ok"]
    assert cold["answer"]["provenance"] in PROVENANCE_TIERS
    bad = responses[3]
    assert not bad["ok"] and bad["error"]["code"] == "bad_request"
    status = responses[4]["status"]
    assert status["queue_limit"] == svc.queue_limit
    assert status["breaker"]["state"] == CLOSED
    # ping/status/bad_request are not *accepted queries*; the two asks are.
    assert drain.completed == svc.answered == 2


def test_socket_server_typed_overload_on_the_wire(tmp_path):
    """A shed query crosses the wire as a typed overloaded error."""
    from repro.service.server import _serve_async

    svc, backend, store = build(tmp_path, deadline_s=1.0, queue_limit=1)
    backend.close()  # nothing will simulate; jobs queue then drain

    class SlowBackend:
        """Accepts jobs and never answers (worker wedged)."""

        def submit(self, key, callback):
            pass

        def close(self, timeout=None):
            pass

    svc.backend = SlowBackend()
    sock = tmp_path / "advisor.sock"
    drain = FakeDrain()

    async def go():
        server_task = asyncio.ensure_future(_serve_async(
            svc, svc.backend, socket_path=sock, stdio=False,
            drain=drain, status=None))
        for _ in range(100):
            if sock.exists():
                break
            await asyncio.sleep(0.02)
        reader, writer = await asyncio.open_unix_connection(str(sock))
        for i, n in enumerate((24, 28)):
            writer.write(api.encode(
                {"op": "ask", "id": i, "kernel": "JACOBI", "n": n}))
        await writer.drain()
        writer.write_eof()
        responses = {}
        while len(responses) < 2:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            obj = json.loads(line)
            responses[obj["id"]] = obj
        writer.close()
        drain.requested = True
        rc = await asyncio.wait_for(server_task, timeout=30)
        return responses, rc

    responses, rc = asyncio.run(go())
    assert rc == 0
    # One request filled the queue and deadline-degraded to analytic;
    # the other was shed with the typed error and a retry hint.
    by_kind = sorted(r.get("error", {}).get("code", "ok")
                     for r in responses.values())
    assert by_kind == ["ok", "overloaded"]
    shed = next(r for r in responses.values() if not r["ok"])
    assert shed["error"]["retry_after_s"] > 0
    served = next(r for r in responses.values() if r["ok"])
    assert served["answer"]["provenance"] == "analytic"
    assert served["answer"]["reason"] == "deadline"
