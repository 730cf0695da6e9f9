"""Unit tests for the tile-advisor service core.

These tests drive :class:`~repro.service.AdvisorService` against a
*manual* backend — submissions park until the test resolves them — so
every coalescing/shedding/deadline/breaker edge is deterministic: no
child processes, no real clocks racing the assertions. The real
supervised-pool backend is exercised in ``test_service_chaos.py``.

(pytest-asyncio is not a dependency; each scenario is a coroutine run
to completion with ``asyncio.run``.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, OverloadedError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (PointResult, _point_to_payload,
                                      config_fingerprint)
from repro.perf.store import PointStore
from repro.service import api
from repro.service.api import AdvisorAnswer, AdvisorQuery
from repro.service.backend import BackendResult
from repro.service.breaker import (CLOSED, HALF_OPEN, OPEN, CircuitBreaker)
from repro.service.core import AdvisorService


# ----------------------------------------------------------------------
# scaffolding
# ----------------------------------------------------------------------

class ManualBackend:
    """A backend whose jobs complete only when the test says so."""

    def __init__(self):
        self.jobs: dict[tuple, object] = {}
        self.submitted: list[tuple] = []
        self.closed = False

    def submit(self, key, callback):
        key = tuple(key)
        if self.closed:
            callback(BackendResult(None, reason="draining"))
            return
        self.submitted.append(key)
        self.jobs[key] = callback

    def resolve(self, key, result: BackendResult):
        self.jobs.pop(tuple(key))(result)

    def close(self, timeout=None):
        self.closed = True
        for cb in self.jobs.values():
            cb(BackendResult(None, reason="draining"))
        self.jobs.clear()


def exact_payload(key) -> dict:
    kernel, strategy, n = key
    return _point_to_payload(PointResult(
        kernel=kernel, strategy=strategy, n=n, nk=11,
        l1_rate=5.0, l2_rate=1.0, l1_misses=100, l2_misses=10,
        refs=1000, mflops=90.0, seconds=0.01, tile=(30, 14),
        di_p=n + 2, dj_p=n + 2, degraded=False))


def query(kernel="JACOBI", n=40, strategy="GcdPad", deadline_s=None):
    return AdvisorQuery(kernel=kernel, n=n, strategy=strategy,
                        deadline_s=deadline_s)


def service(backend, tmp_path=None, **kw) -> AdvisorService:
    store = PointStore(tmp_path / "store") if tmp_path is not None else None
    return AdvisorService(backend, store=store, **kw)


# ----------------------------------------------------------------------
# protocol / validation
# ----------------------------------------------------------------------

def test_query_validation_rejects_bad_inputs():
    good = {"kernel": "JACOBI", "n": 40}
    AdvisorQuery.from_payload(good)
    for bad in (
        {"kernel": "NOPE", "n": 40},
        {"kernel": "JACOBI", "n": 0},
        {"kernel": "JACOBI", "n": "40"},
        {"kernel": "JACOBI", "n": True},
        {"kernel": "JACOBI", "n": 40, "strategy": "NotAStrategy"},
        {"kernel": "JACOBI", "n": 40, "deadline_s": 0},
        {"kernel": "JACOBI", "n": 40, "deadline_s": -1},
        {"kernel": "JACOBI", "n": 40, "deadline_s": 1e9},
        {"n": 40},
    ):
        with pytest.raises(ConfigurationError):
            AdvisorQuery.from_payload(bad)


def test_protocol_envelope():
    line = api.encode({"op": "ask", "kernel": "JACOBI", "n": 40, "id": 3})
    obj = api.parse_request(line)
    assert obj["op"] == "ask" and obj["id"] == 3
    with pytest.raises(ConfigurationError):
        api.parse_request(b"not json\n")
    with pytest.raises(ConfigurationError):
        api.parse_request(api.encode({"op": "explode"}))
    with pytest.raises(ConfigurationError):
        api.parse_request(api.encode({"op": "ask", "v": 99}))
    with pytest.raises(ConfigurationError):
        api.parse_request(b"[1, 2]\n")


def test_answer_payload_roundtrip():
    from repro.experiments.runner import _point_from_payload

    point = _point_from_payload(exact_payload(("JACOBI", "Pad", 40)))
    answer = AdvisorAnswer.from_point(point, source="store",
                                      latency_s=0.004)
    assert answer.provenance == "exact" and not answer.degraded
    resp = api.ok_response(7, answer)
    back = AdvisorAnswer.from_payload(api.decode(api.encode(resp))["answer"])
    assert back == answer

    err = api.error_response(8, "overloaded", "full", retry_after_s=1.25)
    decoded = api.decode(api.encode(err))
    assert decoded["ok"] is False
    assert decoded["error"]["retry_after_s"] == 1.25


def test_provenance_labels():
    exact = exact_payload(("JACOBI", "Pad", 40))
    from repro.experiments.runner import _point_from_payload

    assert api.provenance_of(_point_from_payload(exact)) == "exact"
    analytic = dict(exact, degraded=True)
    assert api.provenance_of(_point_from_payload(analytic)) == "analytic"


# ----------------------------------------------------------------------
# tiers: warm store hits
# ----------------------------------------------------------------------

def test_warm_store_hit_is_exact_and_never_degraded(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)
    svc.store.put(svc.fingerprint, key, exact_payload(key))

    async def go():
        return await svc.ask(query())

    a = asyncio.run(go())
    assert a.provenance == "exact" and a.source == "store"
    assert not a.degraded and a.reason is None
    assert backend.submitted == []


def test_warm_store_hit_extrapolated_tier(tmp_path):
    # Stores written while extrapolation was opt-in flag such entries
    # 'extrapolated'; their counts are exact, and so is their tier.
    backend = ManualBackend()
    svc = service(backend, tmp_path)
    key = ("RESID", "Pad", 64)
    svc.store.put(svc.fingerprint, key,
                  dict(exact_payload(key), extrapolated=True))

    async def go():
        return await svc.ask(query("RESID", 64, "Pad"))

    a = asyncio.run(go())
    assert a.provenance == "exact" and a.source == "store"
    assert not a.degraded and backend.submitted == []
    assert svc.tiers == {"exact": 1, "analytic": 0}


# ----------------------------------------------------------------------
# deadlines and degradation
# ----------------------------------------------------------------------

def test_deadline_expiry_while_queued_is_analytic_not_error(tmp_path):
    """Satellite: a queued query whose deadline lapses degrades."""
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=0.2)

    async def go():
        return await svc.ask(query())

    a = asyncio.run(go())
    assert a.provenance == "analytic" and a.degraded
    assert a.reason == "deadline" and a.source == "analytic"
    assert a.latency_ms <= 1500  # answered promptly, not hung
    # The shared simulation was NOT cancelled by the waiter timing out.
    assert tuple(backend.jobs) == (("JACOBI", "GcdPad", 40),)


def test_quarantined_simulation_degrades_with_reason(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0)

    async def go():
        task = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        backend.resolve(("JACOBI", "GcdPad", 40),
                        BackendResult(None, quarantined=True,
                                      reason="worker died"))
        return await task

    a = asyncio.run(go())
    assert a.provenance == "analytic" and a.degraded
    assert a.reason == "quarantined"


def test_draining_service_answers_analytic(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path)
    svc.begin_drain()

    async def go():
        return await svc.ask(query())

    a = asyncio.run(go())
    assert a.provenance == "analytic" and a.reason == "draining"
    assert backend.submitted == []


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------

def test_identical_inflight_queries_coalesce(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        t2 = asyncio.ensure_future(svc.ask(query()))
        await asyncio.sleep(0.05)
        backend.resolve(key, BackendResult(exact_payload(key)))
        return await asyncio.gather(t1, t2)

    a1, a2 = asyncio.run(go())
    assert backend.submitted == [key]  # one simulation, two answers
    assert a1.provenance == a2.provenance == "exact"
    assert svc.coalesced == 1 and svc.accepted == 2


def test_waiter_cancellation_does_not_cancel_shared_work(tmp_path):
    """Satellite: client cancellation mid-flight."""
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        t1.cancel()
        await asyncio.gather(t1, return_exceptions=True)
        # The shared job survived the waiter's cancellation...
        assert tuple(backend.jobs) == (key,)
        # ...and a later identical query still rides it.
        t2 = asyncio.ensure_future(svc.ask(query()))
        await asyncio.sleep(0.05)
        backend.resolve(key, BackendResult(exact_payload(key)))
        return await t2

    a = asyncio.run(go())
    assert a.provenance == "exact" and a.source == "simulated"


def test_duplicate_query_racing_the_store_write(tmp_path):
    """Satellite: resolution order is store-write *then* in-flight drop,
    so a racing duplicate sees one or the other, never a gap."""
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        # Store write lands, then the callback is *scheduled* (as from
        # the backend thread) — and the duplicate arrives in between,
        # before the loop runs _resolve.
        payload = exact_payload(key)
        svc.store.put(svc.fingerprint, key, payload)
        backend.resolve(key, BackendResult(payload))
        t2 = asyncio.ensure_future(svc.ask(query()))
        a1, a2 = await asyncio.gather(t1, t2)
        return a1, a2

    a1, a2 = asyncio.run(go())
    assert a1.provenance == "exact"
    assert a2.provenance == "exact"
    assert a2.source in ("simulated", "store")  # either side of the race
    assert backend.submitted == [key]  # never a second simulation


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------

def test_overload_sheds_typed_with_retry_after(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=5.0, queue_limit=1)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query(n=40)))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        # Distinct cold key beyond the limit: typed shed.
        with pytest.raises(OverloadedError) as exc:
            await svc.ask(query(n=48))
        assert exc.value.retry_after_s > 0
        # A *coalescing* query is not shed: it rides the existing slot.
        t2 = asyncio.ensure_future(svc.ask(query(n=40)))
        await asyncio.sleep(0.05)
        backend.resolve(("JACOBI", "GcdPad", 40),
                        BackendResult(exact_payload(("JACOBI", "GcdPad",
                                                     40))))
        return await asyncio.gather(t1, t2)

    a1, a2 = asyncio.run(go())
    assert a1.provenance == a2.provenance == "exact"
    assert svc.shed == 1
    assert backend.submitted == [("JACOBI", "GcdPad", 40)]


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

def test_breaker_state_machine():
    now = [0.0]
    br = CircuitBreaker(failure_threshold=2, reset_seconds=10.0,
                        clock=lambda: now[0])
    assert br.state == CLOSED and br.allow()
    br.record_failure("boom")
    assert br.state == CLOSED
    br.record_failure("boom")
    assert br.state == OPEN and not br.allow()
    # Cooldown elapses: half-open admits exactly one probe.
    now[0] = 10.0
    assert br.state == HALF_OPEN
    assert br.allow()
    assert not br.allow()
    br.record_success()
    assert br.state == CLOSED and br.allow()


def test_breaker_probe_failure_reopens():
    now = [0.0]
    br = CircuitBreaker(failure_threshold=1, reset_seconds=5.0,
                        clock=lambda: now[0])
    br.record_failure("boom")
    assert br.state == OPEN
    now[0] = 5.0
    assert br.allow()          # the half-open probe
    br.record_failure("still dead")
    assert br.state == OPEN and not br.allow()
    # And the cooldown restarted at the probe failure.
    now[0] = 9.0
    assert br.state == OPEN
    now[0] = 10.0
    assert br.state == HALF_OPEN


def test_breaker_open_serves_analytic_without_submitting(tmp_path):
    now = [0.0]
    backend = ManualBackend()
    br = CircuitBreaker(failure_threshold=1, reset_seconds=30.0,
                        clock=lambda: now[0])
    svc = service(backend, tmp_path, breaker=br, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        backend.resolve(key, BackendResult(None, quarantined=True,
                                           reason="worker died"))
        a1 = await t1
        # Breaker is now open: cold queries degrade instantly, without
        # touching the backend...
        a2 = await svc.ask(query(n=48))
        # ...but warm store hits still serve exact.
        warm_key = ("RESID", "Pad", 64)
        svc.store.put(svc.fingerprint, warm_key, exact_payload(warm_key))
        a3 = await svc.ask(query("RESID", 64, "Pad"))
        return a1, a2, a3

    a1, a2, a3 = asyncio.run(go())
    assert a1.reason == "quarantined"
    assert a2.provenance == "analytic" and a2.reason == "breaker_open"
    assert a3.provenance == "exact" and a3.source == "store"
    assert backend.submitted == [key]  # the breaker-open query never did


def test_breaker_half_open_probe_recovers_service(tmp_path):
    now = [0.0]
    backend = ManualBackend()
    br = CircuitBreaker(failure_threshold=1, reset_seconds=1.0,
                        clock=lambda: now[0])
    svc = service(backend, tmp_path, breaker=br, deadline_s=5.0)
    key = ("JACOBI", "GcdPad", 40)

    async def go():
        t1 = asyncio.ensure_future(svc.ask(query()))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        backend.resolve(key, BackendResult(None, quarantined=True,
                                           reason="worker died"))
        await t1
        assert br.state == OPEN
        now[0] = 1.5  # cooldown elapsed: next cold query is the probe
        t2 = asyncio.ensure_future(svc.ask(query(n=48)))
        while not backend.jobs:
            await asyncio.sleep(0.01)
        probe_key = ("JACOBI", "GcdPad", 48)
        backend.resolve(probe_key, BackendResult(exact_payload(probe_key)))
        a2 = await t2
        return a2

    a2 = asyncio.run(go())
    assert a2.provenance == "exact"
    assert br.state == CLOSED


# ----------------------------------------------------------------------
# status snapshot
# ----------------------------------------------------------------------

def test_status_snapshot_reflects_counters(tmp_path):
    backend = ManualBackend()
    svc = service(backend, tmp_path, deadline_s=0.2, queue_limit=1)

    async def go():
        await svc.ask(query())  # deadline-degraded (backend never answers)
        with pytest.raises(OverloadedError):
            await svc.ask(query(n=48))

    asyncio.run(go())
    st = svc.status()
    assert st["accepted"] == 1 and st["answered"] == 1
    assert st["shed"] == 1
    assert st["queue_depth"] == 1  # the un-resolved cold submission
    assert st["tiers"]["analytic"] == 1
    assert st["breaker"]["state"] == CLOSED
