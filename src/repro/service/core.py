"""`AdvisorService`: deadline-budgeted, tiered tile advice.

The degradation ladder, best answer first:

1. **Warm** — the sharded :class:`~repro.perf.store.PointStore` has a
   validated entry: served immediately with ``exact`` provenance.
   Degraded points are never stored, so a store hit is never degraded.
2. **Simulated within deadline** — a cold query is admitted to the
   supervised pool backend; if the simulation lands inside the
   request's deadline budget, the waiter gets the exact answer.
3. **Analytic** — the paper's capacity miss model, served with
   ``degraded: true`` and a reason, whenever the exact path can't
   answer in time: deadline expiry, open circuit breaker, quarantined
   simulation, backend drain. The analytic model is microseconds of
   arithmetic, so *every* accepted query is answered within its
   deadline — the ladder trades provenance, never availability.

Identical in-flight points **coalesce**: the first cold query submits
the simulation, later ones await the same shared future. The future is
awaited through ``asyncio.shield``, so a waiter being cancelled (a
client disconnecting) or timing out never cancels the shared work —
the simulation completes, the store warms, everyone else still wins.

Admission is **bounded**: at most ``queue_limit`` distinct cold keys
may be in flight. Beyond that the query is shed with a typed
:class:`~repro.errors.OverloadedError` carrying a retry-after estimate
(an EWMA of recent per-point simulation time) — explicit back-pressure
instead of unbounded buffering. Coalesced waiters ride existing slots
and are never shed.

Everything here runs on one asyncio event loop; backend completions
are marshalled onto it with ``call_soon_threadsafe``. The in-flight
entry for a key is removed only *after* the backend has made the
result durable, so a duplicate query racing the store write sees
either the in-flight future or the store hit.
"""

from __future__ import annotations

import asyncio
import logging
import time

from repro.errors import OverloadedError
from repro.obs import events, metrics
from repro.service.api import AdvisorAnswer, AdvisorQuery, provenance_of
from repro.service.backend import BackendResult
from repro.service.breaker import CircuitBreaker

log = logging.getLogger(__name__)

__all__ = ["AdvisorService"]

#: Fraction of the deadline held back for the analytic fallback (and a
#: floor/ceiling): the service must still have time to answer when the
#: exact wait comes up empty.
_ANALYTIC_RESERVE_S = 0.05

#: Seed for the retry-after estimate before any simulation finished.
_DEFAULT_SIM_S = 2.0

_EWMA_ALPHA = 0.3


class _InFlight:
    """One shared simulation: the future every coalesced waiter awaits."""

    __slots__ = ("key", "future", "submitted")

    def __init__(self, key: tuple, future: asyncio.Future):
        self.key = key
        self.future = future
        self.submitted = time.monotonic()


class AdvisorService:
    """The advisor core: ask() answers, exactly once, within deadline."""

    def __init__(self, backend, *, cfg=None, store=None,
                 breaker: CircuitBreaker | None = None,
                 deadline_s: float = 2.0, queue_limit: int = 16):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import config_fingerprint, open_store

        self.cfg = cfg or ExperimentConfig()
        self.fingerprint = config_fingerprint(self.cfg)
        self.store = open_store(store)
        self.backend = backend
        self.breaker = breaker or CircuitBreaker()
        self.deadline_s = deadline_s
        self.queue_limit = queue_limit
        self._inflight: dict[tuple, _InFlight] = {}
        self._draining = False
        self._sim_ewma: float | None = None
        self.accepted = 0
        self.answered = 0
        self.shed = 0
        self.coalesced = 0
        self.tiers = {"exact": 0, "analytic": 0}

    # ------------------------------------------------------------------
    async def ask(self, query: AdvisorQuery) -> AdvisorAnswer:
        """Answer one query within its deadline, or shed it typed.

        Never returns nothing: every accepted query produces exactly
        one :class:`AdvisorAnswer` (worst case ``analytic`` +
        ``degraded``); the only raise for a valid query is
        :class:`~repro.errors.OverloadedError`, *before* acceptance.
        """
        t0 = time.monotonic()
        deadline_s = query.deadline_s or self.deadline_s
        deadline = t0 + deadline_s
        key = query.key

        entry = self._inflight.get(key)
        if entry is not None:
            self.accepted += 1
            self.coalesced += 1
            metrics.inc("repro.service.coalesced")
        else:
            point = self._warm(key)
            if point is not None:
                self.accepted += 1
                return self._finish(query, point, t0, source="store")
            if self._draining:
                self.accepted += 1
                return self._analytic(query, t0, reason="draining")
            if not self.breaker.allow():
                self.accepted += 1
                return self._analytic(query, t0, reason="breaker_open")
            if len(self._inflight) >= self.queue_limit:
                self.shed += 1
                retry = self._retry_after()
                metrics.inc("repro.service.shed")
                events.emit("service_shed", kernel=query.kernel,
                            strategy=query.strategy, n=query.n,
                            queue_depth=len(self._inflight),
                            retry_after_s=round(retry, 3))
                raise OverloadedError(
                    f"admission queue full ({self.queue_limit} points in "
                    f"flight); retry in ~{retry:.1f}s",
                    retry_after_s=retry)
            self.accepted += 1
            entry = self._submit(key)

        reserve = min(_ANALYTIC_RESERVE_S, deadline_s / 4.0)
        remaining = deadline - time.monotonic() - reserve
        if remaining > 0:
            try:
                res: BackendResult = await asyncio.wait_for(
                    asyncio.shield(entry.future), remaining)
            except asyncio.TimeoutError:
                return self._analytic(query, t0, reason="deadline")
            if res.ok:
                from repro.experiments.runner import _point_from_payload

                point = _point_from_payload(res.payload)
                reason = "budget" if point.degraded else None
                return self._finish(query, point, t0, source="simulated",
                                    reason=reason)
            return self._analytic(query, t0,
                                  reason=("quarantined" if res.quarantined
                                          else res.reason or "draining"))
        return self._analytic(query, t0, reason="deadline")

    def status(self) -> dict:
        """Health/readiness snapshot (the ``status`` op, status.json)."""
        return {"accepted": self.accepted, "answered": self.answered,
                "shed": self.shed, "coalesced": self.coalesced,
                "queue_depth": len(self._inflight),
                "queue_limit": self.queue_limit,
                "draining": self._draining,
                "breaker": self.breaker.snapshot(),
                "tiers": dict(self.tiers),
                "sim_seconds_ewma": (round(self._sim_ewma, 3)
                                     if self._sim_ewma else None)}

    def begin_drain(self) -> None:
        """Stop admitting new simulations; answers degrade to analytic."""
        self._draining = True

    # ------------------------------------------------------------------
    def _warm(self, key: tuple) -> "object | None":
        """Validated store hit or None; torn/poisoned entries read as
        misses (and are quarantined by the lookup)."""
        if self.store is None:
            return None
        from repro.experiments.runner import _store_lookup

        return _store_lookup(self.store, self.fingerprint, key)

    def _submit(self, key: tuple) -> _InFlight:
        loop = asyncio.get_running_loop()
        entry = _InFlight(key, loop.create_future())
        self._inflight[key] = entry
        metrics.set_gauge("repro.service.queue_depth", len(self._inflight))

        def _done(result: BackendResult) -> None:  # backend thread
            loop.call_soon_threadsafe(self._resolve, key, result)

        self.backend.submit(key, _done)
        return entry

    def _resolve(self, key: tuple, result: BackendResult) -> None:
        """Loop-thread completion: settle the shared future, feed the
        breaker. Runs after the backend's store write, so dropping the
        in-flight entry never opens a warm/cold gap."""
        entry = self._inflight.pop(key, None)
        metrics.set_gauge("repro.service.queue_depth", len(self._inflight))
        if result.ok:
            self.breaker.record_success()
            if result.seconds > 0:
                self._sim_ewma = (result.seconds if self._sim_ewma is None
                                  else _EWMA_ALPHA * result.seconds
                                  + (1 - _EWMA_ALPHA) * self._sim_ewma)
        elif result.quarantined:
            metrics.inc("repro.service.backend_quarantined")
            self.breaker.record_failure(result.reason or "quarantined")
        if entry is not None and not entry.future.done():
            entry.future.set_result(result)

    def _retry_after(self) -> float:
        return max(0.1, self._sim_ewma or _DEFAULT_SIM_S)

    def _analytic(self, query: AdvisorQuery, t0: float,
                  *, reason: str) -> AdvisorAnswer:
        """The ladder's floor: always answers, microseconds of math."""
        from repro.experiments.runner import _analytic_point

        point = _analytic_point(query.kernel, query.strategy, query.n,
                                self.cfg)
        return self._finish(query, point, t0, source="analytic",
                            reason=reason)

    def _finish(self, query: AdvisorQuery, point, t0: float, *,
                source: str, reason: str | None = None) -> AdvisorAnswer:
        latency = time.monotonic() - t0
        answer = AdvisorAnswer.from_point(point, source=source,
                                          latency_s=latency, reason=reason)
        self.answered += 1
        tier = provenance_of(point)
        self.tiers[tier] += 1
        metrics.inc("repro.service.queries", tier=tier, source=source)
        metrics.observe("repro.service.latency_seconds", latency, tier=tier)
        events.emit("service_query", kernel=query.kernel,
                    strategy=query.strategy, n=query.n, tier=tier,
                    source=source, degraded=answer.degraded,
                    reason=answer.reason,
                    latency_ms=answer.latency_ms)
        return answer
