"""The advisor's exact-simulation backend: one thread, one pool.

Cold queries that the service admits are handed to a
:class:`PoolBackend`, which runs them through the existing supervised
worker pool (:func:`repro.resilience.pool.run_supervised`) — the same
machinery that gives sweeps crash/hang/timeout isolation, retries and
quarantine. Everything pool-related happens on **one** dedicated
backend thread:

* the event-bus span bookkeeping inside ``run_supervised`` is not
  thread-safe across concurrent callers, and
* a single consumer lets us batch: while one batch simulates, newly
  admitted jobs pile up in the queue and the next batch takes up to
  ``2 * workers`` of them at once, so pool startup cost amortizes and
  the workers stay busy.

Results are delivered through each job's callback **on the backend
thread** (the service marshals back onto its event loop). The store
write happens *before* the callback fires — so by the time the service
drops a key from its in-flight map, the answer is already durable, and
a duplicate query racing that transition finds either the in-flight
entry or a warm store hit, never a gap.

Worker fault injection (``REPRO_FAULT_WORKER``) is inherited from the
environment exactly as for sweeps, which is what lets the chaos tests
kill and hang the service's workers.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import StorageError
from repro.obs import metrics

log = logging.getLogger(__name__)

__all__ = ["BackendResult", "PoolBackend"]


@dataclass(frozen=True)
class BackendResult:
    """Terminal state of one backend job.

    ``payload`` is a validated point payload (possibly ``degraded`` if
    the worker itself fell back to the analytic model under its
    budget); ``quarantined`` means every attempt died/hung/was mangled
    and there is no payload. ``seconds`` is the job's amortized share
    of its batch's wall time (feeds the retry-after estimate).
    """

    payload: dict | None
    quarantined: bool = False
    reason: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.payload is not None and not self.quarantined


@dataclass
class _Job:
    key: tuple
    callback: Callable[[BackendResult], None]


class PoolBackend:
    """Single-threaded, batching bridge from the service to the pool."""

    def __init__(self, cfg, *, store=None, workers: int = 2,
                 point_timeout: float | None = None, budget=None,
                 chunk_size: int | None = None,
                 max_batch: int | None = None):
        from repro.experiments.runner import config_fingerprint
        from repro.resilience.pool import PoolPolicy

        self.cfg = cfg
        self.store = store
        self.fingerprint = config_fingerprint(cfg)
        self.budget = budget
        self.chunk_size = chunk_size
        self.policy = PoolPolicy(workers=workers,
                                 point_timeout=point_timeout)
        self.max_batch = max_batch or 2 * workers
        self._queue: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "PoolBackend":
        self._thread = threading.Thread(target=self._loop,
                                        name="advisor-backend", daemon=True)
        self._thread.start()
        return self

    def submit(self, key: tuple,
               callback: Callable[[BackendResult], None]) -> None:
        """Enqueue one simulation; ``callback`` fires exactly once.

        The callback runs on the backend thread — marshal it yourself.
        After :meth:`close`, jobs are refused immediately with a
        ``draining`` result instead of being silently dropped.
        """
        if self._closed:
            callback(BackendResult(None, reason="draining"))
            return
        self._queue.put(_Job(tuple(key), callback))

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop accepting work, finish the running batch, drain the rest.

        Every queued-but-unstarted job still gets its callback (with a
        ``draining`` result) — an accepted query is never left hanging.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():  # pragma: no cover - wedged pool
                log.warning("advisor backend did not drain within %ss",
                            timeout)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        stop = False
        while not stop:
            job = self._queue.get()
            if job is None:
                break
            jobs = [job]
            while len(jobs) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is None:
                    stop = True
                    break
                jobs.append(nxt)
            self._run_batch(jobs)
        # Drain whatever never started: refuse, don't drop.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                self._deliver(job, BackendResult(None, reason="draining"))

    def _run_batch(self, jobs: list[_Job]) -> None:
        from repro.experiments.runner import _check_payload, _pool_point_task
        from repro.resilience.pool import run_supervised

        # Coalescing upstream guarantees distinct keys; drop dupes
        # defensively rather than letting the pool raise on them.
        seen: dict[tuple, _Job] = {}
        for j in jobs:
            if j.key in seen:
                self._deliver(j, BackendResult(
                    None, reason="duplicate in-flight key"))
            else:
                seen[j.key] = j
        batch = list(seen.values())
        tasks = [(j.key, (j.key[0], j.key[1], j.key[2], self.cfg,
                          self.budget, self.chunk_size, "auto"))
                 for j in batch]
        t0 = time.monotonic()
        try:
            outcomes = run_supervised(_pool_point_task, tasks, self.policy,
                                      validate=_check_payload,
                                      span_name="service_point")
        except Exception as exc:  # pool misuse/platform failure
            log.exception("advisor backend batch failed")
            for j in batch:
                self._deliver(j, BackendResult(
                    None, quarantined=True, reason=f"backend error: {exc}"))
            return
        per_job = (time.monotonic() - t0) / max(1, len(batch))
        metrics.observe("repro.service.batch_points", float(len(batch)))
        for j, out in zip(batch, outcomes):
            if out.ok:
                payload = out.payload
                if self.store is not None and not payload.get("degraded"):
                    # Durable *before* the in-flight entry is released;
                    # a failed write costs reuse, never the answer.
                    try:
                        self.store.put(self.fingerprint, j.key, payload)
                    except StorageError as exc:
                        log.warning("advisor store write failed for %r "
                                    "(%s); serving the answer anyway",
                                    j.key, exc)
                        metrics.inc("repro.service.store_write_failures")
                self._deliver(j, BackendResult(payload, seconds=per_job))
            elif out.skipped:
                self._deliver(j, BackendResult(None, reason="draining"))
            else:
                reason = out.failures[-1] if out.failures else "quarantined"
                self._deliver(j, BackendResult(None, quarantined=True,
                                               reason=reason,
                                               seconds=per_job))

    @staticmethod
    def _deliver(job: _Job, result: BackendResult) -> None:
        try:
            job.callback(result)
        except Exception:  # pragma: no cover - defensive
            log.exception("advisor backend callback failed for %r", job.key)
