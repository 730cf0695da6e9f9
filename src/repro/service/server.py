"""`repro serve`: the long-running advisor process.

Transport is JSONL over a unix socket (``--socket PATH``) or stdio
(``--stdio``); see :mod:`repro.service.api` for the protocol. Each
connection may pipeline requests: every line becomes its own asyncio
task, responses are written (id-tagged) as they complete.

Lifecycle, wired into the existing robustness fabric:

* :func:`repro.resilience.signals.graceful_drain` — the first
  SIGINT/SIGTERM stops accepting connections, lets every in-flight
  request finish (each is deadline-bounded, so the drain is too),
  refuses queued simulations as ``draining`` and exits 0. A second
  signal aborts with the conventional 130.
* :class:`repro.obs.status.StatusPublisher` — the run ledger's
  ``status.json`` doubles as the health/readiness snapshot: queue
  depth, shed/coalesce counts, breaker state, per-tier answer counts
  (``repro watch <run>`` follows it live).
* The run ledger itself comes for free: the CLI dispatches ``serve``
  inside ``obs.session``, so ``--run-dir`` records the serve session's
  manifest, merged trace and metrics like any sweep.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import pathlib
import sys

from repro.errors import OverloadedError, ReproError, ServiceError
from repro.service import api
from repro.service.api import AdvisorQuery
from repro.service.backend import PoolBackend
from repro.service.breaker import CircuitBreaker
from repro.service.core import AdvisorService

log = logging.getLogger(__name__)

__all__ = ["serve"]

_POLL_S = 0.05

#: Extra grace beyond the largest request deadline when draining.
_DRAIN_SLACK_S = 2.0


def serve(*, socket_path=None, stdio: bool = False, cfg=None, store=None,
          deadline_s: float = 2.0, queue_limit: int = 16,
          workers: int = 2, point_timeout: float | None = None,
          budget=None, chunk_size: int | None = None,
          breaker: CircuitBreaker | None = None,
          status=None) -> int:
    """Run the advisor until EOF (stdio) or SIGINT/SIGTERM (socket)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import open_store
    from repro.resilience.signals import graceful_drain

    if (socket_path is None) == (not stdio):
        raise ServiceError("serve needs exactly one transport: "
                           "--socket PATH or --stdio")
    cfg = cfg or ExperimentConfig()
    store = open_store(store)
    backend = PoolBackend(cfg, store=store, workers=workers,
                          point_timeout=point_timeout, budget=budget,
                          chunk_size=chunk_size).start()
    service = AdvisorService(backend, cfg=cfg, store=store,
                             breaker=breaker, deadline_s=deadline_s,
                             queue_limit=queue_limit)
    try:
        with graceful_drain() as drain:
            try:
                return asyncio.run(_serve_async(
                    service, backend, socket_path=socket_path, stdio=stdio,
                    drain=drain, status=status))
            except KeyboardInterrupt:
                log.warning("second signal: aborting the drain")
                return 130
    finally:
        backend.close()


async def _serve_async(service: AdvisorService, backend: PoolBackend, *,
                       socket_path, stdio: bool, drain, status) -> int:
    requests: set[asyncio.Task] = set()
    max_deadline = [service.deadline_s]

    # ------------------------------------------------------------------
    async def handle_request(line: bytes, writer, wlock) -> None:
        qid = None
        try:
            obj = api.parse_request(line)
            qid = obj.get("id")
            op = obj["op"]
            if op == "ping":
                resp = {"v": api.PROTOCOL_VERSION, "id": qid, "ok": True,
                        "pong": True}
            elif op == "status":
                resp = {"v": api.PROTOCOL_VERSION, "id": qid, "ok": True,
                        "status": service.status()}
            else:
                query = AdvisorQuery.from_payload(obj)
                max_deadline[0] = max(max_deadline[0],
                                      query.deadline_s or 0.0)
                answer = await service.ask(query)
                resp = api.ok_response(qid, answer)
        except OverloadedError as exc:
            resp = api.error_response(qid, "overloaded", str(exc),
                                      retry_after_s=exc.retry_after_s)
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            resp = api.error_response(qid, "bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("advisor request failed")
            resp = api.error_response(qid, "internal",
                                      f"{type(exc).__name__}: {exc}")
        async with wlock:
            writer.write(api.encode(resp))
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    async def handle_connection(reader, writer) -> None:
        wlock = asyncio.Lock()
        mine: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    handle_request(line, writer, wlock))
                for pool in (mine, requests):
                    pool.add(task)
                    task.add_done_callback(pool.discard)
            if mine:
                await asyncio.gather(*mine, return_exceptions=True)
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    server = None
    stdio_task = None
    if stdio:
        reader, writer = await _stdio_streams()
        stdio_task = asyncio.create_task(handle_connection(reader, writer))
    else:
        path = pathlib.Path(socket_path)
        _clear_stale_socket(path)
        try:
            server = await asyncio.start_unix_server(handle_connection,
                                                     path=str(path))
        except OSError as exc:
            raise ServiceError(f"cannot listen on {path}: {exc}") from exc
        log.info("advisor listening on %s", path)

    _publish(status, service, force=True)
    try:
        while True:
            if drain.requested:
                log.info("drain requested (%s): closing the listener",
                         drain.signal_name())
                break
            if stdio_task is not None and stdio_task.done():
                break
            await asyncio.sleep(_POLL_S)
            _publish(status, service)

        # Stop accepting, then let bounded work finish: every pending
        # request is deadline-budgeted, so the drain is too.
        if server is not None:
            server.close()
            await server.wait_closed()
        service.begin_drain()
        await asyncio.to_thread(backend.close)
        waiting = {t for t in requests if not t.done()}
        if stdio_task is not None and not stdio_task.done():
            waiting.add(stdio_task)
        if waiting:
            done, stragglers = await asyncio.wait(
                waiting, timeout=max_deadline[0] + _DRAIN_SLACK_S)
            for t in stragglers:  # pragma: no cover - wedged request
                t.cancel()
        drain.completed = service.answered
    finally:
        if server is not None:
            server.close()
            with contextlib.suppress(OSError):
                pathlib.Path(socket_path).unlink()
        _publish(status, service, force=True)
    log.info("advisor drained: %d accepted, %d answered, %d shed, "
             "%d coalesced", service.accepted, service.answered,
             service.shed, service.coalesced)
    return 0


# ----------------------------------------------------------------------
def _publish(status, service: AdvisorService, force: bool = False) -> None:
    if status is None:
        return
    status.done = service.answered
    status.degraded = service.tiers["analytic"]
    status.update_extra(service=service.status())
    status.publish(force=force)


def _clear_stale_socket(path: pathlib.Path) -> None:
    """Unlink a dead server's leftover socket; refuse a live one."""
    if not path.exists():
        return
    import socket

    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(str(path))
    except OSError:
        log.warning("removing stale advisor socket %s", path)
        with contextlib.suppress(OSError):
            path.unlink()
    else:
        raise ServiceError(f"{path}: another advisor is already serving")
    finally:
        probe.close()


async def _stdio_streams():
    """Asyncio reader/writer over this process's stdin/stdout."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    w_transport, w_protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout)
    writer = asyncio.StreamWriter(w_transport, w_protocol, None, loop)
    return reader, writer
