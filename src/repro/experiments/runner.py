"""Simulate one (kernel, strategy, N) configuration end to end.

Pipeline per point:

1. tile selection (:func:`repro.core.selector.select`) against the L1
   capacity, using the kernel's stencil metadata;
2. array layout with the selected pads;
3. exact reference trace of the selected schedule, streamed in bounded
   address chunks (``chunk_size``) so peak memory is O(chunk), not
   O(trace);
4. two-level direct-mapped simulation (write-around);
5. analytic performance prediction from the miss counts.

Every point runs through one entry point::

    run_point(kernel, strategy, n, cfg, policy=PointPolicy(...))

where the :class:`~repro.experiments.options.PointPolicy` names the
machinery the point may use — nothing (the memoized exact fast path),
the analytic miss model, a retry/degrade budget, a checkpoint, a
persistent point store, a trace chunk bound — and sweeps carry the
same choices in one frozen :class:`~repro.experiments.options.SweepOptions`.
(The pre-``PointPolicy`` shims — ``run_point_resilient``,
``run_point_analytic``, the ``sweep(checkpoint=...)`` keyword forms —
completed their deprecation cycle and are gone.)

Caching is layered; a point is served by the first layer that has it:

* **checkpoint** — this sweep's unbounded
  :class:`~repro.perf.store.PointStore` directory, bound to one
  configuration fingerprint (:func:`open_checkpoint`): crash/resume of
  one sweep, and the only layer that serves degraded points (counted
  as ``repro.runner.points{mode="journal"}``);
* **store** — the persistent, content-addressed point cache
  (:mod:`repro.perf.store`): reuse across runs and across the parallel
  pool's processes, keyed by :func:`config_fingerprint` + point key;
* **memo** — the in-process ``lru_cache`` (plain points only; bounded
  by ``REPRO_POINT_CACHE`` entries, default 4096), letting Table 3 and
  the per-figure benches share sweeps within a session; inspect it with
  :func:`cache_info`.

Resilience semantics are unchanged from the previous API: budgeted
points retry transient failures with backoff and **degrade** to the
analytical miss model (``degraded=True``) on exhaustion; parallel
sweeps run points in supervised child processes with crash isolation
and quarantine (:mod:`repro.resilience.pool`); serial and parallel runs
share checkpoint format and fingerprint, so either resumes the other.
Degraded points are checkpointed but never written to the point cache
— a stand-in must not outlive the incident that caused it. Every
checkpoint or point-cache hit is re-validated (:func:`_store_lookup`);
an entry that fails is quarantined and the point re-simulated.

Durable sweeps (checkpoint and/or point cache) additionally get
**graceful draining** (:mod:`repro.resilience.signals`): the first
SIGINT/SIGTERM lets in-flight points finish and be checkpointed, then
raises :class:`~repro.errors.SweepInterrupted` (CLI exit 130) with the
checkpoint cleanly resumable; a second signal aborts immediately.
Entries are checksummed and written atomically
(:mod:`repro.perf.store`), so concurrent sweeps may share both
directories.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pathlib
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Mapping

from repro.cache.classify import MissClassifier
from repro.cache.hierarchy import CacheHierarchy
from repro.core.missmodel import tiled_miss_rate, untiled_miss_rate
from repro.core.selector import select
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ExperimentError,
    RetryableError,
    SweepInterrupted,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.extrapolate import ineligibility, simulate_extrapolated
from repro.experiments.options import PointPolicy, SweepOptions
from repro.ir.stencil import JACOBI_3D, REDBLACK_6PT, RESID_27PT
from repro.kernels import KERNELS, Schedule
from repro.obs import events, metrics
from repro.perf.store import PointStore, StoreInfo
from repro.perfmodel.model import RunCounts, predict
from repro.resilience import (
    Deadline,
    PointBudget,
    fingerprint,
    run_with_retries,
)
from repro.resilience import faults
from repro.resilience.signals import DrainState, graceful_drain
from repro.types import SelectionResult

__all__ = ["PointResult", "RunnerCacheInfo", "run_point", "sweep",
           "open_checkpoint", "open_store", "config_fingerprint",
           "clear_cache", "cache_info"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PointResult:
    """Simulated outcome of one configuration."""

    kernel: str
    strategy: str
    n: int
    nk: int
    l1_rate: float          # global miss rate (misses / all refs), %
    l2_rate: float
    l1_misses: int
    l2_misses: int
    refs: int
    mflops: float
    seconds: float
    tile: tuple[int, int] | None
    di_p: int
    dj_p: int
    #: True when the point came from the analytical miss model (budget
    #: exceeded / retries exhausted) rather than exact trace simulation.
    degraded: bool = False

    @property
    def padded(self) -> bool:
        return self.di_p > self.n or self.dj_p > self.n


def _kernel_cls(kernel_name: str):
    try:
        return KERNELS[kernel_name]
    except KeyError:
        raise ExperimentError(
            f"unknown kernel {kernel_name!r}; valid: {sorted(KERNELS)}"
        ) from None


def _schedule_for(strategy: str, kernel: str,
                  sel: SelectionResult) -> Schedule:
    if not sel.tiled:
        return Schedule.UNTILED
    if strategy == "WolfLam3" and kernel != "REDBLACK":
        return Schedule.TILED_3LOOP
    return Schedule.TILED


def _tile_count(kernel, sel: SelectionResult, schedule: Schedule) -> int:
    if not sel.tiled:
        return 1
    ti, tj = sel.tile.ti, sel.tile.tj
    start = 1 if kernel.meta.name == "REDBLACK" else 2
    span = kernel.n - start
    tiles = math.ceil(span / ti) * math.ceil(span / tj)
    if schedule is Schedule.TILED_3LOOP and sel.array_tile is not None:
        tiles *= math.ceil((kernel.nk - 2) / max(1, sel.array_tile.tk))
    return max(1, tiles)


def _record_sim_metrics(hier: CacheHierarchy, stats, seconds: float) -> None:
    """Per-level access/miss counters plus the 3C classification."""
    metrics.observe("repro.sim.point_seconds", seconds)
    for (name, st), cls in zip(stats.levels, hier.classifiers):
        metrics.inc("repro.sim.accesses", st.accesses, level=name)
        metrics.inc("repro.sim.misses", st.misses, level=name)
        if cls is None:
            continue
        for c, cnt in cls.counts.items():
            if cnt:
                metrics.inc("repro.sim.miss_class", cnt, level=name, cls=c)
        for arr, cnt in cls.by_array.items():
            if cnt:
                metrics.inc("repro.sim.miss_array", cnt, level=name, array=arr)


def _simulate_exact(kernel_name: str, strategy: str, n: int,
                    cfg: ExperimentConfig,
                    budget: PointBudget | None = None,
                    chunk_size: int | None = None,
                    trace_form: str = "auto",
                    clock=time.monotonic) -> PointResult:
    """One exact trace simulation, optionally under a budget's deadline.

    ``chunk_size`` bounds the addresses materialized per trace chunk
    (``None`` = the generator's default bound, ``0`` = unbounded); the
    simulated statistics are bit-for-bit identical for every value.

    ``trace_form="auto"`` lets the point's shape pick the route: a
    point that passes
    :func:`~repro.experiments.extrapolate.ineligibility` (untiled, no
    classifiers, direct-mapped levels, one line-aligned plane stride)
    is simulated plane by plane with steady-state K-plane extrapolation
    (identical statistics, provably repeating planes costed in closed
    form); every other point is fully simulated from run-compressed
    chunks. A forced ``"runs"`` or ``"flat"`` always means full
    simulation in that form. The ``extrapolate`` event and the
    ``repro.cache.extrapolation`` counter record the route taken.
    """
    faults.tick("simulate")
    kern = _kernel_cls(kernel_name)(n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    schedule = _schedule_for(strategy, kernel_name, sel)

    deadline = (Deadline(budget, clock)
                if budget is not None and budget.bounded else None)
    hier = CacheHierarchy(cfg.levels)
    inter_pad = cfg.cs if cfg.inter_pad else None
    specs = kern.specs(sel.di_p, sel.dj_p, inter_pad_cache=inter_pad)
    if metrics.enabled():
        # Shadow-LRU miss classification is a Python-loop cost, so it is
        # attached only when a registry is collecting (``--metrics``).
        ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
                  for s in specs.values()]
        hier.attach_classifiers(
            [MissClassifier(p, ranges) for p in cfg.levels])

    def on_chunk(chunk) -> None:
        faults.tick("chunk")
        if deadline is not None:
            deadline.check(len(chunk))

    reason = (ineligibility(sel, hier, specs) if trace_form == "auto"
              else "trace_form")
    t0 = time.perf_counter()
    with events.span("simulate", kernel=kernel_name, strategy=strategy,
                     n=n) as sp:
        if reason is None:
            stats, xrep = simulate_extrapolated(
                kern, sel, schedule, hier, inter_pad=inter_pad,
                chunk_size=chunk_size, on_chunk=on_chunk)
            fired, reason = xrep.fired, xrep.reason
            detail = dict(period=xrep.period,
                          planes_simulated=xrep.planes_simulated,
                          planes_skipped=xrep.planes_skipped)
            if xrep.planes_skipped:
                metrics.inc("repro.cache.extrapolation_planes_skipped",
                            xrep.planes_skipped)
        else:
            form = "runs" if trace_form == "auto" else trace_form
            stats = hier.run(
                kern.trace(sel, schedule, inter_pad_cache=inter_pad,
                           chunk_size=chunk_size, trace_form=form),
                on_chunk=on_chunk)
            fired, detail = False, {}
        events.emit("extrapolate", kernel=kernel_name, strategy=strategy,
                    n=n, fired=fired, reason=reason, **detail)
        metrics.inc("repro.cache.extrapolation",
                    outcome="fired" if fired else "fallback",
                    reason=reason or "none")
        sp["refs"] = stats.demand_refs
    if metrics.enabled():
        _record_sim_metrics(hier, stats, time.perf_counter() - t0)

    l1_rate = stats.global_miss_rate(0, include_writes=cfg.include_writes)
    l2_rate = stats.global_miss_rate(1, include_writes=cfg.include_writes)

    counts = RunCounts(
        iterations=kern.interior_points(),
        flops=kern.sweep_flops(),
        refs=kern.sweep_refs(),
        l1_misses=stats.misses(0),
        l2_misses=stats.misses(1),
        tiles=_tile_count(kern, sel, schedule),
    )
    perf = predict(counts, cfg.machine)

    return PointResult(
        kernel=kernel_name, strategy=strategy, n=n, nk=cfg.nk,
        l1_rate=100.0 * l1_rate, l2_rate=100.0 * l2_rate,
        l1_misses=stats.misses(0), l2_misses=stats.misses(1),
        refs=stats.demand_refs, mflops=perf.mflops, seconds=perf.seconds,
        tile=sel.tile.as_tuple() if sel.tile else None,
        di_p=sel.di_p, dj_p=sel.dj_p,
    )


def _cache_size() -> int | None:
    """Memo bound from ``REPRO_POINT_CACHE`` (<= 0 means unbounded)."""
    try:
        size = int(os.environ.get("REPRO_POINT_CACHE", "4096"))
    except ValueError:
        size = 4096
    return size if size > 0 else None


@lru_cache(maxsize=_cache_size())
def _run_point_cached(kernel_name: str, strategy: str, n: int,
                      cfg: ExperimentConfig) -> PointResult:
    return _simulate_exact(kernel_name, strategy, n, cfg)


# ----------------------------------------------------------------------
# analytic degradation
# ----------------------------------------------------------------------

#: Read-stencil pattern feeding the analytic model, per kernel.
_STENCILS = {
    "JACOBI": JACOBI_3D,
    "REDBLACK": REDBLACK_6PT,
    "RESID": RESID_27PT,
    "PSINV": RESID_27PT,
}


def _analytic_point(kernel: str, strategy: str, n: int,
                    cfg: ExperimentConfig) -> PointResult:
    """Estimate one configuration from the analytical miss model.

    The capacity-only model of :mod:`repro.core.missmodel` stands in
    for exact simulation when a point's budget ran out: untiled
    schedules use the group-reuse/wrap condition on the *padded* column
    stride, tiled schedules the Section 2.3 cost-per-line bound. The
    result is marked ``degraded=True``; it tracks simulation within
    ~15% at benign sizes and under-predicts conflict pathologies
    (which is exactly the information an exact run would have added).
    """
    kern = _kernel_cls(kernel)(n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    try:
        stencil = _STENCILS[kernel]
    except KeyError:
        raise ExperimentError(
            f"no analytic stencil model for kernel {kernel!r}; "
            f"valid: {sorted(_STENCILS)}") from None

    refs_per_iter = meta.reads + meta.writes
    refs = kern.sweep_refs()

    def rate_at(params) -> float:
        line = params.line_elements()
        capacity = params.capacity_elements(cfg.elem_bytes)
        if sel.tiled:
            pred = tiled_miss_rate(sel.tile.ti, sel.tile.tj, meta.mi,
                                   meta.mj, line, refs_per_iter)
        else:
            pred = untiled_miss_rate(stencil.offsets, sel.di_p, capacity,
                                     line, refs_per_iter)
        return min(1.0, pred.miss_rate)

    metrics.inc("repro.runner.points", mode="analytic")
    l1_rate = rate_at(cfg.l1)
    l2_rate = min(rate_at(cfg.l2), l1_rate)
    l1_misses = round(l1_rate * refs)
    l2_misses = round(l2_rate * refs)

    counts = RunCounts(
        iterations=kern.interior_points(),
        flops=kern.sweep_flops(),
        refs=refs,
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        tiles=_tile_count(kern, sel, schedule),
    )
    perf = predict(counts, cfg.machine)

    return PointResult(
        kernel=kernel, strategy=strategy, n=n, nk=cfg.nk,
        l1_rate=100.0 * l1_rate, l2_rate=100.0 * l2_rate,
        l1_misses=l1_misses, l2_misses=l2_misses,
        refs=refs, mflops=perf.mflops, seconds=perf.seconds,
        tile=sel.tile.as_tuple() if sel.tile else None,
        di_p=sel.di_p, dj_p=sel.dj_p,
        degraded=True,
    )


# ----------------------------------------------------------------------
# fingerprints, checkpoints, stores
# ----------------------------------------------------------------------

def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Fingerprint of everything that affects a point's numbers."""
    import repro

    return fingerprint({
        "repro": repro.__version__,
        "config": asdict(cfg),
    })


def open_checkpoint(path, cfg: ExperimentConfig | None = None
                    ) -> PointStore:
    """Open/create the checkpoint directory at ``path`` for ``cfg``.

    A checkpoint is an unbounded :class:`~repro.perf.store.PointStore`
    (eviction would throw resume progress away) bound to ``cfg``'s
    fingerprint: the fingerprint subdirectory is created on open, and
    a directory already holding another fingerprint's entries is
    refused with :class:`~repro.errors.CheckpointError` naming both —
    mixing configurations would corrupt the science. An existing
    *file* at ``path`` (e.g. a JSONL journal from an older build) is
    refused too: journals are no longer read. ``path`` may also be an
    open store, which is checked the same way. Entries already present
    are announced once per open (``checkpoint_resume`` event,
    ``repro.resilience.checkpoint.resumed_points``).
    """
    fp = config_fingerprint(cfg or ExperimentConfig())
    if isinstance(path, PointStore):
        store = path
    else:
        path = pathlib.Path(path)
        if path.exists() and not path.is_dir():
            raise CheckpointError(
                f"checkpoint {path} is a file; checkpoint journals are no "
                f"longer read — a checkpoint is a directory (pass a new "
                f"path; a finished sweep's results are in its --csv)")
        store = PointStore(path, max_bytes=0)
    mine = store.fingerprint_dir(fp)
    others = [d for d in store.fingerprints() if d != mine.name]
    if others:
        raise CheckpointError(
            f"checkpoint {store.root} was written under a different "
            f"configuration: checkpoint fingerprint "
            f"{', '.join(others)} vs this run's {fp}; refusing to mix "
            f"results — use another directory or match the original "
            f"configuration")
    mine.mkdir(parents=True, exist_ok=True)
    done = sum(1 for _ in mine.glob("*.json"))
    if done:
        log.info("resuming from checkpoint %s: %d points already done",
                 store.root, done)
        events.emit("checkpoint_resume", path=str(store.root), points=done)
        metrics.inc("repro.resilience.checkpoint.resumed_points", done)
    return store


def open_store(point_cache) -> PointStore | None:
    """Coerce ``point_cache`` (path / PointStore / None) to a store."""
    if point_cache is None or isinstance(point_cache, PointStore):
        return point_cache
    return PointStore(point_cache)


# ----------------------------------------------------------------------
# payload round-tripping
# ----------------------------------------------------------------------

def _point_to_payload(p: PointResult) -> dict:
    return asdict(p)


def _point_from_payload(payload: dict) -> PointResult:
    d = dict(payload)
    # Records written while extrapolation was an opt-in carry an
    # 'extrapolated' provenance flag; their statistics are exact either
    # way, so it is dropped.
    d.pop("extrapolated", None)
    if d.get("tile") is not None:
        d["tile"] = tuple(d["tile"])
    try:
        return PointResult(**d)
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint record does not match PointResult: {exc}"
        ) from None


#: PointResult fields that must round-trip as real numbers / integers.
_FLOAT_FIELDS = ("l1_rate", "l2_rate", "mflops", "seconds")
_INT_FIELDS = ("n", "nk", "l1_misses", "l2_misses", "refs", "di_p", "dj_p")


def _check_payload(key, payload) -> PointResult:
    """Round-trip + type validation of a point payload for ``key``.

    Worker payloads (and checkpoint/store entries) are only trusted
    after they reconstruct into a :class:`PointResult` whose identity
    matches the task key and whose fields carry the right types — a
    truncated or type-mangled payload from a dying worker raises
    :class:`~repro.errors.CheckpointError` and is treated as a failed
    attempt, never checkpointed.
    """
    if not isinstance(payload, Mapping):
        raise CheckpointError(
            f"point payload for {key!r} is {type(payload).__name__}, "
            f"not a mapping")
    # Older records' 'extrapolated' flag (see _point_from_payload) is
    # tolerated only as a bool; it is dropped on reconstruction.
    if not isinstance(payload.get("extrapolated", False), bool):
        raise CheckpointError(
            "point payload field 'extrapolated' must be a bool")
    expected = set(PointResult.__dataclass_fields__)
    got = set(payload) - {"extrapolated"}
    if got != expected:
        # asdict always emits every field, so any other difference means
        # a truncated or garbage-extended payload (defaults would other-
        # wise mask a missing 'degraded').
        missing, extra = sorted(expected - got), sorted(got - expected)
        raise CheckpointError(
            f"point payload for {key!r} has wrong fields "
            f"(missing {missing}, unexpected {extra})")
    result = _point_from_payload(payload)
    if (result.kernel, result.strategy, result.n) != tuple(key):
        raise CheckpointError(
            f"point payload identity "
            f"{(result.kernel, result.strategy, result.n)!r} does not "
            f"match its key {tuple(key)!r}")
    for name in _FLOAT_FIELDS:
        v = getattr(result, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise CheckpointError(
                f"point payload field {name!r} is "
                f"{type(v).__name__}, expected a number")
    for name in _INT_FIELDS:
        v = getattr(result, name)
        if isinstance(v, bool) or not isinstance(v, int):
            raise CheckpointError(
                f"point payload field {name!r} is "
                f"{type(v).__name__}, expected an int")
    if not isinstance(result.degraded, bool):
        raise CheckpointError("point payload field 'degraded' must be a bool")
    tile = result.tile
    if tile is not None and (len(tile) != 2 or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in tile)):
        raise CheckpointError(
            f"point payload field 'tile' is {tile!r}, expected None "
            f"or two ints")
    return result


def _store_lookup(store: PointStore, fingerprint_: str,
                  key: tuple) -> PointResult | None:
    """Validated checkpoint/store hit, or ``None`` (invalid entries read
    as misses).

    An entry that parses and checksums but fails :func:`_check_payload`
    (wrong identity, mangled field types) is *semantically* poisoned:
    it must be quarantined, not merely skipped — a skipped entry stays
    on disk and re-reads as a miss forever (a degraded re-simulation is
    never put to the point cache, so nothing ever overwrites it there),
    poisoning every future consumer.
    """
    payload = store.get(fingerprint_, key)
    if payload is None:
        return None
    try:
        return _check_payload(key, payload)
    except CheckpointError as exc:
        log.warning("quarantining invalid point-cache entry for %r (%s)",
                    key, exc)
        store.discard(fingerprint_, key,
                      reason=f"failed payload validation: {exc}")
        return None


def _record(checkpoint: PointStore, fingerprint_: str, key: tuple,
            payload: dict) -> None:
    """Put one finished point to the checkpoint.

    This is the ``REPRO_FAULT_SUPERVISOR`` "record" site: the chaos
    harness kills the supervisor just before or just after the entry
    is durably written.
    """
    fault = faults.supervisor_check("record")
    if fault is not None and fault.before:
        faults.fire_supervisor(fault)
    checkpoint.put(fingerprint_, key, payload)
    metrics.inc("repro.resilience.checkpoint.records")
    if fault is not None and not fault.before:
        faults.fire_supervisor(fault)


def _durable_lookup(checkpoint: PointStore | None, store: PointStore | None,
                    fingerprint_: str, key: tuple
                    ) -> tuple[PointResult | None, str]:
    """First valid hit and its source: the checkpoint (``"journal"``),
    then the point cache (``"store"``); ``(None, "")`` on a miss.

    A point-cache hit is promoted into the checkpoint, so a resumed run
    skips the point-cache round trip too.
    """
    if checkpoint is not None:
        hit = _store_lookup(checkpoint, fingerprint_, key)
        if hit is not None:
            return hit, "journal"
    if store is not None:
        hit = _store_lookup(store, fingerprint_, key)
        if hit is not None:
            if checkpoint is not None:
                _record(checkpoint, fingerprint_, key, _point_to_payload(hit))
            return hit, "store"
    return None, ""


# ----------------------------------------------------------------------
# the unified point entry
# ----------------------------------------------------------------------

def _compute_point(kernel: str, strategy: str, n: int,
                   cfg: ExperimentConfig,
                   budget: PointBudget | None,
                   chunk_size: int | None = None,
                   trace_form: str = "auto") -> PointResult:
    """Exact simulation under ``budget``, degrading to the model.

    The shared core of serial resilient execution and the pool worker:
    retryable failures retry with backoff; budget exhaustion (or
    exhausted retries) degrades to the analytic miss model with
    ``degraded=True``.
    """
    budget = budget or PointBudget()
    clock = faults.active_clock()
    try:
        result = run_with_retries(
            lambda: _simulate_exact(kernel, strategy, n, cfg,
                                    budget=budget, chunk_size=chunk_size,
                                    trace_form=trace_form, clock=clock),
            budget, sleep=faults.active_sleep())
        metrics.inc("repro.runner.points", mode="exact")
        return result
    except (BudgetExceededError, RetryableError) as exc:
        log.warning("point %s/%s/N=%d degraded to the analytic model "
                    "(%s: %s)", kernel, strategy, n,
                    type(exc).__name__, exc)
        events.emit("degraded", kernel=kernel, strategy=strategy, n=n,
                    reason=type(exc).__name__)
        metrics.inc("repro.resilience.degraded")
        return _analytic_point(kernel, strategy, n, cfg)


def run_point(kernel: str, strategy: str, n: int,
              cfg: ExperimentConfig | None = None, *,
              policy: PointPolicy | None = None) -> PointResult:
    """Simulate one configuration under ``policy``.

    The default policy is the memoized exact fast path. A policy with
    ``analytic=True`` returns the miss-model estimate; one carrying a
    checkpoint and/or store serves the point from the first layer that
    has a valid entry (checkpoint, then store) and records new results
    back — every result to the checkpoint, exact ones to the store; a
    ``budget`` adds retry/degrade bounds; ``chunk_size`` bounds trace
    memory. See :class:`~repro.experiments.options.PointPolicy`.
    """
    cfg = cfg or ExperimentConfig()
    policy = policy or PointPolicy()
    with events.span("point", kernel=kernel, strategy=strategy, n=n) as sp:
        if policy.plain:
            result = _run_point_cached(kernel, strategy, n, cfg)
            sp["degraded"] = result.degraded
            metrics.inc("repro.runner.points", mode="exact")
            return result
        if policy.analytic:
            result = _analytic_point(kernel, strategy, n, cfg)
            sp["source"] = "analytic"
            sp["degraded"] = True
            return result

        key = (kernel, strategy, n)
        fp = config_fingerprint(cfg)
        result, source = _durable_lookup(policy.checkpoint, policy.store,
                                         fp, key)
        if result is not None:
            sp["source"] = source
            sp["degraded"] = result.degraded
            metrics.inc("repro.runner.points", mode=source)
            return result

        result = _compute_point(kernel, strategy, n, cfg,
                                policy.budget, policy.chunk_size,
                                policy.trace_form)
        sp["degraded"] = result.degraded
        payload = _point_to_payload(result)
        if policy.checkpoint is not None:
            _record(policy.checkpoint, fp, key, payload)
        if policy.store is not None and not result.degraded:
            policy.store.put(fp, key, payload)
        return result


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def _pool_point_task(args) -> dict:
    """Worker-side pool entry: compute one point, return its payload.

    Runs in a child process (crash/OOM/hang isolation); must stay a
    module-level function so ``spawn`` platforms can pickle it. The
    supervisor round-trips the payload through :func:`_check_payload`
    before trusting it. ``args`` is ``(kernel, strategy, n, cfg,
    budget, chunk_size, trace_form)``, :func:`_compute_point`'s
    positional signature.
    """
    return _point_to_payload(_compute_point(*args))


def _sweep_parallel(kernel: str, strategies: list[str], sizes: list[int],
                    cfg: ExperimentConfig, *,
                    checkpoint: PointStore | None,
                    store: PointStore | None,
                    budget: PointBudget | None,
                    workers: int,
                    point_timeout: float | None,
                    chunk_size: int | None,
                    trace_form: str = "auto",
                    drain: DrainState | None = None,
                    status=None,
                    ) -> dict[str, list[PointResult]]:
    """Run sweep points through the supervised process pool.

    Checkpoint and store hits are served without spawning a worker;
    everything else fans out. The supervisor validates every payload,
    records it to the checkpoint and store (single writer — workers
    never touch either), and quarantines repeatedly-failing points to
    the analytic model — the sweep always returns a full grid.
    """
    from repro.resilience.pool import PoolPolicy, run_supervised

    fp = config_fingerprint(cfg)
    results: dict[tuple, PointResult] = {}
    tasks: list[tuple[tuple, tuple]] = []
    for strategy in strategies:
        for n in sizes:
            key = (kernel, strategy, n)
            hit, source = _durable_lookup(checkpoint, store, fp, key)
            if hit is not None:
                results[key] = hit
                metrics.inc("repro.runner.points", mode=source)
                events.emit("point", kernel=kernel, strategy=strategy, n=n,
                            degraded=hit.degraded, source=source)
                if status is not None:
                    status.point_done(degraded=hit.degraded)
                continue
            tasks.append((key, (kernel, strategy, n, cfg, budget,
                                chunk_size, trace_form)))

    retry_policy = budget or PointBudget()
    policy = PoolPolicy(workers=workers, point_timeout=point_timeout,
                        max_retries=retry_policy.max_retries,
                        backoff_seconds=retry_policy.backoff_seconds)

    def fallback(key, args) -> dict:
        k, s, n, cfg_ = args[:4]
        return _point_to_payload(_analytic_point(k, s, n, cfg_))

    def on_result(key, payload, quarantined) -> None:
        result = _check_payload(key, payload)
        results[key] = result
        if not quarantined:
            # Quarantined fallbacks already counted mode="analytic"
            # inside _analytic_point (supervisor side).
            metrics.inc("repro.runner.points",
                        mode="analytic" if result.degraded else "exact")
        events.emit("point", kernel=key[0], strategy=key[1], n=key[2],
                    degraded=result.degraded,
                    source="quarantine" if quarantined else "worker")
        if status is not None:
            status.point_done(degraded=result.degraded,
                              quarantined=quarantined)
        if checkpoint is not None:
            _record(checkpoint, fp, key, payload)
        if store is not None and not result.degraded:
            store.put(fp, key, payload)

    if tasks:
        log.info("parallel sweep %s: %d points across %d workers "
                 "(timeout %s)", kernel, len(tasks), workers,
                 f"{point_timeout}s" if point_timeout else "none")
        outcomes = run_supervised(_pool_point_task, tasks, policy,
                                  validate=_check_payload, fallback=fallback,
                                  on_result=on_result, drain=drain,
                                  span_name="point", observer=status)
        skipped = sum(1 for o in outcomes if o.skipped)
        if skipped:
            raise SweepInterrupted(
                f"sweep drained after {drain.signal_name()}: "
                f"{len(results)} point(s) completed and checkpointed, "
                f"{skipped} skipped (resume from the checkpoint)",
                signum=drain.signum, completed=len(results),
                skipped=skipped)
    return {s: [results[(kernel, s, n)] for n in sizes]
            for s in strategies}


def sweep(kernel: str, strategies: list[str], sizes: list[int],
          cfg: ExperimentConfig | None = None, *,
          options: SweepOptions | None = None
          ) -> dict[str, list[PointResult]]:
    """Run a full (strategy x size) sweep for one kernel.

    All execution choices travel in one frozen
    :class:`~repro.experiments.options.SweepOptions`:

    * ``checkpoint`` — completed points (degraded ones too) are put to
      a checkpoint directory bound to ``cfg`` and skipped on resume;
    * ``budget``/``point_timeout`` — over-budget points degrade to the
      analytic model;
    * ``point_cache`` — points are served from / recorded to the
      persistent store, shared across runs and processes;
    * ``parallel`` — points fan out to supervised worker processes
      (:mod:`repro.resilience.pool`): a crashed, hung, or timed-out
      worker is SIGKILLed, retried, and finally quarantined to the
      analytic model; where multiprocessing is unavailable the sweep
      degrades to the serial path (``point_timeout`` then applies as a
      per-point wall-clock budget);
    * ``chunk_size`` — trace memory bound (results are bit-for-bit
      independent of it).

    With default options the fast memoized path is used unchanged.
    Durable sweeps (a checkpoint and/or store) drain gracefully on
    SIGINT/SIGTERM: in-flight points finish and are recorded, then the sweep
    raises :class:`~repro.errors.SweepInterrupted` — resumable, exit
    code 130 at the CLI. A plain in-memory sweep keeps ordinary Ctrl-C
    behaviour.
    """
    from repro.obs import context as obs_context
    from repro.obs.status import StatusPublisher

    options = options or SweepOptions()
    cfg = cfg or ExperimentConfig()
    log.debug("sweep %s: %d strategies x %d sizes", kernel,
              len(strategies), len(sizes))
    status = StatusPublisher.for_run(obs_context.current(),
                                     total=len(strategies) * len(sizes),
                                     kernel=kernel)
    with events.span("sweep", kernel=kernel, strategies=len(strategies),
                     sizes=len(sizes), parallel=options.parallel):
        use_parallel = options.parallel > 1
        if use_parallel:
            from repro.resilience import pool

            if not pool.available():
                log.warning("multiprocessing unavailable on this platform; "
                            "running the sweep serially")
                use_parallel = False
        checkpoint = options.checkpoint
        if checkpoint is not None and not isinstance(checkpoint, PointStore):
            # An open store (table3 opens one for all its kernels) was
            # checked and announced by its open_checkpoint already.
            checkpoint = open_checkpoint(checkpoint, cfg)
        store = open_store(options.point_cache)
        durable = checkpoint is not None or store is not None
        drain_cm = (graceful_drain() if durable
                    else contextlib.nullcontext(None))
        with drain_cm as drain:
            if use_parallel:
                out = _sweep_parallel(kernel, strategies, sizes, cfg,
                                      checkpoint=checkpoint, store=store,
                                      budget=options.budget,
                                      workers=options.parallel,
                                      point_timeout=options.point_timeout,
                                      chunk_size=options.chunk_size,
                                      trace_form=options.trace_form,
                                      drain=drain, status=status)
                if status is not None:
                    status.finish()
                return out
            budget = options.budget
            if options.point_timeout is not None and budget is None:
                # Serial degradation of --point-timeout: no supervisor to
                # SIGKILL, so enforce it as an in-process wall budget.
                budget = PointBudget(wall_seconds=options.point_timeout)
            policy = PointPolicy(budget=budget, checkpoint=checkpoint,
                                 store=store, chunk_size=options.chunk_size,
                                 trace_form=options.trace_form)
            results: dict[str, list[PointResult]] = {}
            completed = 0
            remaining = len(strategies) * len(sizes)
            for s in strategies:
                row = []
                for n in sizes:
                    if drain is not None and drain.requested:
                        raise SweepInterrupted(
                            f"sweep drained after {drain.signal_name()}: "
                            f"{completed} point(s) completed and "
                            f"checkpointed, {remaining} skipped (resume "
                            f"from the checkpoint)",
                            signum=drain.signum, completed=completed,
                            skipped=remaining)
                    result = run_point(kernel, s, n, cfg, policy=policy)
                    row.append(result)
                    completed += 1
                    remaining -= 1
                    if status is not None:
                        status.point_done(degraded=result.degraded)
                results[s] = row
            if status is not None:
                status.finish()
            return results


# ----------------------------------------------------------------------
# cache administration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunnerCacheInfo:
    """Combined view of the in-process memo and the persistent store.

    The first four fields mirror ``functools.lru_cache.cache_info()``
    so existing consumers (``repro.obs``, tests) keep working; ``store``
    is present only when a persistent store was passed to
    :func:`cache_info`.
    """

    hits: int
    misses: int
    maxsize: int | None
    currsize: int
    store: StoreInfo | None = None


def clear_cache(store=None) -> int:
    """Drop memoized results; with ``store``, empty the persistent one.

    Returns the number of persistent entries removed (0 without a
    store). After a clear, nothing is served stale: the next
    :func:`run_point` re-simulates and re-populates both layers.
    """
    _run_point_cached.cache_clear()
    resolved = open_store(store)
    return resolved.clear() if resolved is not None else 0


def cache_info(store=None) -> RunnerCacheInfo:
    """Memo statistics, plus the persistent store's when one is given."""
    memo = _run_point_cached.cache_info()
    resolved = open_store(store)
    return RunnerCacheInfo(
        hits=memo.hits, misses=memo.misses, maxsize=memo.maxsize,
        currsize=memo.currsize,
        store=resolved.info() if resolved is not None else None)
