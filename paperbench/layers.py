"""Exclusive per-layer timing by wrapping the program's public functions.

Nothing under ``src/`` knows about this module. :func:`install` replaces
each layer's entry points with timing wrappers, from the outside:

* module functions (``select``, ``partition``, ``materialize_runs``,
  ``predict``, ``run_point``) in *every* ``repro`` module that bound them
  by name, so ``from x import f`` call sites are covered too;
* methods (``RunChunk.materialize``, ``MissClassifier.classify``,
  ``CacheHierarchy.run``) on their classes;
* the live level simulators' ``access``/``access_grouped`` and the trace
  iterator, per ``CacheHierarchy.run`` call;
* the task function handed to ``repro.resilience.pool.run_supervised``, so
  forked pool workers time their point and write their own accumulators.

A wrapped call nested inside another wrapped call is subtracted from its
parent, so every accumulated time is *self* time. ``cache.engine_self``
(the rest of ``CacheHierarchy.run``) and ``runner.self`` (the rest of the
point) are the two remainders. Every wrapped call should happen inside a
point, so the rows of a process sum to its summed point wall time;
:func:`outside_points_s` is what they exceed it by.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: Self-time layers, in report order; each becomes ``<layer>_s``.
LAYERS = ("core.select", "trace.gen", "trace.materialize", "cache.partition",
          "cache.l1_scan", "cache.l2_scan", "cache.engine_self",
          "cache.classify", "perfmodel.predict", "runner.self")

#: Counts the wrappers record.
COUNTS = ("core.select_calls", "trace.addresses", "trace.stored",
          "cache.partition_keys", "cache.l1_accesses", "cache.l1_misses",
          "cache.l2_accesses", "cache.l2_misses", "bench.points")

# The two remainder layers: the rest of CacheHierarchy.run, and of a point.
_ENGINE, _RUNNER = "cache.engine_self", "runner.self"


class Tracer:
    """Stack of open wrapped calls plus self-time and count accumulators."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.point_s = 0.0
        self.root_dt = 0.0     # wall of the last call that was a root
        self._stack: list[list[float]] = []

    def _call(self, layer: str, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[layer] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            else:
                self.root_dt = dt

    def timed(self, layer: str, fn):
        """``fn`` wrapped so its self time accumulates under ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        return wrapper

    def point(self, fn):
        """``fn`` wrapped as one point: the root of the exclusive tree."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:            # a point inside a point: not a root
                return self._call(_RUNNER, fn, args, kwargs)
            try:
                return self._call(_RUNNER, fn, args, kwargs)
            finally:
                self.point_s += self.root_dt
                self.counts["bench.points"] += 1

        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "point_s": self.point_s}

    def merge(self, snap: dict) -> None:
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        for k, v in snap["counts"].items():
            self.counts[k] += v
        self.point_s += snap["point_s"]


def outside_points_s(snap: dict) -> float:
    """Self time a snapshot's rows hold beyond its summed point time.

    Zero up to rounding when every wrapped call ran inside a point; a
    wrapper timing work outside any point shows here.
    """
    return sum(snap["self_s"].values()) - snap["point_s"]


def _patch_everywhere(module: str, name: str, wrapped_from) -> None:
    """Replace ``module.name`` in every loaded ``repro`` module bound to it."""
    orig = getattr(sys.modules[module], name)
    wrapped = wrapped_from(orig)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def _patch_method(cls, name: str, wrapped_from) -> None:
    setattr(cls, name, wrapped_from(getattr(cls, name)))


def _trace_iter(tr: Tracer, chunks):
    """The trace iterator, with generation timed and its size counted."""
    from repro.trace.runs import RunChunk

    it = iter(chunks)
    step = tr.timed("trace.gen", next)
    while True:
        try:
            chunk = step(it)
        except StopIteration:
            return
        if isinstance(chunk, RunChunk):
            addresses, stored = chunk.n_addresses, chunk.n_runs
        elif hasattr(chunk, "n_addresses"):
            addresses = stored = chunk.n_addresses
        else:      # (addresses, is_write) pairs or plain address arrays
            addresses = stored = len(
                chunk[0] if isinstance(chunk, tuple) else chunk)
        tr.counts["trace.addresses"] += addresses
        tr.counts["trace.stored"] += stored
        yield chunk


def _hierarchy_run(tr: Tracer, orig):
    """``CacheHierarchy.run`` with its levels and trace iterator wrapped."""
    engine_run = tr.timed(_ENGINE, orig)

    @functools.wraps(orig)
    def run(self, chunks, *args, **kwargs):
        for idx, lvl in enumerate(self.levels):
            layer = "cache.l1_scan" if idx == 0 else "cache.l2_scan"
            for meth in ("access", "access_grouped"):
                unbound = getattr(type(lvl), meth, None)
                if unbound is not None and meth not in vars(lvl):
                    setattr(lvl, meth, tr.timed(layer, unbound.__get__(lvl)))
        stats = engine_run(self, _trace_iter(tr, chunks), *args, **kwargs)
        for idx, (_, st) in enumerate(stats.levels[:2]):
            tr.counts[f"cache.l{idx + 1}_accesses"] += st.accesses
            tr.counts[f"cache.l{idx + 1}_misses"] += st.misses
        return stats

    return run


def _counted(tr: Tracer, layer: str, count: str, size=lambda *a: 1):
    """Wrapper factory: time under ``layer``, add ``size(*args)`` to
    ``count``."""

    def wrap(orig):
        timed = tr.timed(layer, orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tr.counts[count] += size(*args)
            return timed(*args, **kwargs)

        return wrapper

    return wrap


def _run_supervised(tr: Tracer, orig, shard_dir: str):
    """Pool entry whose task function times the point inside the worker.

    Workers are forked from a process that already holds the wrappers;
    each resets the inherited accumulators, runs its point as one root
    span, and writes its snapshot before the result goes back.
    """

    @functools.wraps(orig)
    def run_supervised(fn, *args, **kwargs):
        point = tr.point(fn)

        def task(task_args):
            tr.reset()
            try:
                return point(task_args)
            finally:
                path = os.path.join(shard_dir, f"w{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(tr.snapshot(), fh)

        return orig(task, *args, **kwargs)

    return run_supervised


def install(tr: Tracer, shard_dir: str | None = None) -> None:
    """Wrap every layer's entry points so they accumulate into ``tr``.

    With ``shard_dir``, pool workers write their snapshots there. Call
    once per process: there is no uninstall.
    """
    import repro.cache.classify as classify
    import repro.cache.hierarchy as hierarchy
    import repro.cache.partition
    import repro.core.selector
    import repro.experiments.lattice  # noqa: F401  (binds run_point)
    import repro.experiments.runner
    import repro.perfmodel.model
    import repro.trace.runs as runs

    _patch_everywhere("repro.core.selector", "select",
                      _counted(tr, "core.select", "core.select_calls"))
    _patch_everywhere("repro.cache.partition", "partition",
                      _counted(tr, "cache.partition", "cache.partition_keys",
                               lambda keys, *a: len(keys)))
    _patch_everywhere("repro.trace.runs", "materialize_runs",
                      lambda f: tr.timed("trace.materialize", f))
    _patch_everywhere("repro.perfmodel.model", "predict",
                      lambda f: tr.timed("perfmodel.predict", f))
    _patch_everywhere("repro.experiments.runner", "run_point", tr.point)
    _patch_method(runs.RunChunk, "materialize",
                  lambda f: tr.timed("trace.materialize", f))
    _patch_method(classify.MissClassifier, "classify",
                  lambda f: tr.timed("cache.classify", f))
    _patch_method(hierarchy.CacheHierarchy, "run",
                  lambda f: _hierarchy_run(tr, f))
    if shard_dir is not None:
        import repro.resilience.pool

        _patch_everywhere("repro.resilience.pool", "run_supervised",
                          lambda f: _run_supervised(tr, f, shard_dir))


def read_shards(shard_dir: str) -> list[dict]:
    """Every snapshot written under ``shard_dir``."""
    snaps = []
    for name in sorted(os.listdir(shard_dir)):
        if name.endswith(".json"):
            with open(os.path.join(shard_dir, name)) as fh:
                snaps.append(json.load(fh))
    return snaps


def exclusive_metrics(tr: Tracer) -> dict[str, float]:
    """``<layer>_s`` self times plus counts, every layer present."""
    out = {f"{layer}_s": tr.self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({name: tr.counts.get(name, 0) for name in COUNTS})
    stored = out["trace.stored"]
    out["trace.compression"] = (out["trace.addresses"] / stored
                                if stored else 0.0)
    return out
