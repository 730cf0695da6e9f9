"""Skewed time-tiling schedule for the 2D Jacobi time loop.

The iteration space is ``(t, j, i)`` with ``t`` the time step and
``(j, i)`` one Figure-1 sweep. Tiles are parallelograms in the (t, j)
plane with slope -1: tile ``JJ`` at time ``t`` covers columns

    max(2, JJ - t) .. min(N-1, JJ + TJ - 1 - t)

so every value a point needs from time ``t-1`` was computed either
earlier in the same tile (the ``j+1`` neighbour) or by an
earlier tile (the ``j-1`` neighbour crossing the left edge). Tiles are
processed in increasing JJ; within a tile, time ascends and each time
step sweeps its column window in the original (J outer, I inner) order.

Ping-pong arrays: even time steps read ``B`` and write ``A``, odd ones
read ``A`` and write ``B`` — exactly the "realistic" structure the
paper notes defeats naive skewing of a *single* nest, handled here by
scheduling the pair as one skewed body.

Legality argument (verified by the equivalence tests): computing
``dst(j) = f(src(j-1), src(j), src(j+1))`` at (t, j) needs time-(t-1)
values. Within the tile, the t-1 row covered ``j`` up to
``JJ + TJ - 1 - (t-1) >= j + 1``; the columns below ``max(2, JJ-(t-1))``
were finished by earlier tiles before this tile started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.layout.array import ArraySpec, allocate
from repro.trace.generator import Ref, TraceChunk, trace_chunks

__all__ = ["SkewedSchedule", "skewed_trace", "run_reference", "run_skewed"]

#: 2D Jacobi reads relative to (i, j): (di, dj) offsets, Figure 1 order.
_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class SkewedSchedule:
    """A skewed time-tiling of ``tsteps`` 2D Jacobi sweeps.

    Parameters
    ----------
    n:
        Column length (I extent); interior points are ``2..n-1``.
    m:
        Number of columns (J extent).
    tsteps:
        Time steps executed (must be >= 1).
    tj:
        Tile width in columns *at time 0*; the window narrows never —
        it shifts left by one column per time step.
    """

    n: int
    m: int
    tsteps: int
    tj: int

    def __post_init__(self) -> None:
        if self.n < 3 or self.m < 3:
            raise ConfigurationError(f"need N, M >= 3: {self}")
        if self.tsteps < 1:
            raise ConfigurationError(f"need >= 1 time step: {self}")
        if self.tj < 1:
            raise ConfigurationError(f"tile width must be positive: {self}")

    # ------------------------------------------------------------------
    def windows(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (tile_origin, t, jlo, jhi) pieces in execution order.

        Tile origins run ``2, 2+tj, ...`` over an *extended* range: the
        skew shifts windows left, so origins up to ``m-1 + tsteps - 1``
        are needed to cover the last columns at late time steps.
        """
        last_origin = self.m - 1 + (self.tsteps - 1)
        for jj in range(2, last_origin + 1, self.tj):
            for t in range(self.tsteps):
                jlo = max(2, jj - t)
                jhi = min(self.m - 1, jj + self.tj - 1 - t)
                if jlo > jhi:
                    continue
                yield jj, t, jlo, jhi

    def coverage_ok(self) -> bool:
        """Every (t, j) interior pair executed exactly once (test hook)."""
        seen = np.zeros((self.tsteps, self.m), dtype=np.int64)
        for _, t, jlo, jhi in self.windows():
            seen[t, jlo:jhi + 1] += 1
        return bool(np.all(seen[:, 2:self.m] == 1))


def _jacobi_refs(src: ArraySpec, dst: ArraySpec) -> list[Ref]:
    reads = [Ref(src, oi, oj, 0) for oi, oj in _OFFSETS]
    return reads + [Ref(dst, 0, 0, 0, is_write=True)]


def skewed_trace(sched: SkewedSchedule, elem_bytes: int = 8,
                 specs: dict[str, ArraySpec] | None = None
                 ) -> Iterator[TraceChunk]:
    """Byte-address trace of the skewed schedule, in program order."""
    if specs is None:
        specs = allocate([("B", sched.n, sched.m, 1),
                          ("A", sched.n, sched.m, 1)],
                         elem_bytes=elem_bytes)
    b, a = specs["B"], specs["A"]
    i = np.arange(2, sched.n, dtype=np.int64)
    k = np.ones(i.size, dtype=np.int64)

    for _, t, jlo, jhi in sched.windows():
        src, dst = (b, a) if t % 2 == 0 else (a, b)
        refs = _jacobi_refs(src, dst)
        for j in range(jlo, jhi + 1):
            chunk = (i, np.full(i.size, j, dtype=np.int64), k)
            yield from trace_chunks([chunk], refs)


def untiled_trace(sched: SkewedSchedule, elem_bytes: int = 8
                  ) -> Iterator[TraceChunk]:
    """Baseline: ``tsteps`` plain full sweeps (no time reuse)."""
    specs = allocate([("B", sched.n, sched.m, 1),
                      ("A", sched.n, sched.m, 1)], elem_bytes=elem_bytes)
    b, a = specs["B"], specs["A"]
    i = np.arange(2, sched.n, dtype=np.int64)
    k = np.ones(i.size, dtype=np.int64)
    for t in range(sched.tsteps):
        src, dst = (b, a) if t % 2 == 0 else (a, b)
        refs = _jacobi_refs(src, dst)
        for j in range(2, sched.m):
            chunk = (i, np.full(i.size, j, dtype=np.int64), k)
            yield from trace_chunks([chunk], refs)


# ----------------------------------------------------------------------
# numerics
# ----------------------------------------------------------------------

def _update_columns(dst: np.ndarray, src: np.ndarray, jlo: int, jhi: int,
                    c: float) -> None:
    """One Jacobi update of interior columns jlo..jhi (0-based slices)."""
    dst[1:-1, jlo:jhi + 1] = c * (
        src[:-2, jlo:jhi + 1] + src[2:, jlo:jhi + 1] +
        src[1:-1, jlo - 1:jhi] + src[1:-1, jlo + 1:jhi + 2])


def run_reference(a: np.ndarray, b: np.ndarray, tsteps: int,
                  c: float = 0.25) -> np.ndarray:
    """``tsteps`` plain ping-pong sweeps; returns the final grid."""
    for t in range(tsteps):
        src, dst = (b, a) if t % 2 == 0 else (a, b)
        _update_columns(dst, src, 1, src.shape[1] - 2, c)
    return a if tsteps % 2 == 1 else b


def run_skewed(a: np.ndarray, b: np.ndarray, sched: SkewedSchedule,
               c: float = 0.25) -> np.ndarray:
    """Execute the skewed schedule; bitwise equal to ``run_reference``.

    Column-at-a-time execution (vectorized along I) in exactly the
    window order of :meth:`SkewedSchedule.windows`.
    """
    if a.shape != (sched.n, sched.m) or b.shape != a.shape:
        raise ConfigurationError("grid shapes must match the schedule")
    for _, t, jlo, jhi in sched.windows():
        src, dst = (b, a) if t % 2 == 0 else (a, b)
        # 0-based column indices: 1-based jlo..jhi -> jlo-1..jhi-1.
        _update_columns(dst, src, jlo - 1, jhi - 1, c)
    return a if sched.tsteps % 2 == 1 else b
