"""Kernel protocol shared by the paper's benchmarks."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.layout.array import ArraySpec, allocate
from repro.types import SelectionResult

__all__ = ["KernelMeta", "Schedule", "StencilKernel"]


class Schedule(enum.Enum):
    """Loop schedules a kernel can execute / trace."""

    UNTILED = "untiled"
    TILED = "tiled"          # paper's 2-loop tiling (Figure 6 / 12 / 13)
    TILED_3LOOP = "tiled3"   # Wolf-Lam-style 3-loop tiling
    FUSED = "fused"          # red-black only: fused, untiled


@dataclass(frozen=True)
class KernelMeta:
    """Static description of a kernel's inner loop body.

    ``reads``/``writes``/``flops`` are per executed iteration point.
    ``mi``/``mj`` are the stencil margins feeding the cost model and
    ``atd`` the array-tile depth (planes resident in cache).
    ``update_fraction`` is the fraction of interior points updated per
    full sweep chunk-iteration (1 for Jacobi/RESID; red-black visits each
    point exactly once too, so also 1 — it exists for generality).
    """

    name: str
    mi: int
    mj: int
    atd: int
    reads: int
    writes: int
    flops: float
    array_names: tuple[str, ...]
    #: Arrays that receive intra-array padding; None = all. Only the
    #: array carrying the tiled group reuse needs padding — the paper's
    #: MGRID study pads by "declaring a new padded array" for exactly
    #: that array, leaving streamed operands (RESID's V) at their
    #: original dims.
    padded_arrays: tuple[str, ...] | None = None


class StencilKernel(abc.ABC):
    """Base class wiring metadata, layout, traces, and numerics together.

    Concrete kernels define :attr:`meta`, :meth:`refs`, the schedule
    table used by :meth:`iter_chunks`, and their numpy step functions.
    """

    meta: KernelMeta

    def __init__(self, n: int, nk: int | None = None,
                 elem_bytes: int = 8):
        if n < 3:
            raise ConfigurationError(f"N must be >= 3, got {n}")
        self.n = n
        self.nk = n if nk is None else nk
        if self.nk < 3:
            raise ConfigurationError(f"NK must be >= 3, got {self.nk}")
        self.elem_bytes = elem_bytes

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def specs(self, di_p: int | None = None, dj_p: int | None = None,
              inter_pad_cache: int | None = None) -> dict[str, ArraySpec]:
        """Allocate this kernel's arrays with (optionally padded) dims.

        Arrays are laid out back-to-back, as a Fortran compiler would
        place same-size COMMON arrays. With ``inter_pad_cache`` set (a
        cache capacity in elements), Section 3.5's *inter-variable
        padding* offsets each array's base so the arrays map to
        different cache regions — this matters when intra-array padding
        makes plane sizes divide the cache and arrays would otherwise
        alias each other exactly.
        """
        di = di_p if di_p is not None else self.n
        dj = dj_p if dj_p is not None else self.n
        if di < self.n or dj < self.n:
            raise ConfigurationError(
                f"padded dims ({di}, {dj}) below problem size {self.n}")
        padded = self.meta.padded_arrays
        if padded is None:
            padded = self.meta.array_names
        dims = [(a, di, dj, self.nk) if a in padded
                else (a, self.n, self.n, self.nk)
                for a in self.meta.array_names]
        out = allocate(dims, elem_bytes=self.elem_bytes)
        if inter_pad_cache is not None and len(out) > 1:
            from repro.layout.padding import inter_variable_pads

            spread = inter_variable_pads(list(out.values()), inter_pad_cache)
            out = {s.name: s for s in spread}
        return out

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def refs(self, specs: dict[str, ArraySpec]) -> list:
        """Program-ordered reference list (``repro.trace.Ref``)."""

    @abc.abstractmethod
    def iter_chunks(self, schedule: Schedule,
                    ti: int | None = None, tj: int | None = None,
                    tk: int | None = None) -> Iterator:
        """Iteration chunks for a schedule (see trace.enumerators)."""

    def trace(self, selection: SelectionResult,
              schedule: Schedule | None = None,
              inter_pad_cache: int | None = None,
              chunk_size: int | None = None,
              structured: bool = True,
              trace_form: str = "flat"
              ) -> Iterator:
        """Reference trace for a tile-selection result.

        The schedule defaults to TILED when the selection carries a tile
        and UNTILED otherwise; padded dimensions come from the
        selection. ``inter_pad_cache`` enables Section 3.5 inter-variable
        padding (see :meth:`specs`). ``chunk_size`` bounds the addresses
        per yielded chunk (``None`` = the generator's default bound,
        ``0`` = unbounded / monolithic per schedule chunk); it affects
        memory and batching only, never the reference stream itself.
        Chunks are :class:`~repro.trace.generator.TraceChunk` objects;
        ``trace_form="runs"`` compresses affine chunks into
        :class:`~repro.trace.runs.RunChunk` objects (same stream,
        bit-for-bit). ``structured`` is ignored: it is still accepted
        only because ``paperbench/make_expected.py`` passes it.
        """
        from repro.trace.generator import trace_chunks

        if schedule is None:
            schedule = Schedule.TILED if selection.tiled else Schedule.UNTILED
        specs = self.specs(selection.di_p, selection.dj_p,
                           inter_pad_cache=inter_pad_cache)
        tile = selection.tile
        ti = tile.ti if tile else None
        tj = tile.tj if tile else None
        tk = None
        if schedule is Schedule.TILED_3LOOP and selection.array_tile:
            tk = selection.array_tile.tk
        chunks = self.iter_chunks(schedule, ti=ti, tj=tj, tk=tk)
        return trace_chunks(chunks, self.refs(specs),
                            max_addresses=chunk_size,
                            form=trace_form)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def interior_points(self) -> int:
        """Updated points per sweep (Jacobi/RESID: all interior points)."""
        return (self.n - 2) ** 2 * (self.nk - 2)

    def sweep_flops(self) -> float:
        return self.meta.flops * self.interior_points()

    def sweep_refs(self) -> int:
        return (self.meta.reads + self.meta.writes) * self.interior_points()
