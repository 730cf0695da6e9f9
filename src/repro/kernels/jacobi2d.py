"""2D Jacobi iteration (Figure 1): the Section 1 motivation kernel.

The paper uses 2D Jacobi to show why tiling is *unnecessary* in 2D —
group reuse survives whenever two columns fit in cache. The kernel here
supports that demonstration: it generates untiled traces whose simulated
miss rates stay flat up to ``N = C_s / 2`` and degrade beyond (see
``experiments.section1``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.ir.stencil import JACOBI_2D
from repro.layout.array import ArraySpec, allocate
from repro.trace.generator import Ref, TraceChunk, trace_chunks

__all__ = ["Jacobi2D"]


class Jacobi2D:
    """4-point stencil ``A(I,J) = C * (B(I±1,J) + B(I,J±1))``."""

    mi = JACOBI_2D.mi
    mj = JACOBI_2D.mj
    reads = 4
    writes = 1
    flops = 4

    def __init__(self, n: int, m: int | None = None, elem_bytes: int = 8):
        if n < 3:
            raise ConfigurationError(f"N must be >= 3, got {n}")
        self.n = n                      # column length (I extent)
        self.m = m if m is not None else n  # number of columns (J extent)
        if self.m < 3:
            raise ConfigurationError(f"M must be >= 3, got {self.m}")
        self.elem_bytes = elem_bytes

    def specs(self, di_p: int | None = None) -> dict[str, ArraySpec]:
        di = di_p if di_p is not None else self.n
        return allocate([("B", di, self.m, 1), ("A", di, self.m, 1)],
                        elem_bytes=self.elem_bytes)

    def refs(self, specs: dict[str, ArraySpec]) -> list[Ref]:
        b, a = specs["B"], specs["A"]
        reads = [Ref(b, o[0], o[1], 0) for o in JACOBI_2D.offsets]
        return reads + [Ref(a, 0, 0, 0, is_write=True)]

    def iter_chunks(self) -> Iterator:
        """Figure 1 order: J outer, I inner; one chunk per column block."""
        i = np.arange(2, self.n, dtype=np.int64)
        k = np.ones(i.size, dtype=np.int64)  # K == 1 (2D)
        for j in range(2, self.m):
            yield i, np.full(i.size, j, dtype=np.int64), k

    def trace(self, di_p: int | None = None) -> Iterator[TraceChunk]:
        return trace_chunks(self.iter_chunks(), self.refs(self.specs(di_p)))

    def interior_points(self) -> int:
        return (self.n - 2) * (self.m - 2)

    # ------------------------------------------------------------------
    @staticmethod
    def step_reference(a: np.ndarray, b: np.ndarray, c: float = 0.25) -> None:
        a[1:-1, 1:-1] = c * (b[:-2, 1:-1] + b[2:, 1:-1] +
                             b[1:-1, :-2] + b[1:-1, 2:])
