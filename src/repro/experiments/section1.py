"""Section 1 verification: where 2D keeps reuse and 3D loses it.

Three claims from the paper's introduction, checked both analytically
(:mod:`repro.core.capacity`) and by direct simulation:

* a 16K L1 (2048 doubles) preserves 2D Jacobi group reuse up to
  **1024 x M** arrays;
* the same cache preserves 3D Jacobi group reuse only up to
  **32 x 32 x M**;
* a 2M L2 (262144 doubles) loses 3D group reuse past **362 x 362 x M**.

Simulated verification uses a *fully associative* cache of the same
capacity so the boundary is purely a capacity effect (direct-mapped
conflicts blur the edge, which is the paper's Section 3 subject). The
observable: the trailing reference ``B(I, J, K-1)`` hits when reuse is
preserved, misses when the planes no longer fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.params import CacheParams
from repro.core.capacity import max_2d_column_len, max_3d_plane_len
from repro.kernels.jacobi2d import Jacobi2D
from repro.kernels.jacobi3d import Jacobi3D
from repro.types import SelectionResult

__all__ = ["CapacityCheck", "section1_thresholds", "verify_boundary_3d",
           "verify_boundary_2d", "trailing_ref_hit_rate"]


@dataclass(frozen=True)
class CapacityCheck:
    """Analytical thresholds for the paper's two cache sizes."""

    l1_capacity: int = 2048
    l2_capacity: int = 262144

    @property
    def max_2d_l1(self) -> int:
        return max_2d_column_len(self.l1_capacity)      # 1024

    @property
    def max_3d_l1(self) -> int:
        return max_3d_plane_len(self.l1_capacity)       # 32

    @property
    def max_3d_l2(self) -> int:
        return max_3d_plane_len(self.l2_capacity)       # 362


def section1_thresholds() -> CapacityCheck:
    return CapacityCheck()


def trailing_ref_hit_rate(kernel, cache,
                          trailing_index: int) -> float:
    """Fraction of trailing-reference accesses that hit in ``cache``.

    ``trailing_index`` selects which reference of the kernel's list is
    the trailing one (reuse beneficiary).
    """
    if isinstance(kernel, Jacobi2D):
        tr = kernel.trace()
    else:
        sel = SelectionResult(strategy="Orig", tile=None,
                              di_p=kernel.n, dj_p=kernel.n)
        tr = kernel.trace(sel)
    hits = 0
    total = 0
    nreads = _refs_per_iter(kernel) - 1  # one write per iteration
    for chunk in tr:
        # Write-around (the paper's assumption): the write to A never
        # enters the cache, so only read references are simulated.
        miss = cache.access(chunk.read_addresses)
        lane = miss.reshape(-1, nreads)[:, trailing_index]
        hits += int((~lane).sum())
        total += lane.size
    return hits / total if total else 0.0


def _refs_per_iter(kernel) -> int:
    if isinstance(kernel, Jacobi2D):
        return kernel.reads + kernel.writes
    return kernel.meta.reads + kernel.meta.writes


def _element_grain_dm(capacity_elements: int,
                      elem_bytes: int = 8) -> CacheParams:
    """Direct-mapped cache with one element per line.

    The paper's two-columns/two-planes argument is a *direct-mapped*
    property: the live window spans ``2N`` (or ``2N^2``) consecutive
    addresses, which map to distinct sets whenever the span is below the
    capacity. (A fully associative LRU cache actually needs ~3 columns —
    the window of distinct elements between first and last touch — so it
    is the wrong model for this check.)
    """
    size = capacity_elements * elem_bytes
    return CacheParams(size_bytes=size, line_bytes=elem_bytes, assoc=1,
                       name="DM")


def verify_boundary_2d(capacity_elements: int = 2048,
                       elem_bytes: int = 8) -> dict[int, float]:
    """Trailing-ref hit rates for 2D Jacobi around N = capacity/2.

    Well below the bound the trailing reference hits essentially always;
    above it, essentially never.
    """
    bound = max_2d_column_len(capacity_elements)  # 1024 for the 16K L1
    rates = {}
    for n in (bound // 2, bound - 24, bound + 76, 2 * bound):
        kern = Jacobi2D(n, 24, elem_bytes=elem_bytes)
        cache = DirectMappedCache(_element_grain_dm(capacity_elements,
                                                    elem_bytes))
        # Trailing read is B(I, J-1): index 2 in JACOBI_2D offset order.
        rates[n] = trailing_ref_hit_rate(kern, cache, 2)
    return rates


def verify_boundary_3d(capacity_elements: int = 2048,
                       elem_bytes: int = 8) -> dict[int, float]:
    """Trailing-ref hit rates for 3D Jacobi around N = sqrt(capacity/2)."""
    bound = max_3d_plane_len(capacity_elements)  # 32 for the 16K L1
    rates = {}
    for n in (bound - 4, bound + 4, 2 * bound):
        kern = Jacobi3D(n, 12, elem_bytes=elem_bytes)
        cache = DirectMappedCache(_element_grain_dm(capacity_elements,
                                                    elem_bytes))
        # Trailing read is B(I, J, K-1): index 4 in JACOBI_3D offset order.
        rates[n] = trailing_ref_hit_rate(kern, cache, 4)
    return rates
