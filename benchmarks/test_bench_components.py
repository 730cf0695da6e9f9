"""Component micro-benchmarks: simulator throughput, kernels, selection.

Not paper figures — these track the performance of the reproduction's
own machinery (the vectorized cache simulator is what makes full-trace
reproduction feasible in Python).
"""

import numpy as np
import pytest

from repro.cache import CacheHierarchy, DirectMappedCache, ULTRASPARC2_L1, ULTRASPARC2_L2
from repro.kernels import Jacobi3D, RedBlack3D, Resid
from repro.types import SelectionResult, TileSize


@pytest.fixture(scope="module")
def random_trace():
    rng = np.random.default_rng(0)
    return rng.integers(0, 1 << 22, size=2_000_000) * 8


def test_direct_mapped_throughput(benchmark, random_trace):
    """Accesses/second of the vectorized direct-mapped simulator."""
    dm = DirectMappedCache(ULTRASPARC2_L1)
    benchmark(dm.access, random_trace)


def test_hierarchy_throughput(benchmark, random_trace):
    h = CacheHierarchy([ULTRASPARC2_L1, ULTRASPARC2_L2])
    benchmark(h.access, random_trace)


def test_trace_generation_throughput(benchmark):
    """JACOBI trace generation (no simulation) at N=200."""
    kern = Jacobi3D(200, 8)
    sel = SelectionResult(strategy="Orig", tile=None, di_p=200, dj_p=200)

    def gen():
        total = 0
        for c in kern.trace(sel):
            total += c.addresses.size
        return total

    total = benchmark(gen)
    assert total == kern.interior_points() * 7


def test_jacobi_numeric_sweep(benchmark):
    """Wall-clock of the vectorized numeric kernel (96^3)."""
    kern = Jacobi3D(96, 96)
    a, b = kern.init_state()
    benchmark(kern.step_reference, a, b)


def test_jacobi_numeric_sweep_tiled(benchmark):
    kern = Jacobi3D(96, 96)
    a, b = kern.init_state()
    benchmark(kern.step_tiled, a, b, 30, 14)


def test_redblack_numeric_sweep(benchmark):
    kern = RedBlack3D(64, 64)
    a = kern.init_state()
    benchmark(kern.step_naive, a)


def test_resid_numeric_sweep(benchmark):
    kern = Resid(64, 64)
    u, v, r = kern.init_state()
    benchmark(kern.step_reference, r, u, v)


def test_pad_search_speed(benchmark):
    """Pad's bounded search (Figure 11) across a spread of sizes."""
    from repro.core.euc3d import _frontier_cached
    from repro.core.pad import pad

    def run():
        _frontier_cached.cache_clear()
        for n in (211, 297, 341):
            pad(2048, n, n, atd=3)

    benchmark.pedantic(run, rounds=3, iterations=1)
