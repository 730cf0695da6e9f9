"""repro: tiling optimizations for 3D scientific computations.

A complete reproduction of Rivera & Tseng, *Tiling Optimizations for 3D
Scientific Computations* (SC'00): tile-size selection (Euc3D), padding
heuristics (GcdPad, Pad), the stencil kernels they were evaluated on
(3D Jacobi, fused red-black SOR, MGRID's 27-point RESID), a trace-driven
multi-level cache simulator, a loop-nest transformation IR, a multigrid
solver, and the experiment harness regenerating every table and figure.

Quick start::

    from repro import select, simulate_kernel

    # Pick a tile + padding for a 300x300xM float64 array, 16K L1.
    result = select("GcdPad", cs=2048, di=300, dj=300)
    print(result.tile, result.di_p, result.dj_p)

    # Simulate the paper's JACOBI kernel under that transformation.
    point = simulate_kernel("JACOBI", "GcdPad", n=300)
    print(point.l1_rate, point.mflops)
"""

from repro.types import ArrayTile, PadResult, SelectionResult, TileSize
from repro.errors import ReproError
from repro.core import (
    cost,
    euc3d,
    gcdpad,
    pad,
    select,
    square_tile,
)
from repro.cache import (
    AssocScanCache,
    CacheHierarchy,
    CacheParams,
    DirectMappedCache,
    EngineSupport,
    SetAssociativeCache,
    ULTRASPARC2_L1,
    ULTRASPARC2_L2,
    build_simulator,
)
from repro.kernels import KERNELS, Jacobi2D, Jacobi3D, RedBlack3D, Resid, Schedule
from repro.layout import ArraySpec
from repro.multigrid import GridHierarchy, MGSolver
from repro.perfmodel import MachineModel, ULTRASPARC2_360, ULTRASPARC2_450
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_point as simulate_kernel
from repro.resilience import PointBudget

__version__ = "1.0.0"

__all__ = [
    "ArraySpec",
    "ArrayTile",
    "AssocScanCache",
    "CacheHierarchy",
    "CacheParams",
    "PointBudget",
    "DirectMappedCache",
    "EngineSupport",
    "ExperimentConfig",
    "GridHierarchy",
    "Jacobi2D",
    "Jacobi3D",
    "KERNELS",
    "MachineModel",
    "MGSolver",
    "PadResult",
    "RedBlack3D",
    "ReproError",
    "Resid",
    "Schedule",
    "SelectionResult",
    "SetAssociativeCache",
    "TileSize",
    "ULTRASPARC2_360",
    "ULTRASPARC2_450",
    "ULTRASPARC2_L1",
    "ULTRASPARC2_L2",
    "build_simulator",
    "cost",
    "euc3d",
    "gcdpad",
    "pad",
    "select",
    "simulate_kernel",
    "square_tile",
]
