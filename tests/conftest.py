"""Shared fixtures for the test suite (helpers: ``tests/helpers.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.params import CacheParams
from repro.experiments.config import ExperimentConfig
from repro.perfmodel.machine import ULTRASPARC2_360


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_l1() -> CacheParams:
    """A 2KB direct-mapped cache (256 doubles) for fast exact sims."""
    return CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1")


@pytest.fixture
def tiny_l2() -> CacheParams:
    """A 64KB direct-mapped second level."""
    return CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2")


@pytest.fixture
def tiny_config(tiny_l1, tiny_l2) -> ExperimentConfig:
    """Experiment config scaled down ~8x so sweeps run in milliseconds."""
    return ExperimentConfig(l1=tiny_l1, l2=tiny_l2,
                            machine=ULTRASPARC2_360, nk=8)

