"""Shared fixtures: small deterministic databases, engines and workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BaselineEngine,
    EngineConfig,
    GeneFeatureDatabase,
    GeneFeatureMatrix,
    IMGRNEngine,
)
from repro.config import SyntheticConfig
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database

#: One engine configuration shared by the integration tests (small MC count
#: keeps the suite fast; determinism comes from the content-keyed streams).
TEST_CONFIG = EngineConfig(mc_samples=64, seed=11)


def make_small_database() -> GeneFeatureDatabase:
    """A 24-matrix synthetic database with overlapping gene sets."""
    config = SyntheticConfig(
        genes_range=(10, 16),
        samples_range=(8, 14),
        gene_pool=50,
        seed=11,
    )
    return generate_database(config, 24)


def make_query_workload(
    database: GeneFeatureDatabase,
) -> list[GeneFeatureMatrix]:
    """Five connected 3-gene queries cut from ``database``."""
    return generate_query_workload(
        database, n_q=3, count=5, rng=11, threshold=0.5
    )


@pytest.fixture(scope="session")
def small_database() -> GeneFeatureDatabase:
    """A 24-matrix synthetic database with overlapping gene sets."""
    return make_small_database()


@pytest.fixture(scope="session")
def built_engine(small_database: GeneFeatureDatabase) -> IMGRNEngine:
    """The indexed engine over ``small_database`` (built once per session)."""
    engine = IMGRNEngine(small_database, TEST_CONFIG)
    engine.build()
    return engine


@pytest.fixture(scope="session")
def baseline_engine(small_database: GeneFeatureDatabase) -> BaselineEngine:
    """The exhaustive reference engine over ``small_database``."""
    engine = BaselineEngine(small_database, TEST_CONFIG)
    engine.build()
    return engine


@pytest.fixture(scope="session")
def query_workload(small_database: GeneFeatureDatabase) -> list[GeneFeatureMatrix]:
    """Five connected 3-gene queries cut from ``small_database``."""
    return make_query_workload(small_database)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(2024)
