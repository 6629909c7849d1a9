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
from repro.index.bitvector import signature
from repro.index.invertedfile import SOURCE_SALT
from repro.index.packer import min_fanout

#: One engine configuration shared by the integration tests (small MC count
#: keeps the suite fast; determinism comes from the content-keyed streams).
TEST_CONFIG = EngineConfig(mc_samples=64, seed=11)


def assert_store_invariants(store, max_entries: int) -> None:
    """Structural invariants of an STR-packed :class:`ArrayStore`.

    Every node but the root holds ``[m, M]`` children; each child sits
    one level below its parent; every MBR is the exact min/max of what it
    covers; a leaf's ``V_f`` / ``V_d`` are the OR of its entries'
    signatures, and every child's signature bits are within its parent's.
    """
    bits = store.bitvector_bits
    for node in range(store.num_nodes):
        start = int(store.node_child_start[node])
        stop = start + int(store.node_child_count[node])
        level = int(store.node_levels[node])
        assert stop - start <= max_entries, node
        if node:
            assert stop - start >= min_fanout(max_entries), node
        if stop == start:  # the empty index: one childless root
            assert store.num_nodes == 1 and store.num_entries == 0
            continue
        if level == 0:
            lows = highs = store.entry_points[start:stop]
            vf = vd = 0
            for row in range(start, stop):
                vf |= signature(int(store.entry_gene_ids[row]), bits)
                vd |= signature(int(store.entry_source_ids[row]), bits, SOURCE_SALT)
            assert store.node_vf(node) == vf and store.node_vd(node) == vd
        else:
            assert (store.node_levels[start:stop] == level - 1).all()
            lows = store.node_lows[start:stop]
            highs = store.node_highs[start:stop]
            for child in range(start, stop):
                assert store.node_vf(child) & ~store.node_vf(node) == 0
                assert store.node_vd(child) & ~store.node_vd(node) == 0
        assert store.node_lows[node].tobytes() == lows.min(axis=0).tobytes()
        assert store.node_highs[node].tobytes() == highs.max(axis=0).tobytes()


def store_search(store, low, high, index: int = 0) -> list[int]:
    """Entry rows of ``store`` whose point lies in the closed box
    ``[low, high]``, found by walking the tree through its node MBRs.

    A recursive depth-first walk that descends only into children whose
    box meets the query box, so it finds every point in the box exactly
    when each node's MBR encloses its subtree.
    """
    start = int(store.node_child_start[index])
    stop = start + int(store.node_child_count[index])
    if store.node_levels[index] == 0:
        points = store.entry_points[start:stop]
        inside = np.all(points >= low, axis=1) & np.all(points <= high, axis=1)
        return [start + int(i) for i in np.nonzero(inside)[0]]
    rows: list[int] = []
    for child in range(start, stop):
        if np.all(store.node_lows[child] <= high) and np.all(
            low <= store.node_highs[child]
        ):
            rows += store_search(store, low, high, child)
    return rows


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
