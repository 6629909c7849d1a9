"""Tests for STR bulk loading (the packer) and best-first kNN search."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IMGRNEngine, LinearScanEngine
from repro.errors import ValidationError
from repro.index.packer import str_pack
from repro.index.pagemanager import PageManager

from conftest import TEST_CONFIG, assert_store_invariants


def pack(points, max_entries=16):
    rows = np.arange(points.shape[0])
    return str_pack(
        points, rows, rows % 3, rows, max_entries=max_entries, bitvector_bits=64
    )


class TestBulkLoad:
    @pytest.mark.parametrize("n", [1, 4, 5, 17, 100, 333])
    def test_invariants_at_many_sizes(self, rng, n):
        store = pack(rng.normal(size=(n, 3)), max_entries=8)
        assert_store_invariants(store, 8)
        assert len(store) == n

    def test_search_matches_brute_force(self, rng):
        points = rng.uniform(0, 10, size=(400, 4))
        store = pack(points, max_entries=8)
        for _ in range(15):
            low = rng.uniform(0, 8, size=4)
            high = low + rng.uniform(0.5, 4.0, size=4)
            found = sorted(
                int(store.entry_payloads[row]) for row in store.search(low, high)
            )
            expected = sorted(
                i
                for i in range(400)
                if np.all(points[i] >= low) and np.all(points[i] <= high)
            )
            assert found == expected

    def test_duplicate_points(self, rng):
        points = np.repeat(rng.normal(size=(5, 2)), 30, axis=0)
        store = pack(points, max_entries=6)
        assert_store_invariants(store, 6)
        assert len(store) == 150

    def test_rejects_wrong_dim(self, rng):
        with pytest.raises(ValidationError):
            str_pack(
                rng.normal(size=5), [0], [0], [0], max_entries=8, bitvector_bits=64
            )

    def test_empty_load_is_noop(self):
        store = pack(np.empty((0, 2)))
        assert len(store) == 0
        assert store.num_nodes == 1

    def test_engine_bulk_build_same_answers(self, small_database, query_workload):
        packed = IMGRNEngine(small_database, TEST_CONFIG)
        packed.build()
        assert_store_invariants(packed.array_index, TEST_CONFIG.rstar_max_entries)
        scan = LinearScanEngine(small_database, TEST_CONFIG)
        scan.build()
        for query in query_workload:
            assert (
                packed.query(query, gamma=0.5, alpha=0.2).answer_sources()
                == scan.query(query, gamma=0.5, alpha=0.2).answer_sources()
            )


class TestNearest:
    def test_matches_brute_force(self, rng):
        points = rng.normal(size=(300, 3))
        store = pack(points, max_entries=8)
        for _ in range(10):
            probe = rng.normal(size=3)
            found = store.nearest(probe, k=5)
            assert len(found) == 5
            distances = np.linalg.norm(points - probe, axis=1)
            expected = np.sort(distances)[:5]
            np.testing.assert_allclose(
                [d for d, _row in found], expected, rtol=1e-9
            )

    def test_sorted_by_distance(self, rng):
        store = pack(rng.normal(size=(100, 2)))
        dists = [d for d, _row in store.nearest(np.zeros(2), k=10)]
        assert dists == sorted(dists)

    def test_k_larger_than_tree(self, rng):
        store = pack(rng.normal(size=(7, 2)))
        assert len(store.nearest(np.zeros(2), k=50)) == 7

    def test_exact_hit_is_first(self, rng):
        points = rng.normal(size=(50, 3))
        store = pack(points)
        dist, row = store.nearest(points[13], k=1)[0]
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert store.entry_payloads[row] == 13

    def test_empty_tree(self):
        assert pack(np.empty((0, 2))).nearest(np.zeros(2), k=3) == []

    def test_domain_checks(self):
        store = pack(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(2), k=0)
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(3), k=1)

    def test_charges_io(self, rng):
        store = pack(rng.normal(size=(200, 2)), max_entries=6)
        pages = PageManager()
        pages.reserve(store.pages_allocated)
        counter = pages.counter()
        store.nearest(np.zeros(2), k=3, pages=counter)
        assert counter.accesses >= 1
        # Best-first expands far fewer nodes than a full scan.
        assert counter.accesses < store.num_nodes
