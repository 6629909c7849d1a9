"""Tests for STR bulk loading (the packer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IMGRNEngine, LinearScanEngine
from repro.errors import ValidationError
from repro.index.packer import str_pack

from conftest import TEST_CONFIG, assert_store_invariants, store_search


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
                int(store.entry_payloads[row])
                for row in store_search(store, low, high)
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
