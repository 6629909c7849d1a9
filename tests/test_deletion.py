"""Tests for index deletion and engine-level source removal.

Deleting a source repacks the index without the source's rows, so the
store after a removal must be a complete, tight tree over exactly the
remaining entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GeneFeatureDatabase, GeneFeatureMatrix, IMGRNEngine
from repro.errors import IndexNotBuiltError, UnknownGeneError
from repro.index.bitvector import signature
from repro.index.invertedfile import SOURCE_SALT

from conftest import TEST_CONFIG, assert_store_invariants, store_search

M = TEST_CONFIG.rstar_max_entries


def whole_space(store) -> list[int]:
    """Every entry row a range walk over the store's node MBRs reaches."""
    return store_search(
        store, np.full(store.dim, -np.inf), np.full(store.dim, np.inf)
    )


def entry_keys(store, rows) -> list[tuple[int, int]]:
    """``(source, gene)`` of each entry row, sorted."""
    return sorted(
        (int(store.entry_source_ids[row]), int(store.entry_gene_ids[row]))
        for row in rows
    )


class TestTreeDeletion:
    @pytest.fixture()
    def engine(self, small_database):
        engine = IMGRNEngine(GeneFeatureDatabase(iter(small_database)), TEST_CONFIG)
        engine.build()
        return engine

    def width(self, engine, source) -> int:
        return engine.database.get(source).num_genes

    def test_delete_reduces_size_and_keeps_invariants(self, engine):
        before = len(engine.array_index)
        victims = engine.database.source_ids[3], engine.database.source_ids[17]
        for victim in victims:
            engine.remove_matrix(victim)
        assert len(engine.array_index) == before - sum(
            self.width(engine, v) for v in victims
        )
        assert_store_invariants(engine.array_index, M)

    def test_deleted_entry_not_searchable(self, engine):
        victim = engine.database.source_ids[5]
        store = engine.array_index
        victim_points = store.entry_points[store.entry_source_ids == victim].copy()
        remaining = len(store) - self.width(engine, victim)
        engine.remove_matrix(victim)
        store = engine.array_index
        rows = whole_space(store)
        assert len(rows) == remaining
        assert victim not in set(store.entry_source_ids[rows].tolist())
        for point in victim_points:
            hits = store_search(store, point, point)
            assert victim not in set(store.entry_source_ids[hits].tolist())

    def test_delete_missing_payload_returns_false(self, engine):
        fingerprint = engine.array_index.fingerprint()
        with pytest.raises(UnknownGeneError):
            engine.remove_matrix(424242)
        # A rejected removal leaves the index untouched.
        assert engine.array_index.fingerprint() == fingerprint
        victim = engine.database.source_ids[0]
        engine.remove_matrix(victim)
        fingerprint = engine.array_index.fingerprint()
        with pytest.raises(UnknownGeneError):
            engine.remove_matrix(victim)  # already gone
        assert engine.array_index.fingerprint() == fingerprint

    def test_delete_everything(self, engine, rng):
        order = list(engine.database.source_ids)
        rng.shuffle(order)
        for victim in order:
            engine.remove_matrix(victim)
            assert_store_invariants(engine.array_index, M)
        assert len(engine.array_index) == 0
        assert whole_space(engine.array_index) == []

    def test_delete_then_insert_roundtrip(self, engine):
        original = list(engine.database)
        before = len(engine.array_index)
        victim = original[4]
        engine.remove_matrix(victim.source_id)
        back = GeneFeatureMatrix(victim.values, victim.gene_ids, source_id=9001)
        engine.add_matrix(back)
        assert len(engine.array_index) == before
        assert_store_invariants(engine.array_index, M)
        # The store equals a fresh build over the same sources.
        fresh = IMGRNEngine(
            GeneFeatureDatabase([m for m in original if m is not victim] + [back]),
            TEST_CONFIG,
        )
        fresh.build()
        assert engine.array_index.fingerprint() == fresh.array_index.fingerprint()

    def test_search_oracle_after_random_deletes(self, engine, rng):
        store = engine.array_index
        points = store.entry_points.copy()
        sources = store.entry_source_ids.copy()
        genes = store.entry_gene_ids.copy()
        removed = set(
            rng.choice(engine.database.source_ids, size=10, replace=False).tolist()
        )
        for victim in removed:
            engine.remove_matrix(victim)
        store = engine.array_index
        assert_store_invariants(store, M)
        kept = ~np.isin(sources, list(removed))
        for _ in range(15):
            a, b = points[rng.choice(len(points), size=2, replace=False)]
            low, high = np.minimum(a, b), np.maximum(a, b)
            inside = (
                kept & np.all(points >= low, axis=1) & np.all(points <= high, axis=1)
            )
            expected = sorted(zip(sources[inside].tolist(), genes[inside].tolist()))
            assert entry_keys(store, store_search(store, low, high)) == expected

    def test_root_collapse(self, engine):
        height = engine.array_index.height
        assert height > 1
        sources = engine.database.source_ids
        for victim in sources[:20]:
            engine.remove_matrix(victim)
        store = engine.array_index
        assert_store_invariants(store, M)
        assert store.height < height
        assert len(store) == sum(self.width(engine, s) for s in sources[20:])

    def test_signatures_recomputed_after_finalized_delete(self, engine):
        victim = engine.database.source_ids[7]
        engine.remove_matrix(victim)
        store = engine.array_index
        bits = store.bitvector_bits
        # The root's signatures hold exactly the remaining sources and
        # genes: nothing stale from the removed source.
        vd = vf = 0
        for source in set(store.entry_source_ids.tolist()):
            vd |= signature(source, bits, SOURCE_SALT)
        for gene in set(store.entry_gene_ids.tolist()):
            vf |= signature(gene, bits)
        assert victim not in set(store.entry_source_ids.tolist())
        assert store.node_vd(0) == vd
        assert store.node_vf(0) == vf
        assert_store_invariants(store, M)


class TestEngineRemoval:
    @pytest.fixture()
    def fresh_engine(self, small_database):
        from repro import GeneFeatureDatabase

        engine = IMGRNEngine(GeneFeatureDatabase(iter(small_database)), TEST_CONFIG)
        engine.build()
        return engine

    def test_removed_source_never_answers(self, fresh_engine, query_workload):
        query = query_workload[0]
        target = query.source_id
        before = fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources()
        assert target in before
        fresh_engine.remove_matrix(target)
        after = fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources()
        assert target not in after
        assert set(after) <= set(before)

    def test_other_sources_unaffected(self, fresh_engine, query_workload):
        query = query_workload[1]
        before = set(fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources())
        victim = next(
            s for s in fresh_engine.database.source_ids
            if s not in before and s != query.source_id
        )
        fresh_engine.remove_matrix(victim)
        assert_store_invariants(
            fresh_engine.array_index, TEST_CONFIG.rstar_max_entries
        )
        after = set(fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources())
        assert after == before

    def test_remove_unknown_source(self, fresh_engine):
        with pytest.raises(UnknownGeneError):
            fresh_engine.remove_matrix(424242)

    def test_remove_before_build(self, small_database):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        with pytest.raises(IndexNotBuiltError):
            engine.remove_matrix(0)

    def test_tree_shrinks_by_matrix_width(self, fresh_engine):
        source = fresh_engine.database.source_ids[0]
        width = fresh_engine.database.get(source).num_genes
        before = len(fresh_engine.array_index)
        fresh_engine.remove_matrix(source)
        assert len(fresh_engine.array_index) == before - width

    def test_add_then_remove_is_noop_for_queries(
        self, fresh_engine, query_workload
    ):
        from repro.config import SyntheticConfig
        from repro.data.synthetic import generate_matrix

        new_matrix = generate_matrix(
            SyntheticConfig(
                genes_range=(10, 14), samples_range=(8, 12), gene_pool=50, seed=99
            ),
            source_id=777,
            rng=np.random.default_rng(99),
        )
        baseline = [
            fresh_engine.query(q, gamma=0.5, alpha=0.2).answer_sources()
            for q in query_workload
        ]
        fresh_engine.add_matrix(new_matrix)
        fresh_engine.remove_matrix(777)
        assert_store_invariants(
            fresh_engine.array_index, TEST_CONFIG.rstar_max_entries
        )
        after = [
            fresh_engine.query(q, gamma=0.5, alpha=0.2).answer_sources()
            for q in query_workload
        ]
        assert after == baseline
