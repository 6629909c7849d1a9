"""Integration tests for engine extensions: top-k, incremental insert,
anchor strategies, and the faithful Baseline materialization."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.query as query_module
from repro import BaselineEngine, EngineConfig, GeneFeatureDatabase, IMGRNEngine
from repro.data.synthetic import generate_matrix
from repro.config import SyntheticConfig
from repro.errors import IndexNotBuiltError, ValidationError

from conftest import TEST_CONFIG, assert_store_invariants


class TestQueryTopK:
    def test_topk_subset_of_unfiltered(self, built_engine, query_workload):
        query = query_workload[0]
        all_answers = built_engine.query(query, gamma=0.5, alpha=0.0)
        top2 = built_engine.query_topk(query, gamma=0.5, k=2)
        assert len(top2.answers) <= 2
        assert set(top2.answer_sources()) <= set(all_answers.answer_sources())

    def test_topk_takes_highest_probabilities(self, built_engine, query_workload):
        # Pick a workload query matching at least 2 sources (a low gamma
        # guarantees multi-source matches on overlapping gene sets).
        query, all_answers = None, []
        for candidate in query_workload:
            answers = built_engine.query(candidate, gamma=0.2, alpha=0.0).answers
            if len(answers) >= 2:
                query, all_answers = candidate, answers
                break
        assert query is not None, "workload should contain a multi-match query"
        k = max(1, len(all_answers) - 1)
        top = built_engine.query_topk(query, gamma=0.2, k=k).answers
        best_probs = sorted((a.probability for a in all_answers), reverse=True)
        assert [a.probability for a in top] == best_probs[:k]

    def test_topk_sorted_descending(self, built_engine, query_workload):
        top = built_engine.query_topk(query_workload[1], gamma=0.5, k=5).answers
        probs = [a.probability for a in top]
        assert probs == sorted(probs, reverse=True)

    def test_k_domain(self, built_engine, query_workload):
        with pytest.raises(ValidationError):
            built_engine.query_topk(query_workload[0], gamma=0.5, k=0)


class TestAddMatrix:
    @pytest.fixture()
    def engine_and_new_matrix(self, small_database):
        # A fresh engine (the session-scoped one must stay pristine).
        engine = IMGRNEngine(small_database_copy(small_database), TEST_CONFIG)
        engine.build()
        new_matrix = generate_matrix(
            SyntheticConfig(
                genes_range=(10, 14), samples_range=(8, 12), gene_pool=50, seed=77
            ),
            source_id=500,
            rng=np.random.default_rng(77),
        )
        return engine, new_matrix

    def test_incremental_equals_full_rebuild_answers(
        self, engine_and_new_matrix, query_workload
    ):
        engine, new_matrix = engine_and_new_matrix
        engine.add_matrix(new_matrix)
        assert_store_invariants(engine.array_index, engine.config.rstar_max_entries)

        rebuilt = IMGRNEngine(engine.database, TEST_CONFIG)
        rebuilt.build()
        for query in query_workload:
            incremental = engine.query(query, gamma=0.5, alpha=0.2).answer_sources()
            full = rebuilt.query(query, gamma=0.5, alpha=0.2).answer_sources()
            assert incremental == full

    def test_new_source_becomes_findable(self, engine_and_new_matrix):
        engine, new_matrix = engine_and_new_matrix
        engine.add_matrix(new_matrix)
        # Query cut from the new matrix must match it.
        query = new_matrix.submatrix(list(new_matrix.gene_ids[:3]))
        result = engine.query(query, gamma=0.5, alpha=0.0)
        assert 500 in result.answer_sources()

    def test_tree_size_grows(self, engine_and_new_matrix):
        engine, new_matrix = engine_and_new_matrix
        before = len(engine.array_index)
        engine.add_matrix(new_matrix)
        assert len(engine.array_index) == before + new_matrix.num_genes

    def test_duplicate_source_rejected(self, engine_and_new_matrix):
        engine, new_matrix = engine_and_new_matrix
        engine.add_matrix(new_matrix)
        with pytest.raises(ValidationError):
            engine.add_matrix(new_matrix)

    def test_requires_built_index(self, small_database):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        matrix = next(iter(small_database))
        with pytest.raises(IndexNotBuiltError):
            engine.add_matrix(matrix)

    def test_rejected_arrival_leaves_engine_unchanged(
        self, small_database, monkeypatch
    ):
        # Every small_database source has at most 16 genes; an arrival of
        # 20 cannot be keyed under a 16-gene payload limit.
        monkeypatch.setattr(query_module, "_PAYLOAD_GENE_LIMIT", 16)
        engine = IMGRNEngine(small_database_copy(small_database), TEST_CONFIG)
        engine.build()

        def state():
            inverted = engine.inverted_file
            return (
                engine.database.source_ids,
                list(engine._entries),
                {
                    gene: (inverted.sources_signature(gene), inverted.sources_of(gene))
                    for gene in range(60)
                    if gene in inverted
                },
                engine.array_index.fingerprint(),
            )

        before = state()
        synthetic = SyntheticConfig(
            genes_range=(20, 20), samples_range=(8, 12), gene_pool=50, seed=3
        )
        too_wide = generate_matrix(synthetic, 900, rng=np.random.default_rng(3))
        with pytest.raises(ValidationError, match="genes per source"):
            engine.add_matrix(too_wide)
        assert state() == before

        fits = generate_matrix(
            replace(synthetic, genes_range=(12, 12)), 901, rng=np.random.default_rng(4)
        )
        engine.add_matrix(fits)
        assert engine.database.source_ids[-1] == 901
        assert 901 in engine.inverted_file.sources_of(fits.gene_ids[0])
        engine.remove_matrix(901)
        engine.remove_matrix(engine.database.source_ids[0])
        assert len(engine.array_index) == sum(
            engine._entries[source].matrix.num_genes for source in engine._entries
        )

    def test_rejected_build_keeps_the_built_index(
        self, small_database, query_workload, monkeypatch
    ):
        monkeypatch.setattr(query_module, "_PAYLOAD_GENE_LIMIT", 16)
        engine = IMGRNEngine(small_database_copy(small_database), TEST_CONFIG)
        engine.build()
        answers = [
            engine.query(q, gamma=0.5, alpha=0.2).answers for q in query_workload
        ]
        fingerprint = engine.array_index.fingerprint()
        synthetic = SyntheticConfig(
            genes_range=(20, 20), samples_range=(8, 12), gene_pool=50, seed=3
        )
        engine.database.add(
            generate_matrix(synthetic, 900, rng=np.random.default_rng(3))
        )
        with pytest.raises(ValidationError, match="genes per source"):
            engine.build()
        assert 900 not in engine._entries
        assert engine.array_index.fingerprint() == fingerprint
        assert [
            engine.query(q, gamma=0.5, alpha=0.2).answers for q in query_workload
        ] == answers


class TestAnchorStrategies:
    @pytest.mark.parametrize("strategy", ["highest_degree", "random", "first"])
    def test_same_answers_for_every_anchor(
        self, small_database, query_workload, strategy
    ):
        engine = IMGRNEngine(
            small_database, TEST_CONFIG.with_(anchor_strategy=strategy)
        )
        engine.build()
        reference = IMGRNEngine(small_database, TEST_CONFIG)
        reference.build()
        for query in query_workload:
            assert (
                engine.query(query, gamma=0.5, alpha=0.2).answer_sources()
                == reference.query(query, gamma=0.5, alpha=0.2).answer_sources()
            )

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValidationError):
            EngineConfig(anchor_strategy="psychic")


class TestBaselineMaterialization:
    def test_materialized_grn_matches_direct_inference(self, small_database):
        """The Baseline's thresholded store equals infer_grn edge-for-edge."""
        from repro.core.inference import EdgeProbabilityEstimator, infer_grn

        baseline = BaselineEngine(small_database, TEST_CONFIG)
        baseline.build()
        matrix = next(iter(small_database))
        estimator = EdgeProbabilityEstimator(
            n_samples=TEST_CONFIG.mc_samples, seed=TEST_CONFIG.seed
        )
        store = baseline._store[matrix.source_id]
        materialized = BaselineEngine._materialize_grn(matrix, store, 0.5)
        # pair_probability and the store share content-keyed streams, so
        # the graphs agree exactly.
        direct_edges = {}
        for s in range(matrix.num_genes):
            for t in range(s + 1, matrix.num_genes):
                p = estimator.pair_probability(
                    matrix.values[:, s], matrix.values[:, t]
                )
                if p > 0.5:
                    key = tuple(
                        sorted((matrix.gene_ids[s], matrix.gene_ids[t]))
                    )
                    direct_edges[key] = p
        assert dict(materialized.edges()) == pytest.approx(direct_edges)
        _ = infer_grn  # referenced for readers; equivalence shown above

    def test_candidates_equal_database_size(self, small_database, query_workload):
        baseline = BaselineEngine(small_database, TEST_CONFIG)
        baseline.build()
        result = baseline.query(query_workload[0], gamma=0.5, alpha=0.5)
        assert result.stats.candidates == len(small_database)


def small_database_copy(database: GeneFeatureDatabase) -> GeneFeatureDatabase:
    """A structurally identical database instance safe to mutate."""
    return GeneFeatureDatabase(iter(database))
