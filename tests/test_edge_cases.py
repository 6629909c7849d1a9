"""Edge-case and failure-injection battery across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EngineConfig,
    GeneFeatureDatabase,
    GeneFeatureMatrix,
    IMGRNEngine,
)
from repro.core.inference import edge_probability
from repro.data.queries import extract_query
from repro.errors import DegenerateVectorError, ValidationError

from conftest import TEST_CONFIG, assert_store_invariants


class TestQueryGenesAbsentFromDatabase:
    def test_query_with_unknown_genes_returns_empty(self, built_engine, rng):
        query = GeneFeatureMatrix(
            rng.normal(size=(10, 3)), [9001, 9002, 9003], 0
        )
        result = built_engine.query(query, gamma=0.5, alpha=0.0)
        assert result.answers == []

    def test_query_with_partially_known_genes(self, built_engine, small_database, rng):
        known = next(iter(small_database)).gene_ids[0]
        query = GeneFeatureMatrix(
            rng.normal(size=(10, 2)), [known, 9999], 0
        )
        result = built_engine.query(query, gamma=0.5, alpha=0.0)
        assert result.answers == []


class TestDegenerateShapes:
    def test_single_source_database(self, rng):
        matrix = GeneFeatureMatrix(
            rng.normal(size=(10, 6)), list(range(6)), 0
        )
        engine = IMGRNEngine(GeneFeatureDatabase([matrix]), TEST_CONFIG)
        engine.build()
        query = matrix.submatrix([0, 1, 2])
        result = engine.query(query, gamma=0.2, alpha=0.0)
        assert result.answer_sources() == [0]

    def test_two_gene_matrices(self, rng):
        matrices = [
            GeneFeatureMatrix(rng.normal(size=(8, 2)), [0, 1], sid)
            for sid in range(5)
        ]
        engine = IMGRNEngine(GeneFeatureDatabase(matrices), TEST_CONFIG)
        engine.build()
        query = matrices[0].submatrix([0, 1])
        result = engine.query(query, gamma=0.2, alpha=0.0)
        assert 0 in result.answer_sources()

    def test_minimum_sample_count(self, rng):
        matrix = GeneFeatureMatrix(rng.normal(size=(3, 4)), list(range(4)), 0)
        engine = IMGRNEngine(GeneFeatureDatabase([matrix]), TEST_CONFIG)
        engine.build()
        result = engine.query(matrix.submatrix([0, 1]), gamma=0.2, alpha=0.0)
        assert result.answer_sources() == [0]

    def test_identical_columns_pair(self, rng):
        """Duplicate probes: distance 0, probability ~1."""
        x = rng.normal(size=12)
        p = edge_probability(x, x.copy(), method="distance", n_samples=100, rng=rng)
        assert p > 0.95

    def test_many_pivots_tiny_matrices(self, rng):
        """d exceeding every matrix width exercises pivot padding."""
        matrices = [
            GeneFeatureMatrix(rng.normal(size=(8, 3)), [0, 1, 2], sid)
            for sid in range(4)
        ]
        engine = IMGRNEngine(
            GeneFeatureDatabase(matrices),
            EngineConfig(num_pivots=4, mc_samples=32, seed=1),
        )
        engine.build()
        assert_store_invariants(engine.array_index, engine.config.rstar_max_entries)
        result = engine.query(matrices[1].submatrix([0, 1]), gamma=0.2, alpha=0.0)
        assert 1 in result.answer_sources()


class TestThresholdExtremes:
    def test_gamma_zero_keeps_all_positive_probability_edges(
        self, built_engine, query_workload
    ):
        result = built_engine.query(query_workload[0], gamma=0.0, alpha=0.0)
        # gamma=0: every pair with p > 0 is a query edge -> dense query.
        n = query_workload[0].num_genes
        assert result.query_graph.num_edges <= n * (n - 1) // 2

    def test_alpha_near_one_rarely_answers(self, built_engine, query_workload):
        strict = built_engine.query(query_workload[0], gamma=0.5, alpha=0.99)
        loose = built_engine.query(query_workload[0], gamma=0.5, alpha=0.0)
        assert set(strict.answer_sources()) <= set(loose.answer_sources())

    def test_high_gamma_empty_query_graph_path(self, built_engine, small_database, rng):
        """At gamma=0.99 most query graphs are edge-free; the containment
        fallback must still behave."""
        matrix = next(iter(small_database))
        query = GeneFeatureMatrix(
            rng.normal(size=(matrix.num_samples, 2)),
            list(matrix.gene_ids[:2]),
            matrix.source_id,
        )
        result = built_engine.query(query, gamma=0.99, alpha=0.0)
        if result.query_graph.num_edges == 0:
            for source in result.answer_sources():
                holder = built_engine.database.get(source)
                assert all(g in holder for g in query.gene_ids)


class TestMalformedInputs:
    def test_constant_query_column_rejected_at_matrix_level(self, rng):
        values = rng.normal(size=(8, 3))
        values[:, 1] = 5.0
        with pytest.raises(DegenerateVectorError):
            GeneFeatureMatrix(values, [0, 1, 2], 0)

    def test_extract_query_from_tiny_matrix(self, rng):
        matrix = GeneFeatureMatrix(rng.normal(size=(8, 2)), [0, 1], 0)
        with pytest.raises(ValidationError):
            extract_query(matrix, 3, rng=1)

    def test_engine_rejects_bad_thresholds(self, built_engine, query_workload):
        for gamma, alpha in ((-0.1, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.0)):
            with pytest.raises(ValidationError):
                built_engine.query(query_workload[0], gamma=gamma, alpha=alpha)


class TestGeneIdExtremes:
    def test_large_gene_ids(self, rng):
        """Gene IDs far apart stress the gene-ID index dimension."""
        big_ids = [10**9, 2 * 10**9, 3 * 10**9]
        matrices = [
            GeneFeatureMatrix(rng.normal(size=(8, 3)), big_ids, sid)
            for sid in range(4)
        ]
        engine = IMGRNEngine(GeneFeatureDatabase(matrices), TEST_CONFIG)
        engine.build()
        result = engine.query(matrices[0].submatrix(big_ids[:2]), gamma=0.2, alpha=0.0)
        assert 0 in result.answer_sources()

    def test_disjoint_gene_namespaces(self, rng):
        """Sources sharing no genes: cross-source matching impossible."""
        matrices = [
            GeneFeatureMatrix(
                rng.normal(size=(8, 4)),
                [sid * 100 + k for k in range(4)],
                sid,
            )
            for sid in range(4)
        ]
        engine = IMGRNEngine(GeneFeatureDatabase(matrices), TEST_CONFIG)
        engine.build()
        query = matrices[2].submatrix([200, 201])
        result = engine.query(query, gamma=0.2, alpha=0.0)
        assert result.answer_sources() == [2]
