"""Integration tests for the IM-GRN query engine (Fig. 4 pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BaselineEngine,
    EngineConfig,
    GeneFeatureDatabase,
    IMGRNEngine,
    LinearScanEngine,
)
from repro.core.inference import EdgeProbabilityEstimator
from repro.data.matrix import GeneFeatureMatrix
from repro.errors import IndexNotBuiltError, ValidationError

from conftest import TEST_CONFIG, assert_store_invariants


def brute_force_answers(database, estimator, query_graph, gamma, alpha):
    """Definition-4 ground truth: test every matrix directly."""
    answers = []
    query_edges = [key for key, _p in query_graph.edges()]
    for matrix in database:
        if any(g not in matrix for g in query_graph.gene_ids):
            continue
        probability = 1.0
        ok = True
        for u, v in query_edges:
            p = estimator.pair_probability(matrix.column(u), matrix.column(v))
            if p <= gamma:
                ok = False
                break
            probability *= p
        if ok and probability > alpha:
            answers.append(matrix.source_id)
    return sorted(answers)


class TestBuild:
    def test_build_registers_all_points(self, built_engine, small_database):
        assert len(built_engine.array_index) == small_database.total_genes()
        assert built_engine.is_built
        assert built_engine.build_seconds > 0.0

    def test_tree_invariants(self, built_engine):
        assert_store_invariants(
            built_engine.array_index, built_engine.config.rstar_max_entries
        )

    def test_inverted_file_complete(self, built_engine, small_database):
        for matrix in small_database:
            for gene in matrix.gene_ids:
                assert matrix.source_id in built_engine.inverted_file.sources_of(gene)

    def test_query_before_build_raises(self, small_database, query_workload):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        with pytest.raises(IndexNotBuiltError):
            engine.query(query_workload[0], gamma=0.5, alpha=0.5)

    def test_empty_database_rejected(self):
        with pytest.raises(Exception):
            IMGRNEngine(GeneFeatureDatabase())


class TestCorrectness:
    """The headline guarantee: index + pruning lose no true answers."""

    @pytest.mark.parametrize(
        "gamma,alpha", [(0.5, 0.5), (0.3, 0.2), (0.8, 0.5), (0.5, 0.0)]
    )
    def test_matches_brute_force(
        self, built_engine, small_database, query_workload, gamma, alpha
    ):
        estimator = EdgeProbabilityEstimator(
            n_samples=TEST_CONFIG.mc_samples, seed=TEST_CONFIG.seed
        )
        for query in query_workload:
            result = built_engine.query(query, gamma=gamma, alpha=alpha)
            expected = brute_force_answers(
                small_database, estimator, result.query_graph, gamma, alpha
            )
            assert result.answer_sources() == expected, (
                f"query from source {query.source_id} at "
                f"gamma={gamma}, alpha={alpha}"
            )

    def test_self_source_matches_at_permissive_thresholds(
        self, built_engine, query_workload
    ):
        """With alpha=0 the query's own source must always answer (the
        query columns ARE that matrix's columns)."""
        for query in query_workload:
            result = built_engine.query(query, gamma=0.5, alpha=0.0)
            assert query.source_id in result.answer_sources()

    def test_answer_probabilities_exceed_alpha(self, built_engine, query_workload):
        result = built_engine.query(query_workload[0], gamma=0.5, alpha=0.2)
        for answer in result.answers:
            assert answer.probability > 0.2

    def test_deterministic_across_runs(self, small_database, query_workload):
        a = IMGRNEngine(small_database, TEST_CONFIG)
        a.build()
        b = IMGRNEngine(small_database, TEST_CONFIG)
        b.build()
        for query in query_workload:
            ra = a.query(query, gamma=0.5, alpha=0.5)
            rb = b.query(query, gamma=0.5, alpha=0.5)
            assert ra.answer_sources() == rb.answer_sources()
            assert ra.stats.candidates == rb.stats.candidates


class TestEngineAgreement:
    """IM-GRN, Baseline and LinearScan return identical answer sets."""

    @pytest.fixture(scope="class")
    def engines(self, small_database):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        engine.build()
        baseline = BaselineEngine(small_database, TEST_CONFIG)
        baseline.build()
        scan = LinearScanEngine(small_database, TEST_CONFIG)
        scan.build()
        return engine, baseline, scan

    @pytest.mark.parametrize("gamma,alpha", [(0.5, 0.5), (0.8, 0.3), (0.2, 0.1)])
    def test_answers_agree(self, engines, query_workload, gamma, alpha):
        engine, baseline, scan = engines
        for query in query_workload:
            a = engine.query(query, gamma=gamma, alpha=alpha).answer_sources()
            b = baseline.query(query, gamma=gamma, alpha=alpha).answer_sources()
            c = scan.query(query, gamma=gamma, alpha=alpha).answer_sources()
            assert a == b == c

    def test_baseline_storage_model(self, engines, small_database):
        _engine, baseline, _scan = engines
        expected_pairs = sum(
            m.num_genes * (m.num_genes - 1) // 2 for m in small_database
        )
        assert baseline.storage_bytes == expected_pairs * 8

    def test_baseline_io_dominates_engine_io(self, engines, query_workload):
        """The core efficiency claim at the I/O level (Fig. 6(b) shape):
        Baseline reads every matrix's full probability triangle."""
        engine, baseline, _scan = engines
        engine_io = []
        baseline_io = []
        for query in query_workload:
            engine_io.append(engine.query(query, gamma=0.5, alpha=0.5).stats.io_accesses)
            baseline_io.append(baseline.query(query, gamma=0.5, alpha=0.5).stats.io_accesses)
        # Baseline I/O is constant = N pages minimum (one per matrix here).
        assert min(baseline_io) >= len(list(engine.database))

    def test_query_before_build(self, small_database, query_workload):
        with pytest.raises(IndexNotBuiltError):
            BaselineEngine(small_database, TEST_CONFIG).query(
                query_workload[0], gamma=0.5, alpha=0.5)
        with pytest.raises(IndexNotBuiltError):
            LinearScanEngine(small_database, TEST_CONFIG).query(
                query_workload[0], gamma=0.5, alpha=0.5)


class TestQueryGraphInference:
    def test_engine_query_graph_edges_exceed_gamma(
        self, built_engine, query_workload
    ):
        graph = built_engine.infer_query_graph(query_workload[0], 0.5)
        for _key, p in graph.edges():
            assert p > 0.5

    def test_edge_free_query_falls_back_to_containment(
        self, built_engine, small_database, rng
    ):
        """A query whose genes never co-vary infers no edges; the answer
        set is then every matrix containing all query genes."""
        matrix = list(small_database)[0]
        genes = list(matrix.gene_ids[:2])
        # Replace values with fresh independent noise -> p ~ 0.5 per pair,
        # gamma=0.95 kills all edges.
        query = GeneFeatureMatrix(
            rng.normal(size=(matrix.num_samples, 2)), genes, matrix.source_id
        )
        result = built_engine.query(query, gamma=0.95, alpha=0.0)
        expected = sorted(
            m.source_id
            for m in small_database
            if all(g in m for g in genes)
        )
        assert result.answer_sources() == expected

    def test_gamma_domain(self, built_engine, query_workload):
        with pytest.raises(ValidationError):
            built_engine.query(query_workload[0], gamma=1.0, alpha=0.5)
        with pytest.raises(ValidationError):
            built_engine.query(query_workload[0], gamma=0.5, alpha=1.0)


class TestStats:
    def test_stats_populated(self, built_engine, query_workload):
        result = built_engine.query(query_workload[0], gamma=0.5, alpha=0.5)
        stats = result.stats
        assert stats.cpu_seconds > 0.0
        assert stats.refine_seconds > 0.0
        assert stats.inference_seconds > 0.0
        assert stats.io_accesses >= 1  # at least the root page
        assert stats.candidates >= 0
        assert stats.answers == len(result.answers)

    def test_topk_stats_populated(self, built_engine, query_workload):
        """query_topk must fill the same counters as query (bugfix audit)."""
        stats = built_engine.query_topk(query_workload[0], gamma=0.5, k=2).stats
        assert stats.cpu_seconds > 0.0
        assert stats.refine_seconds > 0.0
        assert stats.inference_seconds > 0.0
        assert stats.io_accesses >= 1

    def test_gamma_monotone_candidates(self, built_engine, query_workload):
        """Higher gamma can only shrink the candidate set (Fig. 7(c))."""
        for query in query_workload:
            low = built_engine.query(query, gamma=0.2, alpha=0.5)
            high = built_engine.query(query, gamma=0.9, alpha=0.5)
            # The query graph itself changes with gamma, so compare only
            # when the high-gamma query graph still has edges.
            if high.query_graph.num_edges > 0:
                assert high.stats.candidates <= max(low.stats.candidates, 1)

    def test_io_reset_between_queries(self, built_engine, query_workload):
        first = built_engine.query(query_workload[0], gamma=0.5, alpha=0.5).stats.io_accesses
        second = built_engine.query(query_workload[0], gamma=0.5, alpha=0.5).stats.io_accesses
        assert first == second


class TestPivotPadding:
    def test_matrix_with_fewer_genes_than_pivots(self, rng):
        """n_i < d matrices pad pivots; the engine must stay correct."""
        tiny = GeneFeatureMatrix(rng.normal(size=(8, 2)), [0, 1], 0)
        wide = GeneFeatureMatrix(rng.normal(size=(8, 6)), [0, 1, 2, 3, 4, 5], 1)
        db = GeneFeatureDatabase([tiny, wide])
        engine = IMGRNEngine(db, EngineConfig(num_pivots=4, mc_samples=64, seed=1))
        engine.build()
        assert engine.array_index.dim == 9
        query = wide.submatrix([0, 1])
        result = engine.query(query, gamma=0.2, alpha=0.0)
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=1)
        expected = brute_force_answers(
            db, estimator, result.query_graph, 0.2, 0.0
        )
        assert result.answer_sources() == expected
