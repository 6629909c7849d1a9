"""Workload-kind acceptance gates of the QuerySpec PR.

The protocol suite (``test_engine_protocol.py``) proves per-engine
conformance; this file holds the cross-cutting gates: the IM-GRN
engine's relaxed pruning stays sound for similarity search, the
index-aware top-k actually prunes (and says so in its counters), and
the serving layer hands each kind its own answers.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro import (
    EngineConfig,
    GeneFeatureDatabase,
    GeneFeatureMatrix,
    IMGRNEngine,
    IMGRNResult,
    QueryServer,
    QuerySpec,
    ServeConfig,
)

GAMMA, ALPHA = 0.5, 0.3


def _answers(result: IMGRNResult) -> list[tuple[int, float]]:
    return [(a.source_id, a.probability) for a in result.answers]


class TestSimilaritySoundness:
    """Relaxed Lemma-5 + budget-aware refinement never drop an answer."""

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_indexed_matches_baseline_enumeration(
        self, built_engine, baseline_engine, query_workload, budget
    ):
        for query in query_workload:
            spec = QuerySpec(
                query, GAMMA, ALPHA, kind="similarity", edge_budget=budget
            )
            indexed = built_engine.execute(spec)
            brute = baseline_engine.execute(spec)
            assert _answers(indexed) == _answers(brute)

    def test_budget_zero_is_containment(self, built_engine, query_workload):
        for query in query_workload:
            contain = built_engine.execute(QuerySpec(query, GAMMA, ALPHA))
            b0 = built_engine.execute(
                QuerySpec(query, GAMMA, ALPHA, kind="similarity", edge_budget=0)
            )
            assert _answers(b0) == _answers(contain)

    def test_generous_budget_returns_all_gene_holders(
        self, built_engine, small_database, query_workload
    ):
        """With more budget than query edges, every edge may be missing:
        the answer set is exactly the sources holding all query genes
        (the discovery-hole fallback must recover sources the traversal
        never surfaced)."""
        query = query_workload[0]
        result = built_engine.execute(
            QuerySpec(
                query, GAMMA, ALPHA, kind="similarity", edge_budget=1_000
            )
        )
        holders = sorted(
            m.source_id
            for m in small_database
            if all(g in m for g in query.gene_ids)
        )
        assert result.answer_sources() == holders


class TestTopkIndexAware:
    """Top-k by Pr{G}: running k-th bound, not filter-then-truncate."""

    def test_matches_posthoc_semantics(self, built_engine, query_workload):
        for query in query_workload:
            unfiltered = built_engine.execute(QuerySpec(query, GAMMA, 0.0))
            reference = sorted(
                _answers(unfiltered), key=lambda sp: (-sp[1], sp[0])
            )
            for k in (1, 2, 5):
                topk = built_engine.execute(
                    QuerySpec(query, GAMMA, kind="topk", k=k)
                )
                assert _answers(topk) == reference[:k]

    def test_refines_no_more_than_posthoc(self, built_engine, query_workload):
        for query in query_workload:
            posthoc = built_engine.execute(QuerySpec(query, GAMMA, 0.0))
            topk = built_engine.execute(
                QuerySpec(query, GAMMA, kind="topk", k=1)
            )
            assert topk.stats.candidates <= posthoc.stats.candidates

    def test_kth_bound_pruning_fires_and_is_counted(self):
        """One near-certain source amid weak ones: once its exact
        probability becomes the running 1st-best, weaker candidates'
        Lemma-5 bounds fall strictly below it and are skipped -- visible
        under the ``topk_kth_bound`` stage -- without changing the
        answer."""
        rng = np.random.default_rng(7)
        genes = [0, 1, 2, 3]
        matrices = [
            GeneFeatureMatrix(rng.normal(size=(12, 4)), genes, sid)
            for sid in range(8)
        ]
        engine = IMGRNEngine(
            GeneFeatureDatabase(matrices), EngineConfig(mc_samples=64, seed=11)
        )
        engine.build()
        query = matrices[0].submatrix([0, 1, 2])
        stage_key = (
            'query.pruned_pairs{engine="imgrn",stage="topk_kth_bound"}'
        )
        posthoc = engine.execute(QuerySpec(query, 0.4, 0.0))
        reference = sorted(_answers(posthoc), key=lambda sp: (-sp[1], sp[0]))
        topk = engine.execute(QuerySpec(query, 0.4, kind="topk", k=1))
        assert _answers(topk) == reference[:1]
        assert topk.metrics.get(stage_key, 0.0) > 0


class TestServedKinds:
    """The serving layer dispatches every kind through ``execute``."""

    def test_served_kinds_do_not_cross_contaminate(
        self, built_engine, query_workload
    ):
        """Behavioral gate: same matrix and thresholds, different kinds,
        through the server -- each kind gets its own (correct) answers."""
        matrix = query_workload[0]
        specs = [
            QuerySpec(matrix, GAMMA, ALPHA),
            QuerySpec(matrix, GAMMA, ALPHA, kind="similarity", edge_budget=2),
            QuerySpec(matrix, GAMMA, kind="topk", k=3),
        ]
        reference = [built_engine.execute(s) for s in specs]
        with QueryServer(built_engine, ServeConfig(max_workers=2)) as server:
            outcomes = server.batch(specs)
        assert [o.status for o in outcomes] == ["ok"] * 3
        for outcome, ref in zip(outcomes, reference):
            assert _answers(outcome.result) == _answers(ref)
