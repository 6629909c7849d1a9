"""The unified engine API: QueryEngine protocol conformance, the
typed-QuerySpec `execute()` workload suite (containment / topk /
similarity) across all four engines, registry-sourced stats, and the
`edge_probability` dispatcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BaselineEngine,
    EngineConfig,
    IMGRNEngine,
    IMGRNResult,
    LinearScanEngine,
    MeasureScanEngine,
    ObservabilityConfig,
    QueryEngine,
    QuerySpec,
    edge_probability,
)
from repro.core.inference import (
    _correlation_probability,
    _distance_probability,
    _exact_probability,
    _matrix_probability,
)
from repro.errors import ValidationError

GAMMA, ALPHA = 0.5, 0.3

#: Private registries keep protocol tests independent of suite ordering.
PROTOCOL_CONFIG = EngineConfig(
    mc_samples=64,
    seed=11,
    observability=ObservabilityConfig(shared_registry=False),
)


def _engine_factories():
    return [
        ("imgrn", lambda db: IMGRNEngine(db, PROTOCOL_CONFIG)),
        ("baseline", lambda db: BaselineEngine(db, PROTOCOL_CONFIG)),
        ("linear_scan", lambda db: LinearScanEngine(db, PROTOCOL_CONFIG)),
        (
            "measure_scan",
            lambda db: MeasureScanEngine(db, config=PROTOCOL_CONFIG),
        ),
    ]


def _answers(result: IMGRNResult) -> list[tuple[int, float]]:
    return [(a.source_id, a.probability) for a in result.answers]


def _pair_probability_fn(engine):
    """The engine's content-keyed edge-probability estimator."""
    inference = getattr(engine, "_inference", None)
    if inference is not None:
        return inference.pair_probability
    return engine._pair_probability


def _brute_force_similarity(
    engine, database, query_graph, gamma, alpha, edge_budget
) -> list[int]:
    """Reference enumeration: check every source directly, no pruning.

    A source answers iff it holds every query gene, at most
    ``edge_budget`` query edges have existence probability ``<= gamma``
    in its inferred GRN, and the product of the matched edges'
    probabilities exceeds ``alpha``. Probabilities come from the same
    content-keyed estimator the engines use, so the comparison is exact.
    """
    pair_probability = _pair_probability_fn(engine)
    answers = []
    for matrix in database:
        if any(g not in matrix for g in query_graph.gene_ids):
            continue
        probability, missing, matched = 1.0, 0, True
        for (u, v), _p in query_graph.edges():
            p = pair_probability(matrix.column(u), matrix.column(v))
            if p <= gamma:
                missing += 1
                if missing > edge_budget:
                    matched = False
                    break
                continue
            probability *= p
            if probability <= alpha:
                matched = False
                break
        if matched:
            answers.append(matrix.source_id)
    return answers


@pytest.mark.parametrize(
    "name,factory", _engine_factories(), ids=lambda p: p if isinstance(p, str) else ""
)
class TestQueryEngineProtocol:
    def test_conforms_structurally(self, small_database, name, factory):
        engine = factory(small_database)
        assert isinstance(engine, QueryEngine)

    def test_build_then_keyword_query(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        assert not engine.is_built
        build_seconds = engine.build()
        assert engine.is_built
        assert isinstance(build_seconds, float) and build_seconds >= 0.0
        result = engine.query(query_workload[0], gamma=GAMMA, alpha=ALPHA)
        assert isinstance(result, IMGRNResult)
        assert result.stats.io_accesses >= 0
        assert result.stats.candidates >= len(result.answers)

    def test_positional_thresholds_raise(
        self, small_database, query_workload, name, factory
    ):
        """The PR-3 DeprecationWarning shim completed its cycle."""
        engine = factory(small_database)
        engine.build()
        with pytest.raises(TypeError, match="positional"):
            engine.query(query_workload[0], GAMMA, ALPHA)
        with pytest.raises(TypeError, match="positional"):
            engine.query_topk(query_workload[0], GAMMA, 3)
        with pytest.raises(TypeError, match="gamma"):
            engine.query(query_workload[0])
        with pytest.raises(TypeError, match="gamma"):
            engine.query_topk(query_workload[0])

    def test_stats_sourced_from_metrics_delta(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        engine.build()
        result = engine.query(query_workload[0], gamma=GAMMA, alpha=ALPHA)
        assert result.metrics, "per-query metrics delta must be attached"
        label = f'engine="{name}"'
        io_key = f"query.io_accesses{{{label}}}"
        assert result.metrics[io_key] == float(result.stats.io_accesses)
        candidates_key = f"query.candidates{{{label}}}"
        assert result.metrics[candidates_key] == float(result.stats.candidates)
        # Labels render alphabetically, so kind sorts after engine.
        count_key = f'query.count{{{label},kind="containment"}}'
        assert result.metrics[count_key] == 1.0

    # -- execute(spec) conformance, all three kinds --------------------
    def test_execute_requires_spec(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        engine.build()
        with pytest.raises(ValidationError, match="QuerySpec"):
            engine.execute(query_workload[0])

    def test_execute_containment_matches_query(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        engine.build()
        for query in query_workload[:2]:
            via_query = engine.query(query, gamma=GAMMA, alpha=ALPHA)
            via_spec = engine.execute(QuerySpec(query, GAMMA, ALPHA))
            assert _answers(via_spec) == _answers(via_query)

    def test_similarity_b0_bit_identical_to_containment(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        engine.build()
        for query in query_workload[:3]:
            contain = engine.execute(QuerySpec(query, GAMMA, ALPHA))
            similar = engine.execute(
                QuerySpec(
                    query, GAMMA, ALPHA, kind="similarity", edge_budget=0
                )
            )
            assert _answers(similar) == _answers(contain)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_similarity_sound_vs_brute_force(
        self, small_database, query_workload, name, factory, budget
    ):
        """No false dismissals AND no spurious answers vs enumeration."""
        engine = factory(small_database)
        engine.build()
        for query in query_workload[:2]:
            result = engine.execute(
                QuerySpec(
                    query, GAMMA, ALPHA, kind="similarity", edge_budget=budget
                )
            )
            reference = _brute_force_similarity(
                engine,
                small_database,
                result.query_graph,
                GAMMA,
                ALPHA,
                budget,
            )
            assert result.answer_sources() == sorted(reference)

    def test_similarity_monotone_in_budget(
        self, small_database, query_workload, name, factory
    ):
        engine = factory(small_database)
        engine.build()
        query = query_workload[0]
        previous: set[int] = set()
        for budget in (0, 1, 2, 3):
            answers = set(
                engine.execute(
                    QuerySpec(
                        query,
                        GAMMA,
                        ALPHA,
                        kind="similarity",
                        edge_budget=budget,
                    )
                ).answer_sources()
            )
            assert previous <= answers
            previous = answers

    def test_topk_matches_posthoc_sort(
        self, small_database, query_workload, name, factory
    ):
        """Exactly the first k of the alpha=0 sort, ids and probabilities."""
        engine = factory(small_database)
        engine.build()
        for query in query_workload[:2]:
            unfiltered = engine.execute(QuerySpec(query, GAMMA, 0.0))
            reference = sorted(
                _answers(unfiltered), key=lambda sp: (-sp[1], sp[0])
            )
            for k in (1, 3, 10**6):
                topk = engine.execute(
                    QuerySpec(query, GAMMA, kind="topk", k=k)
                )
                assert _answers(topk) == reference[:k]

    def test_topk_refines_no_more_than_posthoc(
        self, small_database, query_workload, name, factory
    ):
        """Candidate counts never exceed the post-hoc path's (IMGRN also
        proves strict pruning via the topk_kth_bound counter elsewhere)."""
        engine = factory(small_database)
        engine.build()
        query = query_workload[0]
        posthoc = engine.execute(QuerySpec(query, GAMMA, 0.0))
        topk = engine.execute(QuerySpec(query, GAMMA, kind="topk", k=1))
        assert topk.stats.candidates <= posthoc.stats.candidates


class TestEdgeProbabilityDispatcher:
    @staticmethod
    def _pair(rng):
        return rng.normal(size=12), rng.normal(size=12)

    def test_distance_is_default(self, rng):
        x, y = self._pair(rng)
        assert edge_probability(
            x, y, n_samples=64, rng=np.random.default_rng(3)
        ) == _distance_probability(x, y, n_samples=64, rng=np.random.default_rng(3))

    def test_each_method_matches_private_impl(self, rng):
        x, y = self._pair(rng)
        assert edge_probability(
            x, y, method="correlation", n_samples=64, rng=np.random.default_rng(3)
        ) == _correlation_probability(
            x, y, n_samples=64, rng=np.random.default_rng(3)
        )
        x5, y5 = x[:5], y[:5]
        assert edge_probability(x5, y5, method="exact") == _exact_probability(x5, y5)
        matrix = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(
            edge_probability(matrix, method="matrix", n_samples=32, seed=5),
            _matrix_probability(matrix, n_samples=32, seed=5),
        )

    def test_method_validation(self, rng):
        x, y = self._pair(rng)
        with pytest.raises(ValidationError, match="method"):
            edge_probability(x, y, method="bogus")
        with pytest.raises(ValidationError, match="matrix"):
            edge_probability(x, y, method="matrix")
        with pytest.raises(ValidationError, match="both"):
            edge_probability(x, method="distance")
