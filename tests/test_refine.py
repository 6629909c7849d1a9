"""Refinement-layer conformance: the batched `CandidateRefiner` is
bit-identical to brute-force `find_embeddings` over materialized GRNs,
across all three workload kinds, `edge_budget in {0, 1, 2}` and all four
engines; deciding candidates from the estimator cache first changes no
answer and counts every cache lookup once. Its counters are pinned by
`tests/test_engine_surface.py`."""

from __future__ import annotations

import pytest

from repro import (
    BaselineEngine,
    EngineConfig,
    InferenceConfig,
    IMGRNEngine,
    LinearScanEngine,
    MeasureScanEngine,
    ObservabilityConfig,
    QuerySpec,
)
from repro.core.matching import find_embeddings
from repro.core.probgraph import ProbabilisticGraph, edge_key
from repro.core.query import _PAYLOAD_GENE_LIMIT
from repro.errors import ValidationError

GAMMA, ALPHA = 0.5, 0.3

#: Private registries keep these tests independent of suite ordering.
BASE_CONFIG = EngineConfig(
    mc_samples=64,
    seed=11,
    observability=ObservabilityConfig(shared_registry=False),
)

ENGINE_NAMES = ["imgrn", "baseline", "linear_scan", "measure_scan"]

#: (kind, edge_budget) coverage: every kind, budgets 0..2 for similarity.
WORKLOADS = [
    ("containment", None),
    ("topk", None),
    ("similarity", 0),
    ("similarity", 1),
    ("similarity", 2),
]


def _make_engine(name: str, database, config: EngineConfig):
    if name == "imgrn":
        return IMGRNEngine(database, config)
    if name == "baseline":
        return BaselineEngine(database, config)
    if name == "linear_scan":
        return LinearScanEngine(database, config)
    return MeasureScanEngine(database, config=config)


def _spec(query, kind: str, budget: int | None) -> QuerySpec:
    if kind == "containment":
        return QuerySpec(query, GAMMA, ALPHA)
    if kind == "topk":
        return QuerySpec(query, GAMMA, kind="topk", k=3)
    return QuerySpec(
        query, GAMMA, ALPHA, kind="similarity", edge_budget=budget
    )


def _answers(result) -> list[tuple[int, float]]:
    return [(a.source_id, a.probability) for a in result.answers]


def _pair_probability_fn(engine):
    inference = getattr(engine, "_inference", None)
    if inference is not None:
        return inference.pair_probability
    return engine._pair_probability


def _brute_force(engine, database, query_graph, kind, budget):
    """Reference: materialize each source's GRN restricted to the query
    genes with the engine's own estimator, then run ``find_embeddings``.

    ``_exact_label_embeddings`` multiplies data-edge probabilities in the
    same sorted query-edge order as the engines' refinement replay, so
    the comparison is bit-exact, not approximate.
    """
    pair_probability = _pair_probability_fn(engine)
    alpha = 0.0 if kind == "topk" else ALPHA
    edge_budget = budget or 0
    answers: list[tuple[int, float]] = []
    for matrix in database:
        if any(g not in matrix for g in query_graph.gene_ids):
            continue
        edges: dict[tuple[int, int], float] = {}
        for (u, v), _qp in query_graph.edges():
            p = pair_probability(matrix.column(u), matrix.column(v))
            if p > GAMMA:
                edges[edge_key(u, v)] = p
        grn = ProbabilisticGraph(query_graph.gene_ids, edges)
        found = find_embeddings(
            query_graph, grn, alpha=alpha, edge_budget=edge_budget
        )
        if found:
            answers.append((matrix.source_id, found[0].probability))
    if kind == "topk":
        answers.sort(key=lambda sp: (-sp[1], sp[0]))
        del answers[3:]
    return answers


@pytest.fixture(scope="module")
def engines(small_database):
    """One built engine per engine name."""
    built = {}
    for name in ENGINE_NAMES:
        built[name] = _make_engine(name, small_database, BASE_CONFIG)
        built[name].build()
    return built


@pytest.mark.parametrize("name", ENGINE_NAMES)
@pytest.mark.parametrize(
    "kind,budget", WORKLOADS, ids=lambda value: str(value)
)
class TestRefinementConformance:
    def test_batched_bit_identical_to_brute_force(
        self, engines, small_database, query_workload, name, kind, budget
    ):
        """Property: refinement == find_embeddings over materialized GRNs."""
        engine = engines[name]
        for query in query_workload[:2]:
            result = engine.execute(_spec(query, kind, budget))
            expected = _brute_force(
                engine, small_database, result.query_graph, kind, budget
            )
            assert _answers(result) == expected


class TestStrategyKnobs:
    def test_refine_metrics_recorded(self, engines, query_workload):
        """refine.* diagnostics carry the engine label per query."""
        engine = engines["imgrn"]
        result = engine.execute(QuerySpec(query_workload[0], GAMMA, ALPHA))
        labels = 'engine="imgrn"'
        sources = result.metrics.get(f"refine.sources{{{labels}}}", 0.0)
        assert sources >= len(result.answers)
        if sources:
            evaluated = result.metrics.get(
                f"refine.edges_evaluated{{{labels}}}", 0.0
            )
            batches = result.metrics.get(f"refine.batches{{{labels}}}", 0.0)
            prescreened = result.metrics.get(
                f"refine.prescreened{{{labels}}}", 0.0
            )
            # Every refined candidate was either estimated or discarded
            # by bounds alone.
            assert evaluated + prescreened > 0.0
            if evaluated:
                assert batches >= 1.0


def _counter(metrics: dict[str, float], name: str, engine: str) -> float:
    return metrics.get(f'{name}{{engine="{engine}"}}', 0.0)


class TestCacheFirst:
    """Candidates are decided from cached estimates before any estimation."""

    @pytest.fixture(scope="class")
    def warm_and_cold(self, small_database):
        """A caching IMGRN engine and one with the estimator cache off."""
        warm = IMGRNEngine(small_database, BASE_CONFIG)
        cold = IMGRNEngine(
            small_database,
            BASE_CONFIG.with_(inference=InferenceConfig(cache=False)),
        )
        warm.build()
        cold.build()
        return warm, cold

    @pytest.mark.parametrize(
        "kind,budget", WORKLOADS, ids=lambda value: str(value)
    )
    def test_warm_cache_answers_equal_uncached(
        self, warm_and_cold, query_workload, kind, budget
    ):
        warm, cold = warm_and_cold
        for query in query_workload:  # the first pass fills the cache
            warm.execute(_spec(query, kind, budget))
        hits = warm.inference_stats()["cache_hits"]
        for query in query_workload:
            spec = _spec(query, kind, budget)
            assert _answers(warm.execute(spec)) == _answers(cold.execute(spec))
        assert warm.inference_stats()["cache_hits"] > hits

    def test_cached_missing_edge_prescreens_without_estimation(
        self, small_database, query_workload
    ):
        """A candidate whose cached estimate already fails the replay is
        discarded with no estimator call and no ``refine.source`` span."""
        config = BASE_CONFIG.with_(
            observability=ObservabilityConfig(tracing=True, shared_registry=False)
        )
        engine = LinearScanEngine(small_database, config)
        engine.build()
        inference = engine._inference
        prescreened_sources: set[int] = set()
        for query in query_workload:
            query_graph = engine.infer_query_graph(query, GAMMA)
            # Warm the cache with every candidate's query edges, through
            # the scalar path: the refiner must find these exact entries.
            rejected = set()
            for matrix in small_database:
                if any(g not in matrix for g in query_graph.gene_ids):
                    continue
                for (u, v), _p in query_graph.edges():
                    p = inference.pair_probability(
                        matrix.column(u), matrix.column(v)
                    )
                    if p <= GAMMA:  # budget 0: the replay must reject
                        rejected.add(matrix.source_id)
            engine.obs.tracer.reset()
            estimated = inference.obs.metrics.snapshot().get("inference.pairs", 0.0)
            result = engine.execute(QuerySpec(query, GAMMA, ALPHA))
            metrics = result.metrics
            prescreened = _counter(metrics, "refine.prescreened", "linear_scan")
            assert prescreened == len(rejected)
            refined = {
                span.attrs["source"]
                for span in engine.obs.tracer.spans
                if span.name == "refine.source"
            }
            assert not refined & rejected
            # The query graph was inferred above, so every pair the query
            # needs is cached: no estimator work at all.
            after = inference.obs.metrics.snapshot().get("inference.pairs", 0.0)
            assert after == estimated
            assert _counter(metrics, "refine.batches", "linear_scan") == (
                _counter(metrics, "refine.sources", "linear_scan") - prescreened
            )
            assert _answers(result) == _brute_force(
                engine, small_database, result.query_graph, "containment", None
            )
            prescreened_sources |= rejected
        assert prescreened_sources  # the workload exercises the discard

    @pytest.mark.parametrize("engine_name", ["imgrn", "linear_scan"])
    @pytest.mark.parametrize(
        "kind,budget", WORKLOADS, ids=lambda value: str(value)
    )
    def test_each_pair_lookup_counted_once(
        self, small_database, query_workload, engine_name, kind, budget
    ):
        """Per query, cache hits + misses equal the pair lookups made
        (query inference plus each refined candidate's query edges), and
        every miss is estimated exactly once."""
        engine = _make_engine(engine_name, small_database, BASE_CONFIG)
        engine.build()
        registry = engine._inference.obs.metrics
        for query in query_workload:
            before = registry.snapshot()
            result = engine.execute(_spec(query, kind, budget))
            after = registry.snapshot()

            def delta(name: str) -> float:
                return after.get(name, 0.0) - before.get(name, 0.0)

            genes = query.num_genes
            lemma3 = result.metrics.get(
                f'query.pruned_pairs{{engine="{engine_name}",stage="lemma3"}}', 0.0
            )
            sources = _counter(result.metrics, "refine.sources", engine_name)
            lookups = (
                genes * (genes - 1) // 2
                - lemma3
                + sources * result.query_graph.num_edges
            )
            hits = delta("inference.cache_hits")
            misses = delta("inference.cache_misses")
            assert hits + misses == lookups
            assert misses == delta("inference.pairs")


class TestPayloadKeyValidation:
    """The packed index payload key must refuse aliasing inputs."""

    def test_packing_is_pinned(self):
        assert _PAYLOAD_GENE_LIMIT == 1_000_000
        assert IMGRNEngine._payload_key(2, 5) == 2 * _PAYLOAD_GENE_LIMIT + 5

    def test_negative_source_rejected(self):
        with pytest.raises(ValidationError, match="source_id"):
            IMGRNEngine._payload_key(-1, 0)

    def test_gene_index_at_limit_rejected(self):
        """One past the last packable column would alias source+1's
        column 0: (s, LIMIT) and (s+1, 0) pack to the same integer."""
        assert IMGRNEngine._payload_key(
            0, _PAYLOAD_GENE_LIMIT - 1
        ) == _PAYLOAD_GENE_LIMIT - 1
        with pytest.raises(ValidationError, match="genes per"):
            IMGRNEngine._payload_key(0, _PAYLOAD_GENE_LIMIT)
        with pytest.raises(ValidationError, match="gene index"):
            IMGRNEngine._payload_key(0, -1)
