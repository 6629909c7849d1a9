"""Ad-hoc matching under arbitrary randomized measures (future work, §2.2).

The pivot/R*-tree machinery provably bounds only the Euclidean-reduced
Pearson measure. For the *other* measures the paper defers to future work
(mutual information, Fisher's z, Student's t, or any user-supplied score),
this module provides a correct scan-based engine: the same Definition-4
semantics -- infer the query graph at ``gamma`` under the generalized
randomized measure, then test every gene-containing matrix with early
termination on the probability product.

The point is capability, not speed: a mutual-information
:class:`MeasureScanEngine` retrieves matrices whose *non-linear*
regulatory structure matches the query -- interactions the Pearson-based
index cannot represent at all (see
``tests/test_measure_engine.py::TestNonlinearMatching``).
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..config import EngineConfig
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import IndexNotBuiltError, ValidationError
from ..eval.counters import QueryStats, Stopwatch
from ..obs import MetricsRegistry, Observability
from ..obs import names as _names
from .batch_inference import EdgeProbabilityCache
from .measures import MEASURES, ScoreFunction, randomized_measure_probability
from .probgraph import ProbabilisticGraph
from .query import (
    IMGRNAnswer,
    IMGRNResult,
    _check_thresholds,
    _QueryMixin,
)
from .randomization import content_seed
from .refine import CandidateRefiner, ScalarEdgeEvaluator
from .spec import QuerySpec

__all__ = ["MeasureScanEngine"]

_ENGINE = "measure_scan"
_FLOAT_BYTES = 8
_PAGE_BYTES = 4096


class MeasureScanEngine(_QueryMixin):
    """Scan engine answering IM-GRN-style queries under any measure.

    Parameters
    ----------
    database:
        The gene feature database.
    measure:
        A name from :data:`repro.core.measures.MEASURES` or a custom
        :data:`~repro.core.measures.ScoreFunction`.
    config:
        Only ``mc_samples`` and ``seed`` are used (there is no index).
    """

    def __init__(
        self,
        database: GeneFeatureDatabase,
        measure: ScoreFunction | str = "mutual_information",
        config: EngineConfig | None = None,
    ):
        database.require_non_empty()
        if isinstance(measure, str) and measure not in MEASURES:
            raise ValidationError(
                f"unknown measure {measure!r}; known: {sorted(MEASURES)}"
            )
        self.database = database
        self.measure = measure
        self.config = config or EngineConfig()
        self.obs = Observability.from_config(self.config.observability)
        self._built = False
        # Probabilities are content-addressable only for *named* measures:
        # a user-supplied callable has no stable identity to key on.
        inference = self.config.inference
        self._cache: EdgeProbabilityCache | None = None
        if inference.cache and isinstance(measure, str):
            self._cache = EdgeProbabilityCache(inference.cache_size)
        metrics = self.obs.metrics
        self._pairs_estimated = metrics.counter(
            _names.INFERENCE_PAIRS, help="edge probabilities estimated"
        )
        self._cache_hit_count = metrics.counter(
            _names.INFERENCE_CACHE_HITS, help="edge-probability cache hits"
        )
        self._cache_miss_count = metrics.counter(
            _names.INFERENCE_CACHE_MISSES, help="edge-probability cache misses"
        )

    @property
    def is_built(self) -> bool:
        return self._built

    def inference_stats(self) -> dict[str, float]:
        """Edge-probability cache counters (zero when caching is off)."""
        if self._cache is None:
            return {"cache_entries": 0.0, "cache_hits": 0.0, "cache_misses": 0.0}
        return self._cache.stats()

    def build(self) -> float:
        """No index to build; kept for engine-interface symmetry."""
        started = time.perf_counter()
        self._built = True
        return time.perf_counter() - started

    def _pair_probability(self, x_s, x_t) -> float:
        samples = self.config.mc_samples or 100
        if self._cache is None:
            self._pairs_estimated.inc()
            return randomized_measure_probability(
                x_s, x_t, self.measure, n_samples=samples
            )
        xs = np.asarray(x_s, dtype=np.float64)
        xt = np.asarray(x_t, dtype=np.float64)
        key = (
            "measure",
            self.measure,
            content_seed(xs),
            content_seed(xt),
            samples,
        )
        hit = self._cache.get(key)
        if hit is not None:
            self._cache_hit_count.inc()
            return float(hit)  # type: ignore[arg-type]
        self._cache_miss_count.inc()
        self._pairs_estimated.inc()
        value = randomized_measure_probability(
            xs, xt, self.measure, n_samples=samples
        )
        self._cache.put(key, value)
        return value

    def infer_query_graph(
        self, query_matrix: GeneFeatureMatrix, gamma: float
    ) -> ProbabilisticGraph:
        """Query GRN under the configured measure at threshold ``gamma``."""
        _check_thresholds(gamma)
        ids = query_matrix.gene_ids
        edges: dict[tuple[int, int], float] = {}
        for s in range(len(ids)):
            for t in range(s + 1, len(ids)):
                p = self._pair_probability(
                    query_matrix.values[:, s], query_matrix.values[:, t]
                )
                if p > gamma:
                    edges[(ids[s], ids[t])] = p
        return ProbabilisticGraph(ids, edges)

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Answer one typed workload under the configured measure.

        The scan applies the same kind semantics as the Pearson engines:
        ``similarity`` counts ``p <= gamma`` edges against
        ``spec.edge_budget``, ``topk`` matches at ``alpha = 0`` then sorts
        by ``(-Pr{G}, source_id)`` and truncates to ``k``.
        """
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"execute() takes a QuerySpec, got {type(spec).__name__}"
            )
        if not self._built:
            raise IndexNotBuiltError("call build() before execute()")
        kind = spec.kind
        gamma = spec.gamma
        budget = spec.edge_budget or 0
        metrics = MetricsRegistry()  # this query's private delta registry
        tracer = self.obs.tracer

        def stage_timer(stage: str):
            return metrics.histogram(
                _names.STAGE_SECONDS,
                help="per-query stage wall-clock seconds",
                engine=_ENGINE,
                stage=stage,
            )

        started = time.perf_counter()
        with tracer.span(
            "query", engine=_ENGINE, kind=kind, gamma=gamma, alpha=spec.alpha
        ):
            with tracer.span("query.infer", genes=spec.matrix.num_genes):
                infer_started = time.perf_counter()
                query_graph = self.infer_query_graph(spec.matrix, gamma)
                stage_timer(_names.STAGE_INFERENCE).observe(
                    time.perf_counter() - infer_started
                )
            refine = Stopwatch()
            io_pages = 0
            candidate_ids: list[int] = []
            with tracer.span("query.scan"):
                for matrix in self.database:
                    io_pages += max(
                        1,
                        math.ceil(
                            matrix.num_samples
                            * matrix.num_genes
                            * _FLOAT_BYTES
                            / _PAGE_BYTES
                        ),
                    )
                    if any(
                        gene not in matrix for gene in query_graph.gene_ids
                    ):
                        continue
                    candidate_ids.append(matrix.source_id)
            candidates = len(candidate_ids)
            refiner = CandidateRefiner(
                query_graph,
                gamma,
                ScalarEdgeEvaluator(self._pair_probability, self.database.get),
                engine=_ENGINE,
                config=self.config.refine,
                metrics=metrics,
                tracer=tracer,
            )
            with tracer.span(
                "query.refine",
                candidates=candidates,
                strategy=self.config.refine.strategy,
            ) as refine_span:
                with refine:
                    if kind == "topk":
                        refined = refiner.refine_topk_posthoc(
                            candidate_ids, spec.k
                        )
                    else:
                        # Containment is similarity at budget 0.
                        refined = refiner.refine_similarity(
                            candidate_ids, spec.alpha, budget
                        )
                answers = [
                    IMGRNAnswer(r.source_id, r.embedding, r.probability)
                    for r in refined
                ]
                refine_span.set(answers=len(answers))
            stage_timer(_names.STAGE_REFINE).observe(refine.elapsed)
            stage_timer(_names.STAGE_RETRIEVE).observe(
                time.perf_counter() - started - refine.elapsed
            )
            metrics.counter(
                _names.QUERY_IO, help="simulated pages read", engine=_ENGINE
            ).inc(io_pages)
            metrics.counter(
                _names.QUERY_CANDIDATES,
                help="candidates surviving all pruning",
                engine=_ENGINE,
            ).inc(candidates)
            metrics.counter(
                _names.QUERY_ANSWERS, help="answers returned", engine=_ENGINE
            ).inc(len(answers))
            metrics.counter(
                _names.QUERY_COUNT,
                help="queries answered",
                engine=_ENGINE,
                kind=kind,
            ).inc()
        delta = metrics.snapshot()
        self.obs.metrics.merge(metrics)
        return IMGRNResult(
            query_graph, answers, QueryStats.from_metrics(delta), metrics=delta
        )
