"""Ad-hoc matching under arbitrary randomized measures (future work, §2.2).

The pivot/index machinery provably bounds only the Euclidean-reduced
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

import time

import numpy as np

from ..config import EngineConfig
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import ValidationError
from ..eval.counters import QueryStats
from ..obs import CounterHandle, Observability, SeriesTable
from ..obs import names as _names
from .baseline import _raw_pages
from .batch_inference import EdgeProbabilityCache
from .measures import MEASURES, ScoreFunction, randomized_measure_probability
from .probgraph import ProbabilisticGraph
from .query import _check_thresholds, _QueryMixin, _Retrieved
from .randomization import content_seed
from .refine import ScalarEdgeEvaluator
from .spec import QuerySpec

__all__ = ["MeasureScanEngine"]

_ENGINE = "measure_scan"


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

    _engine_label = _ENGINE

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
        self._series = SeriesTable(self.obs.metrics, QueryStats.field_of)
        self._built = False
        # Probabilities are content-addressable only for *named* measures:
        # a user-supplied callable has no stable identity to key on.
        inference = self.config.inference
        self._cache: EdgeProbabilityCache | None = None
        if inference.cache and isinstance(measure, str):
            self._cache = EdgeProbabilityCache(inference.cache_size)
        metrics = self.obs.metrics
        self._pairs_estimated = CounterHandle(
            metrics, _names.INFERENCE_PAIRS, help="edge probabilities estimated"
        )
        self._cache_hit_count = CounterHandle(
            metrics, _names.INFERENCE_CACHE_HITS, help="edge-probability cache hits"
        )
        self._cache_miss_count = CounterHandle(
            metrics,
            _names.INFERENCE_CACHE_MISSES,
            help="edge-probability cache misses",
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
        self,
        query_matrix: GeneFeatureMatrix,
        gamma: float,
        *,
        metrics=None,
    ) -> ProbabilisticGraph:
        """Query GRN under the configured measure at threshold ``gamma``
        (no pruning, so ``metrics`` records nothing)."""
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

    def _edge_evaluator(self) -> ScalarEdgeEvaluator:
        """Scalar estimation: a randomized measure has no batched kernel."""
        return ScalarEdgeEvaluator(self._pair_probability, self.database.get)

    def _retrieve(
        self, spec: QuerySpec, query_graph: ProbabilisticGraph, metrics
    ) -> _Retrieved:
        """Gene-containment scan: every matrix holding all query genes is
        a candidate (no bound exists to prune with)."""
        io_pages = 0
        sources: list[int] = []
        with self.obs.tracer.span("query.scan"):
            for matrix in self.database:
                io_pages += _raw_pages(matrix)
                if all(gene in matrix for gene in query_graph.gene_ids):
                    sources.append(matrix.source_id)
        return _Retrieved(sources, len(sources), io_pages)
