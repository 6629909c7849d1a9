"""Competitor engines: ``Baseline`` and the pruning-only linear scan.

* :class:`BaselineEngine` is the paper's Section-6.1 baseline: *offline*
  pre-compute and store the existence probabilities of **all** pairwise
  edges of every matrix (complete graphs), then answer a query by scanning
  that store -- materializing each GRN ``G_i`` at the query's ``gamma`` and
  running the subgraph match. Its I/O charge models reading the
  pre-computed triangle of every matrix from disk (``O(n_i^2)`` floats per
  matrix), which is exactly why the paper reports it 2-3 orders of
  magnitude behind IM-GRN.
* :class:`LinearScanEngine` is the intermediate point motivating the index
  (Section 4.1): no materialized store and no index -- it scans matrices,
  applies the Markov edge pruning and Lemma-5 graph pruning per matrix,
  and refines survivors. Its I/O charge models reading each raw matrix.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..config import EngineConfig
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..eval.counters import QueryStats
from ..obs import Observability, SeriesTable
from ..obs import names as _names
from .batch_inference import (
    BatchInferenceEngine,
    EstimatorState,
    standardize_columns,
)
from .inference import EdgeProbabilityEstimator
from .matching import best_embedding
from .probgraph import ProbabilisticGraph
from .pruning import (
    edge_inference_prunable,
    graph_existence_prunable,
    markov_edge_upper_bound,
    relaxed_graph_existence_upper_bound,
)
from .query import IMGRNAnswer, _check_thresholds, _QueryMixin, _Retrieved
from .spec import QuerySpec
from .standardize import standardize_matrix

__all__ = ["BaselineEngine", "LinearScanEngine"]

#: Bytes per stored probability / feature value (double precision).
_FLOAT_BYTES = 8
_PAGE_BYTES = 4096


def _pages(values: int) -> int:
    """Simulated pages read for ``values`` doubles (at least one)."""
    return max(1, math.ceil(values * _FLOAT_BYTES / _PAGE_BYTES))


def _raw_pages(matrix: GeneFeatureMatrix) -> int:
    """Simulated pages read to scan one raw matrix from disk."""
    return _pages(matrix.num_samples * matrix.num_genes)


class _CompetitorEngine(_QueryMixin):
    """What the two Section-6.1 competitors share: the batched
    edge-probability engine and unpruned query-graph inference."""

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        database.require_non_empty()
        self.database = database
        self.config = config or EngineConfig()
        self.obs = Observability.from_config(self.config.observability)
        self._series = SeriesTable(self.obs.metrics, QueryStats.field_of)
        self._estimator = EdgeProbabilityEstimator(
            n_samples=self.config.mc_samples,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            seed=self.config.seed,
        )
        self._inference = BatchInferenceEngine(
            self._estimator, self.config.inference, obs=self.obs
        )

    def infer_query_graph(
        self,
        query_matrix: GeneFeatureMatrix,
        gamma: float,
        *,
        metrics=None,
    ) -> ProbabilisticGraph:
        """Query GRN at ``gamma``: every pair estimated in one batched
        pass (no Lemma-3 pruning, so ``metrics`` records nothing)."""
        _check_thresholds(gamma)
        ids = query_matrix.gene_ids
        std = standardize_columns(query_matrix.values)
        pairs = [
            (s, t) for s in range(len(ids)) for t in range(s + 1, len(ids))
        ]
        probabilities = self._inference.pair_block_probabilities(
            std, pairs, raw=query_matrix.values
        )
        edges: dict[tuple[int, int], float] = {}
        for s, t in pairs:
            p = probabilities[(s, t)]
            if p > gamma:
                edges[(ids[s], ids[t])] = p
        return ProbabilisticGraph(ids, edges)


class BaselineEngine(_CompetitorEngine):
    """Offline-materialization baseline (Section 6.1's ``Baseline``)."""

    _engine_label = "baseline"

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        super().__init__(database, config)
        self._store: dict[int, np.ndarray] | None = None
        self.precompute_seconds: float = 0.0
        self.storage_bytes: int = 0

    @property
    def is_built(self) -> bool:
        return self._store is not None

    def build(self) -> float:
        """Pre-compute all pairwise edge probabilities of every matrix.

        Returns the wall-clock pre-computation time. The storage footprint
        (``storage_bytes``) models the paper's 17.94 GB argument at our
        scale: one float per gene pair per matrix. Probabilities come from
        the same per-pair estimator the online engines use, so answers are
        bit-identical across engines.
        """
        metrics = self.obs.metrics
        built_matrices = metrics.counter(
            _names.BUILD_MATRICES, help="matrices materialized", engine="baseline"
        )
        started = time.perf_counter()
        store: dict[int, np.ndarray] = {}
        total_pairs = 0
        with self.obs.tracer.span("build", engine="baseline"):
            for matrix in self.database:
                store[matrix.source_id] = self._inference.probability_matrix(
                    matrix.values
                )
                total_pairs += matrix.num_genes * (matrix.num_genes - 1) // 2
                built_matrices.inc()
        self._store = store
        self.storage_bytes = total_pairs * _FLOAT_BYTES
        self.precompute_seconds = time.perf_counter() - started
        metrics.histogram(
            _names.BUILD_SECONDS, help="store build seconds", engine="baseline"
        ).observe(self.precompute_seconds)
        return self.precompute_seconds

    def _retrieve(
        self, spec: QuerySpec, query_graph: ProbabilisticGraph, metrics
    ) -> _Retrieved:
        """Scan the pre-computed store: materialize each GRN and match.

        Faithful to Section 6.1: for *every* matrix, the Baseline reads its
        full probability triangle, online materializes the GRN ``G_i`` at
        the query's ``gamma`` (every matrix is therefore a candidate), and
        runs the label-preserving subgraph match against ``Q``. The GRN
        materialization is what makes this engine slow -- exactly the cost
        the index avoids. The matcher decides the answers itself, so the
        scan is the brute-force reference the refiner is checked against.

        All three workload kinds reduce to the matcher here:
        ``similarity`` passes ``spec.edge_budget`` through to
        :func:`~repro.core.matching.best_embedding`, and ``topk`` matches
        at ``alpha = 0`` then sorts by ``(-Pr{G}, source_id)`` and
        truncates to ``k`` -- the post-hoc reference the indexed engine's
        bound-aware top-k is verified against.
        """
        assert self._store is not None
        match_alpha = 0.0 if spec.kind == "topk" else spec.alpha
        answers: list[IMGRNAnswer] = []
        io_pages = 0
        with self.obs.tracer.span("query.scan", matrices=len(self._store)):
            for matrix in self.database:
                probs = self._store[matrix.source_id]
                # Reading the full pre-computed triangle of this matrix:
                io_pages += _pages(matrix.num_genes * (matrix.num_genes - 1) // 2)
                grn = self._materialize_grn(matrix, probs, spec.gamma)
                embedding = best_embedding(
                    query_graph,
                    grn,
                    alpha=match_alpha,
                    edge_budget=spec.edge_budget or 0,
                )
                if embedding is not None:
                    answers.append(
                        IMGRNAnswer(
                            matrix.source_id, embedding, embedding.probability
                        )
                    )
        if spec.kind == "topk":
            answers.sort(key=lambda a: (-a.probability, a.source_id))
            del answers[spec.k :]
        return _Retrieved([], len(self.database), io_pages, answers=answers)

    @staticmethod
    def _materialize_grn(
        matrix: GeneFeatureMatrix, probs: np.ndarray, gamma: float
    ) -> ProbabilisticGraph:
        """Threshold the stored probability triangle into a full GRN."""
        ids = matrix.gene_ids
        rows, cols = np.nonzero(np.triu(probs > gamma, k=1))
        edges = {
            (ids[s], ids[t]): float(probs[s, t])
            for s, t in zip(rows.tolist(), cols.tolist())
        }
        return ProbabilisticGraph(ids, edges)


class LinearScanEngine(_CompetitorEngine):
    """Scan + Section-3.2 pruning, without embedding or index (Section 4.1)."""

    _engine_label = "linear_scan"

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        super().__init__(database, config)
        self._standardized: dict[int, np.ndarray] = {}
        self._states: dict[int, EstimatorState] = {}

    @property
    def is_built(self) -> bool:
        return bool(self._standardized)

    def build(self) -> float:
        """Standardize matrices once for the scan's Markov bounds; the
        refinement's per-source estimator states are built lazily."""
        started = time.perf_counter()
        with self.obs.tracer.span("build", engine="linear_scan"):
            self._standardized = {
                m.source_id: standardize_matrix(m.values) for m in self.database
            }
            self._states = {}
            self._inference.clear_blocks()
        elapsed = time.perf_counter() - started
        self.obs.metrics.counter(
            _names.BUILD_MATRICES, help="matrices standardized", engine="linear_scan"
        ).inc(len(self._standardized))
        self.obs.metrics.histogram(
            _names.BUILD_SECONDS, help="build seconds", engine="linear_scan"
        ).observe(elapsed)
        return elapsed

    def _source_state(self, source: int) -> EstimatorState:
        """The source's refinement estimator state, built on first use;
        the first of racing builders publishes, so all share one state.
        Every source is scanned, so every state admits its blocks to the
        permutation store."""
        state = self._states.get(source)
        if state is None:
            state = self._states.setdefault(
                source,
                self._inference.estimator_state(self.database.get(source).values),
            )
        return state

    def _retrieve(
        self, spec: QuerySpec, query_graph: ProbabilisticGraph, metrics
    ) -> _Retrieved:
        """Scan every matrix with Section-3.2 pruning.

        A matrix survives unless its Markov edge bounds (Lemma 4) leave
        more than ``spec.edge_budget`` query edges *certainly missing*
        (``bound <= gamma``; containment and top-k have no budget) or
        the Lemma-5 product, relaxed via
        :func:`~repro.core.pruning.relaxed_graph_existence_upper_bound`
        with the leftover budget, is ``<= alpha`` (``0`` for top-k).
        """
        gamma = spec.gamma
        budget = spec.edge_budget or 0
        # Top-k has no probability threshold: the ranking replaces it.
        filter_alpha = 0.0 if spec.kind == "topk" else spec.alpha
        pruned_edge = metrics.counter(
            _names.QUERY_PRUNED,
            help="matrices discarded by pruning",
            engine=self._engine_label,
            stage="edge_bound",
        )
        pruned_existence = metrics.counter(
            _names.QUERY_PRUNED,
            help="matrices discarded by pruning",
            engine=self._engine_label,
            stage="lemma5",
        )
        query_edges = [key for key, _p in query_graph.edges()]
        candidates: list[int] = []
        io_pages = 0
        with self.obs.tracer.span("query.scan", matrices=len(self._standardized)):
            for matrix in self.database:
                io_pages += _raw_pages(matrix)  # reading the raw matrix
                if any(gene not in matrix for gene in query_graph.gene_ids):
                    continue
                std = self._standardized[matrix.source_id]
                expected = math.sqrt(2.0 * matrix.num_samples)
                bounds: list[float] = []
                missing = 0
                pruned = False
                for u, v in query_edges:
                    cu = matrix.column_index(u)
                    cv = matrix.column_index(v)
                    distance = float(np.linalg.norm(std[:, cu] - std[:, cv]))
                    bound = markov_edge_upper_bound(distance, expected)
                    if edge_inference_prunable(bound, gamma):
                        # Certainly missing: p <= bound <= gamma.
                        missing += 1
                        if missing > budget:
                            pruned = True
                            break
                        continue
                    bounds.append(bound)
                if pruned:
                    pruned_edge.inc()
                    continue
                if graph_existence_prunable(
                    relaxed_graph_existence_upper_bound(bounds, budget - missing),
                    filter_alpha,
                ):
                    pruned_existence.inc()
                    continue
                candidates.append(matrix.source_id)
        return _Retrieved(candidates, len(candidates), io_pages)
