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
from ..errors import IndexNotBuiltError, ValidationError
from ..eval.counters import QueryStats
from ..obs import MetricsRegistry, Observability
from ..obs import names as _names
from .batch_inference import BatchInferenceEngine, standardize_columns
from .inference import EdgeProbabilityEstimator
from .matching import best_embedding
from .probgraph import ProbabilisticGraph
from .pruning import (
    edge_inference_prunable,
    graph_existence_prunable,
    markov_edge_upper_bound,
    relaxed_graph_existence_upper_bound,
)
from .query import (
    IMGRNAnswer,
    IMGRNResult,
    _check_thresholds,
    _QueryMixin,
)
from .refine import BatchEdgeEvaluator, CandidateRefiner
from .spec import QuerySpec
from .standardize import standardize_matrix

__all__ = ["BaselineEngine", "LinearScanEngine"]

#: Bytes per stored probability / feature value (double precision).
_FLOAT_BYTES = 8
_PAGE_BYTES = 4096


def _store_stripe_worker(
    args: tuple[list[tuple[int, list[tuple[int, np.ndarray]]]], int, int, str, int],
) -> list[tuple[int, list[tuple[int, np.ndarray]], float]]:
    """Process-pool entry point: materialize one stripe of store shards.

    Each shard is ``(shard_index, [(source_id, values), ...])``; the
    returned probabilities are exactly what the in-process
    :meth:`BatchInferenceEngine.probability_matrix` computes (both paths
    reduce to :func:`repro.core.batch_inference.batched_probability_matrix`
    with content-keyed permutation streams).
    """
    from .batch_inference import batched_probability_matrix

    shards, n_samples, seed, semantics, batch_size = args
    out: list[tuple[int, list[tuple[int, np.ndarray]], float]] = []
    for shard_index, matrices in shards:
        started = time.perf_counter()
        probs = [
            (
                sid,
                batched_probability_matrix(
                    values,
                    n_samples=n_samples,
                    seed=seed,
                    semantics=semantics,
                    batch_size=batch_size,
                    workers=0,
                ),
            )
            for sid, values in matrices
        ]
        out.append((shard_index, probs, time.perf_counter() - started))
    return out


def _stage_timer(metrics, engine: str, stage: str):
    return metrics.histogram(
        _names.STAGE_SECONDS,
        help="per-query stage wall-clock seconds",
        engine=engine,
        stage=stage,
    )


class BaselineEngine(_QueryMixin):
    """Offline-materialization baseline (Section 6.1's ``Baseline``)."""

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        database.require_non_empty()
        self.database = database
        self.config = config or EngineConfig()
        self.obs = Observability.from_config(self.config.observability)
        self._estimator = EdgeProbabilityEstimator(
            n_samples=self.config.mc_samples,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            seed=self.config.seed,
        )
        self._inference = BatchInferenceEngine(
            self._estimator, self.config.inference, obs=self.obs
        )
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

        Mirrors the IM-GRN build knobs: with ``config.build.workers > 1``
        the per-matrix materialization fans out across a process pool in
        shards of ``config.build.shard_size`` matrices, producing the same
        store bit-for-bit (content-keyed permutation streams).
        """
        metrics = self.obs.metrics
        built_matrices = metrics.counter(
            _names.BUILD_MATRICES, help="matrices materialized", engine="baseline"
        )
        build_config = self.config.build
        matrices = list(self.database)
        started = time.perf_counter()
        store: dict[int, np.ndarray] = {}
        total_pairs = 0
        parallel = (
            build_config.backend == "process"
            and build_config.workers > 1
            and len(matrices) > 1
        )
        with self.obs.tracer.span(
            "build", engine="baseline", workers=build_config.workers
        ):
            if parallel:
                store = self._build_store_parallel(matrices)
            else:
                for matrix in matrices:
                    store[matrix.source_id] = self._inference.probability_matrix(
                        matrix.values
                    )
            for matrix in matrices:
                total_pairs += matrix.num_genes * (matrix.num_genes - 1) // 2
                built_matrices.inc()
        self._store = store
        self.storage_bytes = total_pairs * _FLOAT_BYTES
        self.precompute_seconds = time.perf_counter() - started
        metrics.histogram(
            _names.BUILD_SECONDS, help="store build seconds", engine="baseline"
        ).observe(self.precompute_seconds)
        return self.precompute_seconds

    def _build_store_parallel(
        self, matrices: list[GeneFeatureMatrix]
    ) -> dict[int, np.ndarray]:
        """Materialize the store across a process pool (bit-identical).

        Shards of ``config.build.shard_size`` matrices are striped
        round-robin over the workers; the parent records one
        ``build.shard`` span per shard. The edge-probability cache is not
        seeded from worker results (a pure speed matter -- the store, not
        the cache, serves Baseline queries).
        """
        from concurrent.futures import ProcessPoolExecutor

        build_config = self.config.build
        est = self._estimator
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        shard_size = build_config.shard_size
        shards = [
            (
                index,
                [
                    (m.source_id, m.values)
                    for m in matrices[start : start + shard_size]
                ],
            )
            for index, start in enumerate(
                range(0, len(matrices), shard_size)
            )
        ]
        workers = build_config.workers
        stripes = [shards[w::workers] for w in range(workers)]
        payloads = [
            (
                stripe,
                est.resolved_samples(),
                est.seed,
                est.semantics,
                self.config.inference.batch_size,
            )
            for stripe in stripes
            if stripe
        ]
        store: dict[int, np.ndarray] = {}
        pairs = metrics.counter(
            _names.INFERENCE_PAIRS, help="edge probabilities estimated"
        )
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            for worker, results in enumerate(
                pool.map(_store_stripe_worker, payloads)
            ):
                for shard_index, probs, seconds in results:
                    with tracer.span(
                        "build.shard",
                        shard=shard_index,
                        sources=len(probs),
                        worker=worker,
                    ) as span:
                        span.set(seconds=seconds)
                    for sid, matrix_probs in probs:
                        store[sid] = matrix_probs
                        n = matrix_probs.shape[0]
                        pairs.inc(n * (n - 1) // 2)
                    metrics.counter(
                        _names.BUILD_SHARDS,
                        help="build shards embedded",
                        engine="baseline",
                        worker=str(worker),
                    ).inc()
                    metrics.histogram(
                        _names.BUILD_SHARD_SECONDS,
                        help="per-shard embed seconds",
                        engine="baseline",
                        worker=str(worker),
                    ).observe(seconds)
        return store

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Scan the pre-computed store: materialize each GRN and match.

        Faithful to Section 6.1: for *every* matrix, the Baseline reads its
        full probability triangle, online materializes the GRN ``G_i`` at
        the query's ``gamma`` (every matrix is therefore a candidate), and
        runs the label-preserving subgraph match against ``Q``. The GRN
        materialization is what makes this engine slow -- exactly the cost
        the index avoids.

        All three workload kinds reduce to the matcher here:
        ``similarity`` passes ``spec.edge_budget`` through to
        :func:`~repro.core.matching.best_embedding`, and ``topk`` matches
        at ``alpha = 0`` then sorts by ``(-Pr{G}, source_id)`` and
        truncates to ``k`` -- the post-hoc reference the indexed engine's
        bound-aware top-k is verified against.
        """
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"execute() takes a QuerySpec, got {type(spec).__name__}"
            )
        if self._store is None:
            raise IndexNotBuiltError("call build() before execute()")
        kind = spec.kind
        gamma = spec.gamma
        budget = spec.edge_budget or 0
        match_alpha = 0.0 if kind == "topk" else spec.alpha
        metrics = MetricsRegistry()  # this query's private delta registry
        tracer = self.obs.tracer
        started = time.perf_counter()
        with tracer.span(
            "query", engine="baseline", kind=kind, gamma=gamma, alpha=spec.alpha
        ):
            with tracer.span("query.infer", genes=spec.matrix.num_genes):
                infer_started = time.perf_counter()
                query_graph = _infer_query_graph(
                    spec.matrix, gamma, self._inference
                )
                _stage_timer(
                    metrics, "baseline", _names.STAGE_INFERENCE
                ).observe(time.perf_counter() - infer_started)
            answers: list[IMGRNAnswer] = []
            io_pages = 0
            candidates = 0
            with tracer.span("query.scan", matrices=len(self._store)):
                for matrix in self.database:
                    probs = self._store[matrix.source_id]
                    # Reading the full pre-computed triangle of this matrix:
                    pairs = matrix.num_genes * (matrix.num_genes - 1) // 2
                    io_pages += max(
                        1, math.ceil(pairs * _FLOAT_BYTES / _PAGE_BYTES)
                    )
                    candidates += 1
                    grn = self._materialize_grn(matrix, probs, gamma)
                    embedding = best_embedding(
                        query_graph, grn, alpha=match_alpha, edge_budget=budget
                    )
                    if embedding is not None:
                        answers.append(
                            IMGRNAnswer(
                                matrix.source_id, embedding, embedding.probability
                            )
                        )
            if kind == "topk":
                answers.sort(key=lambda a: (-a.probability, a.source_id))
                del answers[spec.k :]
            _stage_timer(metrics, "baseline", _names.STAGE_RETRIEVE).observe(
                time.perf_counter() - started
            )
            metrics.counter(
                _names.QUERY_IO, help="simulated pages read", engine="baseline"
            ).inc(io_pages)
            metrics.counter(
                _names.QUERY_CANDIDATES,
                help="candidates surviving all pruning",
                engine="baseline",
            ).inc(candidates)
            metrics.counter(
                _names.QUERY_ANSWERS, help="answers returned", engine="baseline"
            ).inc(len(answers))
            metrics.counter(
                _names.QUERY_COUNT,
                help="queries answered",
                engine="baseline",
                kind=kind,
            ).inc()
        delta = metrics.snapshot()
        self.obs.metrics.merge(metrics)
        return IMGRNResult(
            query_graph, answers, QueryStats.from_metrics(delta), metrics=delta
        )

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


class LinearScanEngine(_QueryMixin):
    """Scan + Section-3.2 pruning, without embedding or index (Section 4.1)."""

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        database.require_non_empty()
        self.database = database
        self.config = config or EngineConfig()
        self.obs = Observability.from_config(self.config.observability)
        self._estimator = EdgeProbabilityEstimator(
            n_samples=self.config.mc_samples,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            seed=self.config.seed,
        )
        self._inference = BatchInferenceEngine(
            self._estimator, self.config.inference, obs=self.obs
        )
        self._standardized: dict[int, np.ndarray] = {}

    @property
    def is_built(self) -> bool:
        return bool(self._standardized)

    def build(self) -> float:
        """Standardize matrices once (the only state this engine keeps)."""
        started = time.perf_counter()
        with self.obs.tracer.span("build", engine="linear_scan"):
            self._standardized = {
                m.source_id: standardize_matrix(m.values) for m in self.database
            }
        elapsed = time.perf_counter() - started
        self.obs.metrics.counter(
            _names.BUILD_MATRICES, help="matrices standardized", engine="linear_scan"
        ).inc(len(self._standardized))
        self.obs.metrics.histogram(
            _names.BUILD_SECONDS, help="build seconds", engine="linear_scan"
        ).observe(elapsed)
        return elapsed

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Scan + Section-3.2 pruning for one typed workload.

        ``similarity`` counts *certainly missing* edges (Markov bound
        ``<= gamma``) against ``spec.edge_budget`` instead of pruning on
        the first one, and relaxes Lemma 5 via
        :func:`~repro.core.pruning.relaxed_graph_existence_upper_bound`
        with the leftover budget; refinement counts ``p <= gamma`` edges
        the same way. ``topk`` filters and refines at ``alpha = 0``, then
        sorts by ``(-Pr{G}, source_id)`` and truncates to ``k``.
        """
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"execute() takes a QuerySpec, got {type(spec).__name__}"
            )
        if not self._standardized:
            raise IndexNotBuiltError("call build() before execute()")
        kind = spec.kind
        gamma = spec.gamma
        budget = spec.edge_budget or 0
        # Top-k has no probability threshold: the ranking replaces it.
        filter_alpha = 0.0 if kind == "topk" else spec.alpha
        metrics = MetricsRegistry()  # this query's private delta registry
        tracer = self.obs.tracer
        pruned_edge = metrics.counter(
            _names.QUERY_PRUNED,
            help="matrices discarded by pruning",
            engine="linear_scan",
            stage="edge_bound",
        )
        pruned_existence = metrics.counter(
            _names.QUERY_PRUNED,
            help="matrices discarded by pruning",
            engine="linear_scan",
            stage="lemma5",
        )
        started = time.perf_counter()
        with tracer.span(
            "query", engine="linear_scan", kind=kind, gamma=gamma, alpha=spec.alpha
        ):
            with tracer.span("query.infer", genes=spec.matrix.num_genes):
                infer_started = time.perf_counter()
                query_graph = _infer_query_graph(
                    spec.matrix, gamma, self._inference
                )
                _stage_timer(
                    metrics, "linear_scan", _names.STAGE_INFERENCE
                ).observe(time.perf_counter() - infer_started)
            query_edges = [key for key, _p in query_graph.edges()]
            candidates: list[int] = []
            io_pages = 0
            with tracer.span("query.scan", matrices=len(self._standardized)):
                for matrix in self.database:
                    # Reading the raw matrix from disk:
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
                        relaxed_graph_existence_upper_bound(
                            bounds, budget - missing
                        ),
                        filter_alpha,
                    ):
                        pruned_existence.inc()
                        continue
                    candidates.append(matrix.source_id)
            _stage_timer(metrics, "linear_scan", _names.STAGE_RETRIEVE).observe(
                time.perf_counter() - started
            )
            metrics.counter(
                _names.QUERY_IO, help="simulated pages read", engine="linear_scan"
            ).inc(io_pages)
            metrics.counter(
                _names.QUERY_CANDIDATES,
                help="candidates surviving all pruning",
                engine="linear_scan",
            ).inc(len(candidates))

            refiner = CandidateRefiner(
                query_graph,
                gamma,
                BatchEdgeEvaluator(self._inference, self.database.get),
                engine="linear_scan",
                config=self.config.refine,
                metrics=metrics,
                tracer=tracer,
            )
            with tracer.span(
                "query.refine",
                candidates=len(candidates),
                strategy=self.config.refine.strategy,
            ) as refine_span:
                refine_start = time.perf_counter()
                if kind == "topk":
                    refined = refiner.refine_topk_posthoc(candidates, spec.k)
                else:
                    # Containment is similarity at budget 0.
                    refined = refiner.refine_similarity(
                        candidates, spec.alpha, budget
                    )
                answers = [
                    IMGRNAnswer(r.source_id, r.embedding, r.probability)
                    for r in refined
                ]
                _stage_timer(
                    metrics, "linear_scan", _names.STAGE_REFINE
                ).observe(time.perf_counter() - refine_start)
                refine_span.set(answers=len(answers))
            metrics.counter(
                _names.QUERY_ANSWERS, help="answers returned", engine="linear_scan"
            ).inc(len(answers))
            metrics.counter(
                _names.QUERY_COUNT,
                help="queries answered",
                engine="linear_scan",
                kind=kind,
            ).inc()
        delta = metrics.snapshot()
        self.obs.metrics.merge(metrics)
        return IMGRNResult(
            query_graph, answers, QueryStats.from_metrics(delta), metrics=delta
        )


def _infer_query_graph(
    query_matrix: GeneFeatureMatrix,
    gamma: float,
    inference: BatchInferenceEngine,
) -> ProbabilisticGraph:
    """Shared query-graph inference for the competitor engines (batched)."""
    _check_thresholds(gamma)
    ids = query_matrix.gene_ids
    std = standardize_columns(query_matrix.values)
    pairs = [
        (s, t) for s in range(len(ids)) for t in range(s + 1, len(ids))
    ]
    probabilities = inference.pair_block_probabilities(
        std, pairs, raw=query_matrix.values
    )
    edges: dict[tuple[int, int], float] = {}
    for s, t in pairs:
        p = probabilities[(s, t)]
        if p > gamma:
            edges[(ids[s], ids[t])] = p
    return ProbabilisticGraph(ids, edges)
