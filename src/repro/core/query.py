"""IM-GRN query processing (Section 5, Fig. 4).

:class:`IMGRNEngine` owns the whole indexed pipeline:

* **build**: per matrix, select pivots (Fig. 3), embed every gene vector
  into ``2d+1`` dims (Section 4.2), insert the points into one R*-tree,
  and register gene/source IDs in the inverted bit-vector file.
* **query**: infer the query GRN ``Q`` from ``M_Q`` (with edge-inference
  pruning), anchor the traversal at the highest-degree query gene, walk
  the tree one level of node *pairs* at a time -- applying bit-vector
  filtering and the Lemma-6 index pruning at internal levels and the
  pivot + Markov pruning at leaves -- then apply graph-existence pruning
  (Lemma 5) and refine the few surviving candidates exactly.

No GRN is ever materialized for non-candidate matrices: the existence
probability of an edge is only ever *computed* (by Monte Carlo) during
query-graph inference and final refinement.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import EngineConfig
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import (
    IndexNotBuiltError,
    InternalError,
    UnknownGeneError,
    ValidationError,
)
from ..eval.counters import QueryStats
from ..index.arraystore import ArrayStore, int_to_words
from ..index.bitvector import signature
from ..index.invertedfile import InvertedBitVectorFile
from ..index.pagemanager import PageManager
from ..index.rstartree import RStarTree
from ..obs import MetricsRegistry, Observability
from ..obs import names as _names
from .batch_inference import BatchInferenceEngine, standardize_columns
from .embedding import EmbeddedMatrix
from .inference import EdgeProbabilityEstimator
from .matching import Embedding
from .probgraph import ProbabilisticGraph, edge_key
from .pruning import (
    edge_inference_prunable,
    graph_existence_prunable,
    index_pairs_prunable,
    markov_edge_upper_bound,
    pivot_edge_upper_bound,
    relaxed_graph_existence_upper_bound,
)
from .randomization import expected_randomized_distance_jensen
from .refine import BatchEdgeEvaluator, CandidateRefiner
from .spec import QuerySpec
from .standardize import standardize_matrix

__all__ = ["IMGRNAnswer", "IMGRNResult", "IMGRNEngine"]

_ENGINE = "imgrn"

#: Gene-column capacity of one source in the packed R*-tree payload key:
#: ``(source, column)`` pairs pack as ``source * LIMIT + column``, so any
#: column index at or past the limit (or a negative source) would alias
#: another entry's payload.
_PAYLOAD_GENE_LIMIT = 1_000_000


#: Most cells (child pairs, or gathered leaf rows) one vectorized pass of
#: the traversal materializes; a wider tree level is processed slice by
#: slice, in order, so the walk's transient memory stays bounded.
_SLICE_CELLS = 1 << 14


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )


def _slices(costs: np.ndarray):
    """Consecutive slices whose summed ``costs`` stay within
    ``_SLICE_CELLS`` (a single costlier item gets a slice of its own)."""
    ends = np.cumsum(costs)
    start = 0
    while start < costs.shape[0]:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + _SLICE_CELLS, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _check_thresholds(gamma: float, alpha: float | None = None) -> None:
    """Uniform domain validation shared by every engine's query path."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    if alpha is not None and not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must be in [0,1), got {alpha}")


@dataclass(frozen=True)
class IMGRNAnswer:
    """One IM-GRN answer: a matrix whose inferred GRN contains ``Q``.

    Attributes
    ----------
    source_id:
        The matching matrix's data-source ID.
    embedding:
        The subgraph-isomorphism embedding (identity mapping on gene IDs
        in the paper's label-preserving setting).
    probability:
        Appearance probability ``Pr{G}`` of the matched subgraph (Eq. 3).
    """

    source_id: int
    embedding: Embedding
    probability: float


@dataclass
class IMGRNResult:
    """Result of one IM-GRN query: the answers plus cost accounting.

    ``stats`` is carved out of the engine's metrics registry
    (:meth:`repro.eval.counters.QueryStats.from_metrics`); ``metrics`` is
    the raw per-query registry delta it was derived from, keyed by
    snapshot keys (see :func:`repro.obs.metric_key`).
    """

    query_graph: ProbabilisticGraph
    answers: list[IMGRNAnswer]
    stats: QueryStats
    metrics: dict[str, float] = field(default_factory=dict)

    def answer_sources(self) -> list[int]:
        """Sorted source IDs of the matching matrices."""
        return sorted(a.source_id for a in self.answers)


class _QueryMixin:
    """``query()`` / ``query_topk()`` for every engine, over ``execute()``.

    Both conveniences build one :class:`~repro.core.spec.QuerySpec` and
    hand it to the engine's own :meth:`execute`. Thresholds are
    keyword-only: the positional form completed its deprecation cycle
    and raises :class:`TypeError` with a migration hint.
    """

    def query(
        self,
        query_matrix: GeneFeatureMatrix,
        *args: float,
        gamma: float | None = None,
        alpha: float | None = None,
    ) -> IMGRNResult:
        """Answer one containment query ``(M_Q, gamma, alpha)`` (Definition 4)."""
        if args:
            raise TypeError(
                "query() no longer accepts positional thresholds; call "
                "query(matrix, gamma=..., alpha=...) or "
                "execute(QuerySpec(matrix, gamma, alpha)) instead"
            )
        if gamma is None or alpha is None:
            raise TypeError(
                "query() missing required keyword arguments 'gamma' and 'alpha'; "
                "other workload kinds go through execute(QuerySpec(...))"
            )
        return self.execute(QuerySpec(query_matrix, float(gamma), float(alpha)))

    def query_topk(
        self,
        query_matrix: GeneFeatureMatrix,
        *args: float,
        gamma: float | None = None,
        k: int | None = None,
    ) -> IMGRNResult:
        """Top-k variant: the ``k`` matches with highest ``Pr{G}``.

        The natural ranking interface for the biomarker / classification
        use cases, where the analyst wants "the best supporting evidence"
        rather than a threshold.
        """
        if args:
            raise TypeError(
                "query_topk() no longer accepts positional arguments; call "
                "query_topk(matrix, gamma=..., k=...) or "
                "execute(QuerySpec(matrix, gamma, kind='topk', k=...)) instead"
            )
        if gamma is None or k is None:
            raise TypeError(
                "query_topk() missing required keyword arguments 'gamma' and 'k'"
            )
        return self.execute(QuerySpec(query_matrix, gamma, kind="topk", k=k))


@dataclass
class _MatrixEntry:
    """Per-matrix build artifacts the query phase needs."""

    matrix: GeneFeatureMatrix
    embedded: EmbeddedMatrix
    standardized: np.ndarray = field(repr=False)


class IMGRNEngine(_QueryMixin):
    """The indexed IM-GRN query engine of Section 5."""

    def __init__(
        self,
        database: GeneFeatureDatabase,
        config: EngineConfig | None = None,
    ):
        database.require_non_empty()
        self.database = database
        self.config = config or EngineConfig()
        self.obs = Observability.from_config(self.config.observability)
        self.pages = PageManager()
        self.tree: RStarTree | None = None
        #: Read-path structure-of-arrays view of the finalized tree (see
        #: :mod:`repro.index.arraystore`); refreshed by :meth:`_recompact`
        #: after every index mutation, or installed directly by the
        #: persistence layer when reloading via ``np.memmap``.
        self.array_index: ArrayStore | None = None
        self.inverted_file: InvertedBitVectorFile | None = None
        self.build_seconds: float = 0.0
        #: Set by :func:`repro.core.persistence.load_engine_sharded`:
        #: which sources reused stored embeddings vs. re-embedded.
        self.shard_load_report: dict[str, list[int]] | None = None
        self._entries: dict[int, _MatrixEntry] = {}
        self._estimator = EdgeProbabilityEstimator(
            n_samples=self.config.mc_samples,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            seed=self.config.seed,
        )
        self._inference = BatchInferenceEngine(
            self._estimator, self.config.inference, obs=self.obs
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        return self.array_index is not None

    def _recompact(self) -> None:
        """Refresh the array-backed read view after any index mutation.

        The R*-tree is only the mutable builder behind :meth:`build`,
        :meth:`add_matrix` and :meth:`remove_matrix`; every query reads
        the :class:`~repro.index.arraystore.ArrayStore` compacted from
        the finalized tree here.
        """
        assert self.tree is not None
        self.array_index = ArrayStore.from_tree(self.tree)

    def inference_stats(self) -> dict[str, float]:
        """Edge-probability cache counters of the batched inference engine."""
        return self._inference.stats()

    def build(self, pivot_strategy: str = "cost_model", bulk: bool = False) -> float:
        """Embed every matrix, build the R*-tree and inverted file.

        The numerically heavy per-matrix work (pivot selection, embedding,
        expected-distance computation) runs in shards of
        ``config.build.shard_size`` matrices; with ``config.build.workers
        > 1`` the shards are striped round-robin across a
        ``ProcessPoolExecutor``. Shard outputs are merged into the tree in
        database order, so every ``BuildConfig`` setting produces a
        bit-identical index (see :mod:`repro.core.parallel_build`).

        ``bulk=True`` packs the tree with Sort-Tile-Recursive loading
        instead of one-at-a-time R* insertion -- much faster to build,
        slightly worse node quality at query time (see
        ``bench_ablation_bulkload``).

        Returns the wall-clock build time in seconds (what Fig. 13 plots).
        """
        from ..index.node import LeafEntry
        from .parallel_build import partition_shards

        config = self.config
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        built_matrices = metrics.counter(
            _names.BUILD_MATRICES, help="matrices indexed", engine=_ENGINE
        )
        built_points = metrics.counter(
            _names.BUILD_POINTS, help="index points inserted", engine=_ENGINE
        )
        dim = 2 * config.num_pivots + 1
        started = time.perf_counter()
        self.pages = PageManager()
        self.pages.pause()  # build I/O is not part of the query metric
        tree = RStarTree(
            dim=dim,
            max_entries=config.rstar_max_entries,
            pages=self.pages,
            bitvector_bits=config.bitvector_bits,
        )
        inverted = InvertedBitVectorFile(config.bitvector_bits)
        self._entries = {}
        pending: list[LeafEntry] = []
        matrices = list(self.database)
        shards = partition_shards(matrices, config.build.shard_size)
        with tracer.span(
            "build",
            engine=_ENGINE,
            bulk=bulk,
            workers=config.build.workers,
            shards=len(shards),
        ):
            embedded_by_source = self._embed_shards(shards, pivot_strategy)
            with tracer.span("build.merge", engine=_ENGINE, matrices=len(matrices)):
                for matrix in matrices:
                    embedded = embedded_by_source[matrix.source_id]
                    standardized = standardize_matrix(matrix.values)
                    self._entries[matrix.source_id] = _MatrixEntry(
                        matrix=matrix,
                        embedded=embedded,
                        standardized=standardized,
                    )
                    points = embedded.points()
                    with tracer.span(
                        "build.index_insert", source=matrix.source_id
                    ):
                        for gene_index, gene_id in enumerate(embedded.gene_ids):
                            payload = self._payload_key(
                                matrix.source_id, gene_index
                            )
                            if bulk:
                                pending.append(
                                    LeafEntry(
                                        points[gene_index],
                                        gene_id,
                                        matrix.source_id,
                                        payload,
                                    )
                                )
                            else:
                                tree.insert(
                                    points[gene_index],
                                    gene_id,
                                    matrix.source_id,
                                    payload,
                                )
                    with tracer.span(
                        "build.inverted_file", source=matrix.source_id
                    ):
                        for gene_id in embedded.gene_ids:
                            inverted.add(gene_id, matrix.source_id)
                    built_matrices.inc()
                    built_points.inc(matrix.num_genes)
                if bulk:
                    # Tile the gene-ID dimension first: it is the
                    # traversal's most discriminative axis (exact
                    # anchor/neighbor range checks).
                    with tracer.span("build.bulk_load", points=len(pending)):
                        gene_first = [dim - 1] + list(range(dim - 1))
                        tree.bulk_load(pending, axis_order=gene_first)
                tree.finalize()
        self.pages.resume()
        self.tree = tree
        self.inverted_file = inverted
        self._recompact()
        self.build_seconds = time.perf_counter() - started
        metrics.histogram(
            _names.BUILD_SECONDS, help="index build seconds", engine=_ENGINE
        ).observe(self.build_seconds)
        return self.build_seconds

    def _embed_shards(self, shards, pivot_strategy: str) -> dict:
        """Embed every shard, in-process or across a process pool.

        Returns ``{source_id: EmbeddedMatrix}``. The parallel path stripes
        shards round-robin over the workers (shard cost is roughly uniform,
        so stripes balance) and records one ``build.shard`` span per shard
        in the parent; the worker-measured embed seconds travel back as the
        span's ``seconds`` attribute and the ``build.shard_seconds``
        histogram.
        """
        from .parallel_build import embed_shard, stripe_worker

        config = self.config
        tracer = self.obs.tracer
        metrics = self.obs.metrics

        def record(seconds: float, worker: int) -> None:
            metrics.counter(
                _names.BUILD_SHARDS,
                help="build shards embedded",
                engine=_ENGINE,
                worker=str(worker),
            ).inc()
            metrics.histogram(
                _names.BUILD_SHARD_SECONDS,
                help="per-shard embed seconds",
                engine=_ENGINE,
                worker=str(worker),
            ).observe(seconds)

        out: dict[int, EmbeddedMatrix] = {}
        workers = config.build.workers
        parallel = (
            config.build.backend == "process" and workers > 1 and len(shards) > 1
        )
        if not parallel:
            for shard in shards:
                with tracer.span(
                    "build.shard",
                    shard=shard.index,
                    sources=len(shard.matrices),
                    worker=0,
                ) as span:
                    result = embed_shard(
                        shard, config, pivot_strategy, tracer=tracer
                    )
                    span.set(seconds=result.seconds)
                for embedded in result.embedded:
                    out[embedded.source_id] = embedded
                record(result.seconds, worker=0)
            return out
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        stripes = [shards[w::workers] for w in range(workers)]
        payloads = [
            (stripe, config, pivot_strategy) for stripe in stripes if stripe
        ]
        try:
            # Fork (where available) skips re-importing the interpreter in
            # every worker; significant for the small builds the benchmark
            # floors time, and a no-op on platforms without fork.
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - spawn-only platforms
            mp_context = None
        with ProcessPoolExecutor(
            max_workers=len(payloads), mp_context=mp_context
        ) as pool:
            for worker, results in enumerate(pool.map(stripe_worker, payloads)):
                for result in results:
                    # The embed ran in the worker process; the span records
                    # its identity and worker-measured seconds post-hoc.
                    with tracer.span(
                        "build.shard",
                        shard=result.index,
                        sources=len(result.embedded),
                        worker=worker,
                    ) as span:
                        span.set(seconds=result.seconds)
                    for embedded in result.embedded:
                        out[embedded.source_id] = embedded
                    record(result.seconds, worker=worker)
        return out

    def _embed_with_padding(
        self,
        matrix: GeneFeatureMatrix,
        pivot_strategy: str,
        rng: np.random.Generator,
    ) -> EmbeddedMatrix:
        """Embed one matrix under this engine's config (pivots padded)."""
        from .parallel_build import embed_with_padding

        return embed_with_padding(
            matrix.values,
            matrix.gene_ids,
            matrix.source_id,
            self.config,
            pivot_strategy,
            rng,
            tracer=self.obs.tracer,
        )

    @staticmethod
    def _payload_key(source_id: int, gene_index: int) -> int:
        """Pack (source, column) into one collision-free integer payload."""
        if source_id < 0:
            raise ValidationError(
                f"source_id must be >= 0 to pack a payload key, got {source_id}"
            )
        if not 0 <= gene_index < _PAYLOAD_GENE_LIMIT:
            raise ValidationError(
                f"matrices are limited to {_PAYLOAD_GENE_LIMIT} genes per "
                "source (larger column indices would collide with the next "
                f"source's payload keys), got gene index {gene_index}"
            )
        return source_id * _PAYLOAD_GENE_LIMIT + gene_index

    # ------------------------------------------------------------------
    # Query-graph inference (Fig. 4, line 1)
    # ------------------------------------------------------------------
    def infer_query_graph(
        self,
        query_matrix: GeneFeatureMatrix,
        gamma: float,
        *,
        metrics=None,
    ) -> ProbabilisticGraph:
        """Infer ``Q`` from ``M_Q`` with edge-inference pruning first.

        Pairs whose Markov upper bound is already ``<= gamma`` skip the
        Monte-Carlo estimation entirely (Lemma 3); the rest are estimated
        in one batched pass (one permutation block per surviving target
        column, see :mod:`repro.core.batch_inference`), and edges with
        ``p > gamma`` survive.

        ``metrics`` is the registry the Lemma-3 pruning counter records
        into -- :meth:`query` passes its per-query registry; direct
        callers default to the engine's shared one.
        """
        _check_thresholds(gamma)
        if metrics is None:
            metrics = self.obs.metrics
        tracer = self.obs.tracer
        pruned_lemma3 = metrics.counter(
            _names.QUERY_PRUNED,
            help="pairs discarded by pruning",
            engine=_ENGINE,
            stage="lemma3",
        )
        std = standardize_columns(query_matrix.values)
        ids = query_matrix.gene_ids
        length = std.shape[0]
        expected = math.sqrt(2.0 * length)  # Jensen bound, standardized vectors
        survivors: list[tuple[int, int]] = []
        with tracer.span(
            "query.infer.prune", pairs=len(ids) * (len(ids) - 1) // 2
        ):
            for s, t in itertools.combinations(range(len(ids)), 2):
                distance = float(np.linalg.norm(std[:, s] - std[:, t]))
                bound = markov_edge_upper_bound(distance, expected)
                if edge_inference_prunable(bound, gamma):
                    pruned_lemma3.inc()
                else:
                    survivors.append((s, t))
        with tracer.span("query.infer.estimate", pairs=len(survivors)):
            probabilities = self._inference.pair_block_probabilities(
                std, survivors, raw=query_matrix.values
            )
        edges: dict[tuple[int, int], float] = {}
        for s, t in survivors:
            p = probabilities[(s, t)]
            if p > gamma:
                edges[(ids[s], ids[t])] = p
        return ProbabilisticGraph(ids, edges)

    # ------------------------------------------------------------------
    # Query (Fig. 4)
    # ------------------------------------------------------------------
    def _stage_timer(self, stage: str, metrics):
        """The ``query.stage_seconds`` histogram for ``stage`` on ``metrics``."""
        return metrics.histogram(
            _names.STAGE_SECONDS,
            help="per-query stage wall-clock seconds",
            engine=_ENGINE,
            stage=stage,
        )

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Answer one typed :class:`~repro.core.spec.QuerySpec`.

        The single pipeline behind all three workload kinds (Fig. 4):
        infer -> traverse -> existence filter -> refine, with the filter
        and refinement stages parameterized by ``spec.kind``:

        * ``containment``: Lemma-5 filter at ``alpha``, exact refinement
          of Definition 4.
        * ``similarity``: the filter tolerates up to ``edge_budget``
          *certainly missing* anchor edges per source and relaxes the
          Lemma-5 product via
          :func:`~repro.core.pruning.relaxed_graph_existence_upper_bound`;
          refinement counts ``p <= gamma`` edges against the budget. When
          the budget covers every anchor edge, sources invisible to the
          traversal (all their anchor edges certainly missing) are
          recovered from the exact gene-holder sets, so the search has no
          false dismissals versus brute force.
        * ``topk``: filter at ``alpha = 0``; refinement visits candidates
          in descending upper-bound order while maintaining the running
          k-th-best probability as a dynamic pruning bound (stage
          ``topk_kth_bound``), so it refines no more candidates than the
          post-hoc sort while returning bit-identical answers.

        The read path is reentrant: all per-query accounting lives in a
        private :class:`~repro.obs.MetricsRegistry` and a private
        :class:`~repro.index.pagemanager.PageCounter`, merged into the
        engine's shared registry at the end -- any number of threads may
        call ``execute()`` on one built engine concurrently and every
        result carries exactly its own stats.
        """
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"execute() takes a QuerySpec, got {type(spec).__name__}"
            )
        if self.inverted_file is None or self.array_index is None:
            raise IndexNotBuiltError("call build() before execute()")
        kind = spec.kind
        gamma = spec.gamma
        budget = spec.edge_budget or 0
        # Top-k has no probability threshold: the ranking replaces it.
        filter_alpha = 0.0 if kind == "topk" else spec.alpha
        local = MetricsRegistry()  # this query's private delta registry
        pages = self.pages.counter()  # this query's private I/O tally
        tracer = self.obs.tracer
        seed_bounds: dict[tuple[int, tuple[int, int]], float] = {}
        started = time.perf_counter()
        with tracer.span(
            "query", engine=_ENGINE, kind=kind, gamma=gamma, alpha=spec.alpha
        ):
            with tracer.span("query.infer", genes=spec.matrix.num_genes):
                infer_started = time.perf_counter()
                query_graph = self.infer_query_graph(
                    spec.matrix, gamma, metrics=local
                )
                self._stage_timer(_names.STAGE_INFERENCE, local).observe(
                    time.perf_counter() - infer_started
                )
            if query_graph.num_edges == 0:
                # Degenerate query: every edge-free query is contained (with
                # empty-product probability 1) in any matrix holding its
                # genes.
                survivors = [
                    (source, 1.0)
                    for source in self._sources_with_all_genes(
                        query_graph.gene_ids
                    )
                ]
                candidates = len(survivors)
            else:
                anchor = self._pick_anchor(query_graph)
                neighbor_genes = sorted(query_graph.neighbors(anchor))
                with tracer.span(
                    "query.traverse",
                    anchor=anchor,
                    neighbors=len(neighbor_genes),
                ):
                    candidate_pairs = self._traverse(
                        anchor, neighbor_genes, gamma, pages=pages, metrics=local
                    )  # {(source_id, neighbor_gene): edge upper bound}
                # Candidate reuse: the traversal's leaf-level anchor-edge
                # bounds seed the refiner's bound table, so its prescreen
                # never recomputes what the index walk already paid for.
                seed_bounds = {
                    (source, edge_key(anchor, gene)): bound
                    for (source, gene), bound in candidate_pairs.items()
                }
                with tracer.span("query.filter", pairs=len(candidate_pairs)):
                    survivors = self._graph_existence_filter(
                        candidate_pairs,
                        neighbor_genes,
                        filter_alpha,
                        metrics=local,
                        edge_budget=budget if kind == "similarity" else 0,
                    )
                survivor_set = {source for source, _ub in survivors}
                candidates = sum(
                    1
                    for (source, _g) in candidate_pairs
                    if source in survivor_set
                )
                if kind == "similarity" and budget >= len(neighbor_genes):
                    # Discovery hole: a source with *every* anchor edge
                    # certainly missing never enters candidate_pairs, yet
                    # the budget absorbs all of them. Recover such sources
                    # from the exact gene-holder sets with the vacuous
                    # bound 1.0 (an empty relaxed product).
                    seen = {source for source, _g in candidate_pairs}
                    recovered = [
                        (source, 1.0)
                        for source in self._sources_with_all_genes(
                            query_graph.gene_ids
                        )
                        if source not in seen
                    ]
                    if recovered:
                        survivors = sorted(survivors + recovered)
                        candidates += len(recovered)
            self._stage_timer(_names.STAGE_RETRIEVE, local).observe(
                time.perf_counter() - started
            )
            local.counter(
                _names.QUERY_IO, help="page accesses", engine=_ENGINE
            ).inc(pages.accesses)
            local.counter(
                _names.QUERY_CANDIDATES,
                help="candidates surviving all pruning",
                engine=_ENGINE,
            ).inc(candidates)
            refiner = CandidateRefiner(
                query_graph,
                gamma,
                BatchEdgeEvaluator(self._inference, self.database.get),
                engine=_ENGINE,
                config=self.config.refine,
                metrics=local,
                tracer=tracer,
                seed_bounds=seed_bounds,
            )
            with tracer.span(
                "query.refine",
                candidates=len(survivors),
                strategy=self.config.refine.strategy,
            ) as refine_span:
                refine_started = time.perf_counter()
                if kind == "topk":
                    refined = refiner.refine_topk(survivors, spec.k)
                elif kind == "similarity":
                    refined = refiner.refine_similarity(
                        [source for source, _ub in survivors],
                        spec.alpha,
                        budget,
                    )
                else:
                    refined = refiner.refine_containment(
                        [source for source, _ub in survivors], spec.alpha
                    )
                answers = [
                    IMGRNAnswer(r.source_id, r.embedding, r.probability)
                    for r in refined
                ]
                self._stage_timer(_names.STAGE_REFINE, local).observe(
                    time.perf_counter() - refine_started
                )
                refine_span.set(answers=len(answers))
            local.counter(
                _names.QUERY_ANSWERS, help="answers returned", engine=_ENGINE
            ).inc(len(answers))
            local.counter(
                _names.QUERY_COUNT,
                help="queries answered",
                engine=_ENGINE,
                kind=kind,
            ).inc()
        delta = local.snapshot()
        self.obs.metrics.merge(local)
        return IMGRNResult(
            query_graph, answers, QueryStats.from_metrics(delta), metrics=delta
        )

    def add_matrix(self, matrix: GeneFeatureMatrix) -> None:
        """Incrementally index one new data source.

        Supports the prototype-system scenario of the paper's conclusion:
        gene feature data keeps arriving from institutions; the engine
        embeds the new matrix with its own pivots, inserts its points into
        the existing R*-tree, updates the inverted file, and recomputes the
        node signatures -- no full rebuild.

        Raises
        ------
        IndexNotBuiltError
            If :meth:`build` has not run yet.
        ValidationError
            If the source ID already exists (via the database).
        """
        if self.array_index is not None and self.tree is None:
            raise IndexNotBuiltError(
                "this engine holds a read-only mmap-loaded array index; "
                "reload with mmap_index=False (or rebuild) to mutate"
            )
        if self.tree is None or self.inverted_file is None:
            raise IndexNotBuiltError("call build() before add_matrix()")
        tracer = self.obs.tracer
        with tracer.span(
            "build.add_matrix",
            engine=_ENGINE,
            source=matrix.source_id,
            genes=matrix.num_genes,
        ):
            self.database.add(matrix)
            rng = np.random.default_rng((self.config.seed, matrix.source_id))
            embedded = self._embed_with_padding(matrix, "cost_model", rng)
            self._entries[matrix.source_id] = _MatrixEntry(
                matrix=matrix,
                embedded=embedded,
                standardized=standardize_matrix(matrix.values),
            )
            self.pages.pause()
            self.tree.reopen()
            points = embedded.points()
            for gene_index, gene_id in enumerate(embedded.gene_ids):
                payload = self._payload_key(matrix.source_id, gene_index)
                self.tree.insert(
                    points[gene_index], gene_id, matrix.source_id, payload
                )
                self.inverted_file.add(gene_id, matrix.source_id)
            self.tree.finalize()
            self.pages.resume()
            self._recompact()
        self.obs.metrics.counter(
            _names.BUILD_MATRICES, help="matrices indexed", engine=_ENGINE
        ).inc()
        self.obs.metrics.counter(
            _names.BUILD_POINTS, help="index points inserted", engine=_ENGINE
        ).inc(matrix.num_genes)

    def remove_matrix(self, source_id: int) -> None:
        """Remove one data source from the index (tree + inverted file).

        The dual of :meth:`add_matrix` for the prototype-system scenario:
        a retracted study or revoked data-sharing agreement takes its
        matrix out of the searchable index without a rebuild. The
        database object keeps the matrix (other references may hold it);
        only the index forgets it.

        Raises
        ------
        IndexNotBuiltError
            If :meth:`build` has not run yet.
        UnknownGeneError
            If the source is not indexed.
        """
        if self.array_index is not None and self.tree is None:
            raise IndexNotBuiltError(
                "this engine holds a read-only mmap-loaded array index; "
                "reload with mmap_index=False (or rebuild) to mutate"
            )
        if self.tree is None or self.inverted_file is None:
            raise IndexNotBuiltError("call build() before remove_matrix()")
        try:
            entry = self._entries.pop(source_id)
        except KeyError:
            raise UnknownGeneError(f"source {source_id} is not indexed") from None
        with self.obs.tracer.span(
            "build.remove_matrix",
            engine=_ENGINE,
            source=source_id,
            genes=entry.matrix.num_genes,
        ):
            self.pages.pause()
            for gene_index in range(entry.matrix.num_genes):
                payload = self._payload_key(source_id, gene_index)
                removed = self.tree.delete(payload)
                if not removed:
                    raise InternalError(
                        f"index entry for source {source_id} gene {gene_index} "
                        "was missing during removal"
                    )
            self.inverted_file.remove_source(source_id, entry.matrix.gene_ids)
            self.pages.resume()
            self._recompact()

    def _pick_anchor(self, query_graph: ProbabilisticGraph) -> int:
        """Anchor gene for the traversal (Fig. 4 line 2, or an ablation).

        Only genes with at least one query edge qualify: the traversal
        enumerates anchor-incident edge candidates.
        """
        strategy = self.config.anchor_strategy
        if strategy == "highest_degree":
            return query_graph.highest_degree_gene()
        connected = sorted(
            g for g in query_graph.gene_ids if query_graph.degree(g) > 0
        )
        if strategy == "first":
            return connected[0]
        rng = np.random.default_rng((self.config.seed, len(connected)))
        return connected[int(rng.integers(len(connected)))]

    # ------------------------------------------------------------------
    # Index traversal (Fig. 4, lines 7-27)
    # ------------------------------------------------------------------
    def _traverse(
        self,
        anchor: int,
        neighbor_genes: list[int],
        gamma: float,
        *,
        pages,
        metrics,
    ) -> dict[tuple[int, int], float]:
        """Fig. 4 traversal over the array-backed index view.

        A level-synchronous walk over node *pairs* ``(s, t)``: ``s`` must
        be able to hold the anchor gene and ``t`` one of its query
        neighbors. Each tree level's frontier of pairs is expanded to the
        children's cross products (row-major per pair, pairs in frontier
        order) and filtered in vectorized passes of at most
        ``_SLICE_CELLS`` cells: gene range (exact, on the gene-ID
        coordinate), then the ``V_f`` and ``V_d`` signatures, then Lemma
        6. Leaf pairs are joined row-wise (anchor row x neighbor row of
        one source) in (leaf pair, neighbor row) order and each joined
        point pair gets the scalar :meth:`_leaf_pair_bound`.

        This reaches the leaf pairs in depth-first preorder, the order a
        deepest-level-first priority queue with push-order ties pops
        them, so the result's insertion order -- which the Lemma-5
        product multiplies in -- the pruning counters and the page
        accesses (one per distinct node of every visited pair, charged
        per level) are those of that best-first walk.

        Returns ``{(source_id, neighbor_gene): edge upper bound}`` for
        every anchor-incident pair the Lemma-3 leaf bound does not prune.
        """
        store = self.array_index
        assert store is not None and self.inverted_file is not None
        config = self.config
        bits = config.bitvector_bits
        d = config.num_pivots
        pruned_help = "pairs discarded by pruning"

        def pruned(stage: str):
            return metrics.counter(
                _names.QUERY_PRUNED, help=pruned_help, engine=_ENGINE, stage=stage
            )

        pruned_gene_range = pruned("gene_range")
        pruned_gene_sig = pruned("bitvector_gene")
        pruned_source_sig = pruned("bitvector_source")
        pruned_lemma6 = pruned("lemma6")
        pruned_leaf = pruned("leaf_edge_bound")

        qvf_anchor = signature(anchor, bits)
        qvf_neighbors = 0
        qvd_anchor = self.inverted_file.sources_signature(anchor)
        qvd_neighbors = 0
        for gene in neighbor_genes:
            qvf_neighbors |= signature(gene, bits)
            qvd_neighbors |= self.inverted_file.sources_signature(gene)
        if qvd_anchor == 0 or qvd_neighbors == 0:
            return {}

        words = store.sig_words
        qa_vf = int_to_words(qvf_anchor, words)
        qn_vf = int_to_words(qvf_neighbors, words)
        q_both_vd = int_to_words(qvd_anchor & qvd_neighbors, words)
        neighbor_arr = np.asarray(neighbor_genes, dtype=np.int64)
        last_neighbor = neighbor_arr.shape[0] - 1

        lows = store.node_lows
        highs = store.node_highs
        child_start = store.node_child_start
        child_count = store.node_child_count
        page_ids = store.node_page_ids
        vf_words = store.node_vf_words
        vd_words = store.node_vd_words
        gene_ids = store.entry_gene_ids
        source_ids = store.entry_source_ids
        points = store.entry_points
        gene_dim = 2 * d

        def expand(s_nodes: np.ndarray, t_nodes: np.ndarray):
            """Surviving child pairs of one slice of internal node pairs.

            The gene-range and ``V_f`` tests are one-sided: they filter
            each gathered child, and only the cross products of the
            survivors are materialized. Per pair, ``n_s * n_t - a * b``
            cells fail the gene range (``a``, ``b`` children in range on
            each side) and ``a * b - a' * b'`` the signatures, the counts
            a filter over the full cross product makes.
            """
            n_pairs = s_nodes.shape[0]
            n_s = child_count[s_nodes]
            n_t = child_count[t_nodes]
            s_kids = _concat_ranges(child_start[s_nodes], n_s)
            t_kids = _concat_ranges(child_start[t_nodes], n_t)
            s_pair = np.repeat(np.arange(n_pairs), n_s)
            t_pair = np.repeat(np.arange(n_pairs), n_t)
            s_ok = (lows[s_kids, gene_dim] <= anchor) & (
                anchor <= highs[s_kids, gene_dim]
            )
            # Some query neighbor lies in the t child's gene-ID range.
            idx = np.searchsorted(neighbor_arr, lows[t_kids, gene_dim])
            t_ok = (idx <= last_neighbor) & (
                neighbor_arr[np.minimum(idx, last_neighbor)]
                <= highs[t_kids, gene_dim]
            )
            s_kids, s_pair = s_kids[s_ok], s_pair[s_ok]
            t_kids, t_pair = t_kids[t_ok], t_pair[t_ok]
            in_range = np.bincount(s_pair, minlength=n_pairs) * np.bincount(
                t_pair, minlength=n_pairs
            )
            pruned_gene_range.inc(int((n_s * n_t).sum() - in_range.sum()))
            s_ok = (vf_words[s_kids] & qa_vf).any(axis=1)
            t_ok = (vf_words[t_kids] & qn_vf).any(axis=1)
            s_kids, s_pair = s_kids[s_ok], s_pair[s_ok]
            t_kids, t_pair = t_kids[t_ok], t_pair[t_ok]
            a = np.bincount(s_pair, minlength=n_pairs)
            b = np.bincount(t_pair, minlength=n_pairs)
            cells = a * b
            pruned_gene_sig.inc(int(in_range.sum() - cells.sum()))
            # Each pair's a x b survivor cross product, row-major.
            local = _concat_ranges(np.zeros_like(cells), cells)
            width = np.repeat(b, cells)
            s_out = s_kids[np.repeat(np.cumsum(a) - a, cells) + local // width]
            t_out = t_kids[np.repeat(np.cumsum(b) - b, cells) + local % width]
            # Source signatures: the four-way AND must be non-zero.
            alive = (vd_words[s_out] & q_both_vd & vd_words[t_out]).any(axis=1)
            pruned_source_sig.inc(int(alive.size - np.count_nonzero(alive)))
            s_out, t_out = s_out[alive], t_out[alive]
            prunable = index_pairs_prunable(
                highs[s_out, 0:gene_dim:2],
                lows[t_out, 0:gene_dim:2],
                highs[t_out, 1:gene_dim:2],
                gamma,
            )
            pruned_lemma6.inc(int(np.count_nonzero(prunable)))
            return s_out[~prunable], t_out[~prunable]

        def scan_leaves(s_nodes: np.ndarray, t_nodes: np.ndarray) -> None:
            """Fig. 4, lines 16-21, over one slice of leaf pairs."""
            n_s = child_count[s_nodes]
            n_t = child_count[t_nodes]
            s_rows = _concat_ranges(child_start[s_nodes], n_s)
            s_pair = np.repeat(np.arange(s_nodes.shape[0]), n_s)
            is_anchor = gene_ids[s_rows] == anchor
            s_rows, s_pair = s_rows[is_anchor], s_pair[is_anchor]
            if s_rows.size == 0:
                return
            t_rows = _concat_ranges(child_start[t_nodes], n_t)
            t_pair = np.repeat(np.arange(t_nodes.shape[0]), n_t)
            is_neighbor = np.isin(gene_ids[t_rows], neighbor_arr)
            t_rows, t_pair = t_rows[is_neighbor], t_pair[is_neighbor]
            # Join on (leaf pair, source): a source holds the anchor gene
            # once, so each neighbor row meets at most one anchor row.
            sources, rank = np.unique(
                source_ids[np.concatenate((s_rows, t_rows))], return_inverse=True
            )
            keys = np.concatenate((s_pair, t_pair)) * sources.shape[0] + rank
            s_keys, t_keys = keys[: s_rows.shape[0]], keys[s_rows.shape[0] :]
            order = np.argsort(s_keys)
            pos = np.minimum(np.searchsorted(s_keys[order], t_keys), order.size - 1)
            joined = s_keys[order[pos]] == t_keys
            rows_s = s_rows[order[pos[joined]]]
            rows_t = t_rows[joined]
            for row_s, row_t, source, gene in zip(
                rows_s.tolist(),
                rows_t.tolist(),
                source_ids[rows_t].tolist(),
                gene_ids[rows_t].tolist(),
            ):
                bound = self._leaf_pair_bound(
                    source, anchor, gene, points[row_s], points[row_t]
                )
                if edge_inference_prunable(bound, gamma):
                    pruned_leaf.inc()
                else:
                    candidates[(source, gene)] = bound

        candidates: dict[tuple[int, int], float] = {}
        s_nodes = t_nodes = np.zeros(1, dtype=np.int64)  # the root pair
        for level in range(int(store.node_levels[0]), -1, -1):
            pages.access_many(
                np.concatenate(
                    (page_ids[s_nodes], page_ids[t_nodes[t_nodes != s_nodes]])
                )
            )
            n_s = child_count[s_nodes]
            n_t = child_count[t_nodes]
            if level == 0:
                for part in _slices(n_s + n_t):
                    scan_leaves(s_nodes[part], t_nodes[part])
                break
            survivors = [
                expand(s_nodes[part], t_nodes[part])
                for part in _slices(n_s * n_t)
            ]
            s_nodes = np.concatenate([s for s, _t in survivors])
            t_nodes = np.concatenate([t for _s, t in survivors])
            if s_nodes.size == 0:
                break
        return candidates

    def _leaf_pair_bound(
        self,
        source_id: int,
        gene_s: int,
        gene_t: int,
        point_s: np.ndarray,
        point_t: np.ndarray,
    ) -> float:
        """Tightest sound upper bound for one candidate gene pair.

        Combines the pivot bound (embedded coordinates only, Section 4.2)
        with the Markov bound on the true distance (Lemma 4); both are
        sound, so their minimum is. Takes the raw embedded points of the
        two genes (array-store entry rows).
        """
        d = self.config.num_pivots
        xs = point_s[0 : 2 * d : 2]
        xt = point_t[0 : 2 * d : 2]
        yt = point_t[1 : 2 * d : 2]
        bound = pivot_edge_upper_bound(xs, xt, yt)
        matrix_entry = self._entries[source_id]
        col_s = matrix_entry.matrix.column_index(gene_s)
        col_t = matrix_entry.matrix.column_index(gene_t)
        std = matrix_entry.standardized
        distance = float(np.linalg.norm(std[:, col_s] - std[:, col_t]))
        expected = expected_randomized_distance_jensen(std[:, col_t], std[:, col_s])
        return min(bound, markov_edge_upper_bound(distance, expected))

    # ------------------------------------------------------------------
    # Graph existence pruning (Lemma 5) + refinement (Fig. 4, lines 28-30)
    # ------------------------------------------------------------------
    def _graph_existence_filter(
        self,
        candidate_pairs: dict[tuple[int, int], float],
        neighbor_genes: list[int],
        alpha: float,
        *,
        metrics,
        edge_budget: int = 0,
    ) -> list[tuple[int, float]]:
        """Lemma-5 filter; returns surviving ``(source, upper_bound)`` pairs.

        With ``edge_budget > 0`` (similarity search) a source may be short
        up to that many anchor edges: certainly-missing edges are paid out
        of the budget first, and whatever budget remains relaxes the
        Lemma-5 product via
        :func:`~repro.core.pruning.relaxed_graph_existence_upper_bound`
        (refinement may drop that many more edges, so the bound must
        dominate every reachable outcome). ``edge_budget=0`` is the exact
        containment filter.
        """
        pruned_missing = metrics.counter(
            _names.QUERY_PRUNED,
            help="pairs discarded by pruning",
            engine=_ENGINE,
            stage="missing_edge",
        )
        pruned_lemma5 = metrics.counter(
            _names.QUERY_PRUNED,
            help="pairs discarded by pruning",
            engine=_ENGINE,
            stage="lemma5",
        )
        by_source: dict[int, dict[int, float]] = {}
        for (source, gene), bound in candidate_pairs.items():
            by_source.setdefault(source, {})[gene] = bound
        survivors: list[tuple[int, float]] = []
        needed = set(neighbor_genes)
        for source, bounds in sorted(by_source.items()):
            missing = len(needed) - len(bounds)
            if missing > edge_budget:
                pruned_missing.inc()
                continue  # more anchor edges certainly missing than budgeted
            upper = relaxed_graph_existence_upper_bound(
                bounds.values(), edge_budget - missing
            )
            if graph_existence_prunable(upper, alpha):
                pruned_lemma5.inc()
                continue
            survivors.append((source, upper))
        return survivors

    def _sources_with_all_genes(self, gene_ids: tuple[int, ...]) -> list[int]:
        """Indexed sources containing every query gene.

        Consults the inverted file's exact sets (not the database) so
        sources dropped via :meth:`remove_matrix` stay invisible.
        """
        assert self.inverted_file is not None
        sources: set[int] | None = None
        for gene in gene_ids:
            if gene not in self.inverted_file:
                return []
            holders = self.inverted_file.sources_of(gene)
            sources = set(holders) if sources is None else sources & holders
            if not sources:
                return []
        return sorted(sources or ())
