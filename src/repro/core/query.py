"""IM-GRN query processing (Section 5, Fig. 4).

:class:`IMGRNEngine` owns the whole indexed pipeline:

* **build**: per matrix, select pivots (Fig. 3), embed every gene vector
  into ``2d+1`` dims (Section 4.2), pack all points into one STR-packed
  tree (:func:`~repro.index.packer.str_pack`), and register gene/source
  IDs in the inverted bit-vector file.
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
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import EngineConfig
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import (
    IndexNotBuiltError,
    UnknownGeneError,
    ValidationError,
)
from ..eval.counters import QueryStats
from ..index.arraystore import ArrayStore, int_to_words
from ..index.bitvector import signature
from ..index.invertedfile import InvertedBitVectorFile
from ..index.packer import concat_ranges, str_pack
from ..index.pagemanager import PageManager
from ..obs import Observability, SeriesTable
from ..obs import names as _names
from .batch_inference import (
    BatchInferenceEngine,
    EstimatorState,
    standardize_columns,
)
from .column_table import ColumnTable, pair_distances, source_columns
from .embedding import EmbeddedMatrix
from .inference import EdgeProbabilityEstimator
from .matching import Embedding
from .parallel_build import (
    build_width,
    embed_shard,
    embed_with_padding,
    fan_out,
    partition_shards,
)
from .probgraph import ProbabilisticGraph, edge_key
from .pruning import (
    graph_existence_prunable,
    index_pairs_prunable,
    markov_edge_upper_bounds,
    pivot_edge_upper_bounds,
    relaxed_graph_existence_upper_bound,
)
from .refine import BatchEdgeEvaluator, CandidateRefiner
from .spec import QuerySpec

__all__ = ["IMGRNAnswer", "IMGRNResult", "IMGRNEngine"]

_ENGINE = "imgrn"

#: Gene-column capacity of one source in the packed index payload key:
#: ``(source, column)`` pairs pack as ``source * LIMIT + column``, so any
#: column index at or past the limit (or a negative source) would alias
#: another entry's payload.
_PAYLOAD_GENE_LIMIT = 1_000_000


#: Most cells (child pairs, or gathered leaf rows) one vectorized pass of
#: the traversal materializes; a wider tree level is processed slice by
#: slice, in order, so the walk's transient memory stays bounded.
_SLICE_CELLS = 1 << 14


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

    ``metrics`` is the query's delta of the engine's metrics registry,
    keyed by snapshot keys (see :func:`repro.obs.metric_key`); ``stats``
    projects it onto the paper's metric set and always equals
    :meth:`repro.eval.counters.QueryStats.from_metrics` of it.
    """

    query_graph: ProbabilisticGraph
    answers: list[IMGRNAnswer]
    stats: QueryStats
    metrics: dict[str, float] = field(default_factory=dict)

    def answer_sources(self) -> list[int]:
        """Sorted source IDs of the matching matrices."""
        return sorted(a.source_id for a in self.answers)


@dataclass
class _Retrieved:
    """What an engine's retrieval step hands to the shared pipeline.

    ``sources`` are refined in this order; ``candidates`` and
    ``io_pages`` feed ``query.candidates`` and ``query.io_accesses``.
    The indexed engine also passes each source's Lemma-5
    ``upper_bounds`` (they enable the bound-ordered top-k) and the
    traversal's per-edge ``seed_bounds``. A retrieval that already
    decided the query -- the materializing Baseline -- sets ``answers``
    and the pipeline skips refinement.
    """

    sources: list[int]
    candidates: int
    io_pages: int
    upper_bounds: list[float] | None = None
    seed_bounds: dict[tuple[int, tuple[int, int]], float] | None = None
    answers: list[IMGRNAnswer] | None = None


class _QueryMixin:
    """The one query pipeline (Fig. 4) every engine runs.

    :meth:`execute` infers ``Q``, retrieves candidates and refines them;
    an engine supplies only its ``_engine_label`` (the ``engine`` metric
    label), ``_series`` (its :class:`~repro.obs.SeriesTable` over
    ``obs.metrics``, tagged by :meth:`QueryStats.field_of`), ``is_built``,
    ``infer_query_graph(matrix, gamma, *, metrics)`` and the retrieval
    step ``_retrieve(spec, query_graph, metrics)``. ``metrics`` is the
    query's :class:`~repro.obs.QueryMeter`, which offers a registry's
    ``counter(...)`` / ``histogram(...)`` calls. ``query()`` /
    ``query_topk()`` are conveniences that build one
    :class:`~repro.core.spec.QuerySpec`; thresholds are keyword-only (the
    positional form raises :class:`TypeError` with a migration hint).
    """

    _engine_label: str

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

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Answer one typed :class:`~repro.core.spec.QuerySpec`.

        The single pipeline behind all three workload kinds: infer ``Q``
        (stage ``inference``), let the engine retrieve its candidates
        (stage ``retrieve``, timed from the start of the query), then
        refine them with exact probabilities (stage ``refine``):

        * ``containment``: exact refinement of Definition 4 at ``alpha``.
        * ``similarity``: refinement counts ``p <= gamma`` edges against
          ``edge_budget`` (``0`` is containment).
        * ``topk``: with per-source upper bounds, refinement visits
          candidates in descending bound order while maintaining the
          running k-th-best probability as a dynamic pruning bound
          (stage ``topk_kth_bound``); without them it refines everything
          at ``alpha = 0``, sorts by ``(-Pr{G}, source_id)`` and cuts at
          ``k``. Both return the same answers.

        The read path is reentrant: all per-query accounting lives in a
        private :class:`~repro.obs.QueryMeter` over the engine's series
        table, folded into the shared registry under one lock at the end
        -- any number of threads may call ``execute()`` on one built
        engine concurrently and every result carries exactly its own
        stats.
        """
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"execute() takes a QuerySpec, got {type(spec).__name__}"
            )
        if not self.is_built:
            raise IndexNotBuiltError("call build() before execute()")
        engine = self._engine_label
        local = self._series.meter()  # this query's private counts
        tracer = self.obs.tracer
        started = time.perf_counter()
        with tracer.span(
            "query", engine=engine, kind=spec.kind, gamma=spec.gamma, alpha=spec.alpha
        ):
            with tracer.span("query.infer", genes=spec.matrix.num_genes):
                query_graph = self.infer_query_graph(
                    spec.matrix, spec.gamma, metrics=local
                )
                self._stage_timer(_names.STAGE_INFERENCE, local).observe(
                    time.perf_counter() - started
                )
            found = self._retrieve(spec, query_graph, local)
            self._stage_timer(_names.STAGE_RETRIEVE, local).observe(
                time.perf_counter() - started
            )
            local.counter(_names.QUERY_IO, help="pages read", engine=engine).inc(
                found.io_pages
            )
            local.counter(
                _names.QUERY_CANDIDATES,
                help="candidates surviving all pruning",
                engine=engine,
            ).inc(found.candidates)
            answers = found.answers
            if answers is None:
                answers = self._refine(spec, query_graph, found, local)
            local.counter(
                _names.QUERY_ANSWERS, help="answers returned", engine=engine
            ).inc(len(answers))
            local.counter(
                _names.QUERY_COUNT,
                help="queries answered",
                engine=engine,
                kind=spec.kind,
            ).inc()
        delta, tagged = self._series.fold(local)
        return IMGRNResult(
            query_graph, answers, QueryStats.from_series(tagged), metrics=delta
        )

    def _stage_timer(self, stage: str, metrics):
        """The ``query.stage_seconds`` histogram for ``stage`` on ``metrics``."""
        return metrics.histogram(
            _names.STAGE_SECONDS,
            help="per-query stage wall-clock seconds",
            engine=self._engine_label,
            stage=stage,
        )

    def _edge_evaluator(self):
        """How refinement estimates edge probabilities: the batched engine
        over each source's :class:`EstimatorState` (``_source_state``)."""
        return BatchEdgeEvaluator(
            self._inference, self.database.get, self._source_state
        )

    def _refine(
        self,
        spec: QuerySpec,
        query_graph: ProbabilisticGraph,
        found: _Retrieved,
        metrics,
    ) -> list[IMGRNAnswer]:
        """Refine ``found.sources`` for ``spec.kind`` (Fig. 4, lines 28-30)."""
        tracer = self.obs.tracer
        refiner = CandidateRefiner(
            query_graph,
            spec.gamma,
            self._edge_evaluator(),
            engine=self._engine_label,
            metrics=metrics,
            tracer=tracer,
            seed_bounds=found.seed_bounds,
        )
        with tracer.span("query.refine", candidates=len(found.sources)) as span:
            started = time.perf_counter()
            if spec.kind != "topk":
                refined = refiner.refine(
                    found.sources, spec.alpha, spec.edge_budget or 0
                )
            elif found.upper_bounds is None:
                refined = refiner.refine_topk_posthoc(found.sources, spec.k)
            else:
                refined = refiner.refine_topk(
                    zip(found.sources, found.upper_bounds), spec.k
                )
            answers = [
                IMGRNAnswer(r.source_id, r.embedding, r.probability)
                for r in refined
            ]
            self._stage_timer(_names.STAGE_REFINE, metrics).observe(
                time.perf_counter() - started
            )
            span.set(answers=len(answers))
        return answers


@dataclass
class _MatrixEntry:
    """Per-matrix build artifacts the query phase needs.

    ``columns``, ``squares`` and ``means``
    (:func:`~repro.core.column_table.source_columns`) feed the
    traversal's :class:`~repro.core.column_table.ColumnTable`;
    once a table is published, ``columns`` is a view of its rows there.
    Refinement reads the source's :meth:`estimator_state` instead, whose
    columns are standardized the way the estimator's content keys
    require. ``points`` and ``genes`` are the source's packer rows (its
    index points and their gene IDs, in column order), which every
    :meth:`IMGRNEngine._repack` concatenates.
    """

    matrix: GeneFeatureMatrix
    embedded: EmbeddedMatrix
    columns: np.ndarray = field(repr=False)
    squares: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    genes: np.ndarray = field(repr=False)
    _estimator_state: EstimatorState | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _state_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @classmethod
    def of(cls, matrix: GeneFeatureMatrix, embedded: EmbeddedMatrix) -> "_MatrixEntry":
        """The entry of ``matrix``, its column statistics and packer rows
        computed eagerly.

        Raises
        ------
        ValidationError
            If the source's columns have no payload keys
            (:meth:`IMGRNEngine._payload_key`), before anything is built.
        """
        IMGRNEngine._payload_key(
            embedded.source_id, max(embedded.num_genes - 1, 0)
        )
        columns, squares, means = source_columns(matrix.values)
        genes = np.asarray(embedded.gene_ids, dtype=np.int64)
        return cls(matrix, embedded, columns, squares, means, embedded.points(), genes)

    def estimator_state(self, inference: BatchInferenceEngine) -> EstimatorState:
        """The source's refinement :class:`EstimatorState`, built by
        ``inference`` (the engine's own) on first use.

        Built and published once, under the entry's lock: threads that
        touch the source first together all get the one published state,
        so its columns are standardized and hashed once. The state admits
        the blocks drawn for it into the engine's permutation store, and
        :meth:`IMGRNEngine.remove_matrix` drops them by its seeds.
        """
        state = self._estimator_state
        if state is None:
            with self._state_lock:
                state = self._estimator_state
                if state is None:
                    state = self._estimator_state = inference.estimator_state(
                        self.matrix.values
                    )
        return state


class IMGRNEngine(_QueryMixin):
    """The indexed IM-GRN query engine of Section 5."""

    _engine_label = _ENGINE

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
        self.pages = PageManager()
        #: The index (see :mod:`repro.index.arraystore`) with its column
        #: table, published as one reference by :meth:`_publish`: after
        #: every repack, or when the persistence layer installs a
        #: ``np.memmap`` reload.
        self._table: ColumnTable | None = None
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
    def array_index(self) -> ArrayStore | None:
        """The published index store (``None`` before :meth:`build`)."""
        table = self._table
        return None if table is None else table.store

    @property
    def is_built(self) -> bool:
        return self._table is not None

    def _repack(self, changed: frozenset[int] | None = None) -> None:
        """STR-pack every indexed source's points into a fresh index.

        Sources are packed in indexing order (database order, added
        sources last), each source's genes in column order -- the order a
        fresh :meth:`build` over the same sources uses, so maintenance
        and rebuild give byte-identical stores. The packer rows are each
        entry's own (:class:`_MatrixEntry`), so a repack only concatenates
        them. The page-ID space only grows, so a query still holding the
        previous store keeps passing its page bounds checks. ``changed``
        is forwarded to :meth:`_publish`.
        """
        entries = self._entries.values()
        sources = np.fromiter(self._entries, dtype=np.int64, count=len(entries))
        sizes = np.array([e.genes.shape[0] for e in entries], dtype=np.int64)
        dim = 2 * self.config.num_pivots + 1
        with self.obs.tracer.span("build.index_insert", points=int(sizes.sum())):
            store = str_pack(
                np.concatenate([np.empty((0, dim))] + [e.points for e in entries]),
                np.concatenate([np.empty(0, np.int64)] + [e.genes for e in entries]),
                np.repeat(sources, sizes),
                concat_ranges(sources * _PAYLOAD_GENE_LIMIT, sizes),
                max_entries=self.config.rstar_max_entries,
                bitvector_bits=self.config.bitvector_bits,
            )
        self.pages.reserve(store.pages_allocated)
        self._publish(store, changed)

    def _publish(
        self, store: ArrayStore, changed: frozenset[int] | None = None
    ) -> None:
        """Build ``store``'s column table and publish the pair at once.

        ``changed`` names the sample lengths whose sources came or went
        since the last publication: only their length buffers are rebuilt,
        so an added source costs its own rows (plus one copy of its length
        group). ``None`` rebuilds every buffer.
        """
        self._table = ColumnTable.build(
            store,
            self._entries,
            payload_limit=_PAYLOAD_GENE_LIMIT,
            num_pivots=self.config.num_pivots,
            previous=None if changed is None else self._table,
            changed=changed or frozenset(),
        )

    def _source_state(self, source: int) -> EstimatorState:
        """The indexed source's estimator state; a source removed while a
        query still refines it gets a transient one, which admits nothing
        to the permutation store."""
        entry = self._entries.get(source)
        if entry is None:
            return self._inference.estimator_state(
                self.database.get(source).values, admit=False
            )
        return entry.estimator_state(self._inference)

    def _require_mutable(self, operation: str) -> None:
        """Refuse index changes on unbuilt or mmap-loaded engines."""
        store = self.array_index
        # A store always has a root node, so node_levels is never an
        # empty (unmappable) array: it is a memmap exactly when mapped.
        if store is not None and isinstance(store.node_levels, np.memmap):
            raise IndexNotBuiltError(
                "this engine holds a read-only mmap-loaded array index; "
                "reload with mmap_index=False (or rebuild) to mutate"
            )
        if store is None or self.inverted_file is None:
            raise IndexNotBuiltError(f"call build() before {operation}()")

    def inference_stats(self) -> dict[str, float]:
        """Edge-probability cache counters of the batched inference engine."""
        return self._inference.stats()

    def build(self, pivot_strategy: str = "cost_model") -> float:
        """Embed every matrix, then pack the index and the inverted file.

        The numerically heavy per-matrix work (pivot selection, embedding,
        expected-distance computation) runs in shards of
        ``config.build.shard_size`` matrices, striped over
        :func:`~repro.core.parallel_build.build_width` forked processes
        (``min(usable CPUs, shards)``; serial under tracing or beside a
        live thread). Shard outputs are merged in database order, so every
        width produces a bit-identical index (see
        :mod:`repro.core.parallel_build`). The points are then
        STR-packed in one pass (:meth:`_repack`) -- a deliberate departure
        from the paper's one-at-a-time R* insertion (§5.1) with identical
        answers and fewer pages read per query.

        Returns the wall-clock build time in seconds (what Fig. 13 plots).
        """
        config = self.config
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        started = time.perf_counter()
        inverted = InvertedBitVectorFile(config.bitvector_bits)
        matrices = list(self.database)
        shards = partition_shards(matrices, config.build.shard_size)
        width = build_width(len(shards), tracer.enabled)
        with tracer.span("build", engine=_ENGINE, width=width, shards=len(shards)):
            embedded_by_source = self._embed_shards(shards, pivot_strategy, width)
            with tracer.span("build.merge", engine=_ENGINE, matrices=len(matrices)):
                entries = {
                    matrix.source_id: _MatrixEntry.of(
                        matrix, embedded_by_source[matrix.source_id]
                    )
                    for matrix in matrices
                }
                with tracer.span("build.inverted_file", matrices=len(matrices)):
                    for matrix in matrices:
                        inverted.add_source(matrix.source_id, matrix.gene_ids)
                # Every entry validated: only now replace the engine's state.
                self.pages = PageManager()
                self._entries = entries
                self._inference.clear_blocks()
                self._repack()
        self.inverted_file = inverted
        self.build_seconds = time.perf_counter() - started
        metrics.counter(
            _names.BUILD_MATRICES, help="matrices indexed", engine=_ENGINE
        ).inc(len(matrices))
        metrics.counter(
            _names.BUILD_POINTS, help="index points inserted", engine=_ENGINE
        ).inc(sum(m.num_genes for m in matrices))
        metrics.histogram(
            _names.BUILD_SECONDS, help="index build seconds", engine=_ENGINE
        ).observe(self.build_seconds)
        return self.build_seconds

    def _embed_shards(self, shards, pivot_strategy: str, width: int) -> dict:
        """Embed every shard, in-process or across ``width`` processes.

        Returns ``{source_id: EmbeddedMatrix}``. The in-process path
        records one ``build.shard`` span per shard; either path counts
        each shard's worker-measured embed seconds into the
        ``build.shards`` / ``build.shard_seconds`` series per worker.
        """
        config = self.config
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        if width > 1:
            stripes = fan_out(shards, width, config, pivot_strategy)
        else:
            stripes = [[]]
            for shard in shards:
                with tracer.span(
                    "build.shard", shard=shard.index, sources=len(shard.matrices)
                ) as span:
                    result = embed_shard(shard, config, pivot_strategy, tracer=tracer)
                    span.set(seconds=result.seconds)
                stripes[0].append(result)
        out: dict[int, EmbeddedMatrix] = {}
        for worker, results in enumerate(stripes):
            for result in results:
                for embedded in result.embedded:
                    out[embedded.source_id] = embedded
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
                ).observe(result.seconds)
        return out

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
        ``p > gamma`` survive. A query column that copies a stored column
        gathers the block refinement admitted to the permutation store;
        query columns never enter the store.

        ``metrics`` is what the Lemma-3 pruning counter records into --
        :meth:`execute` passes its query's meter; direct callers default
        to the engine's shared registry.
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
        pairs = list(itertools.combinations(range(len(ids)), 2))
        with tracer.span("query.infer.prune", pairs=len(pairs)):
            s_cols, t_cols = np.triu_indices(len(ids), 1)
            distances = pair_distances(std.T[s_cols], std.T[t_cols])
            prunable = markov_edge_upper_bounds(distances, expected) <= gamma
            pruned_lemma3.inc(int(np.count_nonzero(prunable)))
            survivors = list(itertools.compress(pairs, ~prunable))
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
    # Retrieval (Fig. 4, lines 2-27)
    # ------------------------------------------------------------------
    def _retrieve(
        self, spec: QuerySpec, query_graph: ProbabilisticGraph, metrics
    ) -> _Retrieved:
        """Traverse the index, then apply the existence filter.

        * ``containment``: Lemma-5 filter at ``alpha``.
        * ``similarity``: the filter tolerates up to ``edge_budget``
          *certainly missing* anchor edges per source and relaxes the
          Lemma-5 product via
          :func:`~repro.core.pruning.relaxed_graph_existence_upper_bound`.
          When the budget covers every anchor edge, sources invisible to
          the traversal (all their anchor edges certainly missing) are
          recovered from the exact gene-holder sets, so the search has no
          false dismissals versus brute force.
        * ``topk``: filter at ``alpha = 0``; the surviving sources' upper
          bounds order the refinement.

        Page accesses go to a private
        :class:`~repro.index.pagemanager.PageCounter`, so concurrent
        queries never share a tally.
        """
        if query_graph.num_edges == 0:
            # Degenerate query: every edge-free query is contained (with
            # empty-product probability 1) in any matrix holding its genes.
            sources = self._sources_with_all_genes(query_graph.gene_ids)
            return _Retrieved(
                sources, len(sources), 0, upper_bounds=[1.0] * len(sources)
            )
        budget = spec.edge_budget or 0
        pages = self.pages.counter()
        tracer = self.obs.tracer
        anchor = self._pick_anchor(query_graph)
        neighbor_genes = sorted(query_graph.neighbors(anchor))
        with tracer.span(
            "query.traverse", anchor=anchor, neighbors=len(neighbor_genes)
        ):
            candidate_pairs = self._traverse(
                anchor, neighbor_genes, spec.gamma, pages=pages, metrics=metrics
            )  # {(source_id, neighbor_gene): edge upper bound}
        with tracer.span("query.filter", pairs=len(candidate_pairs)):
            survivors = self._graph_existence_filter(
                candidate_pairs,
                neighbor_genes,
                0.0 if spec.kind == "topk" else spec.alpha,
                metrics=metrics,
                edge_budget=budget,
            )
        survivor_set = {source for source, _ub in survivors}
        candidates = sum(
            1 for (source, _g) in candidate_pairs if source in survivor_set
        )
        if budget >= len(neighbor_genes):
            # Discovery hole: a source with *every* anchor edge certainly
            # missing never enters candidate_pairs, yet the budget absorbs
            # all of them. Recover such sources from the exact gene-holder
            # sets with the vacuous bound 1.0 (an empty relaxed product).
            seen = {source for source, _g in candidate_pairs}
            recovered = [
                (source, 1.0)
                for source in self._sources_with_all_genes(query_graph.gene_ids)
                if source not in seen
            ]
            if recovered:
                survivors = sorted(survivors + recovered)
                candidates += len(recovered)
        return _Retrieved(
            [source for source, _ub in survivors],
            candidates,
            pages.accesses,
            upper_bounds=[upper for _s, upper in survivors],
            # Candidate reuse: the traversal's leaf-level anchor-edge
            # bounds seed the refiner's bound table, so its prescreen
            # never recomputes what the index walk already paid for.
            seed_bounds={
                (source, edge_key(anchor, gene)): bound
                for (source, gene), bound in candidate_pairs.items()
            },
        )

    def add_matrix(self, matrix: GeneFeatureMatrix) -> None:
        """Incrementally index one new data source.

        Supports the prototype-system scenario of the paper's conclusion:
        gene feature data keeps arriving from institutions; the engine
        embeds only the new matrix with its own pivots, updates the
        inverted file, and repacks the index with the new source's rows
        appended -- the store equals a fresh build over the same sources.

        Raises
        ------
        IndexNotBuiltError
            If :meth:`build` has not run yet.
        ValidationError
            If the source ID already exists (via the database) or the
            matrix has too many genes to key (:meth:`_payload_key`); the
            engine is then unchanged.
        """
        self._require_mutable("add_matrix")
        tracer = self.obs.tracer
        with tracer.span(
            "build.add_matrix",
            engine=_ENGINE,
            source=matrix.source_id,
            genes=matrix.num_genes,
        ):
            rng = np.random.default_rng((self.config.seed, matrix.source_id))
            embedded = embed_with_padding(
                matrix.values,
                matrix.gene_ids,
                matrix.source_id,
                self.config,
                "cost_model",
                rng,
                tracer=tracer,
            )
            # Both steps validate before the first mutation: a rejected
            # arrival leaves the engine as it was.
            entry = _MatrixEntry.of(matrix, embedded)
            self.database.add(matrix)
            self._entries[matrix.source_id] = entry
            self.inverted_file.add_source(matrix.source_id, embedded.gene_ids)
            self._repack(frozenset({entry.columns.shape[1]}))
        self.obs.metrics.counter(
            _names.BUILD_MATRICES, help="matrices indexed", engine=_ENGINE
        ).inc()
        self.obs.metrics.counter(
            _names.BUILD_POINTS, help="index points inserted", engine=_ENGINE
        ).inc(matrix.num_genes)

    def remove_matrix(self, source_id: int) -> None:
        """Remove one data source from the index and the inverted file.

        The dual of :meth:`add_matrix` for the prototype-system scenario:
        a retracted study or revoked data-sharing agreement takes its
        matrix out of the searchable index without a rebuild. The
        database object keeps the matrix (other references may hold it);
        only the index forgets it, and the permutation store forgets the
        blocks refinement admitted for its columns, if refinement built
        the source's state. This only bounds memory; answers never depend
        on the store. A query that took the source before the removal may
        admit some blocks again, and an engine that removes sources
        without rebuilding keeps those until the next :meth:`build`.
        Dropping by content seed also drops a block that a byte-identical
        column of a still-indexed source uses; that column draws the same
        bytes again on its next refinement.

        Raises
        ------
        IndexNotBuiltError
            If :meth:`build` has not run yet.
        UnknownGeneError
            If the source is not indexed.
        """
        self._require_mutable("remove_matrix")
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
            self.inverted_file.remove_source(source_id, entry.matrix.gene_ids)
            self._repack(frozenset({entry.columns.shape[1]}))
            state = entry._estimator_state
            if state is not None:
                self._inference.drop_blocks(state.seeds)

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
        6 -- unless the store-level gate
        (:meth:`~repro.core.column_table.ColumnTable.lemma6_may_prune`)
        proves that no node pair of the store can prune at ``gamma``,
        in which case the walk skips the kernel with the same survivors
        and counters. Leaf pairs are joined row-wise (anchor row x
        neighbor row of one source) in (leaf pair, neighbor row) order;
        each slice's joined point pairs are bounded in one
        :meth:`_leaf_pair_bounds` call and Lemma 3 drops those at or
        below ``gamma``.

        The walk reads the published column table once and uses its
        store throughout, so a concurrent repack never mixes two stores
        in one query.

        This reaches the leaf pairs in depth-first preorder, the order a
        deepest-level-first priority queue with push-order ties pops
        them, so the result's insertion order -- which the Lemma-5
        product multiplies in -- the pruning counters and the page
        accesses (one per distinct node of every visited pair, charged
        per level) are those of that best-first walk.

        Returns ``{(source_id, neighbor_gene): edge upper bound}`` for
        every anchor-incident pair the Lemma-3 leaf bound does not prune.
        """
        table = self._table
        assert table is not None and self.inverted_file is not None
        store = table.store
        lemma6 = table.lemma6_may_prune(gamma)
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
            s_kids = concat_ranges(child_start[s_nodes], n_s)
            t_kids = concat_ranges(child_start[t_nodes], n_t)
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
            local = concat_ranges(np.zeros_like(cells), cells)
            width = np.repeat(b, cells)
            s_out = s_kids[np.repeat(np.cumsum(a) - a, cells) + local // width]
            t_out = t_kids[np.repeat(np.cumsum(b) - b, cells) + local % width]
            # Source signatures: the four-way AND must be non-zero.
            alive = (vd_words[s_out] & q_both_vd & vd_words[t_out]).any(axis=1)
            pruned_source_sig.inc(int(alive.size - np.count_nonzero(alive)))
            s_out, t_out = s_out[alive], t_out[alive]
            if not lemma6:
                return s_out, t_out
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
            s_rows = concat_ranges(child_start[s_nodes], n_s)
            s_pair = np.repeat(np.arange(s_nodes.shape[0]), n_s)
            is_anchor = gene_ids[s_rows] == anchor
            s_rows, s_pair = s_rows[is_anchor], s_pair[is_anchor]
            if s_rows.size == 0:
                return
            t_rows = concat_ranges(child_start[t_nodes], n_t)
            t_pair = np.repeat(np.arange(t_nodes.shape[0]), n_t)
            genes = gene_ids[t_rows]
            idx = np.minimum(np.searchsorted(neighbor_arr, genes), last_neighbor)
            is_neighbor = neighbor_arr[idx] == genes
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
            if rows_t.size == 0:
                return
            bounds = self._leaf_pair_bounds(table, rows_s, rows_t)
            keep = bounds > gamma  # Lemma 3 prunes ub <= gamma
            pruned_leaf.inc(int(keep.size - np.count_nonzero(keep)))
            rows_t = rows_t[keep]
            for source, gene, bound in zip(
                source_ids[rows_t].tolist(),
                gene_ids[rows_t].tolist(),
                bounds[keep].tolist(),
            ):
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

    def _leaf_pair_bounds(
        self, table: ColumnTable, rows_s: np.ndarray, rows_t: np.ndarray
    ) -> np.ndarray:
        """Tightest sound upper bounds for joined index-entry pairs.

        Pair ``i`` joins anchor entry ``rows_s[i]`` with neighbor entry
        ``rows_t[i]`` of the same source. Its bound is the minimum of the
        pivot bound (embedded coordinates only, Section 4.2) and the
        Markov bound on the true distance (Lemma 4); both are sound, so
        their minimum is. The Markov half comes from ``table``
        (:meth:`~repro.core.column_table.ColumnTable.markov_bounds`): one
        batched distance kernel per sample length over the gathered
        column rows, no per-source work.
        """
        d = self.config.num_pivots
        points = table.store.entry_points
        pivot = pivot_edge_upper_bounds(
            points[rows_s, 0 : 2 * d : 2],
            points[rows_t, 0 : 2 * d : 2],
            points[rows_t, 1 : 2 * d : 2],
        )
        markov = table.markov_bounds(rows_s, rows_t)
        return np.where(markov < pivot, markov, pivot)

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
