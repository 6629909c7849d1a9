"""Unified batched candidate refinement shared by the query engines.

Refinement is the last stage of the Fig.-4 pipeline: every candidate
that survived index pruning has its query edges verified with exact
Monte-Carlo probabilities (Definition 4). :class:`CandidateRefiner` is
the one refinement path every engine but the materializing Baseline
runs. Per candidate it is cache-first and columnar:

* **stored columns prepared once** -- each source's columns are
  standardized and content-hashed once per engine, in its
  :class:`~repro.core.batch_inference.EstimatorState`; a candidate
  only maps its query edges to column pairs and builds their cache keys
  from the stored seeds;
* **decide from the cache first** -- all query edges are resolved from
  the engine's content-keyed
  :class:`~repro.core.batch_inference.EdgeProbabilityCache` in one
  locked lookup; the exact cached estimates (each its own upper bound)
  and sound Markov bounds (Lemma 4, or the traversal's anchor-edge
  bounds) for the rest feed one discard check, so a candidate the
  cache already rejects never reaches the estimator;
* **batched evaluation** -- a candidate still undecided has its
  uncached edges estimated in one pass through
  :meth:`~repro.core.batch_inference.BatchInferenceEngine.pair_block_probabilities`
  (one permutation block per distinct target column, gathered from the
  engine's permutation store, else drawn and admitted to it when the
  state belongs to an indexed source), reusing the lookup's cache
  keys.

Bit-identity contract: answers are decided by replaying the historical
per-pair loop over the probabilities in sorted query-edge order -- the
same multiplication order and the same comparisons -- so answers,
probabilities and the ``query.*`` pruning counters equal the per-pair
reference. All probability factors lie in ``[0, 1]``, so partial
products are monotone non-increasing; a bound-based discard therefore
only ever removes a candidate whose replay must fail (``refine.*`` are
diagnostics of this path; see ``docs/observability.md``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import MetricsRegistry, QueryMeter
from ..obs import names as _names
from .batch_inference import EstimatorState
from .matching import Embedding
from .probgraph import ProbabilisticGraph
from .pruning import markov_edge_upper_bounds, relaxed_graph_existence_upper_bound

__all__ = [
    "BatchEdgeEvaluator",
    "CandidateRefiner",
    "RefinedAnswer",
    "ScalarEdgeEvaluator",
]

#: A query edge as its canonical sorted (gene, gene) key.
EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class RefinedAnswer:
    """One refined candidate: the forced-mapping embedding plus ``Pr{G}``.

    Engines convert these into their public answer type
    (:class:`repro.core.query.IMGRNAnswer`); keeping the refinement
    result engine-neutral is what lets one layer serve all of them.
    """

    source_id: int
    embedding: Embedding
    probability: float


@dataclass(frozen=True)
class QueryColumns:
    """One candidate's query edges, as an evaluator looked them up.

    ``pairs[i]`` are the column indices in ``raw`` (the source's values)
    of the ``i``-th query edge; ``cached[i]`` is its cached estimate,
    ``None`` when not cached. ``state`` (the source's estimator state)
    and ``keys`` (the pairs' cache keys) are what the batched evaluator
    needs to estimate the rest without a second lookup.
    """

    raw: np.ndarray
    pairs: list[tuple[int, int]]
    cached: list[float | None]
    state: EstimatorState | None = None
    keys: list[int] | None = None


def _query_pairs(
    matrix, genes: Sequence[int], edges: Sequence[EdgeKey]
) -> list[tuple[int, int]] | None:
    """Each query edge's column pair in ``matrix``, or ``None`` when a
    query gene is missing from the source."""
    if any(gene not in matrix for gene in genes):
        return None
    return [(matrix.column_index(u), matrix.column_index(v)) for u, v in edges]


class BatchEdgeEvaluator:
    """Edge evaluation against stored matrices via the batched engine.

    Reads each source's :class:`~repro.core.batch_inference.EstimatorState`
    through ``get_state``: columns standardized by the vectorized
    :func:`~repro.core.batch_inference.standardize_columns` --
    byte-identical to what ``pair_probability`` applies to each vector,
    so batched probabilities and their content-seeded cache keys equal
    the scalar calls exactly. :meth:`bounds` derives the sound Markov
    upper bounds (Lemma 4) from the same standardized columns.
    """

    supports_bounds = True

    def __init__(
        self,
        inference,
        get_matrix: Callable[[int], "object"],
        get_state: Callable[[int], EstimatorState],
    ) -> None:
        self._inference = inference
        self._get_matrix = get_matrix
        self._get_state = get_state

    def lookup(
        self, source: int, genes: Sequence[int], edges: Sequence[EdgeKey]
    ) -> QueryColumns | None:
        """The candidate's edge columns and their cached estimates, in one
        cache lookup; ``None`` when a query gene is missing."""
        matrix = self._get_matrix(source)
        pairs = _query_pairs(matrix, genes, edges)
        if pairs is None:
            return None
        state = self._get_state(source)
        keys, cached = self._inference.cached_pairs(state.seeds, pairs)
        return QueryColumns(matrix.values, pairs, cached, state, keys)

    def bounds(self, columns: QueryColumns, edges: Sequence[int]) -> list[float]:
        """Markov upper bounds on the existence probabilities of the
        query edges at positions ``edges``, in one vectorized pass."""
        std = columns.state.std
        s = [columns.pairs[i][0] for i in edges]
        t = [columns.pairs[i][1] for i in edges]
        distance = np.linalg.norm(std[:, s] - std[:, t], axis=0)
        expected = math.sqrt(2.0 * std.shape[0])  # Jensen, standardized
        return markov_edge_upper_bounds(distance, expected).tolist()

    def evaluate(self, columns: QueryColumns, edges: Sequence[int]) -> list[float]:
        """Estimates for the (uncached) query edges at positions ``edges``,
        one batched pass."""
        state = columns.state
        pairs = [columns.pairs[i] for i in edges]
        keys = None if columns.keys is None else [columns.keys[i] for i in edges]
        block = self._inference.pair_block_probabilities(
            state.std,
            pairs,
            raw=columns.raw,
            seeds=state.seeds,
            keys=keys,
            admit=state.admit,
        )
        return [block[pair] for pair in pairs]


class ScalarEdgeEvaluator:
    """Scalar fallback for engines without a batched estimator.

    The measure engine's randomized-measure probabilities have neither a
    block evaluator, a shared cache nor a closed-form sound bound, so
    this evaluator finds nothing cached and reports ``supports_bounds =
    False``; the refiner still runs the unified decision replay.
    """

    supports_bounds = False

    def __init__(
        self,
        pair_probability: Callable[[np.ndarray, np.ndarray], float],
        get_matrix: Callable[[int], "object"],
    ) -> None:
        self._pair_probability = pair_probability
        self._get_matrix = get_matrix

    def lookup(
        self, source: int, genes: Sequence[int], edges: Sequence[EdgeKey]
    ) -> QueryColumns | None:
        matrix = self._get_matrix(source)
        pairs = _query_pairs(matrix, genes, edges)
        if pairs is None:
            return None
        return QueryColumns(matrix.values, pairs, [None] * len(pairs))

    def bounds(self, columns: QueryColumns, edges: Sequence[int]) -> list[float]:
        raise NotImplementedError("scalar evaluator has no sound bounds")

    def evaluate(self, columns: QueryColumns, edges: Sequence[int]) -> list[float]:
        raw = columns.raw
        return [
            self._pair_probability(raw[:, s], raw[:, t])
            for s, t in (columns.pairs[i] for i in edges)
        ]


class CandidateRefiner:
    """Query-scoped refinement of surviving candidates.

    One refiner serves one query and every kind-specific entry point
    (:meth:`refine`, :meth:`refine_topk`, :meth:`refine_topk_posthoc`).
    It keeps no per-source state: each candidate is looked up, decided
    and dropped.

    Parameters
    ----------
    query_graph:
        The inferred query GRN; edges are replayed in its sorted key
        order, which is what makes products bit-identical to the
        historical loops.
    gamma:
        Edge-existence threshold of Definition 3.
    evaluator:
        :class:`BatchEdgeEvaluator` or :class:`ScalarEdgeEvaluator`.
    engine:
        Engine label for the ``refine.*`` / ``query.pruned_pairs``
        series.
    metrics:
        The query's :class:`~repro.obs.QueryMeter` (a
        :class:`~repro.obs.MetricsRegistry` works as well).
    tracer:
        The engine's tracer; one ``refine.source`` span per candidate
        that reaches the batched estimator.
    seed_bounds:
        Optional ``{(source, edge): upper bound}`` table reused from the
        index traversal (the leaf-level anchor-edge bounds), used in
        place of the Markov bound for the edges it covers.
    """

    def __init__(
        self,
        query_graph: ProbabilisticGraph,
        gamma: float,
        evaluator,
        *,
        engine: str,
        metrics: QueryMeter | MetricsRegistry,
        tracer,
        seed_bounds: dict[tuple[int, EdgeKey], float] | None = None,
    ) -> None:
        self._edges = [key for key, _p in query_graph.edges()]
        self._genes = sorted(query_graph.gene_ids)
        self._mapping = tuple((g, g) for g in self._genes)
        self._gamma = gamma
        self._evaluator = evaluator
        self._metrics = metrics
        self._tracer = tracer
        self._engine = engine
        self._seed_bounds = seed_bounds or {}
        self._sources = metrics.counter(
            _names.REFINE_SOURCES, help="candidates refined", engine=engine
        )
        self._evaluated = metrics.counter(
            _names.REFINE_EDGES,
            help="edge probabilities obtained (cached or estimated)",
            engine=engine,
        )
        self._prescreened = metrics.counter(
            _names.REFINE_PRESCREENED,
            help="candidates discarded by cached estimates and bounds alone",
            engine=engine,
        )
        self._batches = metrics.counter(
            _names.REFINE_BATCHES, help="batched estimator calls", engine=engine
        )

    # -- kind-specific entry points ------------------------------------
    def refine(
        self, sources: Iterable[int], alpha: float, edge_budget: int
    ) -> list[RefinedAnswer]:
        """Budget-aware similarity; ``edge_budget=0`` is Definition-4
        containment."""
        answers: list[RefinedAnswer] = []
        for source in sources:
            matched, probability = self._refine_source(
                source, alpha=alpha, budget=edge_budget, kth_best=0.0, bounded=False
            )
            if matched:
                answers.append(
                    RefinedAnswer(
                        source,
                        Embedding(self._mapping, probability),
                        probability,
                    )
                )
        return answers

    def refine_topk_posthoc(
        self, sources: Iterable[int], k: int
    ) -> list[RefinedAnswer]:
        """Scan-engine top-k: refine everything at ``alpha=0``, sort, cut."""
        answers = self.refine(sources, 0.0, 0)
        answers.sort(key=lambda a: (-a.probability, a.source_id))
        del answers[k:]
        return answers

    def refine_topk(
        self, survivors: Iterable[tuple[int, float]], k: int
    ) -> list[RefinedAnswer]:
        """Index-aware top-k with a running k-th-best bound.

        Visits candidates in descending Lemma-5 upper-bound order (ties
        by source ID) while a min-heap tracks the ``k`` highest exact
        probabilities so far. Once ``k`` answers exist, a candidate
        whose upper bound is *strictly* below the running k-th best
        cannot reach the top-k and is skipped without touching the raw
        data (pruning stage ``topk_kth_bound``); strictness preserves
        the ``(-probability, source_id)`` tie order, so the answers are
        bit-identical to the first ``k`` of the post-hoc ``alpha=0``
        sort.
        """
        pruned_kth = self._metrics.counter(
            _names.QUERY_PRUNED,
            help="pairs discarded by pruning",
            engine=self._engine,
            stage="topk_kth_bound",
        )
        best: list[float] = []  # min-heap of the k highest probabilities
        answers: list[RefinedAnswer] = []
        for source, upper in sorted(survivors, key=lambda su: (-su[1], su[0])):
            bounded = len(best) >= k
            kth_best = best[0] if bounded else 0.0
            if bounded and upper < kth_best:
                pruned_kth.inc()
                continue
            matched, probability = self._refine_source(
                source, alpha=0.0, budget=0, kth_best=kth_best, bounded=bounded
            )
            if not matched:
                continue
            answers.append(
                RefinedAnswer(
                    source, Embedding(self._mapping, probability), probability
                )
            )
            heapq.heappush(best, probability)
            if len(best) > k:
                heapq.heappop(best)
        answers.sort(key=lambda a: (-a.probability, a.source_id))
        del answers[k:]
        return answers

    # -- shared machinery ----------------------------------------------
    def _refine_source(
        self,
        source: int,
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> tuple[bool, float]:
        columns = self._evaluator.lookup(source, self._genes, self._edges)
        if columns is None:  # a query gene is missing from the source
            return False, 0.0
        self._sources.inc()
        probabilities = list(columns.cached)
        uncached = [i for i, p in enumerate(probabilities) if p is None]
        self._evaluated.inc(len(probabilities) - len(uncached))
        if probabilities:  # an edge-free query has nothing to verify
            if self._evaluator.supports_bounds and self._prunable(
                self._upper_bounds(source, columns, uncached),
                alpha=alpha,
                budget=budget,
                kth_best=kth_best,
                bounded=bounded,
            ):
                self._prescreened.inc()
                return False, 0.0
            # One estimator call per undecided candidate, even when the
            # cache held every edge: the span marks a verified candidate.
            with self._tracer.span(
                _names.REFINE_SOURCE_SPAN, source=source, edges=len(uncached)
            ):
                estimated = self._evaluator.evaluate(columns, uncached)
                self._batches.inc()
                self._evaluated.inc(len(uncached))
            for i, p in zip(uncached, estimated):
                probabilities[i] = p
        return self._decide(
            probabilities,
            alpha=alpha,
            budget=budget,
            kth_best=kth_best,
            bounded=bounded,
        )

    def _upper_bounds(
        self, source: int, columns: QueryColumns, uncached: list[int]
    ) -> list[float]:
        """Per-edge upper bounds: cached estimates are their own bound;
        uncached edges take the traversal's bound or the Markov bound."""
        bounds = list(columns.cached)
        unseeded = []
        for i in uncached:
            bounds[i] = self._seed_bounds.get((source, self._edges[i]))
            if bounds[i] is None:
                unseeded.append(i)
        if unseeded:
            markov = self._evaluator.bounds(columns, unseeded)
            for i, bound in zip(unseeded, markov):
                bounds[i] = bound
        return bounds

    def _decide(
        self,
        probabilities: list[float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> tuple[bool, float]:
        """Replay of the per-pair decision loop over ``probabilities``.

        ``probabilities[i]`` belongs to the ``i``-th query edge in sorted
        key order, so matched products are bit-identical to the
        historical loops. Covers all kinds at once: containment is
        ``budget=0``, top-k is ``alpha=0.0`` (a product of positives hits
        ``<= 0`` exactly when it is ``0.0``) plus the running k-th-best
        cut.
        """
        probability = 1.0
        missing = 0
        for p in probabilities:
            if p <= self._gamma:  # the edge does not exist in G_i
                missing += 1
                if missing > budget:
                    return False, probability
                continue  # absorbed by the budget; product unchanged
            probability *= p
            if probability <= alpha:
                return False, probability
            if bounded and probability < kth_best:
                return False, probability
        return True, probability

    def _prunable(
        self,
        upper_bounds: list[float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> bool:
        """Sound discard check on per-edge upper bounds.

        ``upper_bounds`` holds an upper bound on every query edge's
        existence probability (exact cached estimates count as their own
        bound). Each condition implies the decision replay must return
        not-matched, so discarding here never changes an answer:

        * more than ``budget`` edges are certainly missing
          (``bound <= gamma`` forces ``p <= gamma``);
        * the budget-relaxed Lemma-5 product over the possibly-present
          edges cannot exceed ``alpha`` (partial products only shrink);
        * (top-k) that product is strictly below the running k-th best.
        """
        missing = 0
        present: list[float] = []
        for bound in upper_bounds:
            if bound <= self._gamma:
                missing += 1
            else:
                present.append(bound)
        if missing > budget:
            return True
        relaxed = relaxed_graph_existence_upper_bound(
            present, budget - missing
        )
        if relaxed <= alpha:
            return True
        return bounded and relaxed < kth_best
