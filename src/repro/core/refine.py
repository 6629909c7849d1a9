"""Unified batched candidate refinement shared by the query engines.

Refinement is the last stage of the Fig.-4 pipeline: every candidate
that survived index pruning has its query edges verified with exact
Monte-Carlo probabilities (Definition 4). :class:`CandidateRefiner` is
the one refinement path every engine but the materializing Baseline
runs:

* **batched evaluation** -- a candidate's un-memoized (source,
  query-edge) pairs are estimated in one pass through
  :meth:`~repro.core.batch_inference.BatchInferenceEngine.pair_block_probabilities`
  (one permutation block per distinct target column serves all of its
  partner edges);
* **query-scoped memoization** -- per-``(source, edge)`` probabilities
  live in one table shared by every kind's decision loop, so top-k's
  bound-ordered revisits and similarity's budget accounting never
  recompute an edge;
* **sound prescreen, cheapest upper bound first** -- Markov upper
  bounds (seeded from the traversal's anchor-edge bounds where
  available) discard a candidate whose bounds alone already decide the
  replay before the estimator is touched, and order the edges handed to
  the estimator.

Bit-identity contract: answers are decided by replaying the historical
per-pair loop over the memoized probabilities in sorted query-edge
order -- the same multiplication order and the same comparisons -- so
answers, probabilities and the ``query.*`` pruning counters equal the
per-pair reference. All probability factors lie in ``[0, 1]``, so
partial products are monotone non-increasing; a bound-based discard
therefore only ever removes a candidate whose replay must fail
(``refine.*`` are diagnostics of this path; see
``docs/observability.md``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import MetricsRegistry
from ..obs import names as _names
from .batch_inference import standardize_columns
from .matching import Embedding
from .probgraph import ProbabilisticGraph
from .pruning import (
    markov_edge_upper_bound,
    relaxed_graph_existence_upper_bound,
)

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


class BatchEdgeEvaluator:
    """Edge evaluation against raw data matrices via the batched engine.

    A source's matrix is standardized once per query with
    :func:`~repro.core.batch_inference.standardize_columns` -- the
    per-column path, byte-identical to what ``pair_probability`` applies
    to each vector, so batched probabilities and their content-seeded
    cache keys equal the scalar calls exactly. ``bounds`` derives the
    sound Markov upper bounds (Lemma 4) from the same standardized
    columns, keeping ordering and prescreen decisions consistent with
    the values they bound.
    """

    supports_bounds = True

    def __init__(
        self,
        inference,
        get_matrix: Callable[[int], "object"],
    ) -> None:
        self._inference = inference
        self._get_matrix = get_matrix
        self._matrices: dict[int, object] = {}
        self._std: dict[int, np.ndarray] = {}

    def matrix(self, source: int):
        got = self._matrices.get(source)
        if got is None:
            got = self._matrices[source] = self._get_matrix(source)
        return got

    def _standardized(self, source: int) -> np.ndarray:
        std = self._std.get(source)
        if std is None:
            std = self._std[source] = standardize_columns(
                self.matrix(source).values
            )
        return std

    def bounds(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        """Markov upper bounds on the edges' existence probabilities."""
        matrix = self.matrix(source)
        std = self._standardized(source)
        expected = math.sqrt(2.0 * matrix.num_samples)
        out: dict[EdgeKey, float] = {}
        for u, v in edges:
            cu = matrix.column_index(u)
            cv = matrix.column_index(v)
            distance = float(np.linalg.norm(std[:, cu] - std[:, cv]))
            out[(u, v)] = markov_edge_upper_bound(distance, expected)
        return out

    def evaluate(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        """Exact probabilities for ``edges``, one batched pass."""
        matrix = self.matrix(source)
        std = self._standardized(source)
        pairs = [
            (matrix.column_index(u), matrix.column_index(v)) for u, v in edges
        ]
        block = self._inference.pair_block_probabilities(
            std, pairs, raw=matrix.values
        )
        return {edge: block[pair] for edge, pair in zip(edges, pairs)}


class ScalarEdgeEvaluator:
    """Scalar fallback for engines without a batched estimator.

    The measure engine's randomized-measure probabilities have neither a
    block evaluator nor a closed-form sound bound, so this evaluator
    reports ``supports_bounds = False``; the refiner still provides the
    shared memo table and the unified decision replay.
    """

    supports_bounds = False

    def __init__(
        self,
        pair_probability: Callable[[np.ndarray, np.ndarray], float],
        get_matrix: Callable[[int], "object"],
    ) -> None:
        self._pair_probability = pair_probability
        self._get_matrix = get_matrix
        self._matrices: dict[int, object] = {}

    def matrix(self, source: int):
        got = self._matrices.get(source)
        if got is None:
            got = self._matrices[source] = self._get_matrix(source)
        return got

    def bounds(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        raise NotImplementedError("scalar evaluator has no sound bounds")

    def evaluate(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        matrix = self.matrix(source)
        return {
            (u, v): self._pair_probability(matrix.column(u), matrix.column(v))
            for u, v in edges
        }


class CandidateRefiner:
    """Query-scoped refinement of surviving candidates.

    One refiner serves one query: its memo table, bound cache and
    standardized matrices are keyed by source and shared across every
    kind-specific entry point (:meth:`refine`, :meth:`refine_topk`,
    :meth:`refine_topk_posthoc`).

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
        The query's private :class:`~repro.obs.MetricsRegistry`.
    tracer:
        The engine's tracer; one ``refine.source`` span per candidate
        that reaches the batched estimator.
    seed_bounds:
        Optional ``{(source, edge): upper bound}`` table reused from the
        index traversal (the leaf-level anchor-edge bounds), so the
        prescreen never recomputes a bound the traversal already paid
        for.
    """

    def __init__(
        self,
        query_graph: ProbabilisticGraph,
        gamma: float,
        evaluator,
        *,
        engine: str,
        metrics: MetricsRegistry,
        tracer,
        seed_bounds: dict[tuple[int, EdgeKey], float] | None = None,
    ) -> None:
        self._edges = [key for key, _p in query_graph.edges()]
        self._gene_ids = query_graph.gene_ids
        self._mapping = tuple((g, g) for g in sorted(query_graph.gene_ids))
        self._gamma = gamma
        self._evaluator = evaluator
        self._metrics = metrics
        self._tracer = tracer
        self._engine = engine
        self._memo: dict[tuple[int, EdgeKey], float] = {}
        self._bounds: dict[tuple[int, EdgeKey], float] = dict(seed_bounds or {})
        self._sources = metrics.counter(
            _names.REFINE_SOURCES, help="candidates refined", engine=engine
        )
        self._evaluated = metrics.counter(
            _names.REFINE_EDGES,
            help="edge probabilities estimated during refinement",
            engine=engine,
        )
        self._memo_hits = metrics.counter(
            _names.REFINE_MEMO_HITS, help="refinement memo-table hits", engine=engine
        )
        self._prescreened = metrics.counter(
            _names.REFINE_PRESCREENED,
            help="candidates discarded by bounds alone",
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
        matrix = self._evaluator.matrix(source)
        if any(gene not in matrix for gene in self._gene_ids):
            return False, 0.0
        self._sources.inc()
        probabilities = self._probabilities(
            source,
            alpha=alpha,
            budget=budget,
            kth_best=kth_best,
            bounded=bounded,
        )
        if probabilities is None:  # bounds alone decided the replay
            return False, 0.0
        return self._decide(
            probabilities,
            alpha=alpha,
            budget=budget,
            kth_best=kth_best,
            bounded=bounded,
        )

    def _decide(
        self,
        probabilities: dict[EdgeKey, float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> tuple[bool, float]:
        """Replay of the per-pair decision loop over ``probabilities``.

        Multiplication runs in sorted query-edge order regardless of the
        order probabilities were *estimated* in, so matched products are
        bit-identical to the historical loops. Covers all kinds at once:
        containment is ``budget=0``, top-k is ``alpha=0.0`` (a product
        of positives hits ``<= 0`` exactly when it is ``0.0``) plus the
        running k-th-best cut.
        """
        probability = 1.0
        missing = 0
        for edge in self._edges:
            p = probabilities[edge]
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

    def _probabilities(
        self,
        source: int,
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> dict[EdgeKey, float] | None:
        """All of ``source``'s edge probabilities, or ``None`` when the
        per-edge upper bounds alone already decide the replay."""
        known: dict[EdgeKey, float] = {}
        needed: list[EdgeKey] = []
        for edge in self._edges:
            p = self._memo.get((source, edge))
            if p is None:
                needed.append(edge)
            else:
                self._memo_hits.inc()
                known[edge] = p
        if not needed:
            return known
        if self._evaluator.supports_bounds:
            unseeded = [e for e in needed if (source, e) not in self._bounds]
            if unseeded:
                for edge, bound in self._evaluator.bounds(
                    source, unseeded
                ).items():
                    self._bounds[(source, edge)] = bound
            bounds = {e: self._bounds[(source, e)] for e in needed}
            if self._prunable(
                {**bounds, **known},
                alpha=alpha,
                budget=budget,
                kth_best=kth_best,
                bounded=bounded,
            ):
                self._prescreened.inc()
                return None
            # Cheapest (smallest) upper bound first: the order the
            # estimator sees the edges in, which fixes its cache traffic.
            needed.sort(key=lambda e: (bounds[e], e))
        with self._tracer.span(
            _names.REFINE_SOURCE_SPAN, source=source, edges=len(needed)
        ):
            evaluated = self._evaluator.evaluate(source, needed)
            self._batches.inc()
            self._evaluated.inc(len(needed))
        for edge in needed:
            p = evaluated[edge]
            self._memo[(source, edge)] = p
            known[edge] = p
        return known

    def _prunable(
        self,
        upper_bounds: dict[EdgeKey, float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> bool:
        """Sound discard check on per-edge upper bounds.

        ``upper_bounds`` maps every query edge to an upper bound on its
        existence probability (exact memoized values count as their own
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
        for bound in upper_bounds.values():
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
