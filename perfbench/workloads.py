"""Workload definitions and their seeded input generators.

Each workload's database is part of its definition: it is generated from
a fixed dataset seed, because at N=200 two random databases differ in
traversal cost by up to 40%, which would swamp run-to-run comparisons.
The run's ``--seed`` draws everything else -- the query stream and the
arriving matrices. The system under test only ever receives the
generated matrices and query specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import (
    InferenceConfig,
    QuerySpec,
    SyntheticConfig,
    ValidationError,
    extract_query,
    generate_database,
    generate_matrix,
)
from repro.core.inference import EdgeProbabilityEstimator

#: Query kinds are issued in this round-robin order on every workload.
KINDS = ("containment", "topk", "similarity")

#: Seed of every workload's database (see the module docstring).
DATASET_SEED = 1

#: Genes of an arrival's freshness probe. A small probe keeps the
#: freshness figure about ingest and visibility: panel's 10-gene queries
#: refine every source, and their cost would swamp the ingest's.
PROBE_GENES = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: database shape, query mix and run shape."""

    name: str
    why: str
    mode: str  # "inprocess" (engine in this process) or "serve" (daemon)
    n_matrices: int
    genes: tuple[int, int]
    samples: tuple[int, int]
    gene_pool: int
    n_q: int
    gamma: float
    alpha: float  # containment and similarity threshold
    edge_budget: int  # similarity
    k: int  # topk
    warmup: int  # untimed queries before the measured phase
    setup_reps: int  # set-ups per untraced run; setup_s is their median
    arrivals: int  # new matrices ingested after (or during) the query phase
    #: Entries of the engine's edge-probability cache (LRU).
    cache_size: int = InferenceConfig().cache_size
    pool: int = 0  # serve mode: size of the cycled query pool
    offered_qps: float = 0.0  # serve mode: phase-2 open-loop rate
    arrival_every_s: float = 0.0  # serve mode: writer period in phase 3

    def synthetic(self, seed: int) -> SyntheticConfig:
        return SyntheticConfig(
            weights="uni",
            genes_range=self.genes,
            samples_range=self.samples,
            gene_pool=self.gene_pool,
            seed=seed,
        )

    def database(self):
        return generate_database(self.synthetic(DATASET_SEED), self.n_matrices)

    def spec(self, matrix, kind: str) -> QuerySpec:
        if kind == "topk":
            return QuerySpec(matrix, self.gamma, kind="topk", k=self.k)
        if kind == "similarity":
            return QuerySpec(
                matrix,
                self.gamma,
                self.alpha,
                kind="similarity",
                edge_budget=self.edge_budget,
            )
        return QuerySpec(matrix, self.gamma, self.alpha)

    def tiny(self) -> "Workload":
        """A seconds-long version of this workload for self-tests."""
        return replace(
            self,
            n_matrices=min(self.n_matrices, 12),
            warmup=2,
            setup_reps=1,
            arrivals=min(self.arrivals, 2),
            pool=min(self.pool, 9),
            offered_qps=min(self.offered_qps, 20.0),
            arrival_every_s=min(self.arrival_every_s, 0.2),
        )


WORKLOADS = {
    "atlas": Workload(
        name="atlas",
        why="paper-default Uni database (N=200, 50-100 genes): distinct "
        "5-gene queries, little shared work, so index traversal dominates",
        mode="inprocess",
        n_matrices=200,
        genes=(50, 100),
        samples=(12, 24),
        gene_pool=600,
        n_q=5,
        gamma=0.5,
        alpha=0.5,
        edge_budget=1,
        k=5,
        warmup=16,
        setup_reps=3,
        arrivals=15,
    ),
    "panel": Workload(
        name="panel",
        why="16 matrices over one 30-gene panel, 10-gene queries at "
        "gamma=0.05: heavy shared work, so refinement and the estimator "
        "cache dominate",
        mode="inprocess",
        n_matrices=16,
        genes=(27, 30),
        samples=(36, 48),
        gene_pool=30,
        n_q=10,
        gamma=0.05,
        alpha=0.0,
        edge_budget=10,
        k=5,
        warmup=96,
        setup_reps=9,
        arrivals=31,
        # build() alone caches all ~6,500 column pairs of the panel, so
        # the default cache would answer every refinement lookup and the
        # estimator would do no work. A cache smaller than the panel
        # keeps about 10% of lookups missing, so Monte-Carlo estimation
        # stays a steady share (about a quarter) of a query.
        cache_size=5500,
    ),
    "live": Workload(
        name="live",
        why="daemon subprocess with 2 process workers: saturation burst, "
        "fixed-rate open loop, then the same loop while a writer "
        "republishes and reloads",
        mode="serve",
        n_matrices=64,
        genes=(30, 60),
        samples=(12, 24),
        gene_pool=600,
        n_q=5,
        gamma=0.5,
        alpha=0.5,
        edge_budget=1,
        k=5,
        warmup=0,
        setup_reps=3,
        arrivals=5,
        pool=48,
        offered_qps=50.0,
        arrival_every_s=0.8,
    ),
}


class _MemoEstimator:
    """Edge-probability estimator that remembers each source's matrix.

    ``extract_query`` infers the whole source GRN to find a connected
    gene set; memoizing it per source keeps query generation cheap when
    many queries come from one source.
    """

    def __init__(self):
        self._estimator = EdgeProbabilityEstimator()
        self._memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def probability_matrix(self, values: np.ndarray) -> np.ndarray:
        hit = self._memo.get(id(values))
        if hit is None or hit[0] is not values:
            hit = (values, self._estimator.probability_matrix(values))
            self._memo[id(values)] = hit
        return hit[1]


class QueryStream:
    """Distinct connected queries from random sources, kinds round robin."""

    def __init__(self, workload: Workload, database, seed: int):
        self.workload = workload
        self._sources = list(database)
        self._rng = np.random.default_rng((seed, 0xA11))
        self._estimator = _MemoEstimator()
        self._seen: set[tuple] = set()
        self._issued = 0

    def take(self, count: int) -> list[QuerySpec]:
        out: list[QuerySpec] = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 200 * count:
                raise ValidationError(
                    f"{self.workload.name}: could not draw {count} distinct queries"
                )
            source = self._sources[int(self._rng.integers(len(self._sources)))]
            try:
                matrix = extract_query(
                    source,
                    self.workload.n_q,
                    self._rng,
                    threshold=self.workload.gamma,
                    estimator=self._estimator,
                )
            except ValidationError:
                continue
            identity = (source.source_id, matrix.gene_ids)
            if identity in self._seen:
                continue
            self._seen.add(identity)
            kind = KINDS[self._issued % len(KINDS)]
            self._issued += 1
            out.append(self.workload.spec(matrix, kind))
        return out


def arrivals(workload: Workload, seed: int, first_source: int, count: int):
    """``(matrix, probe)`` pairs: new sources and a query each must answer.

    The probe is a containment query at ``alpha=0`` over ``PROBE_GENES``
    genes of the new matrix, so a fresh index must list the new source
    among its answers.
    Every arrival has the midpoint of the workload's gene and sample
    ranges: ingest cost grows with matrix size, and a median over a few
    arrivals of random sizes would carry that size's spread across seeds.
    """
    genes = sum(workload.genes) // 2
    samples = sum(workload.samples) // 2
    config = replace(
        workload.synthetic(seed),
        genes_range=(genes, genes),
        samples_range=(samples, samples),
    )
    out = []
    draw = 0
    while len(out) < count:
        source_id = first_source + len(out)
        rng = np.random.default_rng((seed, 0xA22, draw))
        draw += 1
        matrix = generate_matrix(config, source_id, rng)
        try:
            probe = extract_query(
                matrix, PROBE_GENES, rng, threshold=workload.gamma
            )
        except ValidationError:
            continue
        out.append((matrix, QuerySpec(probe, workload.gamma, 0.0)))
    return out
