"""Parameter dataclasses mirroring Table 2 of the paper.

The paper evaluates IM-GRN over a grid of six parameters (Table 2), with one
default (bold) value each::

    gamma                 0.2, 0.3, *0.5*, 0.8, 0.9
    alpha                 0.2, 0.3, *0.5*, 0.8, 0.9
    d                     1, *2*, 3, 4
    n_Q                   2, 3, *5*, 8, 10
    [n_min, n_max]        [10,20], [20,50], *[50,100]*, [100,200], [200,300]
    N                     10K ... 100K  (we default to a laptop-scale N)

This module centralizes those values so every benchmark and experiment pulls
the same grid, and bundles the knobs of the query engine
(:class:`EngineConfig`) and of the synthetic data generator
(:class:`SyntheticConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ValidationError

__all__ = [
    "ParameterGrid",
    "Defaults",
    "BuildConfig",
    "DaemonConfig",
    "EngineConfig",
    "InferenceConfig",
    "ObservabilityConfig",
    "SyntheticConfig",
    "PAPER_GRID",
    "DEFAULTS",
]


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ValidationError(f"{name} must be in [0,1), got {value}")


@dataclass(frozen=True)
class ParameterGrid:
    """The sweep values of Table 2.

    ``n_matrices`` is scaled down from the paper's 10K-100K because this is a
    pure-Python substrate; the sweep *shape* (6 points, 10x span) matches.
    """

    gamma: tuple[float, ...] = (0.2, 0.3, 0.5, 0.8, 0.9)
    alpha: tuple[float, ...] = (0.2, 0.3, 0.5, 0.8, 0.9)
    num_pivots: tuple[int, ...] = (1, 2, 3, 4)
    query_genes: tuple[int, ...] = (2, 3, 5, 8, 10)
    genes_per_matrix: tuple[tuple[int, int], ...] = (
        (10, 20),
        (20, 50),
        (50, 100),
        (100, 200),
        (200, 300),
    )
    n_matrices: tuple[int, ...] = (100, 200, 300, 400, 500, 1000)


@dataclass(frozen=True)
class Defaults:
    """Default (bold in Table 2) parameter values."""

    gamma: float = 0.5
    alpha: float = 0.5
    num_pivots: int = 2
    query_genes: int = 5
    genes_per_matrix: tuple[int, int] = (50, 100)
    n_matrices: int = 200
    samples_per_matrix: tuple[int, int] = (12, 24)

    def __post_init__(self) -> None:
        _check_unit_interval("gamma", self.gamma)
        _check_unit_interval("alpha", self.alpha)
        if self.num_pivots < 1:
            raise ValidationError(f"num_pivots must be >= 1, got {self.num_pivots}")
        if self.query_genes < 2:
            raise ValidationError(f"query_genes must be >= 2, got {self.query_genes}")


PAPER_GRID = ParameterGrid()
DEFAULTS = Defaults()


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs of the batched edge-probability engine.

    Controls *how* edge probabilities are computed (batching, caching)
    without ever changing *what* is computed: every setting of these
    knobs yields the same probabilities for the same data and estimator
    seed (see :mod:`repro.core.batch_inference`).

    Attributes
    ----------
    batch_size:
        Number of gene columns whose permutation blocks are stacked into
        one matrix multiply. Larger batches amortize more BLAS calls at
        the cost of a ``batch_size * n_samples x n`` score buffer.
    cache:
        Enable the content-addressed edge-probability cache. Safe to
        share across matrices and queries: keys are derived from the
        standardized column contents plus the (gamma-independent)
        estimator parameters.
    cache_size:
        Maximum number of cached pair probabilities (LRU eviction).
    """

    batch_size: int = 32
    cache: bool = True
    cache_size: int = 262_144

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.cache_size < 1:
            raise ValidationError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )

    def with_(self, **changes: object) -> "InferenceConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class BuildConfig:
    """Knobs of the sharded index build.

    Controls *how* :meth:`repro.core.query.IMGRNEngine.build` executes --
    never *what* it builds: every setting yields a bit-identical tree,
    inverted file and embedding set for the same database and engine seed,
    because each matrix is embedded under its own
    ``(seed, source_id)``-keyed random stream and shard outputs are merged
    in database order (asserted in ``tests/test_parallel_build.py``).
    How many processes embed the shards is derived, not configured (see
    :func:`repro.core.parallel_build.build_width`).

    Attributes
    ----------
    shard_size:
        Matrices per build shard. A shard is the unit of progress
        accounting (one ``build.shard`` span each), of worker dispatch
        (shards are striped round-robin over the build's processes) and
        of persistence (:func:`repro.core.persistence.save_engine_sharded`
        writes one archive per shard).
    """

    shard_size: int = 16

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValidationError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )

    def with_(self, **changes: object) -> "BuildConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs of the tracing/metrics layer (:mod:`repro.obs`).

    Attributes
    ----------
    tracing:
        Record spans (wall/CPU time + attributes) during build and query.
        Off by default: the no-op tracer makes instrumented hot paths
        cost ~nothing (pinned by the overhead microbenchmark in
        ``tests/test_obs.py``).
    shared_registry:
        ``True`` (default) records metrics into the process-wide registry
        (:func:`repro.obs.get_registry`), so all engines in a process
        export one coherent snapshot. ``False`` gives the engine a
        private :class:`repro.obs.MetricsRegistry` -- useful for isolated
        measurements and tests. Per-query ``QueryStats`` are computed as
        registry *deltas*, so both modes report identical stats.
    trace_capacity:
        Maximum retained spans; later spans are counted as dropped.
    """

    tracing: bool = False
    shared_registry: bool = True
    trace_capacity: int = 1_000_000

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ValidationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )

    def with_(self, **changes: object) -> "ObservabilityConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of :class:`repro.core.query.IMGRNEngine`.

    Candidate refinement (:mod:`repro.core.refine`) has no knobs: it is
    always batched, prescreened and single-pass.

    Attributes
    ----------
    num_pivots:
        ``d`` in the paper; the embedding is ``2d+1``-dimensional.
    bitvector_bits:
        ``B``, the width of the gene-ID and source-ID signatures.
    mc_samples:
        Monte-Carlo sample count ``S`` for exact edge probabilities during
        refinement. ``None`` derives S from (epsilon, delta) via Lemma 2.
    epsilon, delta:
        Lemma-2 accuracy/confidence used when ``mc_samples is None``.
    pivot_global_iter, pivot_swap_iter:
        The two loop bounds of the Fig.-3 pivot-selection algorithm.
    expectation_mode:
        ``"jensen"`` uses the closed-form sound upper bound on
        ``E[dist(X^R, piv)]`` (keeps all pruning lemmas false-dismissal
        free); ``"mc"`` uses a Monte-Carlo estimate like the paper.
    anchor_strategy:
        How the traversal picks its anchor query gene: ``"highest_degree"``
        (Fig. 4's choice), ``"random"`` or ``"first"`` (ablations).
    rstar_max_entries:
        Index node fan-out ``M`` (one node == one page for I/O
        accounting); the name keeps the paper's R*-tree parameter.
    seed:
        Seed for every stochastic component of the engine.
    inference:
        Batching/caching knobs of the edge-probability engine
        (:class:`InferenceConfig`); never changes the computed values.
    build:
        Sharding knob of the index build
        (:class:`BuildConfig`); never changes the built index.
    observability:
        Tracing/metrics knobs (:class:`ObservabilityConfig`); never
        changes query answers, only what gets recorded about them.
    """

    num_pivots: int = DEFAULTS.num_pivots
    bitvector_bits: int = 1024
    mc_samples: int | None = 200
    epsilon: float = 0.25
    delta: float = 0.05
    pivot_global_iter: int = 3
    pivot_swap_iter: int = 20
    expectation_mode: str = "jensen"
    expectation_samples: int = 32
    anchor_strategy: str = "highest_degree"
    rstar_max_entries: int = 16
    seed: int = 7
    inference: InferenceConfig = InferenceConfig()
    build: BuildConfig = BuildConfig()
    observability: ObservabilityConfig = ObservabilityConfig()

    def __post_init__(self) -> None:
        if self.num_pivots < 1:
            raise ValidationError(f"num_pivots must be >= 1, got {self.num_pivots}")
        if self.bitvector_bits < 8:
            raise ValidationError(
                f"bitvector_bits must be >= 8, got {self.bitvector_bits}"
            )
        if self.mc_samples is not None and self.mc_samples < 1:
            raise ValidationError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0,1), got {self.delta}")
        if self.expectation_mode not in ("jensen", "mc"):
            raise ValidationError(
                "expectation_mode must be 'jensen' or 'mc', got "
                f"{self.expectation_mode!r}"
            )
        if self.anchor_strategy not in ("highest_degree", "random", "first"):
            raise ValidationError(
                "anchor_strategy must be 'highest_degree', 'random' or "
                f"'first', got {self.anchor_strategy!r}"
            )
        if self.rstar_max_entries < 4:
            raise ValidationError(
                f"rstar_max_entries must be >= 4, got {self.rstar_max_entries}"
            )

    def with_(self, **changes: object) -> "EngineConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DaemonConfig:
    """Knobs of the network serving daemon (:mod:`repro.serve.daemon`).

    Attributes
    ----------
    host / port:
        TCP bind address. ``port=0`` binds an ephemeral port; the bound
        port is reported by the daemon (``daemon.port``) and printed by
        ``imgrn serve`` on startup.
    workers:
        Worker parallelism. With the ``process`` backend this is the
        number of forked worker processes, each of which loads the
        sharded index with ``mmap_index=True`` so all of them share one
        page-cache copy; with the ``thread`` backend it is the number of
        threads querying one in-process engine (the engines' read paths
        are reentrant).
    backend:
        ``"process"`` (default) forks workers over a saved sharded
        index -- the past-the-GIL path for CPU-bound query fan-out;
        ``"thread"`` serves from one in-process engine (platforms
        without ``fork``, tests, or engines that were never persisted).
    queue_size:
        Bound of the admission queue. A request arriving while the queue
        is full is *shed* -- answered immediately with a structured
        503-style ``status="shed"`` body instead of waiting -- so an
        overloaded daemon degrades by refusing work, not by stalling
        every client.
    rate_limit_qps / rate_limit_burst:
        Per-client token bucket: sustained requests/second and burst
        capacity. A client is identified by its ``X-Client-Id`` header
        (falling back to the peer address); ``rate_limit_qps=0``
        disables rate limiting.
    timeout_seconds:
        Per-request deadline measured from dispatch to a worker. On
        expiry the request resolves to ``status="timeout"`` and the
        (process-backend) worker is respawned rather than left busy.
        ``None`` disables deadlines.
    drain_seconds:
        Grace budget of a SIGTERM / programmatic drain: the daemon stops
        accepting connections, then waits up to this long for queued and
        in-flight requests to finish before shutting workers down.
    max_request_bytes:
        Largest accepted request body (guards the JSON parser).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    backend: str = "process"
    queue_size: int = 64
    rate_limit_qps: float = 0.0
    rate_limit_burst: int = 8
    timeout_seconds: float | None = 30.0
    drain_seconds: float = 10.0
    max_request_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if not self.host:
            raise ValidationError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValidationError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in ("process", "thread"):
            raise ValidationError(
                f"backend must be 'process' or 'thread', got {self.backend!r}"
            )
        if self.queue_size < 1:
            raise ValidationError(
                f"queue_size must be >= 1, got {self.queue_size}"
            )
        if self.rate_limit_qps < 0:
            raise ValidationError(
                f"rate_limit_qps must be >= 0, got {self.rate_limit_qps}"
            )
        if self.rate_limit_burst < 1:
            raise ValidationError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if self.drain_seconds < 0:
            raise ValidationError(
                f"drain_seconds must be >= 0, got {self.drain_seconds}"
            )
        if self.max_request_bytes < 1024:
            raise ValidationError(
                f"max_request_bytes must be >= 1024, got {self.max_request_bytes}"
            )

    def with_(self, **changes: object) -> "DaemonConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the Section-6.1 linear-model generator.

    ``M_i = E_i (I - B_i)^{-1}`` with ``B_i`` a sparse adjacency whose
    non-zeros follow either a Uniform mixture over ``[-1,-0.5] u [0.5,1]``
    (``weights="uni"``) or the folded Gaussian variant of N(1, 0.01)
    (``weights="gau"``), and ``E_i`` Gaussian noise N(0, noise_variance).
    """

    weights: str = "uni"
    avg_in_degree: float = 1.0
    noise_variance: float = 0.01
    genes_range: tuple[int, int] = DEFAULTS.genes_per_matrix
    samples_range: tuple[int, int] = DEFAULTS.samples_per_matrix
    gene_pool: int = 600
    seed: int = 7

    def __post_init__(self) -> None:
        if self.weights not in ("uni", "gau"):
            raise ValidationError(
                f"weights must be 'uni' or 'gau', got {self.weights!r}"
            )
        if self.avg_in_degree <= 0:
            raise ValidationError(
                f"avg_in_degree must be > 0, got {self.avg_in_degree}"
            )
        if self.noise_variance <= 0:
            raise ValidationError(
                f"noise_variance must be > 0, got {self.noise_variance}"
            )
        lo, hi = self.genes_range
        if not 2 <= lo <= hi:
            raise ValidationError(f"invalid genes_range {self.genes_range}")
        lo, hi = self.samples_range
        if not 3 <= lo <= hi:
            raise ValidationError(f"invalid samples_range {self.samples_range}")
        if self.gene_pool < self.genes_range[1]:
            raise ValidationError(
                "gene_pool must be >= genes_range upper bound "
                f"({self.gene_pool} < {self.genes_range[1]})"
            )

    def with_(self, **changes: object) -> "SyntheticConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


# ``field`` is re-exported for dataclass consumers that extend the configs.
_ = field
