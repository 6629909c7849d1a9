"""Batched, cached, optionally parallel edge-probability computation.

The scalar estimators in :mod:`repro.core.inference` draw a fresh
``n_samples x l`` permutation block *per pair*, which makes every caller
that loops over pairs (query-graph inference, refinement, the offline
baseline store) pay ``O(n^2)`` permutation draws per matrix. This module
provides the batched engine those callers share:

* one permutation block per *column* ``t`` scores all partners ``s`` of
  ``t`` through a single matrix multiply, and blocks of ``batch_size``
  columns are stacked into one GEMM;
* a content-addressed :class:`EdgeProbabilityCache` keyed on the
  ``content_seed`` of the standardized column pair plus the
  (gamma-independent) estimator parameters, so repeated pairs -- across
  queries, candidates and engines -- are estimated once;
* an opt-in ``ProcessPoolExecutor`` path that shards the pair grid by
  target column (round-robin stripes, so shard costs balance) for large
  matrices.

Every path draws the *same* ``default_rng`` stream per pair -- keyed by
``(seed, content_seed(standardized target column))`` -- so batched,
cached, parallel and scalar estimates are identical for the same data
and estimator parameters, in any evaluation order.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import TYPE_CHECKING

import numpy as np

from ..config import InferenceConfig
from ..errors import DimensionMismatchError, ValidationError
from ..obs import Observability
from ..obs import names as _names
from .randomization import MAX_EXACT_LENGTH, content_seed, permutation_beaten
from .standardize import standardize_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .inference import EdgeProbabilityEstimator

__all__ = [
    "EdgeProbabilityCache",
    "BatchInferenceEngine",
    "standardize_columns",
    "batched_probability_matrix",
]

_SEMANTICS = ("one_sided", "two_sided")


def standardize_columns(matrix: np.ndarray) -> np.ndarray:
    """Standardize every column via :func:`standardize_vector`.

    Unlike the vectorized :func:`repro.core.standardize.standardize_matrix`
    (whose axis-0 reductions can differ from the single-vector path in the
    last ulp), this produces columns byte-identical to standardizing each
    column alone -- which keeps the content-keyed permutation streams, and
    therefore the probability estimates, identical between the single-pair
    and the all-pairs code paths.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected a 2-D matrix, got shape {arr.shape}"
        )
    return np.column_stack(
        [standardize_vector(arr[:, j]) for j in range(arr.shape[1])]
    )


def _check_batch_args(n_samples: int, semantics: str) -> None:
    if semantics not in _SEMANTICS:
        raise ValidationError(
            f"semantics must be one of {_SEMANTICS}, got {semantics!r}"
        )
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")


def _permutation_block(
    column: np.ndarray, col_seed: int, n_samples: int, seed: int
) -> np.ndarray:
    """The column's ``n_samples x l`` permutation block (content-keyed)."""
    rng = np.random.default_rng((seed, col_seed))
    return rng.permuted(np.tile(column, (n_samples, 1)), axis=1)


def _target_columns(
    std: np.ndarray,
    col_seeds: dict[int, int],
    targets: list[int],
    n_samples: int,
    seed: int,
    semantics: str,
    batch_size: int,
) -> list[tuple[int, np.ndarray]]:
    """Probability columns ``result[:t, t]`` for each target column ``t``.

    Processes targets in batches: the permutation blocks of up to
    ``batch_size`` columns are stacked into one ``(B * n_samples) x l``
    array and scored against all needed partner columns with a single
    matrix multiply.
    """
    out: list[tuple[int, np.ndarray]] = []
    length = std.shape[0]
    for start in range(0, len(targets), batch_size):
        batch = targets[start : start + batch_size]
        high = max(batch)
        blocks = np.empty((len(batch) * n_samples, length), dtype=np.float64)
        for i, t in enumerate(batch):
            blocks[i * n_samples : (i + 1) * n_samples] = _permutation_block(
                std[:, t], col_seeds[t], n_samples, seed
            )
        partners = std[:, : high + 1]
        scores = blocks @ partners  # scores[k, s] = X_s . perm_k(X_t_of_k)
        observed = partners.T @ std[:, batch]  # observed[s, i] = X_s . X_t
        for i, t in enumerate(batch):
            sc = scores[i * n_samples : (i + 1) * n_samples, :t]
            obs = observed[:t, i]
            beaten = permutation_beaten(obs[np.newaxis, :], sc, length, semantics)
            out.append((t, np.mean(beaten, axis=0)))
    return out


def _chunk_worker(
    args: tuple[np.ndarray, list[int], int, int, str, int],
) -> list[tuple[int, np.ndarray]]:
    """Process-pool entry point: score one shard of target columns."""
    std, targets, n_samples, seed, semantics, batch_size = args
    col_seeds = {t: content_seed(std[:, t]) for t in targets}
    return _target_columns(
        std, col_seeds, targets, n_samples, seed, semantics, batch_size
    )


def batched_probability_matrix(
    matrix: np.ndarray,
    n_samples: int = 200,
    seed: int = 7,
    semantics: str = "one_sided",
    batch_size: int = 32,
    workers: int = 0,
) -> np.ndarray:
    """All-pairs edge probabilities for the columns of an ``l x n`` matrix.

    Batched implementation behind
    :func:`repro.core.inference.edge_probability` with
    ``method="matrix"``; ``batch_size`` and ``workers`` only trade
    memory/parallelism for speed and never change the returned
    probabilities.
    """
    _check_batch_args(n_samples, semantics)
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    std = standardize_columns(matrix)
    return _probability_matrix_std(
        std, n_samples, seed, semantics, batch_size, workers
    )


def _probability_matrix_std(
    std: np.ndarray,
    n_samples: int,
    seed: int,
    semantics: str,
    batch_size: int,
    workers: int,
    col_seeds: dict[int, int] | None = None,
) -> np.ndarray:
    n_genes = std.shape[1]
    result = np.zeros((n_genes, n_genes), dtype=np.float64)
    targets = list(range(1, n_genes))
    if not targets:
        return result
    if workers > 1 and len(targets) >= workers:
        # Round-robin stripes: the cost of column t grows with t, so
        # contiguous shards would leave early workers idle.
        shards = [targets[w::workers] for w in range(workers)]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(
                _chunk_worker,
                [
                    (std, shard, n_samples, seed, semantics, batch_size)
                    for shard in shards
                ],
            )
            for chunk in chunks:
                for t, col in chunk:
                    result[:t, t] = col
    else:
        if col_seeds is None:
            col_seeds = {t: content_seed(std[:, t]) for t in targets}
        for t, col in _target_columns(
            std, col_seeds, targets, n_samples, seed, semantics, batch_size
        ):
            result[:t, t] = col
    result += result.T
    return result


class EdgeProbabilityCache:
    """Content-addressed LRU cache of edge-probability estimates.

    Pair keys combine the ``content_seed`` of the standardized column
    pair with the gamma-independent estimator parameters ``(n_samples,
    semantics, seed, exact_below)``, so a hit is guaranteed to hold
    exactly the value the estimator would recompute -- the inference
    threshold ``gamma`` never enters the key because probabilities are
    threshold-free. A pair key is one packed int (see :meth:`pair_key`),
    the smallest key object that stays exact.

    Thread-safe: one engine-wide cache is shared by every concurrent
    query (the LRU recency list and hit/miss tallies mutate on reads),
    so all operations take the cache lock. Values are immutable floats
    or read-only arrays, so a hit needs no copy.
    """

    def __init__(self, max_entries: int = 262_144):
        if max_entries < 1:
            raise ValidationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Insertion-ordered: the first key is the least recently used.
        self._data: dict[Hashable, object] = {}
        self._params_ids: dict[tuple, int] = {}
        # Estimates are sample fractions k / n, few distinct values:
        # entries share one float object per value.
        self._floats: dict[float, float] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def pair_key(self, params: tuple, seed_s: int, seed_t: int) -> int:
        """Packed key ``(params id << 128) | (seed_s << 64) | seed_t``.

        ``seed_s`` and ``seed_t`` are the 64-bit content seeds of the
        column pair. Parameter tuples are interned to small ids per
        cache, so engines with different estimators can share one cache
        and still never read each other's entries.
        """
        ident = self._params_ids.get(params)
        if ident is None:
            with self._lock:
                ident = self._params_ids.setdefault(params, len(self._params_ids))
        return (ident << 128) | (seed_s << 64) | seed_t

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value  # re-inserted as most recently used
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if type(value) is float and len(self._floats) < self.max_entries:
                value = self._floats.setdefault(value, value)
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.max_entries:
                del self._data[next(iter(self._data))]

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._floats.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "cache_entries": float(len(self._data)),
                "cache_hits": float(self.hits),
                "cache_misses": float(self.misses),
            }


class BatchInferenceEngine:
    """Batched, cached, optionally parallel edge-probability engine.

    Wraps an :class:`~repro.core.inference.EdgeProbabilityEstimator` (the
    *what*: sample count, semantics, seed) with an
    :class:`~repro.config.InferenceConfig` (the *how*: batching, caching,
    workers). All methods return the same probabilities the wrapped
    estimator's scalar path computes -- batching and caching are pure
    execution strategies.
    """

    def __init__(
        self,
        estimator: "EdgeProbabilityEstimator | None" = None,
        config: InferenceConfig | None = None,
        cache: EdgeProbabilityCache | None = None,
        obs: Observability | None = None,
    ):
        if estimator is None:
            from .inference import EdgeProbabilityEstimator

            estimator = EdgeProbabilityEstimator()
        self.estimator = estimator
        self.config = config or InferenceConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        if cache is not None:
            self.cache = cache
        elif self.config.cache:
            self.cache = EdgeProbabilityCache(self.config.cache_size)
        else:
            self.cache = None
        # Hoisted once: hot-path updates are single float adds.
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

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def _params_key(self) -> tuple:
        est = self.estimator
        return (
            est.resolved_samples(),
            est.semantics,
            est.seed,
            min(est.exact_below, MAX_EXACT_LENGTH),
        )

    def _exact_regime(self, length: int) -> bool:
        est = self.estimator
        return 0 < length <= min(est.exact_below, MAX_EXACT_LENGTH)

    # ------------------------------------------------------------------
    # Single pair
    # ------------------------------------------------------------------
    def pair_probability(self, x_s: np.ndarray, x_t: np.ndarray) -> float:
        """Cached edge probability for one vector pair (randomizes ``x_t``)."""
        raw_s = np.asarray(x_s, dtype=np.float64)
        raw_t = np.asarray(x_t, dtype=np.float64)
        xs = standardize_vector(raw_s)
        xt = standardize_vector(raw_t)
        if self.cache is None:
            self._pairs_estimated.inc()
            return self._compute_pair(raw_s, raw_t, xs, xt)
        key = self.cache.pair_key(
            self._params_key(), content_seed(xs), content_seed(xt)
        )
        hit = self.cache.get(key)
        if hit is not None:
            self._cache_hit_count.inc()
            return float(hit)  # type: ignore[arg-type]
        self._cache_miss_count.inc()
        self._pairs_estimated.inc()
        value = self._compute_pair(raw_s, raw_t, xs, xt)
        self.cache.put(key, value)
        return value

    def _compute_pair(
        self,
        raw_s: np.ndarray,
        raw_t: np.ndarray,
        xs: np.ndarray,
        xt: np.ndarray,
    ) -> float:
        if self._exact_regime(int(xt.shape[0])):
            return self.estimator.pair_probability(raw_s, raw_t)
        return self.estimator.sampled_probability_std(xs, xt)

    # ------------------------------------------------------------------
    # Pair blocks (sparse pair sets over one matrix)
    # ------------------------------------------------------------------
    def pair_block_probabilities(
        self,
        std: np.ndarray,
        pairs: list[tuple[int, int]],
        raw: np.ndarray | None = None,
    ) -> dict[tuple[int, int], float]:
        """Probabilities for selected column pairs of a standardized matrix.

        ``std`` must come from :func:`standardize_columns`; each pair
        ``(s, t)`` randomizes column ``t``. Missing pairs are grouped by
        target column so one permutation block serves all of a column's
        partners; cached pairs are not recomputed. ``raw`` (the
        unstandardized matrix) is only consulted in the exact-enumeration
        regime, where the estimator enumerates raw columns.
        """
        est = self.estimator
        if self._exact_regime(int(std.shape[0])):
            # Exact-enumeration regime: delegate per pair (enumeration is
            # already column-batched internally and l is tiny here).
            source = std if raw is None else np.asarray(raw, dtype=np.float64)
            return {
                (s, t): self.pair_probability(source[:, s], source[:, t])
                for s, t in pairs
            }
        n_samples = est.resolved_samples()
        params = self._params_key()
        col_seeds: dict[int, int] = {}

        def seed_of(col: int) -> int:
            if col not in col_seeds:
                col_seeds[col] = content_seed(std[:, col])
            return col_seeds[col]

        out: dict[tuple[int, int], float] = {}
        missing_by_t: dict[int, list[int]] = {}
        keys: dict[tuple[int, int], int] = {}
        # Tally hits locally and update the shared counters once per call:
        # concurrent queries would interleave (and lose) per-pair adds.
        hits = 0
        for s, t in pairs:
            if self.cache is not None:
                key = self.cache.pair_key(params, seed_of(s), seed_of(t))
                keys[(s, t)] = key
                hit = self.cache.get(key)
                if hit is not None:
                    hits += 1
                    out[(s, t)] = float(hit)  # type: ignore[arg-type]
                    continue
            missing_by_t.setdefault(t, []).append(s)
        computed = sum(len(v) for v in missing_by_t.values())
        if self.cache is not None:
            if hits:
                self._cache_hit_count.inc(hits)
            if computed:
                self._cache_miss_count.inc(computed)
        self._pairs_estimated.inc(computed)
        with self.obs.tracer.span(
            "inference.pair_block", pairs=len(pairs), computed=computed
        ):
            for t in sorted(missing_by_t):
                partners = sorted(missing_by_t[t])
                block = _permutation_block(
                    std[:, t], seed_of(t), n_samples, est.seed
                )
                cols = std[:, partners]
                scores = block @ cols
                observed = std[:, t] @ cols
                beaten = permutation_beaten(
                    observed[np.newaxis, :], scores, std.shape[0], est.semantics
                )
                probs = np.mean(beaten, axis=0)
                for s, p in zip(partners, probs):
                    value = float(p)
                    out[(s, t)] = value
                    if self.cache is not None:
                        self.cache.put(keys[(s, t)], value)
        return out

    # ------------------------------------------------------------------
    # All pairs
    # ------------------------------------------------------------------
    def probability_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """All-pairs edge probabilities for the columns of ``matrix``.

        Batched (and, when configured, process-parallel) computation; a
        whole-matrix memo entry plus per-pair entries are written to the
        cache so later single-pair lookups hit.
        """
        est = self.estimator
        n_samples = est.resolved_samples()
        _check_batch_args(n_samples, est.semantics)
        std = standardize_columns(matrix)
        params = self._params_key()
        col_seeds = {t: content_seed(std[:, t]) for t in range(std.shape[1])}
        matrix_key = (
            "matrix",
            std.shape,
            content_seed(std),
            *params,
        )
        if self.cache is not None:
            hit = self.cache.get(matrix_key)
            if hit is not None:
                self._cache_hit_count.inc()
                return np.array(hit, dtype=np.float64)
            self._cache_miss_count.inc()
        n = std.shape[1]
        self._pairs_estimated.inc(n * (n - 1) // 2)
        with self.obs.tracer.span(
            "inference.matrix", genes=n, samples=n_samples
        ):
            result = _probability_matrix_std(
                std,
                n_samples,
                est.seed,
                est.semantics,
                self.config.batch_size,
                self.config.workers,
                col_seeds=col_seeds,
            )
        if self.cache is not None:
            frozen = result.copy()
            frozen.setflags(write=False)
            self.cache.put(matrix_key, frozen)
            if not self._exact_regime(int(std.shape[0])):
                n = std.shape[1]
                for t in range(1, n):
                    for s in range(t):
                        self.cache.put(
                            self.cache.pair_key(params, col_seeds[s], col_seeds[t]),
                            float(result[s, t]),
                        )
        return result

    def stats(self) -> dict[str, float]:
        """Cache observability counters (all zero when caching is off)."""
        if self.cache is None:
            return {
                "cache_entries": 0.0,
                "cache_hits": 0.0,
                "cache_misses": 0.0,
            }
        return self.cache.stats()
