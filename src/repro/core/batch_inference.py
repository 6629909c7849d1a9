"""Batched, cached edge-probability computation.

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
* a per-source :class:`EstimatorState` for stored matrices: their
  columns are standardized and hashed once;
* one content-addressed permutation store per engine, keyed by a
  column's ``content_seed``: a column's block is drawn once and kept as
  compact ``n_samples x l`` permutation indices. Refinement of an
  indexed source admits the target columns it estimates; query-graph
  inference and a removed source's transient state gather on a hit and
  draw on a miss without admitting, so the store grows with stored
  columns only, never with ad-hoc query columns.

The GEMMs already use every core through BLAS, so there is no process
pool here: sharding the pair grid over processes lost to the in-process
path at every measured size.

Every path draws the *same* ``default_rng`` stream per pair -- keyed by
``(seed, content_seed(standardized target column))`` -- so batched,
cached and scalar estimates are identical for the same data
and estimator parameters, in any evaluation order.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..config import InferenceConfig
from ..errors import DegenerateVectorError, DimensionMismatchError, ValidationError
from ..obs import CounterHandle, Observability
from ..obs import names as _names
from .randomization import MAX_EXACT_LENGTH, content_seed, permutation_beaten
from .standardize import standardize_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .inference import EdgeProbabilityEstimator

__all__ = [
    "EdgeProbabilityCache",
    "BatchInferenceEngine",
    "EstimatorState",
    "standardize_columns",
    "batched_probability_matrix",
]

_SEMANTICS = ("one_sided", "two_sided")


def standardize_columns(matrix: np.ndarray) -> np.ndarray:
    """Standardize every column, byte-identical to :func:`standardize_vector`.

    The columns are copied into a contiguous ``genes x samples`` array and
    reduced along its last axis, so each column's sums run over exactly the
    contiguous sequence (and pairwise-summation blocking) the single-vector
    path sees. The axis-0 reductions of
    :func:`repro.core.standardize.standardize_matrix` add row by row
    instead and can differ in the last ulp. Byte identity keeps the
    content-keyed permutation streams, and therefore the probability
    estimates, identical between the single-pair and the block paths.
    Raises the errors :func:`standardize_vector` raises on any column.
    The result is the ``samples x genes`` transpose of that array, so each
    column is a contiguous view.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected a 2-D matrix, got shape {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise DimensionMismatchError(
            f"need at least 2 samples to standardize, got {arr.shape[0]}"
        )
    rows = np.ascontiguousarray(arr.T)
    if not np.all(np.isfinite(rows)):
        raise DegenerateVectorError("vector contains non-finite values")
    centered = rows - rows.mean(axis=1, keepdims=True)
    scale = np.sqrt(np.mean(centered * centered, axis=1, keepdims=True))
    if not np.all((scale > 0.0) & np.isfinite(scale)):
        raise DegenerateVectorError(
            "constant vector has zero variance; cannot standardize"
        )
    return (centered / scale).T


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


def _permutation_indices(
    col_seed: int, length: int, n_samples: int, seed: int
) -> np.ndarray:
    """A column's permutation block as ``intp`` positions.

    ``Generator.permuted`` shuffles by position only, so the same stream
    over ``arange(length)`` yields indices with ``column[indices]`` equal
    to :func:`_permutation_block` of that column byte for byte, at the
    same cost: NumPy shuffles 8-byte items about twice as fast as 1-byte
    ones, so positions are narrowed only for the permutation store.
    """
    return _permutation_block(np.arange(length), col_seed, n_samples, seed)


class EstimatorState(NamedTuple):
    """One stored matrix's estimator inputs, built once per source.

    Built by :meth:`BatchInferenceEngine.estimator_state` and reused by
    every query that refines against the source: ``std`` is the
    read-only :func:`standardize_columns` of the matrix and ``seeds[c]``
    the ``content_seed`` of column ``c``. ``admit`` says whether the
    blocks drawn for its target columns enter the engine's permutation
    store: true for an indexed source, false for the transient state of
    a source no longer indexed.
    """

    std: np.ndarray
    seeds: tuple[int, ...]
    admit: bool


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


def batched_probability_matrix(
    matrix: np.ndarray,
    n_samples: int = 200,
    seed: int = 7,
    semantics: str = "one_sided",
    batch_size: int = 32,
) -> np.ndarray:
    """All-pairs edge probabilities for the columns of an ``l x n`` matrix.

    Batched implementation behind
    :func:`repro.core.inference.edge_probability` with
    ``method="matrix"``; ``batch_size`` only trades memory for speed and
    never changes the returned probabilities.
    """
    _check_batch_args(n_samples, semantics)
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    std = standardize_columns(matrix)
    return _probability_matrix_std(std, n_samples, seed, semantics, batch_size)


def _probability_matrix_std(
    std: np.ndarray,
    n_samples: int,
    seed: int,
    semantics: str,
    batch_size: int,
    col_seeds: dict[int, int] | None = None,
) -> np.ndarray:
    n_genes = std.shape[1]
    result = np.zeros((n_genes, n_genes), dtype=np.float64)
    targets = list(range(1, n_genes))
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
        return self.get_many((key,))[0]

    def get_many(self, keys: Iterable[Hashable]) -> list[object | None]:
        """Cached values for ``keys`` (``None`` where absent), one lock."""
        out: list[object | None] = []
        with self._lock:
            data = self._data
            for key in keys:
                value = data.pop(key, None)
                if value is None:
                    self.misses += 1
                else:
                    data[key] = value  # re-inserted as most recently used
                    self.hits += 1
                out.append(value)
        return out

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
    """Batched, cached edge-probability engine.

    Wraps an :class:`~repro.core.inference.EdgeProbabilityEstimator` (the
    *what*: sample count, semantics, seed) with an
    :class:`~repro.config.InferenceConfig` (the *how*: batching and
    caching). All methods return the same probabilities the wrapped
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
        #: The permutation store: ``content_seed`` of a standardized column
        #: -> its read-only permutation indices (:func:`_permutation_indices`
        #: in the smallest unsigned dtype that holds ``l - 1``) for this
        #: engine's estimator parameters. Entries are published complete
        #: with ``setdefault``; a reader gets all or nothing.
        self._blocks: dict[int, np.ndarray] = {}
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
        self._blocks_drawn = CounterHandle(
            metrics, _names.INFERENCE_BLOCKS_DRAWN, help="permutation blocks drawn"
        )
        self._blocks_gathered = CounterHandle(
            metrics,
            _names.INFERENCE_BLOCKS_GATHERED,
            help="permutation blocks gathered from the permutation store",
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
        self._blocks_drawn.inc()
        return self.estimator.sampled_probability_std(xs, xt)

    # ------------------------------------------------------------------
    # Pair blocks (sparse pair sets over one matrix)
    # ------------------------------------------------------------------
    def estimator_state(
        self, values: np.ndarray, admit: bool = True
    ) -> EstimatorState:
        """The :class:`EstimatorState` of one stored matrix's ``values``;
        ``admit=False`` for a matrix that is no longer stored."""
        std = standardize_columns(values)
        std.flags.writeable = False
        seeds = tuple(content_seed(std[:, c]) for c in range(std.shape[1]))
        return EstimatorState(std, seeds, admit)

    def drop_blocks(self, seeds: Iterable[int]) -> None:
        """Drop the permutation store's entries of these column seeds."""
        for col_seed in seeds:
            self._blocks.pop(col_seed, None)

    def clear_blocks(self) -> None:
        """Empty the permutation store."""
        self._blocks.clear()

    def _column_block(
        self, column: np.ndarray, col_seed: int, n_samples: int, admit: bool
    ) -> np.ndarray:
        """The column's ``n_samples x l`` permutation block: gathered from
        the permutation store, else drawn -- the same block byte for byte.
        A drawn block enters the store only when ``admit`` is set."""
        indices = self._blocks.get(col_seed)
        if indices is not None:
            self._blocks_gathered.inc()
        else:
            self._blocks_drawn.inc()
            length = len(column)
            indices = _permutation_indices(
                col_seed, length, n_samples, self.estimator.seed
            )
            if admit:
                stored = indices.astype(np.min_scalar_type(length - 1))
                stored.flags.writeable = False
                self._blocks.setdefault(col_seed, stored)
        return column.take(indices)

    def cached_pairs(
        self, seeds: Sequence[int] | dict[int, int], pairs: Sequence[tuple[int, int]]
    ) -> tuple[list[int] | None, list[float | None]]:
        """Cache keys and cached estimates of column pairs, one lookup.

        ``seeds[c]`` is the ``content_seed`` of standardized column ``c``.
        Returns ``(keys, values)`` aligned with ``pairs``: a value is
        ``None`` where the pair is not cached, and ``keys`` is ``None``
        when caching is off. Every pair counts once as a hit or a miss.
        """
        if self.cache is None:
            return None, [None] * len(pairs)
        params = self._params_key()
        keys = [self.cache.pair_key(params, seeds[s], seeds[t]) for s, t in pairs]
        values = self.cache.get_many(keys)
        hits = sum(value is not None for value in values)
        if hits:
            self._cache_hit_count.inc(hits)
        if hits < len(keys):
            self._cache_miss_count.inc(len(keys) - hits)
        return keys, values  # type: ignore[return-value]

    def pair_block_probabilities(
        self,
        std: np.ndarray,
        pairs: list[tuple[int, int]],
        raw: np.ndarray | None = None,
        *,
        seeds: Sequence[int] | dict[int, int] | None = None,
        keys: list[int] | None = None,
        admit: bool = False,
    ) -> dict[tuple[int, int], float]:
        """Probabilities for selected column pairs of a standardized matrix.

        ``std`` must come from :func:`standardize_columns`; each pair
        ``(s, t)`` randomizes column ``t``. Missing pairs are grouped by
        target column so one permutation block serves all of a column's
        partners; cached pairs are not recomputed. ``raw`` (the
        unstandardized matrix) is only consulted in the exact-enumeration
        regime, where the estimator enumerates raw columns.

        ``seeds[c]`` is column ``c``'s ``content_seed``; when omitted, the
        columns the pairs name are hashed here, once each. ``keys`` are
        the pairs' cache keys when the caller already looked them up with
        :meth:`cached_pairs` and found none of them: every pair is then
        estimated and stored without a second lookup. Each target
        column's block is gathered from the permutation store when the
        store holds the column, else drawn; ``admit`` (a stored source's
        :attr:`EstimatorState.admit`) publishes drawn blocks to the store.
        """
        est = self.estimator
        out: dict[tuple[int, int], float] = {}
        if seeds is None:  # a partner needs its seed only for a cache key
            columns = {t for _s, t in pairs}
            if self.cache is not None:
                columns.update(s for s, _t in pairs)
            seeds = {col: content_seed(std[:, col]) for col in columns}
        if keys is None:
            keys, cached = self.cached_pairs(seeds, pairs)
            missing = []
            for index, (pair, value) in enumerate(zip(pairs, cached)):
                if value is None:
                    missing.append(index)
                else:
                    out[pair] = float(value)  # type: ignore[arg-type]
        else:
            missing = list(range(len(pairs)))
        self._pairs_estimated.inc(len(missing))

        def store(index: int, value: float) -> None:
            out[pairs[index]] = value
            if keys is not None:
                self.cache.put(keys[index], value)  # type: ignore[union-attr]

        length = int(std.shape[0])
        if self._exact_regime(length):
            # Exact-enumeration regime: per pair (enumeration is already
            # column-batched internally and l is tiny here).
            source = std if raw is None else np.asarray(raw, dtype=np.float64)
            for index in missing:
                s, t = pairs[index]
                store(index, est.pair_probability(source[:, s], source[:, t]))
            return out
        n_samples = est.resolved_samples()
        missing_by_t: dict[int, list[int]] = {}
        for index in missing:
            missing_by_t.setdefault(pairs[index][1], []).append(index)
        with self.obs.tracer.span(
            "inference.pair_block", pairs=len(pairs), computed=len(missing)
        ):
            for t in sorted(missing_by_t):
                indices = sorted(missing_by_t[t], key=lambda i: pairs[i][0])
                partners = [pairs[i][0] for i in indices]
                column = std[:, t]
                block = self._column_block(column, seeds[t], n_samples, admit)
                cols = std[:, partners]
                scores = block @ cols
                observed = column @ cols
                beaten = permutation_beaten(
                    observed[np.newaxis, :], scores, length, est.semantics
                )
                for index, p in zip(indices, np.mean(beaten, axis=0)):
                    store(index, float(p))
        return out

    # ------------------------------------------------------------------
    # All pairs
    # ------------------------------------------------------------------
    def probability_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """All-pairs edge probabilities for the columns of ``matrix``.

        Batched computation; a whole-matrix memo entry plus per-pair entries are written to the
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
        self._blocks_drawn.inc(max(n - 1, 0))
        with self.obs.tracer.span(
            "inference.matrix", genes=n, samples=n_samples
        ):
            result = _probability_matrix_std(
                std,
                n_samples,
                est.seed,
                est.semantics,
                self.config.batch_size,
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
