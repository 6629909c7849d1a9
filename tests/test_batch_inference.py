"""Tests for the batched/cached edge-probability engine.

The contract under test: every execution strategy -- scalar per-pair,
batched matrix, pair blocks, cached -- returns *identical*
probabilities for the same data and estimator parameters. That is what
makes batching safe to wire through every engine.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import InferenceConfig
from repro.core.batch_inference import (
    BatchInferenceEngine,
    EdgeProbabilityCache,
    _permutation_block,
    batched_probability_matrix,
    standardize_columns,
)
from repro.core.inference import (
    EdgeProbabilityEstimator,
    edge_probability,
    infer_grn,
)
from repro.core.randomization import content_seed
from repro.core.standardize import standardize_vector
from repro.errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    ValidationError,
)


@pytest.fixture()
def matrix(rng) -> np.ndarray:
    """A 14-sample x 9-gene matrix with a mix of correlated columns."""
    m = rng.normal(size=(14, 9))
    m[:, 1] = m[:, 0] + 0.4 * rng.normal(size=14)
    m[:, 5] = -m[:, 2] + 0.3 * rng.normal(size=14)
    return m


def scalar_reference(matrix: np.ndarray, estimator) -> np.ndarray:
    """The per-pair sequential loop the batched paths must reproduce."""
    n = matrix.shape[1]
    probs = np.zeros((n, n), dtype=np.float64)
    for s in range(n):
        for t in range(s + 1, n):
            probs[s, t] = estimator.pair_probability(matrix[:, s], matrix[:, t])
    probs += probs.T
    return probs


def per_column(matrix: np.ndarray) -> np.ndarray:
    """The reference path: :func:`standardize_vector`, column by column."""
    return np.column_stack(
        [standardize_vector(matrix[:, j]) for j in range(matrix.shape[1])]
    )


class TestStandardizeColumns:
    @given(
        rows=st.integers(2, 200),
        cols=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(-1e8, 1e8),
        log_scale=st.floats(-3.0, 6.0),
        rounded=st.booleans(),
        fortran=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_per_column_path(
        self, rows, cols, seed, offset, log_scale, rounded, fortran
    ):
        m = np.random.default_rng(seed).normal(size=(rows, cols))
        m = m * 10.0**log_scale + offset
        if rounded:  # repeated values, and sometimes constant columns
            m = np.round(m)
        if fortran:
            m = np.asfortranarray(m)
        try:
            expected = per_column(m)
        except DegenerateVectorError:
            with pytest.raises(DegenerateVectorError):
                standardize_columns(m)
            return
        assert standardize_columns(m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "case,error",
        [
            ("constant", DegenerateVectorError),
            ("nan", DegenerateVectorError),
            ("inf", DegenerateVectorError),
            ("one_row", DimensionMismatchError),
        ],
    )
    def test_raises_like_per_column_path(self, rng, case, error):
        m = rng.normal(size=(9, 4))
        if case == "constant":
            m[:, 2] = 3.5
        elif case == "nan":
            m[4, 1] = np.nan
        elif case == "inf":
            m[0, 3] = -np.inf
        else:
            m = m[:1]
        with pytest.raises(error):
            per_column(m)
        with pytest.raises(error):
            standardize_columns(m)

    def test_matches_per_column_standardize(self, rng):
        m = rng.normal(size=(11, 5))
        std = standardize_columns(m)
        for j in range(5):
            assert np.array_equal(std[:, j], standardize_vector(m[:, j]))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            standardize_columns(np.arange(6.0))


class TestBitIdentity:
    """Batched == scalar, bit for bit, under a fixed seed."""

    def test_matrix_equals_scalar_loop(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        batched = estimator.probability_matrix(matrix)
        assert np.array_equal(batched, scalar_reference(matrix, estimator))

    def test_two_sided_matrix_equals_scalar_loop(self, matrix):
        estimator = EdgeProbabilityEstimator(
            n_samples=64, seed=5, semantics="two_sided"
        )
        batched = estimator.probability_matrix(matrix)
        assert np.array_equal(batched, scalar_reference(matrix, estimator))

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_size_invariance(self, matrix, batch_size):
        reference = edge_probability(matrix, method="matrix", n_samples=64, seed=5)
        varied = edge_probability(
            matrix, method="matrix", n_samples=64, seed=5, batch_size=batch_size
        )
        assert np.array_equal(varied, reference)

    def test_pair_blocks_equal_scalar(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        engine = BatchInferenceEngine(estimator, InferenceConfig())
        std = standardize_columns(matrix)
        pairs = [(0, 1), (2, 5), (0, 8), (3, 4)]
        probs = engine.pair_block_probabilities(std, pairs, raw=matrix)
        for s, t in pairs:
            assert probs[(s, t)] == estimator.pair_probability(
                matrix[:, s], matrix[:, t]
            )

    def test_cache_off_equals_cache_on(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        cached = BatchInferenceEngine(estimator, InferenceConfig(cache=True))
        uncached = BatchInferenceEngine(estimator, InferenceConfig(cache=False))
        assert np.array_equal(
            cached.probability_matrix(matrix), uncached.probability_matrix(matrix)
        )

    def test_exact_regime_matches_estimator(self, rng):
        # l <= exact_below: the engine must delegate to exact enumeration.
        m = rng.normal(size=(5, 4))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5, exact_below=6)
        engine = BatchInferenceEngine(estimator, InferenceConfig())
        std = standardize_columns(m)
        pairs = [(0, 1), (1, 3)]
        probs = engine.pair_block_probabilities(std, pairs, raw=m)
        for s, t in pairs:
            assert probs[(s, t)] == estimator.pair_probability(m[:, s], m[:, t])
            assert engine.pair_probability(m[:, s], m[:, t]) == probs[(s, t)]


class TestCache:
    def test_hits_after_matrix_computation(self, matrix):
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5), InferenceConfig()
        )
        reference = engine.probability_matrix(matrix)
        before = engine.stats()["cache_hits"]
        # Single-pair lookups now hit the per-pair entries.
        p = engine.pair_probability(matrix[:, 0], matrix[:, 1])
        assert p == reference[0, 1]
        assert engine.stats()["cache_hits"] == before + 1

    def test_matrix_memo_hit(self, matrix):
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5), InferenceConfig()
        )
        first = engine.probability_matrix(matrix)
        hits_before = engine.stats()["cache_hits"]
        second = engine.probability_matrix(matrix)
        assert np.array_equal(first, second)
        assert engine.stats()["cache_hits"] == hits_before + 1

    def test_different_params_do_not_collide(self, matrix):
        cache = EdgeProbabilityCache()
        e64 = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5),
            InferenceConfig(),
            cache=cache,
        )
        e32 = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=32, seed=5),
            InferenceConfig(),
            cache=cache,
        )
        p64 = e64.pair_probability(matrix[:, 0], matrix[:, 1])
        p32 = e32.pair_probability(matrix[:, 0], matrix[:, 1])
        # Same pair, shared cache, different sample counts: the second
        # engine must not read the first engine's entry.
        assert p64 == EdgeProbabilityEstimator(n_samples=64, seed=5).pair_probability(
            matrix[:, 0], matrix[:, 1]
        )
        assert p32 == EdgeProbabilityEstimator(n_samples=32, seed=5).pair_probability(
            matrix[:, 0], matrix[:, 1]
        )

    def test_lru_eviction(self):
        cache = EdgeProbabilityCache(max_entries=2)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)
        assert cache.get(("a",)) == 1.0  # refresh "a"
        cache.put(("c",), 3.0)  # evicts "b", the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1.0
        assert cache.get(("c",)) == 3.0
        assert len(cache) == 2

    def test_pair_keys_are_exact_per_parameter_set(self):
        cache = EdgeProbabilityCache()
        seeds = (2**64 - 1, 12345)
        key_a = cache.pair_key((64, "one_sided", 5, 0), *seeds)
        key_b = cache.pair_key((32, "one_sided", 5, 0), *seeds)
        assert key_a != key_b
        assert cache.pair_key((64, "one_sided", 5, 0), *seeds) == key_a
        assert cache.pair_key((64, "one_sided", 5, 0), *reversed(seeds)) != key_a
        cache.put(key_a, 0.25)
        cache.put(key_b, float("0.25"))
        assert cache.get(key_a) is cache.get(key_b)  # one shared float

    def test_clear_resets_counters(self):
        cache = EdgeProbabilityCache()
        cache.put(("k",), 0.5)
        cache.get(("k",))
        cache.get(("missing",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "cache_entries": 0.0,
            "cache_hits": 0.0,
            "cache_misses": 0.0,
        }

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValidationError):
            EdgeProbabilityCache(max_entries=0)


class TestPermutationTies:
    """A permutation that ties the observed statistic never counts."""

    def test_identity_permutation_counts_alike_in_every_kernel(self):
        rng = np.random.default_rng(78)
        m = rng.normal(size=(6, 3))
        m[:, 2] = 0.7 * m[:, 0] + 0.4 * rng.normal(size=6)
        std = standardize_columns(m)
        # Column 2's 32-row block at seed 3 holds the identity
        # permutation, whose dot product the scalar and GEMM kernels
        # round to opposite sides of the observed one.
        block = _permutation_block(std[:, 2], content_seed(std[:, 2]), 32, 3)
        assert any(np.array_equal(row, std[:, 2]) for row in block)
        estimator = EdgeProbabilityEstimator(n_samples=32, seed=3)
        engine = BatchInferenceEngine(estimator, InferenceConfig())
        pairs = [(0, 2), (1, 2)]
        scalar = [estimator.pair_probability(m[:, s], m[:, t]) for s, t in pairs]
        blocked = engine.pair_block_probabilities(std, pairs, raw=m)
        assert [blocked[pair] for pair in pairs] == scalar
        cached = [engine.pair_probability(m[:, s], m[:, t]) for s, t in pairs]
        assert cached == scalar
        assert engine.stats()["cache_hits"] == 2
        swept = batched_probability_matrix(m, n_samples=32, seed=3)
        assert [swept[s, t] for s, t in pairs] == scalar

    def test_exact_enumeration_skips_equal_entry_swaps(self):
        rng = np.random.default_rng(0)
        x_t = rng.normal(size=6)
        x_t[1], x_t[3] = x_t[0], x_t[2]  # four orderings reproduce x_t
        x_s = rng.normal(size=6)
        xs = [Fraction(v) for v in standardize_vector(x_s)]
        xt = [Fraction(v) for v in standardize_vector(x_t)]
        observed = sum(a * b for a, b in zip(xs, xt))
        strictly_less = sum(
            sum(a * b for a, b in zip(xs, perm)) < observed
            for perm in itertools.permutations(xt)
        )
        p = edge_probability(x_s, x_t, method="exact")
        assert p == strictly_less / math.factorial(6)


class TestDeterminism:
    def test_same_seed_identical_probabilistic_graph(self, matrix):
        ids = list(range(100, 100 + matrix.shape[1]))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        config = InferenceConfig(batch_size=4)
        g1 = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                       inference=config)
        g2 = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                       inference=config)
        assert g1.gene_ids == g2.gene_ids
        assert dict(g1.edges()) == dict(g2.edges())

    def test_batch_knobs_do_not_change_graph(self, matrix):
        ids = list(range(matrix.shape[1]))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        small = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                          inference=InferenceConfig(batch_size=1))
        large = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                          inference=InferenceConfig(batch_size=64))
        assert dict(small.edges()) == dict(large.edges())

    def test_evaluation_order_independence(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        engine = BatchInferenceEngine(estimator, InferenceConfig(cache=False))
        std = standardize_columns(matrix)
        forward = engine.pair_block_probabilities(std, [(0, 3), (1, 3), (2, 3)])
        backward = engine.pair_block_probabilities(std, [(2, 3), (1, 3), (0, 3)])
        assert forward == backward


class TestSemanticsEquivalence:
    """one_sided and two_sided coincide on non-negatively correlated pairs.

    For ``r(X_s, X_t) >= 0`` and a permuted sample with
    ``|r_sampled| < r_observed``, both semantics count the same events up
    to the sign of the sampled score; on strongly positively correlated
    pairs the estimates agree closely (the docstring's claimed regime).
    """

    def test_agree_on_positively_correlated_pair(self, rng):
        x = rng.normal(size=40)
        y = x + 0.15 * rng.normal(size=40)
        one = EdgeProbabilityEstimator(
            n_samples=400, seed=5, semantics="one_sided"
        ).pair_probability(x, y)
        two = EdgeProbabilityEstimator(
            n_samples=400, seed=5, semantics="two_sided"
        ).pair_probability(x, y)
        assert one == pytest.approx(two, abs=0.05)
        assert one > 0.9 and two > 0.9

    def test_agree_across_positive_pairs(self, rng):
        for _ in range(5):
            x = rng.normal(size=36)
            y = 0.8 * x + 0.2 * rng.normal(size=36)
            one = EdgeProbabilityEstimator(
                n_samples=300, seed=7, semantics="one_sided"
            ).pair_probability(x, y)
            two = EdgeProbabilityEstimator(
                n_samples=300, seed=7, semantics="two_sided"
            ).pair_probability(x, y)
            assert one == pytest.approx(two, abs=0.06)


class TestValidation:
    def test_bad_batch_size_rejected(self, matrix):
        with pytest.raises(ValidationError):
            edge_probability(matrix, method="matrix", n_samples=16, batch_size=0)

    def test_bad_config_values_rejected(self):
        with pytest.raises(ValidationError):
            InferenceConfig(batch_size=0)
        with pytest.raises(ValidationError):
            InferenceConfig(cache_size=0)

    def test_config_with_copies(self):
        config = InferenceConfig()
        tuned = config.with_(batch_size=8, cache=False)
        assert tuned.batch_size == 8
        assert tuned.cache is False
        assert config.batch_size == 32  # original untouched

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            batched_probability_matrix(np.arange(8.0), n_samples=16)
