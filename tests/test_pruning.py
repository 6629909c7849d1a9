"""Unit tests for the pruning lemmas (3-6) -- above all, *soundness*.

Every bound must over-estimate the true (exact, enumerated) probability:
a pruned edge / subgraph / node pair can never be a real answer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.inference import edge_probability
from repro.core.pruning import (
    combine_edge_bounds,
    edge_inference_prunable,
    graph_existence_prunable,
    graph_existence_upper_bound,
    index_pair_prunable,
    index_pairs_prunable,
    markov_edge_upper_bound,
    markov_edge_upper_bounds,
    pivot_edge_upper_bound,
    pivot_edge_upper_bounds,
    pivot_pruning_condition,
)
from repro.core.randomization import (
    enumerate_permutation_distances,
    expected_randomized_distance_jensen,
)
from repro.core.standardize import standardize_vector
from repro.errors import ValidationError


def _standardized_pair(rng, length=6):
    x = standardize_vector(rng.normal(size=length))
    y = standardize_vector(rng.normal(size=length))
    return x, y


class TestMarkovBound:
    def test_upper_bounds_exact_probability(self, rng):
        for _ in range(25):
            x, y = _standardized_pair(rng)
            exact = edge_probability(x, y, method="exact")
            distance = float(np.linalg.norm(x - y))
            expected = expected_randomized_distance_jensen(y, x)
            bound = markov_edge_upper_bound(distance, expected)
            assert bound >= exact - 1e-12

    def test_exact_expectation_also_sound(self, rng):
        """Markov with the exact E[Z] (not just the Jensen bound) is sound."""
        for _ in range(25):
            x, y = _standardized_pair(rng)
            exact = edge_probability(x, y, method="exact")
            distance = float(np.linalg.norm(x - y))
            exact_expectation = float(
                np.mean(enumerate_permutation_distances(x, y))
            )
            assert markov_edge_upper_bound(distance, exact_expectation) >= exact - 1e-12

    def test_clamped_to_one(self):
        assert markov_edge_upper_bound(0.5, 10.0) == 1.0

    def test_zero_distance_vacuous(self):
        assert markov_edge_upper_bound(0.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            markov_edge_upper_bound(-1.0, 1.0)
        with pytest.raises(ValidationError):
            markov_edge_upper_bound(1.0, -1.0)

    def test_floor_for_standardized_vectors(self, rng):
        """For z-scored data the Markov bound can never dip below 1/sqrt(2):
        E[Z] ~= sqrt(2l) while dist <= 2 sqrt(l). Pins why the probability
        pruning only bites at high gamma (>= 0.8 in the paper's grid)."""
        x, y = _standardized_pair(rng, length=8)
        distance = float(np.linalg.norm(x - y))
        bound = markov_edge_upper_bound(
            distance, expected_randomized_distance_jensen(y, x)
        )
        assert bound >= 1.0 / math.sqrt(2.0) - 1e-9


class TestEdgeInferencePruning:
    def test_prunes_at_or_below_gamma(self):
        assert edge_inference_prunable(0.5, 0.5)
        assert edge_inference_prunable(0.3, 0.5)
        assert not edge_inference_prunable(0.51, 0.5)

    def test_gamma_domain(self):
        with pytest.raises(ValidationError):
            edge_inference_prunable(0.5, 1.0)

    def test_never_prunes_true_edges(self, rng):
        """End-to-end soundness: if the bound prunes, exact p <= gamma."""
        gamma = 0.8
        for _ in range(30):
            x, y = _standardized_pair(rng)
            distance = float(np.linalg.norm(x - y))
            bound = markov_edge_upper_bound(
                distance, expected_randomized_distance_jensen(y, x)
            )
            if edge_inference_prunable(bound, gamma):
                assert edge_probability(x, y, method="exact") <= gamma + 1e-12


class TestGraphExistencePruning:
    def test_product(self):
        assert graph_existence_upper_bound([0.5, 0.5]) == pytest.approx(0.25)

    def test_empty_product_is_one(self):
        assert graph_existence_upper_bound([]) == 1.0

    def test_zero_short_circuit(self):
        assert graph_existence_upper_bound([0.9, 0.0, 0.8]) == 0.0

    def test_bad_bound_rejected(self):
        with pytest.raises(ValidationError):
            graph_existence_upper_bound([1.2])

    def test_prunable(self):
        assert graph_existence_prunable(0.2, 0.2)
        assert not graph_existence_prunable(0.21, 0.2)

    def test_upper_bounds_product_of_exacts(self, rng):
        """UB_Pr{G} with per-edge Markov bounds dominates prod of exacts."""
        xs = [standardize_vector(rng.normal(size=6)) for _ in range(4)]
        bounds, exacts = [], []
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            distance = float(np.linalg.norm(xs[a] - xs[b]))
            bounds.append(
                markov_edge_upper_bound(
                    distance, expected_randomized_distance_jensen(xs[b], xs[a])
                )
            )
            exacts.append(edge_probability(xs[a], xs[b], method="exact"))
        assert graph_existence_upper_bound(bounds) >= np.prod(exacts) - 1e-12


class TestPivotBound:
    def _embed(self, vec, pivots):
        x = np.array([float(np.linalg.norm(vec - p)) for p in pivots])
        y = np.array(
            [expected_randomized_distance_jensen(vec, p) for p in pivots]
        )
        return x, y

    def test_upper_bounds_exact_probability(self, rng):
        for _ in range(25):
            length = 6
            xs = standardize_vector(rng.normal(size=length))
            xt = standardize_vector(rng.normal(size=length))
            pivots = [standardize_vector(rng.normal(size=length)) for _ in range(3)]
            gx, _gy = self._embed(xs, pivots)
            tx, ty = self._embed(xt, pivots)
            bound = pivot_edge_upper_bound(gx, tx, ty)
            assert bound >= edge_probability(xs, xt, method="exact") - 1e-12

    def test_never_tighter_than_markov_on_true_distance(self, rng):
        """The pivot bound relaxes dist via the triangle inequality, so it
        can only be looser than Markov on the true distance."""
        length = 10
        xs = standardize_vector(rng.normal(size=length))
        xt = standardize_vector(rng.normal(size=length))
        pivots = [standardize_vector(rng.normal(size=length)) for _ in range(2)]
        gx, _ = self._embed(xs, pivots)
        tx, ty = self._embed(xt, pivots)
        pivot = pivot_edge_upper_bound(gx, tx, ty)
        distance = float(np.linalg.norm(xs - xt))
        markov = markov_edge_upper_bound(
            distance, expected_randomized_distance_jensen(xt, xs)
        )
        assert pivot >= markov - 1e-9

    def test_case1_vacuous(self):
        # C <= 0 for every pivot -> bound is 1.
        xs = np.array([5.0, 5.0])
        xt = np.array([5.0, 5.0])
        yt = np.array([1.0, 1.0])
        assert pivot_edge_upper_bound(xs, xt, yt) == 1.0

    def test_case2_value(self):
        # d=1: C = |xs-xt| - xs = |2-10| - 2 = 6 -> bound = y/6.
        assert pivot_edge_upper_bound(
            np.array([2.0]), np.array([10.0]), np.array([3.0])
        ) == pytest.approx(0.5)

    def test_condition_equivalent_to_bound(self):
        xs, xt, yt = np.array([2.0]), np.array([10.0]), np.array([3.0])
        assert pivot_pruning_condition(xs, xt, yt, gamma=0.5)
        assert not pivot_pruning_condition(xs, xt, yt, gamma=0.4)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            pivot_edge_upper_bound(np.ones(2), np.ones(3), np.ones(2))


class TestIndexPruning:
    def test_prunes_only_when_every_pair_prunable(self, rng):
        """Lemma-6 soundness: if a node pair is pruned, every contained
        point pair satisfies the (one-sided) pivot pruning condition."""
        gamma = 0.6
        d = 2
        for _ in range(60):
            # Random point clouds standing in for node contents.
            a_x = rng.uniform(0.0, 4.0, size=(4, d))
            b_x = rng.uniform(0.0, 9.0, size=(4, d))
            b_y = rng.uniform(0.0, 5.0, size=(4, d))
            if not index_pair_prunable(
                a_x.max(axis=0), b_x.min(axis=0), b_y.max(axis=0), gamma
            ):
                continue
            for xs in a_x:
                for xt, yt in zip(b_x, b_y):
                    # One-sided variant of the point condition (Eq. 9).
                    gap = np.max(xt - xs)
                    conditions = [
                        yt[w] <= gamma * (gap - xs[w]) for w in range(d)
                    ]
                    assert any(conditions)

    def test_gamma_zero_never_prunes(self):
        assert not index_pair_prunable(
            np.zeros(2), np.full(2, 10.0), np.zeros(2), gamma=0.0
        )

    def test_obviously_far_pair_pruned(self):
        # E_a near origin, E_b with huge x and tiny y.
        assert index_pair_prunable(
            np.array([1.0, 1.0]),
            np.array([100.0, 100.0]),
            np.array([0.5, 0.5]),
            gamma=0.5,
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            index_pair_prunable(np.ones(2), np.ones(3), np.ones(2), 0.5)

    def test_gamma_domain(self):
        with pytest.raises(ValidationError):
            index_pair_prunable(np.ones(2), np.ones(2), np.ones(2), 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
    def test_rows_match_scalar(self, rng, gamma):
        ea = rng.uniform(0.0, 2.0, size=(300, 3))
        eb_x = rng.uniform(0.0, 9.0, size=(300, 3))
        eb_y = rng.uniform(0.0, 3.0, size=(300, 3))
        rows = index_pairs_prunable(ea, eb_x, eb_y, gamma)
        assert rows.shape == (300,)
        assert rows.tolist() == [
            index_pair_prunable(a, x, y, gamma) for a, x, y in zip(ea, eb_x, eb_y)
        ]
        assert gamma == 0.0 or 0 < rows.sum() < 300

    def test_rows_shape_mismatch(self):
        with pytest.raises(ValidationError):
            index_pairs_prunable(np.ones((3, 2)), np.ones((4, 2)), np.ones((4, 2)), 0.5)


#: Coordinates mixing small exact values (so ties -- ``C == 0``, a zero
#: ``y_t``, a zero distance -- occur often) with arbitrary finite ones.
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _pivot_rows(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    rows = hnp.arrays(np.float64, (n, d), elements=_VALUES)
    return draw(rows), draw(rows), draw(rows)


def _scalar_pivot_bounds(xs, xt, yt) -> list[float]:
    return [pivot_edge_upper_bound(a, b, c) for a, b, c in zip(xs, xt, yt)]


class TestVectorizedBounds:
    """The batch kernels equal the scalar bounds row by row, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_pivot_rows())
    # Every pivot in Case 1 (C < 0): the vacuous 1.0.
    @example((np.array([[5.0, 5.0]]), np.array([[5.0, 5.0]]), np.ones((1, 2))))
    # C == 0 exactly for pivot 0 (skipped), C == 2 for pivot 1.
    @example((np.array([[2.0, 0.0]]), np.array([[4.0, 0.0]]), np.ones((1, 2))))
    # y_t == 0 under Case 2: a zero bound.
    @example((np.array([[1.0]]), np.array([[5.0]]), np.zeros((1, 1))))
    def test_pivot_rows_equal_scalar(self, rows):
        xs, xt, yt = rows
        bounds = pivot_edge_upper_bounds(xs, xt, yt)
        assert bounds.shape == (xs.shape[0],)
        assert bounds.tolist() == _scalar_pivot_bounds(xs, xt, yt)

    def test_pivot_edge_cases(self):
        xs = np.array([[5.0, 5.0], [2.0, 0.0], [2.0, 9.0], [1.0, 1.0]])
        xt = np.array([[5.0, 5.0], [4.0, 0.0], [4.0, 9.0], [5.0, 5.0]])
        yt = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])
        # All Case 1; C = (0, 2); C = (0, -7), i.e. all Case 1; y_t == 0.
        expected = [1.0, 0.5, 1.0, 0.0]
        assert pivot_edge_upper_bounds(xs, xt, yt).tolist() == expected
        assert _scalar_pivot_bounds(xs, xt, yt) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_VALUES, min_size=1, max_size=20).flatmap(
            lambda distances: st.tuples(
                st.just(distances),
                st.lists(_VALUES, min_size=len(distances), max_size=len(distances)),
            )
        )
    )
    @example(([0.0, 0.0, 2.0], [0.0, 3.0, 0.0]))  # distance == 0 is vacuous
    def test_markov_rows_equal_scalar(self, rows):
        distances, expected = rows
        scalar = [markov_edge_upper_bound(a, b) for a, b in zip(distances, expected)]
        assert markov_edge_upper_bounds(distances, expected).tolist() == scalar
        shared = [markov_edge_upper_bound(a, expected[0]) for a in distances]
        assert markov_edge_upper_bounds(distances, expected[0]).tolist() == shared

    def test_markov_edge_cases(self):
        bounds = markov_edge_upper_bounds([0.0, 4.0, 4.0, 1.0], [3.0, 1.0, 0.0, 9.0])
        assert bounds.tolist() == [1.0, 0.25, 0.0, 1.0]

    def test_domain_and_shapes(self):
        with pytest.raises(ValidationError):
            markov_edge_upper_bounds([1.0, -1.0], 1.0)
        with pytest.raises(ValidationError):
            markov_edge_upper_bounds([1.0], [-1.0])
        with pytest.raises(ValidationError):
            markov_edge_upper_bounds(np.ones((2, 2)), 1.0)
        with pytest.raises(ValidationError):
            pivot_edge_upper_bounds(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))


class TestCombineBounds:
    def test_min(self):
        assert combine_edge_bounds(0.7, 0.9) == 0.7

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            combine_edge_bounds(float("nan"), 0.5)
