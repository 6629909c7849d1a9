"""Property-based tests (hypothesis) for the core math invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.correlation import distance_from_correlation, pearson
from repro.core.inference import edge_probability
from repro.core.pivots import pivot_cost, pivot_cost_literal
from repro.core.probgraph import ProbabilisticGraph
from repro.core.pruning import markov_edge_upper_bound, pivot_edge_upper_bound
from repro.core.randomization import (
    enumerate_permutation_distances,
    expected_randomized_distance_jensen,
    expected_squared_randomized_distance,
)
from repro.core.standardize import standardize_matrix, standardize_vector

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def varied_vector(length: int):
    """A length-``length`` float vector guaranteed non-constant."""
    return (
        hnp.arrays(np.float64, length, elements=finite_floats)
        .filter(lambda v: float(np.ptp(v)) > 1e-6)
        .filter(lambda v: np.all(np.isfinite(standardize_vector_safe(v))))
    )


def standardize_vector_safe(v: np.ndarray) -> np.ndarray:
    try:
        return standardize_vector(v)
    except Exception:
        return np.full_like(v, np.nan)


small_vec = varied_vector(5)


class TestStandardizationProperties:
    @given(varied_vector(12))
    @settings(max_examples=60, deadline=None)
    def test_zero_mean_unit_norm(self, v):
        z = standardize_vector(v)
        assert abs(float(z.mean())) < 1e-6
        assert float(z @ z) == pytest.approx(12.0, rel=1e-6)

    @given(varied_vector(10), st.floats(0.1, 100.0), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, v, scale, shift):
        if not np.all(np.isfinite(v * scale + shift)):
            return
        z1 = standardize_vector(v)
        z2 = standardize_vector(v * scale + shift)
        np.testing.assert_allclose(z1, z2, atol=1e-5)


class TestLemma1Identity:
    @given(varied_vector(9), varied_vector(9))
    @settings(max_examples=60, deadline=None)
    def test_distance_correlation_identity(self, x, y):
        """dist(z(x), z(y)) == sqrt(2 l (1 - cor(x, y))) -- Appendix B."""
        zx, zy = standardize_vector(x), standardize_vector(y)
        dist = float(np.linalg.norm(zx - zy))
        cor = pearson(x, y)
        assert dist == pytest.approx(
            distance_from_correlation(cor, 9), abs=1e-5
        )


class TestProbabilityProperties:
    @given(small_vec, small_vec)
    @settings(max_examples=40, deadline=None)
    def test_exact_probability_in_unit_interval(self, x, y):
        p = edge_probability(x, y, method="exact")
        assert 0.0 <= p <= 1.0

    @given(small_vec, small_vec)
    @settings(max_examples=40, deadline=None)
    def test_two_sided_never_exceeds_one_sided_plus_flip(self, x, y):
        """two_sided = Pr{|dotR| < |dot|} <= Pr{dotR < dot} when dot >= 0."""
        zx, zy = standardize_vector(x), standardize_vector(y)
        if float(zx @ zy) < 0.0:
            return
        one = edge_probability(x, y, method="exact", semantics="one_sided")
        two = edge_probability(x, y, method="exact", semantics="two_sided")
        assert two <= one + 1e-12

    @given(small_vec, small_vec)
    @settings(max_examples=40, deadline=None)
    def test_markov_bound_sound(self, x, y):
        zx, zy = standardize_vector(x), standardize_vector(y)
        distance = float(np.linalg.norm(zx - zy))
        expected = expected_randomized_distance_jensen(zy, zx)
        assert markov_edge_upper_bound(distance, expected) >= (
            edge_probability(x, y, method="exact") - 1e-9
        )

    @given(small_vec, small_vec, small_vec, small_vec)
    @settings(max_examples=30, deadline=None)
    def test_pivot_bound_sound(self, x, y, p1, p2):
        zx, zy = standardize_vector(x), standardize_vector(y)
        pivots = [standardize_vector(p1), standardize_vector(p2)]
        gx = np.array([float(np.linalg.norm(zx - p)) for p in pivots])
        tx = np.array([float(np.linalg.norm(zy - p)) for p in pivots])
        ty = np.array(
            [expected_randomized_distance_jensen(zy, p) for p in pivots]
        )
        assert pivot_edge_upper_bound(gx, tx, ty) >= (
            edge_probability(x, y, method="exact") - 1e-9
        )


class TestExpectationProperties:
    @given(small_vec, small_vec)
    @settings(max_examples=40, deadline=None)
    def test_closed_form_second_moment(self, x, pivot):
        exact = float(np.mean(enumerate_permutation_distances(pivot, x) ** 2))
        assert expected_squared_randomized_distance(x, pivot) == pytest.approx(
            exact, rel=1e-6, abs=1e-6
        )

    @given(small_vec, small_vec)
    @settings(max_examples=40, deadline=None)
    def test_jensen_dominates_true_mean(self, x, pivot):
        true_mean = float(np.mean(enumerate_permutation_distances(pivot, x)))
        assert expected_randomized_distance_jensen(x, pivot) >= true_mean - 1e-9


class TestPivotCostProperties:
    @given(
        hnp.arrays(
            np.float64,
            (8, 6),
            elements=st.floats(-100, 100, allow_nan=False),
        ).filter(lambda m: np.all(np.ptp(m, axis=0) > 1e-3)),
        st.sets(st.integers(0, 5), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_cost_equals_literal(self, matrix, pivot_set):
        std = standardize_matrix(matrix)
        pivots = np.array(sorted(pivot_set))
        assert pivot_cost(std, pivots) == pytest.approx(
            pivot_cost_literal(std, pivots), rel=1e-9, abs=1e-9
        )


class TestPossibleWorldProperties:
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda e: e[0] != e[1]
            ),
            st.floats(0.0, 1.0),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_worlds_sum_to_one_and_match_product(self, raw_edges):
        edges = {}
        for (u, v), p in raw_edges.items():
            edges[(min(u, v), max(u, v))] = p
        graph = ProbabilisticGraph(range(6), edges)
        worlds = list(graph.possible_worlds())
        assert sum(w.probability for w in worlds) == pytest.approx(1.0)
        keys = list(edges)
        if keys:
            subset = keys[: max(1, len(keys) // 2)]
            assert graph.appearance_probability(subset) == pytest.approx(
                graph.world_containment_probability(subset)
            )
