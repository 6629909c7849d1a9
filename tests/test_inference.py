"""Unit tests for edge-probability estimation and GRN inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import (
    EdgeProbabilityEstimator,
    edge_probability,
    infer_grn,
    infer_grn_correlation,
    infer_grn_partial_correlation,
)
from repro.core.randomization import lemma2_sample_size
from repro.errors import ValidationError


def _correlated_pair(rng, length=20, noise=0.2):
    x = rng.normal(size=length)
    y = x + noise * rng.normal(size=length)
    return x, y


class TestEdgeProbabilityDistance:
    def test_in_unit_interval(self, rng):
        x, y = rng.normal(size=(2, 15))
        p = edge_probability(x, y, method="distance", n_samples=100, rng=rng)
        assert 0.0 <= p <= 1.0

    def test_high_for_correlated_pair(self, rng):
        x, y = _correlated_pair(rng, noise=0.1)
        p = edge_probability(x, y, method="distance", n_samples=300, rng=rng)
        assert p > 0.95

    def test_one_sided_low_for_anticorrelated_pair(self, rng):
        # Eq. 4 (one-sided) treats anti-correlation as a large distance.
        x = rng.normal(size=20)
        p = edge_probability(x, -x, method="distance", n_samples=300, rng=rng)
        assert p < 0.05

    def test_two_sided_high_for_anticorrelated_pair(self, rng):
        # Eq. 1 (absolute correlation) treats anti-correlation as an edge.
        x = rng.normal(size=20)
        p = edge_probability(
            x,
            -x + 0.05 * rng.normal(size=20),
            method="distance",
            n_samples=300,
            rng=rng,
            semantics="two_sided",
        )
        assert p > 0.95

    def test_near_half_for_independent_pair_one_sided(self, rng):
        # Under the null the one-sided p-value is uniform; averaged over
        # pairs it concentrates at 1/2.
        values = [
            edge_probability(
                rng.normal(size=30),
                rng.normal(size=30),
                method="distance",
                n_samples=200,
                rng=rng,
            )
            for _ in range(40)
        ]
        assert 0.35 < float(np.mean(values)) < 0.65

    def test_matches_exact_enumeration(self, rng):
        x, y = rng.normal(size=(2, 6))
        exact = edge_probability(x, y, method="exact")
        mc = edge_probability(x, y, method="distance", n_samples=8000, rng=rng)
        assert mc == pytest.approx(exact, abs=0.03)

    def test_bad_semantics(self, rng):
        with pytest.raises(ValidationError):
            edge_probability(
                np.ones(5) + np.arange(5),
                np.arange(5.0),
                method="distance",
                semantics="bogus",
            )

    def test_bad_sample_count(self, rng):
        x, y = rng.normal(size=(2, 10))
        with pytest.raises(ValidationError):
            edge_probability(x, y, method="distance", n_samples=0)


class TestSemanticsEquivalence:
    def test_lemma1_regime_agreement(self, rng):
        """One- and two-sided forms agree when the observed dot dominates
        the permutation dots in absolute value (the App.-B regime)."""
        for _ in range(10):
            x, y = _correlated_pair(rng, length=6, noise=0.05)
            one = edge_probability(x, y, method="exact", semantics="one_sided")
            two = edge_probability(x, y, method="exact", semantics="two_sided")
            # For strongly positively correlated pairs the one-sided count
            # includes every two-sided hit plus permutations dominated on
            # the negative side, so one >= two always; with weak nulls the
            # two coincide.
            assert one >= two - 1e-12

    def test_correlation_form_matches_two_sided_distance_form(self, rng):
        """Eq. 1 computed literally (|Pearson|) equals the two-sided dot
        form on the same permutation stream's distribution (statistically)."""
        x, y = _correlated_pair(rng, length=16, noise=0.8)
        lit = edge_probability(
            x, y, method="correlation", n_samples=3000, rng=np.random.default_rng(1)
        )
        two = edge_probability(
            x,
            y,
            method="distance",
            n_samples=3000,
            rng=np.random.default_rng(2),
            semantics="two_sided",
        )
        assert lit == pytest.approx(two, abs=0.05)


class TestEstimator:
    def test_lemma2_resolution(self):
        est = EdgeProbabilityEstimator(n_samples=None, epsilon=0.1, delta=0.05)
        assert est.resolved_samples() == lemma2_sample_size(0.1, 0.05)

    def test_explicit_samples_win(self):
        assert EdgeProbabilityEstimator(n_samples=77).resolved_samples() == 77

    def test_pair_probability_deterministic(self, rng):
        est = EdgeProbabilityEstimator(n_samples=50, seed=3)
        x, y = rng.normal(size=(2, 12))
        assert est.pair_probability(x, y) == est.pair_probability(x, y)

    def test_pair_matches_matrix_path(self, rng):
        """The content-keyed streams make the single-pair estimate equal
        the all-pairs matrix entry for the same data."""
        est = EdgeProbabilityEstimator(n_samples=64, seed=5)
        m = rng.normal(size=(14, 6))
        probs = est.probability_matrix(m)
        for s in range(6):
            for t in range(s + 1, 6):
                pair = est.pair_probability(m[:, s], m[:, t])
                assert pair == pytest.approx(probs[s, t], abs=1e-12), (s, t)

    def test_exact_below_uses_enumeration(self, rng):
        est = EdgeProbabilityEstimator(exact_below=8, n_samples=5, seed=1)
        x, y = rng.normal(size=(2, 6))
        assert est.pair_probability(x, y) == pytest.approx(
            edge_probability(x, y, method="exact")
        )

    def test_invalid_semantics_rejected(self):
        with pytest.raises(ValidationError):
            EdgeProbabilityEstimator(semantics="middle_out")


class TestEdgeProbabilityMatrix:
    def test_symmetric_zero_diagonal(self, rng):
        probs = edge_probability(
            rng.normal(size=(12, 5)), method="matrix", n_samples=50
        )
        np.testing.assert_allclose(probs, probs.T)
        np.testing.assert_allclose(np.diag(probs), 0.0)

    def test_values_in_unit_interval(self, rng):
        probs = edge_probability(
            rng.normal(size=(12, 5)), method="matrix", n_samples=50
        )
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_column_position_invariance(self, rng):
        """Content-keyed streams: swapping unrelated columns does not
        change a pair's probability."""
        m = rng.normal(size=(10, 4))
        swapped = m[:, [0, 1, 3, 2]]
        a = edge_probability(m, method="matrix", n_samples=64, seed=9)
        b = edge_probability(swapped, method="matrix", n_samples=64, seed=9)
        assert a[0, 1] == pytest.approx(b[0, 1], abs=1e-12)


class TestInferGrn:
    def test_edges_respect_gamma(self, rng):
        m = rng.normal(size=(15, 6))
        est = EdgeProbabilityEstimator(n_samples=64, seed=2)
        graph = infer_grn(m, list(range(6)), gamma=0.5, estimator=est)
        probs = est.probability_matrix(m)
        for (u, v), p in graph.edges():
            assert p > 0.5
            assert p == pytest.approx(probs[u, v])
        # and nothing above gamma is missing
        for s in range(6):
            for t in range(s + 1, 6):
                if probs[s, t] > 0.5:
                    assert graph.has_edge(s, t)

    def test_higher_gamma_is_subset(self, rng):
        m = rng.normal(size=(15, 8))
        est = EdgeProbabilityEstimator(n_samples=64, seed=2)
        low = infer_grn(m, list(range(8)), gamma=0.3, estimator=est)
        high = infer_grn(m, list(range(8)), gamma=0.8, estimator=est)
        low_edges = {key for key, _ in low.edges()}
        high_edges = {key for key, _ in high.edges()}
        assert high_edges <= low_edges

    def test_gamma_domain(self, rng):
        with pytest.raises(ValidationError):
            infer_grn(rng.normal(size=(10, 3)), [0, 1, 2], gamma=1.0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            infer_grn(rng.normal(size=(10, 3)), [0, 1], gamma=0.5)


class TestCompetitorInference:
    def test_correlation_graph_thresholds_abs_pearson(self, rng):
        x = rng.normal(size=30)
        m = np.column_stack([x, x + 0.05 * rng.normal(size=30), rng.normal(size=30)])
        graph = infer_grn_correlation(m, [10, 20, 30], threshold=0.8)
        assert graph.has_edge(10, 20)
        assert not graph.has_edge(10, 30)

    def test_partial_correlation_graph(self, rng):
        n = 2000
        x = rng.normal(size=n)
        y = x + 0.3 * rng.normal(size=n)
        z = y + 0.3 * rng.normal(size=n)
        graph = infer_grn_partial_correlation(
            np.column_stack([x, y, z]), [0, 1, 2], threshold=0.5, shrinkage=0.0
        )
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)  # indirect link suppressed

    def test_threshold_domain(self, rng):
        with pytest.raises(ValidationError):
            infer_grn_correlation(rng.normal(size=(10, 3)), [0, 1, 2], threshold=1.5)
