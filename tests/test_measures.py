"""Unit tests for the generalized randomized measures (future-work module)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import edge_probability
from repro.core.measures import (
    MEASURES,
    randomized_measure_matrix,
    randomized_measure_probability,
    score_absolute_pearson,
    score_fisher_z,
    score_mutual_information,
    score_t_statistic,
)
from repro.errors import ValidationError


class TestScores:
    def test_pearson_score_range(self, rng):
        x, y = rng.normal(size=(2, 20))
        assert 0.0 <= score_absolute_pearson(x, y) <= 1.0

    def test_fisher_and_t_monotone_in_abs_r(self, rng):
        """Fisher z and |t| are strictly monotone transforms of |r|."""
        x = rng.normal(size=40)
        pairs = [x + noise * rng.normal(size=40) for noise in (0.1, 0.5, 2.0)]
        rs = [score_absolute_pearson(x, y) for y in pairs]
        zs = [score_fisher_z(x, y) for y in pairs]
        ts = [score_t_statistic(x, y) for y in pairs]
        assert sorted(rs, reverse=True) == rs
        assert sorted(zs, reverse=True) == zs
        assert sorted(ts, reverse=True) == ts

    def test_mi_non_negative_and_symmetric_under_shuffle_mean(self, rng):
        x, y = rng.normal(size=(2, 60))
        assert score_mutual_information(x, y) >= 0.0

    def test_mi_detects_linear_dependence(self, rng):
        x = rng.normal(size=200)
        y = x + 0.1 * rng.normal(size=200)
        z = rng.normal(size=200)
        assert score_mutual_information(x, y) > score_mutual_information(x, z) + 0.2

    def test_mi_detects_nonlinear_dependence(self, rng):
        """The headline advantage over correlation: y = x^2 dependence."""
        x = rng.normal(size=400)
        y = x * x + 0.05 * rng.normal(size=400)
        assert abs(score_absolute_pearson(x, y)) < 0.35  # correlation blind-ish
        z = rng.normal(size=400)
        assert score_mutual_information(x, y) > score_mutual_information(x, z) + 0.2

    def test_mi_invariant_to_monotone_transform(self, rng):
        x = rng.normal(size=150)
        y = x + 0.3 * rng.normal(size=150)
        direct = score_mutual_information(x, y)
        transformed = score_mutual_information(np.exp(x), y)
        assert direct == pytest.approx(transformed, abs=1e-9)

    def test_mi_domain(self, rng):
        with pytest.raises(ValidationError):
            score_mutual_information(np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            score_mutual_information(np.ones(10), np.ones(10), bins=1)

    def test_t_needs_three_samples(self):
        with pytest.raises(ValidationError):
            score_t_statistic(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


class TestRandomizedProbability:
    def test_in_unit_interval(self, rng):
        x, y = rng.normal(size=(2, 15))
        for name in MEASURES:
            p = randomized_measure_probability(x, y, name, n_samples=60, rng=rng)
            assert 0.0 <= p <= 1.0, name

    def test_high_for_dependent_pair_all_measures(self, rng):
        x = rng.normal(size=40)
        y = x + 0.1 * rng.normal(size=40)
        for name in MEASURES:
            p = randomized_measure_probability(x, y, name, n_samples=150, rng=rng)
            assert p > 0.9, name

    def test_mi_measure_finds_nonlinear_edge(self, rng):
        """The generalized measure's reason to exist: a quadratic
        interaction is an edge under randomized MI but not under the
        Pearson measure."""
        x = rng.normal(size=120)
        y = x * x + 0.05 * rng.normal(size=120)
        p_mi = randomized_measure_probability(
            x, y, "mutual_information", n_samples=150, rng=np.random.default_rng(1)
        )
        assert p_mi > 0.95

    def test_pearson_measure_matches_eq1_estimator(self, rng):
        """The generic wrapper with the Pearson score IS Eq. 1."""
        x, y = rng.normal(size=(2, 18))
        generic = randomized_measure_probability(
            x, y, "pearson", n_samples=2000, rng=np.random.default_rng(3)
        )
        direct = edge_probability(
            x, y, method="correlation", n_samples=2000, rng=np.random.default_rng(4)
        )
        assert generic == pytest.approx(direct, abs=0.05)

    def test_custom_callable_score(self, rng):
        x, y = rng.normal(size=(2, 12))
        p = randomized_measure_probability(
            x, y, score=lambda a, b: -float(np.linalg.norm(a - b)),
            n_samples=60, rng=rng,
        )
        assert 0.0 <= p <= 1.0

    def test_unknown_measure_rejected(self, rng):
        x, y = rng.normal(size=(2, 12))
        with pytest.raises(ValidationError):
            randomized_measure_probability(x, y, "chi_squared")

    def test_content_keyed_default_stream(self, rng):
        x, y = rng.normal(size=(2, 12))
        a = randomized_measure_probability(x, y, "pearson", n_samples=50)
        b = randomized_measure_probability(x, y, "pearson", n_samples=50)
        assert a == b


class TestRandomizedMatrix:
    def test_symmetric_zero_diagonal(self, rng):
        m = rng.normal(size=(15, 4))
        probs = randomized_measure_matrix(m, "mutual_information", n_samples=30)
        np.testing.assert_allclose(probs, probs.T)
        np.testing.assert_allclose(np.diag(probs), 0.0)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_pearson_matrix_close_to_vectorized(self, rng):
        m = rng.normal(size=(16, 4))
        generic = randomized_measure_matrix(m, "pearson", n_samples=400, seed=2)
        # The vectorized one-sided estimator differs in semantics (signed
        # dot); compare against the two-sided form, which matches |r|.
        vectorized = edge_probability(
            m, method="matrix", n_samples=400, seed=2, semantics="two_sided"
        )
        np.testing.assert_allclose(generic, vectorized, atol=0.12)

    def test_bad_input(self):
        with pytest.raises(ValidationError):
            randomized_measure_matrix(np.zeros(5), "pearson")


class TestParametricProbability:
    def test_range_and_monotonicity(self, rng):
        from repro.core.measures import parametric_edge_probability

        x = rng.normal(size=30)
        strong = parametric_edge_probability(x, x + 0.1 * rng.normal(size=30))
        weak = parametric_edge_probability(x, rng.normal(size=30))
        assert 0.0 <= weak <= strong <= 1.0
        assert strong > 0.99

    def test_agrees_with_permutation_on_gaussian_data(self, rng):
        """Calibration: on truly Gaussian data the permutation test and
        the parametric t-test give similar confidences."""
        from repro.core.measures import (
            parametric_edge_probability,
            randomized_measure_probability,
        )

        diffs = []
        for _ in range(12):
            x = rng.normal(size=40)
            y = 0.5 * x + rng.normal(size=40)
            parametric = parametric_edge_probability(x, y)
            permutation = randomized_measure_probability(
                x, y, "pearson", n_samples=300, rng=rng
            )
            diffs.append(abs(parametric - permutation))
        assert float(np.mean(diffs)) < 0.1

    def test_permutation_stays_calibrated_on_heavy_tails(self, rng):
        """The robustness argument of the paper: under the independence
        null the permutation confidence is exactly calibrated (mean 1/2)
        for *any* sample distribution -- including Cauchy data, where the
        parametric t-test's normality assumption is broken and the two
        measures visibly disagree."""
        from repro.core.measures import (
            parametric_edge_probability,
            randomized_measure_probability,
        )

        parametric = []
        permutation = []
        for _ in range(60):
            x = rng.standard_t(1, size=16)
            y = rng.standard_t(1, size=16)
            parametric.append(parametric_edge_probability(x, y))
            permutation.append(
                randomized_measure_probability(
                    x, y, "pearson", n_samples=200, rng=rng
                )
            )
        assert 0.4 < float(np.mean(permutation)) < 0.6  # exact calibration
        disagreement = float(np.mean(np.abs(np.array(parametric) - permutation)))
        assert disagreement > 0.03  # the parametric test drifts

    def test_sample_count_domain(self):
        from repro.core.measures import parametric_edge_probability

        with pytest.raises(ValidationError):
            parametric_edge_probability(
                np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])
            )
