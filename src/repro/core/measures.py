"""Alternative randomized inference measures (the paper's future work).

Section 2.2 and Appendix A sketch applying "the similar idea of the
randomized vectors" to inference measures beyond Pearson correlation --
naming partial correlation, mutual information, Fisher's transform and
Student's t-test. This module implements that program: a generic
permutation-test wrapper :func:`randomized_measure_probability` turns *any*
pairwise association score into an edge existence probability

    e.p = Pr{ score(X_s, X_t) > score(X_s, X_t^R) }

over random permutations ``X_t^R``, plus the four concrete scores:

* :func:`score_absolute_pearson` -- the paper's own measure (sanity tie-in),
* :func:`score_mutual_information` -- binned mutual information [23, 3],
* :func:`score_fisher_z` -- |Fisher z-transform| of the correlation,
* :func:`score_t_statistic` -- |Student's t| of the correlation test.

Note that Fisher's z and the t statistic are strictly monotone in ``|r|``
for a fixed sample count, so their *permutation* probabilities coincide
with the Pearson one -- the interesting member is mutual information,
which detects non-linear (e.g. quadratic) regulation that correlation
misses entirely.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..errors import ValidationError
from .correlation import absolute_pearson
from .randomization import content_seed, default_rng

__all__ = [
    "ScoreFunction",
    "score_absolute_pearson",
    "score_mutual_information",
    "score_fisher_z",
    "score_t_statistic",
    "randomized_measure_probability",
    "randomized_measure_matrix",
    "parametric_edge_probability",
    "MEASURES",
]

#: A pairwise association score: higher means more strongly associated.
ScoreFunction = Callable[[np.ndarray, np.ndarray], float]


def score_absolute_pearson(x: np.ndarray, y: np.ndarray) -> float:
    """The paper's base score: ``|Pearson(x, y)|`` (Eq. 2)."""
    return absolute_pearson(x, y)


def score_mutual_information(
    x: np.ndarray, y: np.ndarray, bins: int | None = None
) -> float:
    """Binned mutual information in nats (the ARACNE-style score [23]).

    Uses equal-frequency (quantile) binning with ``bins ~ sqrt(l/2)`` by
    default, the standard choice for small-sample MI estimation. MI is
    invariant to monotone transforms and detects non-linear dependence.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"shape mismatch: {x.shape} vs {y.shape}")
    length = x.shape[0]
    if length < 4:
        raise ValidationError(f"need at least 4 samples for MI, got {length}")
    if bins is None:
        bins = max(2, int(round(math.sqrt(length / 2.0))))
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    x_bins = _quantile_bins(x, bins)
    y_bins = _quantile_bins(y, bins)
    joint = np.zeros((bins, bins), dtype=np.float64)
    np.add.at(joint, (x_bins, y_bins), 1.0)
    joint /= length
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    outer = np.outer(px, py)
    mask = joint > 0.0
    return float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))


def _quantile_bins(x: np.ndarray, bins: int) -> np.ndarray:
    """Assign each value to an equal-frequency bin index in [0, bins)."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(x.shape[0])
    return (ranks * bins) // x.shape[0]


def score_fisher_z(x: np.ndarray, y: np.ndarray) -> float:
    """``|atanh(r)|`` -- Fisher's variance-stabilizing transform."""
    r = absolute_pearson(x, y)
    r = min(r, 1.0 - 1e-12)  # atanh(1) is infinite
    return float(math.atanh(r))


def score_t_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """``|t| = |r| sqrt((l-2) / (1 - r^2))`` of the correlation t-test."""
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[0]
    if length < 3:
        raise ValidationError(f"need at least 3 samples for t, got {length}")
    r = absolute_pearson(x, y)
    r = min(r, 1.0 - 1e-12)
    return float(r * math.sqrt((length - 2) / (1.0 - r * r)))


#: Registry of named score functions for experiments and the CLI.
MEASURES: dict[str, ScoreFunction] = {
    "pearson": score_absolute_pearson,
    "mutual_information": score_mutual_information,
    "fisher_z": score_fisher_z,
    "t_statistic": score_t_statistic,
}


def randomized_measure_probability(
    x_s: np.ndarray,
    x_t: np.ndarray,
    score: ScoreFunction | str = "pearson",
    n_samples: int = 200,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Generic randomized edge probability for any association score.

    ``Pr{score(X_s, X_t) > score(X_s, X_t^R)}`` over uniformly random
    permutations of ``x_t`` -- Definition 2 generalized per the paper's
    future-work discussion.

    Parameters
    ----------
    score:
        A :data:`ScoreFunction` or a name from :data:`MEASURES`.
    rng:
        Defaults to the content-keyed stream of ``x_t`` (same convention
        as the Pearson estimators, so results are order-independent).
    """
    fn = _resolve_score(score)
    xs = np.asarray(x_s, dtype=np.float64)
    xt = np.asarray(x_t, dtype=np.float64)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng((0, content_seed(xt)))
    gen = default_rng(rng)
    observed = fn(xs, xt)
    permuted = gen.permuted(np.tile(xt, (n_samples, 1)), axis=1)
    hits = sum(1 for row in permuted if observed > fn(xs, row))
    return hits / n_samples


def randomized_measure_matrix(
    matrix: np.ndarray,
    score: ScoreFunction | str = "pearson",
    n_samples: int = 100,
    seed: int = 7,
) -> np.ndarray:
    """All-pairs randomized probabilities of the columns under ``score``.

    Generic (non-vectorized) counterpart of
    :func:`repro.core.inference.edge_probability` with
    ``method="matrix"``; use that one for the Pearson measure at scale.
    """
    fn = _resolve_score(score)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected 2-D matrix, got {arr.shape}")
    n = arr.shape[1]
    result = np.zeros((n, n), dtype=np.float64)
    for t in range(1, n):
        rng = np.random.default_rng((seed, content_seed(arr[:, t])))
        permuted = rng.permuted(np.tile(arr[:, t], (n_samples, 1)), axis=1)
        scored = np.array([[fn(arr[:, s], row) for row in permuted]
                           for s in range(t)])
        observed = np.array([fn(arr[:, s], arr[:, t]) for s in range(t)])
        result[:t, t] = np.mean(scored < observed[:, np.newaxis], axis=1)
    result += result.T
    return result


def parametric_edge_probability(x_s: np.ndarray, x_t: np.ndarray) -> float:
    """Parametric analogue of the randomized measure: ``1 - p_t``.

    Under a bivariate-normal null, ``t = r sqrt((l-2)/(1-r^2))`` follows a
    Student-t distribution with ``l - 2`` d.o.f.; the two-sided test
    p-value gives a closed-form "confidence the genes interact" without
    any permutation sampling. Useful as (a) a fast approximation when the
    data really is Gaussian and (b) a calibration reference for the
    permutation estimator -- the two agree on Gaussian data and diverge
    exactly when the data violates normality (where the paper's
    randomization approach earns its keep).
    """
    from scipy import stats

    x = np.asarray(x_s, dtype=np.float64)
    length = x.shape[0]
    if length < 4:
        raise ValidationError(
            f"need at least 4 samples for the t-test, got {length}"
        )
    t = score_t_statistic(x_s, x_t)
    p_value = 2.0 * float(stats.t.sf(t, df=length - 2))
    return min(1.0, max(0.0, 1.0 - p_value))


def _resolve_score(score: ScoreFunction | str) -> ScoreFunction:
    if callable(score):
        return score
    try:
        return MEASURES[score]
    except KeyError:
        raise ValidationError(
            f"unknown measure {score!r}; known: {sorted(MEASURES)}"
        ) from None
