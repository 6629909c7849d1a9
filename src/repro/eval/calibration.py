"""Calibration analysis of the probabilistic inference measure.

Definition 2's selling point over raw correlation scores is that its
threshold has an *operational meaning*: under the independence null the
measure is uniform on [0, 1], so at inference threshold ``gamma`` the
expected false-edge rate is exactly ``1 - gamma`` -- for any sample
distribution. This module quantifies that claim:

* :func:`null_measure_samples` -- measure values over independent pairs,
* :func:`uniformity_report` -- KS distance from Uniform(0,1) + moments,
* :func:`false_edge_rate` -- empirical FPR at each ``gamma`` vs ``1-gamma``,
* :func:`calibration_table` -- the full study across sample distributions
  (Gaussian / heavy-tailed / skewed), comparing the permutation measure
  against the parametric t-test reference.

Used by ``tests/test_calibration.py`` and the `imgrn`-adjacent analysis
workflows; the study is what justifies telling a biologist "pick
gamma = 0.95 and you know your false call rate".
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.inference import edge_probability
from ..core.measures import parametric_edge_probability
from ..core.randomization import default_rng
from ..errors import ValidationError
from .experiments import ExperimentResult

__all__ = [
    "NULL_DISTRIBUTIONS",
    "null_measure_samples",
    "uniformity_report",
    "false_edge_rate",
    "calibration_table",
]

#: Named sample distributions for the null study.
NULL_DISTRIBUTIONS: dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "gaussian": lambda gen, n: gen.normal(size=n),
    "heavy_tailed": lambda gen, n: gen.standard_t(1, size=n),
    "skewed": lambda gen, n: gen.gamma(1.0, 1.0, size=n),
}


def null_measure_samples(
    distribution: str = "gaussian",
    n_pairs: int = 200,
    length: int = 20,
    mc_samples: int = 200,
    semantics: str = "two_sided",
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Measure values for ``n_pairs`` independent vector pairs.

    Under independence these should be ~Uniform(0, 1) (up to the 1/S
    Monte-Carlo granularity) regardless of ``distribution``.
    """
    if distribution not in NULL_DISTRIBUTIONS:
        raise ValidationError(
            f"unknown distribution {distribution!r}; "
            f"known: {sorted(NULL_DISTRIBUTIONS)}"
        )
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    gen = default_rng(rng)
    draw = NULL_DISTRIBUTIONS[distribution]
    values = np.empty(n_pairs, dtype=np.float64)
    for index in range(n_pairs):
        x = draw(gen, length)
        y = draw(gen, length)
        values[index] = edge_probability(
            x, y, n_samples=mc_samples, rng=gen, semantics=semantics
        )
    return values


def uniformity_report(values: np.ndarray) -> dict[str, float]:
    """KS distance from Uniform(0,1) plus first two moments.

    A calibrated measure gives mean ~0.5, variance ~1/12 and a small KS
    statistic; `scipy.stats.kstest` supplies the distance and p-value.
    """
    from scipy import stats

    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("need a 1-D array of at least 2 measure values")
    ks = stats.kstest(values, "uniform")
    return {
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "ks_statistic": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
    }


def false_edge_rate(
    values: np.ndarray, gammas: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95)
) -> list[dict[str, float]]:
    """Empirical false-edge rate at each ``gamma`` vs the nominal ``1-gamma``.

    ``values`` are null measure samples; an edge is (falsely) called when
    the measure exceeds ``gamma``.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = []
    for gamma in gammas:
        if not 0.0 <= gamma < 1.0:
            raise ValidationError(f"gamma must be in [0,1), got {gamma}")
        empirical = float(np.mean(values > gamma))
        rows.append(
            {
                "gamma": gamma,
                "nominal_fpr": 1.0 - gamma,
                "empirical_fpr": empirical,
            }
        )
    return rows


def calibration_table(
    n_pairs: int = 150,
    length: int = 20,
    mc_samples: int = 200,
    seed: int = 7,
) -> ExperimentResult:
    """Full calibration study: permutation vs parametric, per distribution.

    For each null sample distribution, reports the permutation measure's
    uniformity (mean / KS) and the parametric t-test measure's -- the
    latter drifts off-uniform exactly on the non-Gaussian rows.
    """
    result = ExperimentResult(name="calibration", x_label="distribution")
    for position, (name, draw) in enumerate(NULL_DISTRIBUTIONS.items()):
        gen = np.random.default_rng((seed, name == "heavy_tailed", name == "skewed"))
        permutation = null_measure_samples(
            name, n_pairs=n_pairs, length=length, mc_samples=mc_samples, rng=gen
        )
        parametric = np.empty(n_pairs, dtype=np.float64)
        # Keyed on the position: str hashes are salted per process
        # (PYTHONHASHSEED), so a hash-keyed stream is not reproducible.
        gen2 = np.random.default_rng((seed + 1, position))
        for index in range(n_pairs):
            x = draw(gen2, length)
            y = draw(gen2, length)
            parametric[index] = parametric_edge_probability(x, y)
        perm_report = uniformity_report(permutation)
        par_report = uniformity_report(parametric)
        result.rows.append(
            {
                "distribution": name,
                "perm_mean": perm_report["mean"],
                "perm_ks": perm_report["ks_statistic"],
                "param_mean": par_report["mean"],
                "param_ks": par_report["ks_statistic"],
            }
        )
    return result
