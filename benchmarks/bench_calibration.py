"""Calibration study bench: why the probabilistic threshold is trustworthy.

Quantifies Definition 2's operational claim: under the independence null
the measure is Uniform(0,1) for any sample distribution, so the false-edge
rate at threshold gamma is 1 - gamma. The parametric t-test reference
drifts off-uniform exactly on the non-Gaussian rows.
"""

from __future__ import annotations

from conftest import write_table
from repro.eval.calibration import (
    calibration_table,
    false_edge_rate,
    null_measure_samples,
)
from repro.eval.harness.report import text_table


def test_calibration_study(benchmark, bench_seed):
    table = benchmark.pedantic(
        calibration_table,
        kwargs=dict(n_pairs=150, length=20, mc_samples=200, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    rows = {row["distribution"]: row for row in table}
    lines = [
        text_table("calibration", table),
        "",
        "false-edge rate vs nominal (gaussian null):",
    ]
    values = null_measure_samples(
        "gaussian", n_pairs=300, length=20, mc_samples=200, rng=bench_seed
    )
    for rate in false_edge_rate(values):
        lines.append(
            f"  gamma={rate['gamma']:<5} nominal={rate['nominal_fpr']:.3f} "
            f"empirical={rate['empirical_fpr']:.3f}"
        )
    write_table("calibration", "\n".join(lines))

    for row in rows.values():
        assert 0.38 < row["perm_mean"] < 0.62  # permutation stays uniform
    assert rows["heavy_tailed"]["param_ks"] > rows["heavy_tailed"]["perm_ks"]
