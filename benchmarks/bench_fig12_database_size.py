"""Figure 12: IM-GRN scalability vs the number of matrices N.

The paper's shape: CPU and I/O grow smoothly (sub-linearly thanks to the
index) with N, while the candidate count stays flat -- the pruning power
holds up as the database grows.
"""

from __future__ import annotations

import pytest

from conftest import figure_config, scaled, write_table
from repro.config import DEFAULTS
from repro.eval.harness import ExperimentRunner, ScaleSpec
from repro.eval.harness.report import per_query_means, text_table

SIZES = (50, 100, 200, 400)
GAMMA = ALPHA = 0.5
SCALES = {n: ScaleSpec(scaled(n), DEFAULTS.genes_per_matrix) for n in SIZES}
CONFIG = figure_config(
    "fig12_database_size",
    scales=tuple(SCALES.values()),
    gammas=(GAMMA,),
    alphas=(ALPHA,),
)


@pytest.fixture(scope="module")
def runner():
    built = ExperimentRunner(CONFIG)
    for weights in CONFIG.weights:
        for scale in CONFIG.scales:
            built.engine("imgrn", weights, scale)
    return built


@pytest.mark.parametrize("n", SIZES)
def test_query_speed_vs_database_size(benchmark, runner, n):
    engine = runner.engine("imgrn", "uni", SCALES[n])
    queries = runner.workload("uni", SCALES[n])
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure12_series(benchmark, runner):
    results = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    rows = per_query_means(
        [{**row, "N": row["n_matrices"]} for row in results.rows], "N"
    )
    write_table("fig12_database_size", text_table("fig12_database_size", rows))
    for weights in CONFIG.weights:
        points = [r for r in rows if r["dataset"] == weights]
        # Costs grow with N...
        assert points[-1]["io_accesses"] > points[0]["io_accesses"]
        # ...but sub-quadratically: 8x database -> well under 64x I/O.
        assert points[-1]["io_accesses"] < points[0]["io_accesses"] * 64
        # Candidates stay flat/small as N grows (pruning power holds).
        assert all(r["candidates"] <= 30 for r in points)
