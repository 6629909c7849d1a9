"""Figure 11: IM-GRN query performance vs genes-per-matrix range.

The paper's shape: wider matrices mean more gene vectors in the index and
more potential matches, so CPU and I/O grow with [n_min, n_max] while the
candidate set stays small.
"""

from __future__ import annotations

import pytest

from conftest import figure_config, scaled, write_table
from repro.eval.harness import ExperimentRunner, ScaleSpec
from repro.eval.harness.report import per_query_means, text_table

RANGES = ((10, 20), (20, 50), (50, 100), (100, 150))
GAMMA = ALPHA = 0.5
SCALES = {genes_range: ScaleSpec(scaled(100), genes_range) for genes_range in RANGES}
CONFIG = figure_config(
    "fig11_matrix_size",
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


@pytest.mark.parametrize("genes_range", RANGES)
def test_query_speed_vs_matrix_width(benchmark, runner, genes_range):
    engine = runner.engine("imgrn", "uni", SCALES[genes_range])
    queries = runner.workload("uni", SCALES[genes_range])
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure11_series(benchmark, runner):
    results = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    n_range = {s.label: "[{},{}]".format(*s.genes_range) for s in CONFIG.scales}
    rows = per_query_means(
        [{**row, "n_range": n_range[row["scale"]]} for row in results.rows],
        "n_range",
    )
    write_table("fig11_matrix_size", text_table("fig11_matrix_size", rows))
    for weights in CONFIG.weights:
        points = [r for r in rows if r["dataset"] == weights]
        # Cost grows with matrix width: the widest range beats the
        # narrowest in both CPU and I/O.
        assert points[-1]["io_accesses"] > points[0]["io_accesses"]
        assert points[-1]["cpu_seconds"] > points[0]["cpu_seconds"]
        # Candidates stay small throughout.
        assert all(r["candidates"] <= 30 for r in points)
