"""Figure 9: IM-GRN query performance vs the number of pivots d.

The paper's shape ("dimensionality curse"): CPU and I/O grow with d (the
index is 2d+1-dimensional, so node MBRs overlap more and filter less),
while the candidate count stays essentially constant (the same query over
differently-reduced indexes).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import figure_config, scaled, write_table
from repro.config import DEFAULTS, EngineConfig
from repro.core.query import IMGRNEngine
from repro.eval.harness import ExperimentRunner, ScaleSpec
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

PIVOT_COUNTS = (1, 2, 3, 4)
GAMMA = ALPHA = 0.5
CONFIG = figure_config(
    "fig9_pivots",
    scales=(ScaleSpec(scaled(120), DEFAULTS.genes_per_matrix),),
    gammas=(GAMMA,),
    alphas=(ALPHA,),
)


@pytest.fixture(scope="module")
def workloads():
    """(weights, d) -> an engine with ``d`` pivots, and the queries."""
    runner = ExperimentRunner(CONFIG)
    scale = CONFIG.scales[0]
    built = {}
    for weights in CONFIG.weights:
        queries = runner.workload(weights, scale)
        for d in PIVOT_COUNTS:
            engine = IMGRNEngine(
                runner.database(weights, scale),
                EngineConfig(num_pivots=d, seed=CONFIG.seed),
            )
            engine.build()
            built[(weights, d)] = (engine, queries)
    return built


@pytest.mark.parametrize("d", PIVOT_COUNTS)
def test_query_speed_vs_pivots(benchmark, workloads, d):
    engine, queries = workloads[("uni", d)]
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure9_series(benchmark, workloads):
    def sweep():
        return [
            row
            for (weights, d), (engine, queries) in workloads.items()
            for row in primed_rows(
                replace(CONFIG, weights=(weights,)), engine, queries, d=d
            )
        ]

    rows = per_query_means(benchmark.pedantic(sweep, rounds=1, iterations=1), "d")
    write_table("fig09_pivots", text_table("fig9_pivots", rows))
    for weights in CONFIG.weights:
        points = [r for r in rows if r["dataset"] == weights]
        # Candidate counts are stable across d (same queries, same final
        # filter); allow one candidate of slack for bound differences.
        candidates = [r["candidates"] for r in points]
        assert max(candidates) - min(candidates) <= 1.5
        # The d=4 index must not be cheaper in I/O than the d=1 index
        # (dimensionality curse direction).
        io = {r["d"]: r["io_accesses"] for r in points}
        assert io[4] >= io[1] * 0.8
