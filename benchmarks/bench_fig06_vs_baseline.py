"""Figure 6: IM-GRN vs Baseline on Real / Uni / Gau data sets.

The paper's shape: the indexed IM-GRN engine beats the materialize-
everything Baseline by orders of magnitude in CPU time and I/O, and leaves
only a handful of candidates after pruning versus the Baseline's
scan-everything candidate set.
"""

from __future__ import annotations

import pytest

from conftest import figure_config, scaled, write_table
from repro.eval.harness import ExperimentRunner, ScaleSpec
from repro.eval.harness.report import per_query_means, text_table

NUM_QUERIES = 5
GAMMA = ALPHA = 0.5
SCALE = ScaleSpec(scaled(60), (50, 100))
CONFIG = figure_config(
    "fig6_vs_baseline",
    engines=("imgrn", "baseline", "linear-scan"),
    weights=("real", "uni", "gau"),
    scales=(SCALE,),
    gammas=(GAMMA,),
    alphas=(ALPHA,),
    num_queries=NUM_QUERIES,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(CONFIG)


def _query_all(runner, engine_name):
    engine = runner.engine(engine_name, "uni", SCALE)
    queries = runner.workload("uni", SCALE)
    return lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries]


def test_imgrn_query_speed(benchmark, runner):
    assert len(benchmark(_query_all(runner, "imgrn"))) == NUM_QUERIES


def test_baseline_query_speed(benchmark, runner):
    assert len(benchmark(_query_all(runner, "baseline"))) == NUM_QUERIES


def test_figure6_series(benchmark, runner):
    results = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    rows = per_query_means(results.rows, "engine")
    write_table("fig06_vs_baseline", text_table("fig6_vs_baseline", rows))
    for dataset in CONFIG.weights:
        by_engine = {r["engine"]: r for r in rows if r["dataset"] == dataset}
        imgrn, baseline = by_engine["imgrn"], by_engine["baseline"]
        # (a) IM-GRN I/O is far below the Baseline's full-store scan.
        assert imgrn["io_accesses"] < baseline["io_accesses"], dataset
        # (c) candidates after pruning are a small set, far below the
        # Baseline's per-matrix candidate count.
        assert imgrn["candidates"] < baseline["candidates"]
        assert imgrn["candidates"] <= 25
        # Answer sets agree across engines (same semantics).
        assert imgrn["answers"] == baseline["answers"]
