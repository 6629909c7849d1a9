"""Ablation: cost-model pivot selection (Fig. 3) vs random pivots.

The cost model minimizes ``T_i = sum_s min_{r,w}(dist_r + dist_w)``, which
maximizes the expected pivot pruning region. This ablation verifies the
cost model's objective is actually achieved (lower mean ``T_i``) and
reports its effect on query-time metrics versus random pivots.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ABLATION, ablation_workload, write_table
from repro.config import EngineConfig
from repro.core.pivots import pivot_cost
from repro.core.query import IMGRNEngine
from repro.core.standardize import standardize_matrix
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

GAMMA = ALPHA = 0.5
STRATEGIES = ("cost_model", "random")


@pytest.fixture(scope="module")
def setup(bench_seed):
    database, queries = ablation_workload()
    engines = {}
    for strategy in STRATEGIES:
        engine = IMGRNEngine(database, EngineConfig(seed=bench_seed))
        engine.build(pivot_strategy=strategy)
        engines[strategy] = engine
    return database, engines, queries


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_build_speed_by_pivot_strategy(benchmark, setup, strategy, bench_seed):
    database, _engines, _queries = setup

    def build():
        engine = IMGRNEngine(database, EngineConfig(seed=bench_seed))
        engine.build(pivot_strategy=strategy)
        return engine

    benchmark.pedantic(build, rounds=1, iterations=1)


def _mean_cost(engine) -> float:
    """The mean cost-model objective ``T_i`` of the engine's pivots."""
    return float(
        np.mean(
            [
                pivot_cost(
                    standardize_matrix(entry.matrix.values),
                    np.asarray(entry.embedded.pivot_indices),
                )
                for entry in engine._entries.values()
            ]
        )
    )


def test_ablation_pivot_series(benchmark, setup):
    _database, engines, queries = setup

    def sweep():
        return [
            row
            for strategy, engine in engines.items()
            for row in primed_rows(
                ABLATION,
                engine,
                queries,
                strategy=strategy,
                mean_T_i=_mean_cost(engine),
                build_seconds=engine.build_seconds,
            )
        ]

    rows = per_query_means(
        benchmark.pedantic(sweep, rounds=1, iterations=1),
        "strategy",
        "mean_T_i",
        "build_seconds",
    )
    write_table("ablation_pivots", text_table("ablation_pivots", rows))
    answers = {
        strategy: [
            engine.query(q, gamma=GAMMA, alpha=ALPHA).answer_sources()
            for q in queries
        ]
        for strategy, engine in engines.items()
    }
    by_strategy = {row["strategy"]: row for row in rows}
    # The Fig.-3 swap search achieves a lower cost-model objective.
    assert by_strategy["cost_model"]["mean_T_i"] < by_strategy["random"]["mean_T_i"]
    # And never changes the answers.
    assert answers["cost_model"] == answers["random"]
