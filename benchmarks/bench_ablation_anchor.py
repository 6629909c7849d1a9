"""Ablation: anchor-vertex choice in the Fig.-4 traversal.

The paper anchors the traversal at the highest-degree query gene ("the
vertex with the highest degree can achieve higher pruning power"). This
ablation compares that choice against a random and a first-gene anchor.
All strategies must return identical answers (the anchor only shapes the
traversal, not the refinement).
"""

from __future__ import annotations

import pytest

from conftest import ABLATION, ablation_workload, write_table
from repro.config import EngineConfig
from repro.core.query import IMGRNEngine
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

GAMMA = ALPHA = 0.5
STRATEGIES = ("highest_degree", "random", "first")


@pytest.fixture(scope="module")
def setup(bench_seed):
    database, queries = ablation_workload()
    engines = {}
    for strategy in STRATEGIES:
        engine = IMGRNEngine(
            database, EngineConfig(anchor_strategy=strategy, seed=bench_seed)
        )
        engine.build()
        engines[strategy] = engine
    return engines, queries


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_query_speed_by_anchor(benchmark, setup, strategy):
    engines, queries = setup
    engine = engines[strategy]
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_ablation_anchor_series(benchmark, setup):
    engines, queries = setup

    def sweep():
        return [
            row
            for strategy, engine in engines.items()
            for row in primed_rows(ABLATION, engine, queries, strategy=strategy)
        ]

    rows = per_query_means(
        benchmark.pedantic(sweep, rounds=1, iterations=1), "strategy"
    )
    write_table("ablation_anchor", text_table("ablation_anchor", rows))
    answers = {
        strategy: [
            engine.query(q, gamma=GAMMA, alpha=ALPHA).answer_sources()
            for q in queries
        ]
        for strategy, engine in engines.items()
    }
    for strategy in STRATEGIES[1:]:
        assert answers[strategy] == answers["highest_degree"]
