"""Ablation: Jensen closed-form vs Monte-Carlo expectations in the embedding.

DESIGN.md decision 1: the embedding coordinate ``y = E[dist(X^R, piv)]``
can be the sound Jensen bound (default, zero sampling) or an MC estimate
(what the paper pre-computes). MC values are slightly smaller, so pruning
regions grow slightly -- at the cost of sampling during build and of
strict soundness. Both modes must return identical answers here.
"""

from __future__ import annotations

import pytest

from conftest import ABLATION, ablation_workload, write_table
from repro.config import EngineConfig
from repro.core.query import IMGRNEngine
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

GAMMA = ALPHA = 0.5


@pytest.fixture(scope="module")
def setup(bench_seed):
    database, queries = ablation_workload()
    engines = {}
    for mode in ("jensen", "mc"):
        engine = IMGRNEngine(
            database,
            EngineConfig(
                expectation_mode=mode, expectation_samples=64, seed=bench_seed
            ),
        )
        engine.build()
        engines[mode] = engine
    return engines, queries


@pytest.mark.parametrize("mode", ["jensen", "mc"])
def test_query_speed_by_expectation_mode(benchmark, setup, mode):
    engines, queries = setup
    engine = engines[mode]
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_ablation_expectation_series(benchmark, setup):
    engines, queries = setup

    def sweep():
        return [
            row
            for mode, engine in engines.items()
            for row in primed_rows(
                ABLATION,
                engine,
                queries,
                mode=mode,
                build_seconds=engine.build_seconds,
            )
        ]

    rows = per_query_means(
        benchmark.pedantic(sweep, rounds=1, iterations=1), "mode", "build_seconds"
    )
    write_table("ablation_expectation", text_table("ablation_expectation", rows))
    answers = {
        mode: [
            engine.query(q, gamma=GAMMA, alpha=ALPHA).answer_sources()
            for q in queries
        ]
        for mode, engine in engines.items()
    }
    # Answers agree between modes (MC expectations tighten bounds but the
    # refinement recomputes exact probabilities either way).
    assert answers["jensen"] == answers["mc"]
