"""Figure 7: IM-GRN query performance vs the inference threshold gamma.

The paper's shape: as gamma grows from 0.2 to 0.9, the number of potential
candidate genes shrinks, so CPU time, I/O and candidates all fall (or stay
flat at an already-small floor).
"""

from __future__ import annotations

import pytest

from conftest import DEFAULT_SCALE, default_sweep, figure_config, write_table
from repro.eval.harness.report import per_query_means, text_table

GAMMAS = (0.2, 0.3, 0.5, 0.8, 0.9)
ALPHA = 0.5


@pytest.mark.parametrize("gamma", GAMMAS)
def test_query_speed_vs_gamma(benchmark, default_runner, gamma):
    engine = default_runner.engine("imgrn", "uni", DEFAULT_SCALE)
    queries = default_runner.workload("uni", DEFAULT_SCALE)
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=gamma, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure7_series(benchmark, default_runner):
    # The gamma sweep as a declarative experiment on the harness runner,
    # over the session's engines (nothing is rebuilt).
    runner = default_sweep(
        default_runner,
        figure_config("fig7_gamma", gammas=GAMMAS, alphas=(ALPHA,)),
    )
    results = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    rows = per_query_means(results.rows, "gamma")
    write_table("fig07_gamma", text_table("fig7_gamma", rows))
    for label in ("uni", "gau"):
        points = [r for r in rows if r["dataset"] == label]
        assert len(points) == len(GAMMAS)
        # Candidates / IO are monotonically non-increasing in gamma
        # (allowing the small-integer floor to be flat).
        candidates = [r["candidates"] for r in points]
        assert candidates[0] >= candidates[-1]
        io = [r["io_accesses"] for r in points]
        assert io[0] >= io[-1] * 0.8
