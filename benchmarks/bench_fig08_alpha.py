"""Figure 8: IM-GRN query performance vs the probabilistic threshold alpha.

The paper's shape: larger alpha filters more low-probability subgraph
candidates, so CPU drops slightly; the I/O of the index traversal is not
very sensitive to alpha (the traversal itself is gamma-driven); candidates
drop slightly.
"""

from __future__ import annotations

import pytest

from conftest import DEFAULT_SCALE, default_sweep, figure_config, write_table
from repro.eval.harness.report import per_query_means, text_table

ALPHAS = (0.2, 0.3, 0.5, 0.8, 0.9)
GAMMA = 0.5


@pytest.mark.parametrize("alpha", ALPHAS)
def test_query_speed_vs_alpha(benchmark, default_runner, alpha):
    engine = default_runner.engine("imgrn", "uni", DEFAULT_SCALE)
    queries = default_runner.workload("uni", DEFAULT_SCALE)
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=alpha) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure8_series(benchmark, default_runner):
    # The alpha sweep as a declarative experiment on the harness runner,
    # over the session's engines (nothing is rebuilt).
    runner = default_sweep(
        default_runner,
        figure_config("fig8_alpha", alphas=ALPHAS, gammas=(GAMMA,)),
    )
    results = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    rows = per_query_means(results.rows, "alpha")
    write_table("fig08_alpha", text_table("fig8_alpha", rows))
    for label in ("uni", "gau"):
        points = [r for r in rows if r["dataset"] == label]
        assert len(points) == len(ALPHAS)
        # I/O is insensitive to alpha: the traversal is gamma-driven.
        io = [r["io_accesses"] for r in points]
        assert max(io) <= min(io) * 1.2 + 10
        # Candidates are non-increasing in alpha (Lemma 5 only prunes more).
        candidates = [r["candidates"] for r in points]
        assert all(a >= b - 1e-9 for a, b in zip(candidates, candidates[1:]))
        # Answers shrink (or stay flat) as alpha grows.
        answers = [r["answers"] for r in points]
        assert answers[0] >= answers[-1]
