"""Figure 10: IM-GRN query performance vs the number of query genes n_Q.

The paper's shape: "U" curves -- more query genes first prune more (fewer
candidates, less work), then cost grows again as more query genes must be
matched through the index.
"""

from __future__ import annotations

import pytest

from conftest import DEFAULT_SCALE, figure_config, write_table
from repro.data.queries import generate_query_workload
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

QUERY_SIZES = (2, 3, 5, 8, 10)
GAMMA = ALPHA = 0.5


@pytest.fixture(scope="module")
def query_sets(default_runner, bench_seed):
    sets = {}
    for label in ("uni", "gau"):
        database = default_runner.database(label, DEFAULT_SCALE)
        for n_q in QUERY_SIZES:
            sets[(label, n_q)] = generate_query_workload(
                database, n_q=n_q, count=5, rng=(bench_seed, n_q)
            )
    return sets


@pytest.mark.parametrize("n_q", QUERY_SIZES)
def test_query_speed_vs_nq(benchmark, default_runner, query_sets, n_q):
    engine = default_runner.engine("imgrn", "uni", DEFAULT_SCALE)
    queries = query_sets[("uni", n_q)]
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_figure10_series(benchmark, default_runner, query_sets):
    def sweep():
        return [
            row
            for (label, n_q), queries in query_sets.items()
            for row in primed_rows(
                figure_config(
                    "fig10_query_size",
                    weights=(label,),
                    gammas=(GAMMA,),
                    alphas=(ALPHA,),
                    n_q=n_q,
                ),
                default_runner.engine("imgrn", label, DEFAULT_SCALE),
                queries,
                n_Q=n_q,
            )
        ]

    rows = per_query_means(benchmark.pedantic(sweep, rounds=1, iterations=1), "n_Q")
    write_table("fig10_query_size", text_table("fig10_query_size", rows))
    # Sanity: every sweep point completed and produced small candidate
    # sets; the U-shape itself is a soft trend at this scale, so assert
    # only that candidates stay bounded and costs stay sane.
    for row in rows:
        assert row["candidates"] <= 30
        assert row["cpu_seconds"] < 5.0
