"""Figure 5(b): inference wall-clock of IM-GRN vs Correlation over n_i.

The paper's shape: IM-GRN inference is 1-2 orders of magnitude slower than
plain Correlation (it computes correlation scores for S randomized vectors
per pair instead of once), and both grow with the number of genes.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import write_table
from repro.core.correlation import absolute_correlation_matrix
from repro.core.inference import EdgeProbabilityEstimator
from repro.data.organisms import ORGANISMS, generate_organism_matrix
from repro.eval.harness.report import text_table
from repro.eval.roc import inference_time

SIZES = (50, 100, 150, 200)


def _matrix(n_i, seed):
    spec = ORGANISMS["ecoli"].scaled(n_i)
    return generate_organism_matrix(spec, rng=np.random.default_rng((seed, n_i)))


@pytest.mark.parametrize("n_i", SIZES)
def test_imgrn_inference_speed(benchmark, n_i, bench_seed):
    matrix = _matrix(n_i, bench_seed)
    estimator = EdgeProbabilityEstimator(
        n_samples=200, semantics="two_sided", seed=bench_seed
    )
    benchmark(estimator.probability_matrix, matrix.values)


@pytest.mark.parametrize("n_i", SIZES)
def test_correlation_inference_speed(benchmark, n_i, bench_seed):
    matrix = _matrix(n_i, bench_seed)
    benchmark(absolute_correlation_matrix, matrix.values)


def test_figure5b_series(benchmark, bench_seed):
    rows = benchmark.pedantic(
        inference_time,
        kwargs=dict(sizes=SIZES, mc_samples=200, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    write_table("fig05b_inference_time", text_table("fig5b_inference_time", rows))
    for row in rows:
        # IM-GRN trades efficiency for accuracy: always slower.
        assert row["imgrn_seconds"] > row["correlation_seconds"]
    # Cost grows with n_i.
    times = [row["imgrn_seconds"] for row in rows]
    assert times[-1] > times[0]


def test_batched_speedup(benchmark, bench_seed):
    """Batched engine vs the per-pair sequential loop (same probabilities).

    The acceptance bar: >= 3x at n_i = 100 genes. The sequential loop is
    what query-graph inference and refinement paid per matrix before the
    batched engine.
    """
    rows = benchmark.pedantic(
        inference_time,
        kwargs=dict(sizes=(100,), mc_samples=200, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    write_table("fig05b_batched_speedup", text_table("fig5b_inference_time", rows))
    row = rows[0]
    assert row["n_i"] == 100.0
    assert row["speedup"] >= 3.0, (
        f"batched inference only {row['speedup']:.1f}x faster than the "
        "sequential per-pair loop at n=100"
    )
