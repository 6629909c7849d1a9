"""Figure 5(a) + Figure 14: ROC of IM-GRN vs Correlation on organisms.

Regenerates the ROC comparison on all three organism stand-ins, clean and
with N(0, 0.3) noise. The paper's shape, asserted on AUCs averaged over
three generator seeds (single-seed curves are noisy at this scale):

* the IM-GRN curve is above Correlation "in most cases" -- here: the mean
  AUC gap is non-negative, and widest on noisy data;
* the IM-GRN measure is nearly noise-invariant;
* both measures are informative (far above random).

The timed benchmark is the IM-GRN probability-matrix computation (the
measure's cost on one compendium).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import write_table
from repro.core.inference import EdgeProbabilityEstimator
from repro.data.organisms import ORGANISMS, generate_organism_matrix
from repro.eval.roc import format_roc_summary, roc_curves

GENES = 120
SAMPLES = 40
MC_SAMPLES = 300
SEEDS = (7, 8, 9, 10, 11)


@pytest.mark.parametrize("organism", ["ecoli", "saureus", "scerevisiae"])
def test_imgrn_probability_matrix_speed(benchmark, organism, bench_seed):
    spec = ORGANISMS[organism].scaled(60)
    matrix = generate_organism_matrix(spec, rng=np.random.default_rng(bench_seed))
    estimator = EdgeProbabilityEstimator(
        n_samples=100, semantics="two_sided", seed=bench_seed
    )
    probs = benchmark(estimator.probability_matrix, matrix.values)
    assert probs.shape == (60, 60)


@pytest.mark.parametrize("organism", ["ecoli", "saureus", "scerevisiae"])
def test_roc_shape_imgrn_beats_correlation(benchmark, organism):
    """The figure's qualitative claims, asserted on seed-averaged AUCs."""

    def sweep():
        return [
            roc_curves(
                organism=organism,
                genes=GENES,
                samples=SAMPLES,
                mc_samples=MC_SAMPLES,
                seed=seed,
            )
            for seed in SEEDS
        ]

    per_seed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    mean = {
        key: float(np.mean([curves[key].auc() for curves in per_seed]))
        for key in per_seed[0]
    }
    name = "fig05a_roc" if organism == "ecoli" else f"fig14_roc_{organism}"
    lines = [f"[{organism}] mean AUC over seeds {SEEDS}"]
    for key in sorted(mean):
        lines.append(f"{key:<20} {mean[key]:.4f}")
    lines.append("")
    lines.append(f"representative curves (seed {SEEDS[0]}):")
    lines.append(format_roc_summary(per_seed[0]))
    write_table(name, "\n".join(lines))

    # IM-GRN at least matches Correlation on noisy data, and typically
    # exceeds it (the paper: "above ... in most cases"); allow per-seed
    # noise of a few AUC-thousandths at this scale.
    assert mean["imgrn_noise"] >= mean["correlation_noise"] - 0.003
    # The IM-GRN measure is close to noise-invariant.
    assert abs(mean["imgrn"] - mean["imgrn_noise"]) < 0.15
    # Both are informative (far above random).
    assert mean["imgrn"] > 0.6
    assert mean["correlation"] > 0.6
