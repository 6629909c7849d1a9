"""Figure 15 (Appendix H): ROC of IM-GRN vs partial correlation (pCorr).

The paper's shape: IM-GRN achieves high TPR at low FPR compared with the
partial-correlation competitor, on E.coli with and without noise. (pCorr
is particularly weak when samples << genes, which is the organism regime.)
"""

from __future__ import annotations

import numpy as np

from conftest import write_table
from repro.eval.roc import format_roc_summary, roc_curves

GENES = 120
SAMPLES = 40
MC_SAMPLES = 300
SEEDS = (7, 8, 9)


def test_roc_shape_imgrn_beats_pcorr(benchmark):
    def sweep():
        return [
            roc_curves(
                organism="ecoli",
                genes=GENES,
                samples=SAMPLES,
                mc_samples=MC_SAMPLES,
                seed=seed,
                comparator="pcorr",
            )
            for seed in SEEDS
        ]

    per_seed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    mean = {
        key: float(np.mean([curves[key].auc() for curves in per_seed]))
        for key in per_seed[0]
    }
    lines = [f"[ecoli] mean AUC over seeds {SEEDS}"]
    for key in sorted(mean):
        lines.append(f"{key:<20} {mean[key]:.4f}")
    lines.append("")
    lines.append(f"representative curves (seed {SEEDS[0]}):")
    lines.append(format_roc_summary(per_seed[0]))
    write_table("fig15_pcorr", "\n".join(lines))

    # IM-GRN dominates pCorr with and without noise.
    assert mean["imgrn"] > mean["pcorr"]
    assert mean["imgrn_noise"] > mean["pcorr_noise"]
