"""GRN inference accuracy and cost (Section 6.2: Figs. 5, 14 and 15).

Following the bioinformatics protocol of [22], an inference measure is
scored against a gold-standard edge set by sweeping the inference threshold
``gamma`` from 0 to 1 and plotting, at each threshold,

* TPR (recall): correctly inferred edges / gold-standard edges,
* FPR: incorrectly inferred edges / non-edges.

:func:`roc_curves` runs that comparison on an organism stand-in, IM-GRN
against Correlation (Figs. 5a, 14) or partial correlation (Fig. 15), and
:func:`inference_time` times the measures (Fig. 5b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import InferenceConfig
from ..core.correlation import (
    absolute_correlation_matrix,
    partial_correlation_matrix,
)
from ..core.inference import EdgeProbabilityEstimator
from ..core.probgraph import EdgeKey, edge_key
from ..data.noise import PAPER_NOISE_STD, add_noise
from ..data.organisms import ORGANISMS, generate_organism_matrix
from ..errors import ValidationError

__all__ = [
    "COMPARATORS",
    "ROCPoint",
    "ROCCurve",
    "default_thresholds",
    "format_roc_summary",
    "inference_time",
    "render_roc_ascii",
    "roc_curve_from_scores",
    "roc_curves",
]


@dataclass(frozen=True)
class ROCPoint:
    """One (threshold, FPR, TPR) point of a ROC sweep."""

    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class ROCCurve:
    """A full ROC sweep for one inference measure on one data set."""

    label: str
    points: tuple[ROCPoint, ...]

    def auc(self) -> float:
        """Area under the curve (trapezoidal, over the swept range).

        The sweep's extreme points (FPR 0 and 1) are appended so AUC is
        comparable across measures even if no threshold reaches them.
        """
        xs = np.asarray([p.fpr for p in self.points] + [0.0, 1.0])
        ys = np.asarray([p.tpr for p in self.points] + [0.0, 1.0])
        order = np.lexsort((ys, xs))  # staircase through operating points
        return float(np.trapezoid(ys[order], xs[order]))

    def tpr_at_fpr(self, fpr_limit: float) -> float:
        """Best TPR among points with FPR <= limit (partial-ROC summary)."""
        eligible = [p.tpr for p in self.points if p.fpr <= fpr_limit]
        return max(eligible, default=0.0)


def default_thresholds(step: float = 0.01) -> np.ndarray:
    """The paper's sweep: gamma from 0 to 1 with increment ``step``."""
    if not 0.0 < step <= 0.5:
        raise ValidationError(f"step must be in (0, 0.5], got {step}")
    return np.arange(0.0, 1.0 + step / 2, step)


def roc_curve_from_scores(
    scores: np.ndarray,
    gene_ids: tuple[int, ...] | list[int],
    truth_edges: frozenset[EdgeKey] | set[EdgeKey],
    thresholds: np.ndarray | None = None,
    label: str = "",
) -> ROCCurve:
    """ROC sweep of a pairwise score matrix against gold-standard edges.

    Parameters
    ----------
    scores:
        ``n x n`` symmetric matrix of edge scores (probabilities for
        IM-GRN, |Pearson| for Correlation, |partial correlation| for
        pCorr). An edge is inferred at threshold ``g`` when score > g.
    gene_ids:
        Gene labels of the matrix columns.
    truth_edges:
        Gold-standard undirected edges as gene-ID pairs.

    Raises
    ------
    ValidationError
        On shape mismatch or an empty/complete gold standard (either makes
        TPR or FPR undefined).
    """
    ids = tuple(int(g) for g in gene_ids)
    n = len(ids)
    if scores.shape != (n, n):
        raise ValidationError(
            f"score matrix shape {scores.shape} does not match {n} genes"
        )
    total_pairs = n * (n - 1) // 2
    truth = {edge_key(u, v) for u, v in truth_edges}
    if not truth:
        raise ValidationError("gold standard has no edges; TPR undefined")
    if len(truth) >= total_pairs:
        raise ValidationError("gold standard is complete; FPR undefined")
    if thresholds is None:
        thresholds = default_thresholds()

    iu, ju = np.triu_indices(n, k=1)
    pair_scores = scores[iu, ju]
    is_true = np.fromiter(
        (edge_key(ids[i], ids[j]) in truth for i, j in zip(iu, ju)),
        dtype=bool,
        count=iu.size,
    )
    num_true = int(is_true.sum())
    num_false = total_pairs - num_true

    points = []
    for threshold in thresholds:
        predicted = pair_scores > threshold
        tp = int(np.count_nonzero(predicted & is_true))
        fp = int(np.count_nonzero(predicted & ~is_true))
        points.append(
            ROCPoint(
                threshold=float(threshold),
                fpr=fp / num_false,
                tpr=tp / num_true,
            )
        )
    return ROCCurve(label=label, points=tuple(points))


#: The competitor measure of each ROC figure: key -> (label, |score| matrix).
COMPARATORS = {
    "correlation": ("Correlation", absolute_correlation_matrix),
    "pcorr": ("pCorr", lambda values: np.abs(partial_correlation_matrix(values))),
}


def roc_curves(
    organism: str = "ecoli",
    genes: int = 120,
    samples: int | None = None,
    noise_std: float = PAPER_NOISE_STD,
    mc_samples: int = 300,
    seed: int = 7,
    comparator: str = "correlation",
) -> dict[str, ROCCurve]:
    """ROC curves of IM-GRN vs one competitor measure, with and without noise.

    ``comparator="correlation"`` is Fig. 5(a) / Fig. 14, ``"pcorr"`` is
    Fig. 15 (Appendix H). Returns four curves keyed ``imgrn``,
    ``<comparator>``, ``imgrn_noise`` and ``<comparator>_noise``.
    """
    if organism not in ORGANISMS:
        raise ValidationError(f"unknown organism {organism!r}")
    if comparator not in COMPARATORS:
        raise ValidationError(
            f"unknown comparator {comparator!r}; "
            f"expected one of {', '.join(COMPARATORS)}"
        )
    label, score = COMPARATORS[comparator]
    spec = ORGANISMS[organism].scaled(genes, samples)
    # Folding the organism into the seed keeps the three compendia
    # distinct even when an experiment forces the same sizes on all.
    org_stream = sorted(ORGANISMS).index(organism)
    clean = generate_organism_matrix(
        spec, rng=np.random.default_rng((seed, org_stream, 0))
    )
    noisy = add_noise(
        clean, noise_std, rng=np.random.default_rng((seed, org_stream, 1))
    )
    estimator = EdgeProbabilityEstimator(
        n_samples=mc_samples, semantics="two_sided", seed=seed
    )
    thresholds = default_thresholds()
    curves: dict[str, ROCCurve] = {}
    for suffix, matrix in (("", clean), ("_noise", noisy)):
        for key, name, scores in (
            ("imgrn", "IM-GRN", estimator.probability_matrix(matrix.values)),
            (comparator, label, score(matrix.values)),
        ):
            curves[f"{key}{suffix}"] = roc_curve_from_scores(
                scores, matrix.gene_ids, matrix.truth_edges, thresholds,
                label=f"{name} ({organism}{suffix})",
            )
    return curves


def inference_time(
    sizes: tuple[int, ...] = (50, 100, 150, 200, 250),
    organism: str = "ecoli",
    mc_samples: int = 200,
    seed: int = 7,
    batch_size: int = 32,
    cache: bool = True,
    measure_sequential: bool = True,
) -> list[dict[str, float]]:
    """Fig. 5(b): wall-clock of IM-GRN inference vs plain Correlation.

    The paper sweeps ``n_i`` from 100 to 500 on *E.coli*; we keep the sweep
    shape at reduced sizes (pure-Python substrate). Besides the paper's two
    series this also times the *per-pair sequential* estimator (the loop
    every refinement path used before batching) and reports the batched
    engine's speedup over it; both paths produce identical probabilities.
    One row per ``n_i``.
    """
    rows = []
    estimator = EdgeProbabilityEstimator(
        n_samples=mc_samples, semantics="two_sided", seed=seed
    )
    inference = InferenceConfig(batch_size=batch_size, cache=cache)
    for n_i in sizes:
        spec = ORGANISMS[organism].scaled(n_i)
        matrix = generate_organism_matrix(
            spec, rng=np.random.default_rng((seed, n_i))
        )
        started = time.perf_counter()
        estimator.probability_matrix(matrix.values, inference=inference)
        imgrn_seconds = time.perf_counter() - started
        started = time.perf_counter()
        absolute_correlation_matrix(matrix.values)
        correlation_seconds = time.perf_counter() - started
        row = {
            "n_i": float(n_i),
            "imgrn_seconds": imgrn_seconds,
            "correlation_seconds": correlation_seconds,
        }
        if measure_sequential:
            values = matrix.values
            n = values.shape[1]
            started = time.perf_counter()
            for s in range(n):
                for t in range(s + 1, n):
                    estimator.pair_probability(values[:, s], values[:, t])
            sequential_seconds = time.perf_counter() - started
            row["sequential_seconds"] = sequential_seconds
            row["speedup"] = sequential_seconds / max(imgrn_seconds, 1e-12)
        rows.append(row)
    return rows


def format_roc_summary(curves: dict[str, ROCCurve]) -> str:
    """Summarize ROC curves by AUC and low-FPR recall (the figure's gist)."""
    lines = ["curve                      AUC     TPR@FPR<=0.1"]
    for key in sorted(curves):
        curve = curves[key]
        lines.append(
            f"{key:<25}  {curve.auc():.4f}  {curve.tpr_at_fpr(0.1):.4f}"
        )
    return "\n".join(lines)


def render_roc_ascii(
    curves: dict[str, ROCCurve], width: int = 61, height: int = 21
) -> str:
    """Terminal ROC plot: TPR (y) against FPR (x), one glyph per curve.

    Renders the same comparison the paper's ROC figures show, directly in
    the console (the CLI has no plotting dependency). The diagonal is the
    random-classifier reference.
    """
    glyphs = "*o+x#@%&"
    grid = [[" "] * width for _ in range(height)]
    # Random-classifier diagonal.
    for col in range(width):
        row = height - 1 - round(col * (height - 1) / (width - 1))
        grid[row][col] = "."
    legend = []
    for index, key in enumerate(sorted(curves)):
        glyph = glyphs[index % len(glyphs)]
        curve = curves[key]
        legend.append(f"  {glyph}  {key}  (AUC {curve.auc():.3f})")
        for point in curve.points:
            col = min(width - 1, round(point.fpr * (width - 1)))
            row = height - 1 - min(height - 1, round(point.tpr * (height - 1)))
            grid[row][col] = glyph
    lines = ["TPR"]
    for row_index, row in enumerate(grid):
        prefix = "1.0 |" if row_index == 0 else (
            "0.0 |" if row_index == height - 1 else "    |"
        )
        lines.append(prefix + "".join(row))
    lines.append("    +" + "-" * width)
    lines.append("     0.0" + " " * (width - 11) + "FPR 1.0")
    lines.extend(legend)
    return "\n".join(lines)
