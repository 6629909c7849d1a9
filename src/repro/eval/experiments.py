"""Experiment drivers: one function per figure of the paper's Section 6.

Every driver returns an :class:`ExperimentResult` whose rows are the data
points of the corresponding figure (same series, scaled-down sizes -- see
DESIGN.md for the substitution table). The benchmark modules under
``benchmarks/`` are thin wrappers that run these drivers under
pytest-benchmark and print the paper-style series via
:mod:`repro.eval.reporting`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULTS, EngineConfig, InferenceConfig, SyntheticConfig
from ..core.baseline import BaselineEngine, LinearScanEngine
from ..core.correlation import (
    absolute_correlation_matrix,
    partial_correlation_matrix,
)
from ..core.inference import EdgeProbabilityEstimator
from ..core.query import IMGRNEngine
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..data.noise import PAPER_NOISE_STD, add_noise
from ..data.organisms import ORGANISMS, generate_organism_matrix
from ..data.queries import generate_query_workload
from ..data.synthetic import generate_database
from ..errors import ValidationError
from .counters import aggregate_stats
from .roc import ROCCurve, default_thresholds, roc_curve_from_scores

__all__ = [
    "ExperimentResult",
    "Workload",
    "build_synthetic_workload",
    "build_real_database",
    "roc_inference",
    "roc_pcorr",
    "inference_time",
    "vs_baseline",
    "vary_gamma",
    "vary_alpha",
    "vary_pivots",
    "vary_query_size",
    "vary_matrix_size",
    "vary_database_size",
    "index_construction",
]


@dataclass
class ExperimentResult:
    """Rows of one figure: a list of {column: value} data points."""

    name: str
    x_label: str
    rows: list[dict[str, float | str]] = field(default_factory=list)

    def series(self, column: str) -> list[float | str]:
        """One column across all rows (a plotted line of the figure)."""
        return [row[column] for row in self.rows]


@dataclass
class Workload:
    """A database + engine + query set, shared across sweep points."""

    database: GeneFeatureDatabase
    engine: IMGRNEngine
    queries: list[GeneFeatureMatrix]


# ----------------------------------------------------------------------
# Data set construction
# ----------------------------------------------------------------------
def build_synthetic_workload(
    weights: str = "uni",
    n_matrices: int = DEFAULTS.n_matrices,
    genes_range: tuple[int, int] = DEFAULTS.genes_per_matrix,
    n_q: int = DEFAULTS.query_genes,
    num_queries: int = 8,
    config: EngineConfig | None = None,
    seed: int = 7,
) -> Workload:
    """Generate a Uni/Gau database, build the IM-GRN index, cut queries."""
    synth = SyntheticConfig(weights=weights, genes_range=genes_range, seed=seed)
    database = generate_database(synth, n_matrices)
    engine = IMGRNEngine(database, config or EngineConfig(seed=seed))
    engine.build()
    queries = generate_query_workload(
        database, n_q=n_q, count=num_queries, rng=seed
    )
    return Workload(database, engine, queries)


def build_real_database(
    n_matrices: int = DEFAULTS.n_matrices,
    genes_range: tuple[int, int] = DEFAULTS.genes_per_matrix,
    samples_range: tuple[int, int] = DEFAULTS.samples_per_matrix,
    seed: int = 7,
) -> GeneFeatureDatabase:
    """The ``Real`` data set: N/3 random sub-matrices from each organism.

    Mirrors Section 6.3: one master compendium per organism, from which
    ``l_i x n_i`` sub-matrices (random sample rows x random gene columns)
    are cut, keeping the gold-standard edges among the kept genes.
    """
    if n_matrices < 3:
        raise ValidationError(f"n_matrices must be >= 3, got {n_matrices}")
    rng = np.random.default_rng(seed)
    master_genes = max(2 * genes_range[1], 240)
    master_samples = max(2 * samples_range[1], 60)
    masters = []
    for offset, name in enumerate(("ecoli", "saureus", "scerevisiae")):
        spec = ORGANISMS[name].scaled(master_genes, master_samples)
        masters.append(
            generate_organism_matrix(
                spec,
                source_id=offset,
                rng=np.random.default_rng((seed, offset)),
                gene_id_offset=0,  # organisms share a gene namespace
            )
        )
    database = GeneFeatureDatabase()
    for source_id in range(n_matrices):
        master = masters[source_id % len(masters)]
        n_i = int(rng.integers(genes_range[0], genes_range[1] + 1))
        l_i = int(rng.integers(samples_range[0], samples_range[1] + 1))
        cols = sorted(
            int(g)
            for g in rng.choice(master.gene_ids, size=n_i, replace=False)
        )
        sub = master.submatrix(cols, source_id=source_id)
        rows = np.sort(rng.choice(sub.num_samples, size=l_i, replace=False))
        kept = set(sub.gene_ids)
        truth = [(u, v) for u, v in sub.truth_edges if u in kept and v in kept]
        database.add(
            GeneFeatureMatrix(
                sub.values[rows, :], sub.gene_ids, source_id, truth
            )
        )
    return database


# ----------------------------------------------------------------------
# Figures 5(a), 14: ROC of IM-GRN vs Correlation
# ----------------------------------------------------------------------
def _organism_stream(organism: str) -> int:
    """A stable per-organism RNG sub-stream index.

    Folding the organism into the seed keeps the three compendia distinct
    even when an experiment forces the same gene/sample counts on all.
    """
    return sorted(ORGANISMS).index(organism)



def roc_inference(
    organism: str = "ecoli",
    genes: int = 120,
    samples: int | None = None,
    noise_std: float = PAPER_NOISE_STD,
    mc_samples: int = 300,
    seed: int = 7,
) -> dict[str, ROCCurve]:
    """Fig. 5(a) / Fig. 14: ROC curves of IM-GRN vs Correlation, +/- noise.

    Returns four curves keyed ``imgrn``, ``correlation``, ``imgrn_noise``,
    ``correlation_noise``.
    """
    if organism not in ORGANISMS:
        raise ValidationError(f"unknown organism {organism!r}")
    spec = ORGANISMS[organism].scaled(genes, samples)
    org_stream = _organism_stream(organism)
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
        prob = estimator.probability_matrix(matrix.values)
        corr = absolute_correlation_matrix(matrix.values)
        curves[f"imgrn{suffix}"] = roc_curve_from_scores(
            prob, matrix.gene_ids, matrix.truth_edges, thresholds,
            label=f"IM-GRN ({organism}{suffix or ''})",
        )
        curves[f"correlation{suffix}"] = roc_curve_from_scores(
            corr, matrix.gene_ids, matrix.truth_edges, thresholds,
            label=f"Correlation ({organism}{suffix or ''})",
        )
    return curves


def roc_pcorr(
    organism: str = "ecoli",
    genes: int = 120,
    samples: int | None = None,
    noise_std: float = PAPER_NOISE_STD,
    mc_samples: int = 300,
    seed: int = 7,
) -> dict[str, ROCCurve]:
    """Fig. 15 (Appendix H): ROC of IM-GRN vs partial correlation."""
    if organism not in ORGANISMS:
        raise ValidationError(f"unknown organism {organism!r}")
    spec = ORGANISMS[organism].scaled(genes, samples)
    org_stream = _organism_stream(organism)
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
        prob = estimator.probability_matrix(matrix.values)
        pcorr = np.abs(partial_correlation_matrix(matrix.values))
        curves[f"imgrn{suffix}"] = roc_curve_from_scores(
            prob, matrix.gene_ids, matrix.truth_edges, thresholds,
            label=f"IM-GRN ({organism}{suffix or ''})",
        )
        curves[f"pcorr{suffix}"] = roc_curve_from_scores(
            pcorr, matrix.gene_ids, matrix.truth_edges, thresholds,
            label=f"pCorr ({organism}{suffix or ''})",
        )
    return curves


# ----------------------------------------------------------------------
# Figure 5(b): inference time vs n_i
# ----------------------------------------------------------------------
def inference_time(
    sizes: tuple[int, ...] = (50, 100, 150, 200, 250),
    organism: str = "ecoli",
    mc_samples: int = 200,
    seed: int = 7,
    batch_size: int = 32,
    cache: bool = True,
    measure_sequential: bool = True,
) -> ExperimentResult:
    """Fig. 5(b): wall-clock of IM-GRN inference vs plain Correlation.

    The paper sweeps ``n_i`` from 100 to 500 on *E.coli*; we keep the sweep
    shape at reduced sizes (pure-Python substrate). Besides the paper's two
    series this also times the *per-pair sequential* estimator (the loop
    every refinement path used before batching) and reports the batched
    engine's speedup over it; both paths produce identical probabilities.
    """
    result = ExperimentResult(name="fig5b_inference_time", x_label="n_i")
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
        row: dict[str, float | str] = {
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
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figure 6: IM-GRN vs Baseline on Real / Uni / Gau
# ----------------------------------------------------------------------
def vs_baseline(
    n_matrices: int = 60,
    genes_range: tuple[int, int] = DEFAULTS.genes_per_matrix,
    n_q: int = DEFAULTS.query_genes,
    num_queries: int = 5,
    gamma: float = DEFAULTS.gamma,
    alpha: float = DEFAULTS.alpha,
    seed: int = 7,
    include_linear_scan: bool = False,
) -> ExperimentResult:
    """Fig. 6(a-c): CPU / I/O / candidates, IM-GRN vs Baseline, 3 data sets."""
    result = ExperimentResult(name="fig6_vs_baseline", x_label="dataset")
    config = EngineConfig(seed=seed)
    for dataset in ("real", "uni", "gau"):
        if dataset == "real":
            database = build_real_database(
                n_matrices=n_matrices, genes_range=genes_range, seed=seed
            )
        else:
            database = generate_database(
                SyntheticConfig(weights=dataset, genes_range=genes_range, seed=seed),
                n_matrices,
            )
        queries = generate_query_workload(
            database, n_q=n_q, count=num_queries, rng=seed
        )
        engine = IMGRNEngine(database, config)
        engine.build()
        engine_stats = [
            engine.query(q, gamma=gamma, alpha=alpha).stats for q in queries
        ]
        baseline = BaselineEngine(database, config)
        baseline.build()
        baseline_stats = [
            baseline.query(q, gamma=gamma, alpha=alpha).stats for q in queries
        ]
        row: dict[str, float | str] = {"dataset": dataset}
        for prefix, agg in (
            ("imgrn", aggregate_stats(engine_stats)),
            ("baseline", aggregate_stats(baseline_stats)),
        ):
            row[f"{prefix}_cpu"] = agg["cpu_seconds"]
            row[f"{prefix}_io"] = agg["io_accesses"]
            row[f"{prefix}_candidates"] = agg["candidates"]
            row[f"{prefix}_answers"] = agg["answers"]
        if include_linear_scan:
            scan = LinearScanEngine(database, config)
            scan.build()
            agg = aggregate_stats(
                [scan.query(q, gamma=gamma, alpha=alpha).stats for q in queries]
            )
            row["scan_cpu"] = agg["cpu_seconds"]
            row["scan_io"] = agg["io_accesses"]
            row["scan_candidates"] = agg["candidates"]
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figures 7-12: parameter sweeps on Uni and Gau
# ----------------------------------------------------------------------
def _sweep_row(
    workload: Workload, gamma: float, alpha: float
) -> dict[str, float]:
    stats = [
        workload.engine.query(q, gamma=gamma, alpha=alpha).stats
        for q in workload.queries
    ]
    agg = aggregate_stats(stats)
    return {
        "cpu_seconds": agg["cpu_seconds"],
        "io_accesses": agg["io_accesses"],
        "candidates": agg["candidates"],
        "answers": agg["answers"],
    }


def vary_gamma(
    gammas: tuple[float, ...] = (0.2, 0.3, 0.5, 0.8, 0.9),
    n_matrices: int = DEFAULTS.n_matrices,
    alpha: float = DEFAULTS.alpha,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 7(a-c): metrics vs the ad-hoc inference threshold ``gamma``."""
    result = ExperimentResult(name="fig7_gamma", x_label="gamma")
    for weights in ("uni", "gau"):
        workload = build_synthetic_workload(
            weights=weights, n_matrices=n_matrices, num_queries=num_queries, seed=seed
        )
        for gamma in gammas:
            row: dict[str, float | str] = {"dataset": weights, "gamma": gamma}
            row.update(_sweep_row(workload, gamma, alpha))
            result.rows.append(row)
    return result


def vary_alpha(
    alphas: tuple[float, ...] = (0.2, 0.3, 0.5, 0.8, 0.9),
    n_matrices: int = DEFAULTS.n_matrices,
    gamma: float = DEFAULTS.gamma,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 8(a-c): metrics vs the probabilistic threshold ``alpha``."""
    result = ExperimentResult(name="fig8_alpha", x_label="alpha")
    for weights in ("uni", "gau"):
        workload = build_synthetic_workload(
            weights=weights, n_matrices=n_matrices, num_queries=num_queries, seed=seed
        )
        for alpha in alphas:
            row: dict[str, float | str] = {"dataset": weights, "alpha": alpha}
            row.update(_sweep_row(workload, gamma, alpha))
            result.rows.append(row)
    return result


def vary_pivots(
    pivot_counts: tuple[int, ...] = (1, 2, 3, 4),
    n_matrices: int = DEFAULTS.n_matrices,
    gamma: float = DEFAULTS.gamma,
    alpha: float = DEFAULTS.alpha,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 9(a-c): metrics vs the number of pivots ``d`` (index dims 2d+1)."""
    result = ExperimentResult(name="fig9_pivots", x_label="d")
    for weights in ("uni", "gau"):
        for d in pivot_counts:
            workload = build_synthetic_workload(
                weights=weights,
                n_matrices=n_matrices,
                num_queries=num_queries,
                config=EngineConfig(num_pivots=d, seed=seed),
                seed=seed,
            )
            row: dict[str, float | str] = {"dataset": weights, "d": float(d)}
            row.update(_sweep_row(workload, gamma, alpha))
            result.rows.append(row)
    return result


def vary_query_size(
    query_sizes: tuple[int, ...] = (2, 3, 5, 8, 10),
    n_matrices: int = DEFAULTS.n_matrices,
    gamma: float = DEFAULTS.gamma,
    alpha: float = DEFAULTS.alpha,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 10(a-c): metrics vs the number of query genes ``n_Q``."""
    result = ExperimentResult(name="fig10_query_size", x_label="n_Q")
    for weights in ("uni", "gau"):
        workload = build_synthetic_workload(
            weights=weights, n_matrices=n_matrices, num_queries=num_queries, seed=seed
        )
        for n_q in query_sizes:
            queries = generate_query_workload(
                workload.database, n_q=n_q, count=num_queries, rng=(seed, n_q)
            )
            stats = [
                workload.engine.query(q, gamma=gamma, alpha=alpha).stats for q in queries
            ]
            agg = aggregate_stats(stats)
            result.rows.append(
                {
                    "dataset": weights,
                    "n_Q": float(n_q),
                    "cpu_seconds": agg["cpu_seconds"],
                    "io_accesses": agg["io_accesses"],
                    "candidates": agg["candidates"],
                    "answers": agg["answers"],
                }
            )
    return result


def vary_matrix_size(
    ranges: tuple[tuple[int, int], ...] = (
        (10, 20),
        (20, 50),
        (50, 100),
        (100, 200),
    ),
    n_matrices: int = DEFAULTS.n_matrices,
    gamma: float = DEFAULTS.gamma,
    alpha: float = DEFAULTS.alpha,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 11(a-c): metrics vs genes-per-matrix range ``[n_min, n_max]``."""
    result = ExperimentResult(name="fig11_matrix_size", x_label="n_range")
    for weights in ("uni", "gau"):
        for genes_range in ranges:
            workload = build_synthetic_workload(
                weights=weights,
                n_matrices=n_matrices,
                genes_range=genes_range,
                num_queries=num_queries,
                seed=seed,
            )
            row: dict[str, float | str] = {
                "dataset": weights,
                "n_range": f"[{genes_range[0]},{genes_range[1]}]",
            }
            row.update(_sweep_row(workload, gamma, alpha))
            result.rows.append(row)
    return result


def vary_database_size(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    gamma: float = DEFAULTS.gamma,
    alpha: float = DEFAULTS.alpha,
    num_queries: int = 8,
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 12(a-c): scalability vs the number of matrices ``N``."""
    result = ExperimentResult(name="fig12_database_size", x_label="N")
    for weights in ("uni", "gau"):
        for n_matrices in sizes:
            workload = build_synthetic_workload(
                weights=weights,
                n_matrices=n_matrices,
                num_queries=num_queries,
                seed=seed,
            )
            row: dict[str, float | str] = {"dataset": weights, "N": float(n_matrices)}
            row.update(_sweep_row(workload, gamma, alpha))
            result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figure 13: index construction time
# ----------------------------------------------------------------------
def index_construction(
    ranges: tuple[tuple[int, int], ...] = ((10, 20), (20, 50), (50, 100)),
    sizes: tuple[int, ...] = (50, 100, 200),
    seed: int = 7,
) -> ExperimentResult:
    """Fig. 13(a-b): index build time vs ``[n_min, n_max]`` and vs ``N``."""
    result = ExperimentResult(name="fig13_index_build", x_label="sweep")
    for weights in ("uni", "gau"):
        for genes_range in ranges:
            database = generate_database(
                SyntheticConfig(weights=weights, genes_range=genes_range, seed=seed),
                DEFAULTS.n_matrices // 2,
            )
            engine = IMGRNEngine(database, EngineConfig(seed=seed))
            seconds = engine.build()
            result.rows.append(
                {
                    "dataset": weights,
                    "sweep": f"range[{genes_range[0]},{genes_range[1]}]",
                    "build_seconds": seconds,
                    "index_pages": float(engine.pages.num_pages),
                }
            )
        for n_matrices in sizes:
            database = generate_database(
                SyntheticConfig(weights=weights, seed=seed), n_matrices
            )
            engine = IMGRNEngine(database, EngineConfig(seed=seed))
            seconds = engine.build()
            result.rows.append(
                {
                    "dataset": weights,
                    "sweep": f"N={n_matrices}",
                    "build_seconds": seconds,
                    "index_pages": float(engine.pages.num_pages),
                }
            )
    return result
