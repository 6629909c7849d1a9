"""Shared benchmark utilities.

Every figure's bench writes its paper-style table to ``benchmarks/out/`` so
EXPERIMENTS.md can quote measured numbers, and prints it (visible with
``pytest -s``). Scales are laptop-sized; set ``REPRO_BENCH_SCALE=2`` (or
higher) to multiply the database sizes toward paper scale.

The query sweeps run on :class:`repro.eval.harness.ExperimentRunner`:
:func:`figure_config` is their common config, and the ``default_runner``
fixture builds the Uni and Gau engines at the Table-2 defaults once per
session for every bench that sweeps over them.
"""

from __future__ import annotations

import os

import pytest

from _paths import out_path
from repro.config import DEFAULTS
from repro.eval.harness import ExperimentConfig, ExperimentRunner, ScaleSpec

#: Multiplier applied to database sizes (REPRO_BENCH_SCALE env var).
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))

#: The seed of every figure bench.
BENCH_SEED = 7


def scaled(n: int) -> int:
    """Scale a matrix count by the benchmark scale factor."""
    return n * SCALE


#: The session's default-parameter database (N scaled, Table-2 defaults).
DEFAULT_SCALE = ScaleSpec(scaled(150), DEFAULTS.genes_per_matrix)


def figure_config(name: str, **fields: object) -> ExperimentConfig:
    """One repeat of IM-GRN containment queries over Uni and Gau.

    Table-2 defaults (gamma = alpha = 0.5, five 5-gene queries) on the
    session's default scale; ``fields`` override any of them.
    """
    defaults: dict[str, object] = {
        "name": name,
        "engines": ("imgrn",),
        "baseline_engine": "imgrn",
        "weights": ("uni", "gau"),
        "scales": (DEFAULT_SCALE,),
        "gammas": (DEFAULTS.gamma,),
        "alphas": (DEFAULTS.alpha,),
        "n_q": DEFAULTS.query_genes,
        "num_queries": 5,
        "repeats": 1,
        "seed": BENCH_SEED,
    }
    return ExperimentConfig(**{**defaults, **fields})


#: The ablation benches' workload: 100 Uni matrices at the Table-2 defaults.
ABLATION = figure_config(
    "ablation",
    weights=("uni",),
    scales=(ScaleSpec(scaled(100), DEFAULTS.genes_per_matrix),),
)


def ablation_workload():
    """The ablation database and its query workload (engines built by each bench)."""
    runner = ExperimentRunner(ABLATION)
    return (
        runner.database("uni", ABLATION.scales[0]),
        runner.workload("uni", ABLATION.scales[0]),
    )


def default_sweep(default_runner: ExperimentRunner, config) -> ExperimentRunner:
    """A runner for ``config`` primed with the session's built engines."""
    runner = ExperimentRunner(config)
    for weights in config.weights:
        runner.prime(
            "imgrn",
            weights,
            DEFAULT_SCALE,
            default_runner.engine("imgrn", weights, DEFAULT_SCALE),
            default_runner.workload(weights, DEFAULT_SCALE),
        )
    return runner


def write_table(name: str, text: str) -> None:
    """Persist one figure's series in the bench output dir and echo it.

    The directory is ``$IMGRN_BENCH_OUT`` or ``benchmarks/out/`` -- see
    :mod:`_paths`, the single home of bench output routing.
    """
    out_path(f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}")


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


@pytest.fixture(scope="session")
def default_runner() -> ExperimentRunner:
    """The Uni and Gau cells at the defaults, each built on first use."""
    return ExperimentRunner(figure_config("defaults"))
