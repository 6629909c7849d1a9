"""ExperimentRunner: resolve a declarative config into tidy trial rows.

One trial = one (engine, kind, weights, scale, gamma, alpha, repeat)
cell, executed as a whole query workload through
``QueryEngine.execute(QuerySpec(...))``. Databases, query workloads and
built engines are memoized per scale so a parameter sweep re-uses the
same index exactly like the hand-written figure drivers in
:mod:`repro.eval.experiments` do.

Each row carries the trial axes, the paper's cost counters (from
:class:`repro.eval.counters.QueryStats`, i.e. the :mod:`repro.obs`
metrics), wall-clock seconds, and provenance (git hash, host CPU count)
so archived result sets stay comparable across PRs and machines.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

from ...config import EngineConfig, ObservabilityConfig, SyntheticConfig
from ...core.baseline import BaselineEngine, LinearScanEngine
from ...core.measure_engine import MeasureScanEngine
from ...core.query import IMGRNEngine
from ...core.spec import QuerySpec
from ...data.queries import generate_query_workload
from ...data.synthetic import generate_database
from .config import ExperimentConfig, ScaleSpec
from .results import ExperimentResults

__all__ = ["ENGINE_REGISTRY", "ExperimentRunner", "git_hash", "host_meta"]

#: Engine name -> class, shared with the CLI's ``--engine`` choices.
ENGINE_REGISTRY = {
    "imgrn": IMGRNEngine,
    "baseline": BaselineEngine,
    "linear-scan": LinearScanEngine,
    "measure-scan": MeasureScanEngine,
}


def git_hash(cwd: str | Path | None = None) -> str:
    """The short git hash of the working tree, or ``"unknown"``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def host_meta() -> dict[str, object]:
    """Provenance recorded with every run: enough to group trajectories.

    ``host`` is the comparability key -- the trajectory gate only makes
    statistical claims between runs from hosts with the same platform
    shape and CPU count (wall-clock across different machines is not an
    A/B comparison).
    """
    cpu_count = os.cpu_count() or 1
    return {
        "git_hash": git_hash(),
        "cpu_count": cpu_count,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": f"{platform.system()}-{platform.machine()}-cpu{cpu_count}",
    }


class ExperimentRunner:
    """Executes one :class:`ExperimentConfig` and collects tidy rows.

    ``prime()`` lets benches and tests inject pre-built engines/queries
    (e.g. pytest session fixtures) so migrating an existing figure bench
    onto the runner does not rebuild its 150-matrix workload.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._observability = ObservabilityConfig(shared_registry=False)
        self._databases: dict[tuple[str, str], object] = {}
        self._queries: dict[tuple[str, str], list] = {}
        self._engines: dict[tuple[str, str, str], object] = {}
        self._build_seconds: dict[tuple[str, str, str], float] = {}

    # -- workload construction (memoized per scale) -------------------
    def prime(
        self,
        engine_name: str,
        weights: str,
        scale: ScaleSpec,
        engine,
        queries: list,
    ) -> None:
        """Inject a pre-built engine + query workload for one cell."""
        key = (weights, scale.label)
        self._databases.setdefault(key, engine.database)
        self._queries[key] = queries
        self._engines[(engine_name, *key)] = engine
        self._build_seconds.setdefault((engine_name, *key), 0.0)

    def _database(self, weights: str, scale: ScaleSpec):
        key = (weights, scale.label)
        if key not in self._databases:
            self._databases[key] = generate_database(
                SyntheticConfig(
                    weights=weights,
                    genes_range=scale.genes_range,
                    seed=self.config.seed,
                ),
                scale.n_matrices,
            )
        return self._databases[key]

    def _workload(self, weights: str, scale: ScaleSpec) -> list:
        key = (weights, scale.label)
        if key not in self._queries:
            self._queries[key] = generate_query_workload(
                self._database(weights, scale),
                n_q=self.config.n_q,
                count=self.config.num_queries,
                rng=self.config.seed,
            )
        return self._queries[key]

    def _engine(self, name: str, weights: str, scale: ScaleSpec):
        key = (name, weights, scale.label)
        if key not in self._engines:
            engine = ENGINE_REGISTRY[name](
                self._database(weights, scale),
                config=EngineConfig(
                    seed=self.config.seed, observability=self._observability
                ),
            )
            self._build_seconds[key] = engine.build()
            self._engines[key] = engine
        return self._engines[key]

    # -- trial execution ----------------------------------------------
    def _specs(
        self, kind: str, gamma: float, alpha: float, queries: list
    ) -> list[QuerySpec]:
        if kind == "topk":
            return [
                QuerySpec(q, gamma, kind="topk", k=self.config.k)
                for q in queries
            ]
        if kind == "similarity":
            return [
                QuerySpec(
                    q,
                    gamma,
                    alpha,
                    kind="similarity",
                    edge_budget=self.config.edge_budget,
                )
                for q in queries
            ]
        return [QuerySpec(q, gamma, alpha) for q in queries]

    def _axes(self, kind: str) -> list[tuple[float, float | None]]:
        """The (gamma, alpha) sweep cells of one kind (topk has no alpha)."""
        if kind == "topk":
            return [(gamma, None) for gamma in self.config.gammas]
        return [
            (gamma, alpha)
            for gamma in self.config.gammas
            for alpha in self.config.alphas
        ]

    def run(self, progress=None) -> ExperimentResults:
        """Execute every trial; returns the collected results object."""
        config = self.config
        meta = host_meta()
        rows: list[dict[str, object]] = []
        for weights in config.weights:
            for scale in config.scales:
                queries = self._workload(weights, scale)
                for engine_name in config.engines:
                    engine = self._engine(engine_name, weights, scale)
                    build_seconds = self._build_seconds[
                        (engine_name, weights, scale.label)
                    ]
                    for kind in config.kinds:
                        for gamma, alpha in self._axes(kind):
                            for repeat in range(config.repeats):
                                rows.append(
                                    self._trial(
                                        engine_name,
                                        engine,
                                        kind,
                                        weights,
                                        scale,
                                        gamma,
                                        alpha,
                                        repeat,
                                        queries,
                                        build_seconds,
                                        meta,
                                    )
                                )
                                if progress is not None:
                                    progress(rows[-1])
        return ExperimentResults(
            rows,
            name=config.name,
            baseline_engine=config.baseline_engine,
            config=config.to_dict(),
            meta=meta,
        )

    def _trial(
        self,
        engine_name: str,
        engine,
        kind: str,
        weights: str,
        scale: ScaleSpec,
        gamma: float,
        alpha: float | None,
        repeat: int,
        queries: list,
        build_seconds: float,
        meta: dict[str, object],
    ) -> dict[str, object]:
        specs = self._specs(kind, gamma, alpha, queries)
        started = time.perf_counter()
        outcomes = [engine.execute(spec) for spec in specs]
        seconds = time.perf_counter() - started
        stats = [outcome.stats for outcome in outcomes]
        return {
            "experiment": self.config.name,
            "engine": engine_name,
            "kind": kind,
            "weights": weights,
            "scale": scale.label,
            "n_matrices": scale.n_matrices,
            "gamma": gamma,
            "alpha": alpha,
            "k": self.config.k if kind == "topk" else None,
            "edge_budget": (
                self.config.edge_budget if kind == "similarity" else None
            ),
            "repeat": repeat,
            "seed": self.config.seed,
            "num_queries": len(specs),
            "seconds": seconds,
            "cpu_seconds": sum(s.cpu_seconds for s in stats),
            "refine_seconds": sum(s.refine_seconds for s in stats),
            "io_accesses": sum(s.io_accesses for s in stats),
            "candidates": sum(s.candidates for s in stats),
            "answers": sum(s.answers for s in stats),
            "pruned_pairs": sum(s.pruned_pairs for s in stats),
            "build_seconds": build_seconds,
            "git_hash": meta["git_hash"],
            "cpu_count": meta["cpu_count"],
        }
