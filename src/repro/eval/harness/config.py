"""Declarative experiment configs: TOML/JSON specs resolved to trials.

A config names *what* to run -- engines x workload kinds x database
scales x parameter sweeps x repeats x seeds -- and the
:class:`~repro.eval.harness.runner.ExperimentRunner` turns it into tidy
per-trial rows. The schema (see ``docs/experiments.md``)::

    [experiment]
    name = "ci-smoke"
    seed = 7
    repeats = 3
    baseline_engine = "baseline"
    engines = ["imgrn", "baseline"]

    [workload]
    kinds = ["containment", "topk", "similarity"]
    weights = ["uni"]
    gammas = [0.5]
    alphas = [0.5]
    k = 3
    edge_budget = 1
    n_q = 4
    num_queries = 3

    [[scale]]
    n_matrices = 16
    genes_range = [12, 18]

Validation is eager and total: an invalid config raises
:class:`~repro.errors.ValidationError` before any database is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ...core.spec import KINDS
from ...errors import ValidationError

__all__ = ["ExperimentConfig", "ScaleSpec", "load_config"]

#: Engine names a config may reference (mirrors the CLI's engine choices).
ENGINE_NAMES = ("imgrn", "baseline", "linear-scan", "measure-scan")

#: Database kinds: the synthetic Uni / Gau weights, and ``real`` -- the
#: organism sub-matrix set of Section 6.3 (``build_real_database``).
WEIGHTS = ("uni", "gau", "real")


@dataclass(frozen=True)
class ScaleSpec:
    """One database scale: matrix count plus the genes-per-matrix range."""

    n_matrices: int
    genes_range: tuple[int, int] = (20, 40)

    def __post_init__(self) -> None:
        if self.n_matrices < 1:
            raise ValidationError(
                f"n_matrices must be >= 1, got {self.n_matrices}"
            )
        lo, hi = self.genes_range
        if not (2 <= lo <= hi):
            raise ValidationError(
                f"genes_range must satisfy 2 <= lo <= hi, got {self.genes_range}"
            )

    @property
    def label(self) -> str:
        """Stable scale identifier used in rows, group keys and reports."""
        lo, hi = self.genes_range
        return f"N{self.n_matrices}g{lo}-{hi}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: the cross product the runner executes."""

    name: str
    engines: tuple[str, ...] = ("imgrn", "baseline")
    baseline_engine: str = "baseline"
    kinds: tuple[str, ...] = ("containment",)
    weights: tuple[str, ...] = ("uni",)
    scales: tuple[ScaleSpec, ...] = (ScaleSpec(16, (12, 18)),)
    gammas: tuple[float, ...] = (0.5,)
    alphas: tuple[float, ...] = (0.5,)
    k: int = 3
    edge_budget: int = 1
    n_q: int = 4
    num_queries: int = 3
    repeats: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("experiment name must be non-empty")
        if not self.engines:
            raise ValidationError("engines must be non-empty")
        for engine in (*self.engines, self.baseline_engine):
            if engine not in ENGINE_NAMES:
                raise ValidationError(
                    f"unknown engine {engine!r}; "
                    f"expected one of {', '.join(ENGINE_NAMES)}"
                )
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValidationError(
                    f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
                )
        for weight in self.weights:
            if weight not in WEIGHTS:
                raise ValidationError(
                    f"unknown weights {weight!r}; "
                    f"expected one of {', '.join(WEIGHTS)}"
                )
        if not self.scales:
            raise ValidationError("at least one [[scale]] is required")
        if "real" in self.weights and min(s.n_matrices for s in self.scales) < 3:
            raise ValidationError(
                "weights 'real' cuts matrices from three organisms: "
                "every scale needs n_matrices >= 3"
            )
        for value, name in (
            (self.repeats, "repeats"),
            (self.num_queries, "num_queries"),
            (self.n_q, "n_q"),
            (self.k, "k"),
        ):
            if int(value) < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        if self.edge_budget < 0:
            raise ValidationError(
                f"edge_budget must be >= 0, got {self.edge_budget}"
            )
        for gamma in self.gammas:
            if not 0.0 <= gamma < 1.0:
                raise ValidationError(f"gamma must be in [0,1), got {gamma}")
        for alpha in self.alphas:
            if not 0.0 <= alpha < 1.0:
                raise ValidationError(f"alpha must be in [0,1), got {alpha}")

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form, archived alongside every result set."""
        return {
            "name": self.name,
            "engines": list(self.engines),
            "baseline_engine": self.baseline_engine,
            "kinds": list(self.kinds),
            "weights": list(self.weights),
            "scales": [
                {"n_matrices": s.n_matrices, "genes_range": list(s.genes_range)}
                for s in self.scales
            ],
            "gammas": list(self.gammas),
            "alphas": list(self.alphas),
            "k": self.k,
            "edge_budget": self.edge_budget,
            "n_q": self.n_q,
            "num_queries": self.num_queries,
            "repeats": self.repeats,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ExperimentConfig":
        """Build from the nested TOML/JSON document shape."""
        if "experiment" in payload or "workload" in payload or "scale" in payload:
            experiment = dict(payload.get("experiment", {}))
            workload = dict(payload.get("workload", {}))
            scales = payload.get("scale", [])
        else:  # flat dict (the to_dict round-trip shape)
            experiment = dict(payload)
            workload = {}
            scales = experiment.pop("scales", [])
            for key in (
                "kinds",
                "weights",
                "gammas",
                "alphas",
                "k",
                "edge_budget",
                "n_q",
                "num_queries",
            ):
                if key in experiment:
                    workload[key] = experiment.pop(key)
        known = {
            "name",
            "engines",
            "baseline_engine",
            "repeats",
            "seed",
        }
        unknown = set(experiment) - known
        if unknown:
            raise ValidationError(
                f"unknown [experiment] keys: {', '.join(sorted(map(str, unknown)))}"
            )
        workload_known = {
            "kinds",
            "weights",
            "gammas",
            "alphas",
            "k",
            "edge_budget",
            "n_q",
            "num_queries",
        }
        workload_unknown = set(workload) - workload_known
        if workload_unknown:
            raise ValidationError(
                "unknown [workload] keys: "
                f"{', '.join(sorted(map(str, workload_unknown)))}"
            )
        kwargs: dict[str, object] = {}
        if "name" not in experiment:
            raise ValidationError("config is missing experiment.name")
        kwargs["name"] = str(experiment["name"])
        if "engines" in experiment:
            kwargs["engines"] = tuple(experiment["engines"])
        if "baseline_engine" in experiment:
            kwargs["baseline_engine"] = str(experiment["baseline_engine"])
        if "repeats" in experiment:
            kwargs["repeats"] = int(experiment["repeats"])
        if "seed" in experiment:
            kwargs["seed"] = int(experiment["seed"])
        for key in ("kinds", "weights", "gammas", "alphas"):
            if key in workload:
                kwargs[key] = tuple(workload[key])
        for key in ("k", "edge_budget", "n_q", "num_queries"):
            if key in workload:
                kwargs[key] = int(workload[key])
        if scales:
            kwargs["scales"] = tuple(
                ScaleSpec(
                    n_matrices=int(s["n_matrices"]),
                    genes_range=tuple(s.get("genes_range", (20, 40))),
                )
                for s in scales
            )
        return cls(**kwargs)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a ``.toml`` or ``.json`` experiment config file."""
    target = Path(path)
    if not target.is_file():
        raise ValidationError(f"no experiment config at {target}")
    text = target.read_text(encoding="utf-8")
    if target.suffix == ".toml":
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ValidationError(f"invalid TOML in {target}: {error}") from None
    elif target.suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"invalid JSON in {target}: {error}") from None
    else:
        raise ValidationError(
            f"unsupported config suffix {target.suffix!r} (use .toml or .json)"
        )
    return ExperimentConfig.from_dict(payload)
