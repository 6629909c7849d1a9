"""Experiment harness: declarative runs, tidy results, trajectory gating.

The layer every perf PR is judged by (ROADMAP item 5), modeled on
fuzzbench's lazy-property ``ExperimentResults`` over an experiment
dataframe:

* :mod:`repro.eval.harness.config` -- declarative TOML/JSON experiment
  specs naming engines x workload kinds x scales x repeats x seeds;
* :mod:`repro.eval.harness.runner` -- :class:`ExperimentRunner` resolves
  a config into trials, executes them through ``QueryEngine.execute``
  and the existing :mod:`repro.obs` counters, and appends one tidy row
  per trial; every figure sweep of the CLI and the benches runs here;
* :mod:`repro.eval.harness.results` -- :class:`ExperimentResults` with
  lazily computed, cached-exactly-once properties (medians, speedup
  matrices vs a named baseline engine, bootstrap CIs, Mann-Whitney U
  p-values), pandas-backed when pandas is importable and falling back
  to the zero-dependency :class:`~repro.eval.harness.frame.TidyFrame`
  otherwise;
* :mod:`repro.eval.harness.report` -- the paper-style figure tables
  (per-query means of runner rows) and the markdown + HTML reports;
* :mod:`repro.eval.harness.trajectory` -- the stable ``BENCH_*.json``
  schema, per-PR archive helpers and the statistical
  ``compare-trajectory`` gate grown into
  ``benchmarks/check_regression.py``.

The CLI surface is ``imgrn experiment run | report | compare | archive``.
"""

from .config import ExperimentConfig, ScaleSpec, load_config
from .frame import TidyFrame
from .results import ExperimentResults, lazy_property
from .runner import ENGINE_REGISTRY, ExperimentRunner
from .stats import bootstrap_ci, mann_whitney_u

__all__ = [
    "ENGINE_REGISTRY",
    "ExperimentConfig",
    "ExperimentResults",
    "ExperimentRunner",
    "ScaleSpec",
    "TidyFrame",
    "bootstrap_ci",
    "lazy_property",
    "load_config",
    "mann_whitney_u",
]
