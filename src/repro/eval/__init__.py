"""Evaluation substrate: ROC curves, cost counters, the experiment harness.

Every query sweep of the paper's Section 6 runs on
:class:`repro.eval.harness.ExperimentRunner`; :mod:`repro.eval.roc` holds
the inference-accuracy drivers (Figs. 5, 14, 15). The harness is *not*
re-exported here: it imports the query engines, which themselves use the
cost counters from this package, so an eager re-export would be circular.
Import it explicitly::

    from repro.eval.harness import ExperimentConfig, ExperimentRunner
"""

from .counters import QueryStats, Stopwatch, aggregate_stats
from .roc import ROCCurve, ROCPoint, roc_curve_from_scores

__all__ = [
    "QueryStats",
    "Stopwatch",
    "aggregate_stats",
    "ROCCurve",
    "ROCPoint",
    "roc_curve_from_scores",
]
