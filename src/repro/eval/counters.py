"""Query-cost accounting: CPU time, I/O (page accesses), candidate counts.

These are exactly the three metrics the paper reports for every efficiency
figure (6 through 12): wall-clock CPU time of candidate retrieval, number of
page accesses during query answering, and the number of candidates remaining
after pruning.

Since the observability layer (:mod:`repro.obs`) landed, engines no longer
hand-thread these fields: every stage records into the query's
:class:`~repro.obs.QueryMeter`, and a :class:`QueryStats` is built from
the meter's tagged slots when it is folded into the engine's registry
(:meth:`QueryStats.from_series`); it equals :meth:`QueryStats.from_metrics`
of the query's delta -- one source of truth for the per-query stats
object, the Prometheus/JSON exports and the benchmark figures.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from ..obs import names as _names
from ..obs import parse_key

__all__ = ["QueryStats", "Stopwatch", "aggregate_stats"]

#: QueryStats count field fed by each counter, by series name.
_COUNT_FIELDS = {
    _names.QUERY_IO: "io_accesses",
    _names.QUERY_CANDIDATES: "candidates",
    _names.QUERY_ANSWERS: "answers",
    _names.QUERY_PRUNED: "pruned_pairs",
}

#: QueryStats seconds field fed by each stage of ``query.stage_seconds``.
_STAGE_FIELDS = {
    _names.STAGE_RETRIEVE: "cpu_seconds",
    _names.STAGE_REFINE: "refine_seconds",
    _names.STAGE_INFERENCE: "inference_seconds",
}


@dataclass
class QueryStats:
    """Cost metrics of one query execution.

    Attributes
    ----------
    cpu_seconds:
        Wall-clock time of retrieving candidates (index traversal +
        pruning), per the paper's "CPU time" definition.
    refine_seconds:
        Additional time spent refining candidates into final answers.
    inference_seconds:
        Time spent inferring edge probabilities (query-graph inference);
        a sub-measure of ``cpu_seconds``, recorded separately so the
        batched-inference speedup is observable per query.
    io_accesses:
        Number of page accesses (tree nodes read, plus simulated data
        pages for the baseline's pre-computed probabilities).
    candidates:
        Candidate gene pairs remaining after all pruning.
    answers:
        Final IM-GRN answers returned.
    pruned_pairs:
        Node/gene pairs discarded by the pruning stack (diagnostics).
    """

    cpu_seconds: float = 0.0
    refine_seconds: float = 0.0
    inference_seconds: float = 0.0
    io_accesses: int = 0
    candidates: int = 0
    answers: int = 0
    pruned_pairs: int = 0

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.refine_seconds

    @classmethod
    def from_metrics(cls, delta: Mapping[str, float]) -> "QueryStats":
        """Build one query's stats from a registry delta.

        ``delta`` is what :meth:`repro.obs.MetricsRegistry.since` returns
        for the scope of the query; series are matched by canonical name
        (:mod:`repro.obs.names`) regardless of their ``engine`` label, and
        ``pruned_pairs`` sums over every pruning-stage label.
        """
        stats = cls()
        for key, value in delta.items():
            name, labels, suffix = parse_key(key)
            if name in _COUNT_FIELDS:
                stats._add(_COUNT_FIELDS[name], value)
            elif name == _names.STAGE_SECONDS and suffix == "_sum":
                for stage, field_name in _STAGE_FIELDS.items():
                    if f'stage="{stage}"' in labels:
                        stats._add(field_name, value)
                        break
        return stats

    @classmethod
    def from_series(cls, tagged: Iterable[tuple[str, float]]) -> "QueryStats":
        """Build one query's stats from the ``(field, value)`` pairs that
        :meth:`repro.obs.SeriesTable.fold` returns for series tagged by
        :meth:`field_of`; equals :meth:`from_metrics` of the fold's delta.
        """
        stats = cls()
        for field_name, value in tagged:
            stats._add(field_name, value)
        return stats

    @staticmethod
    def field_of(series) -> str | None:
        """The field a per-query series feeds (``None`` for none): the
        counters by name, the stage-seconds histogram by its ``stage``."""
        if series.kind == "counter":
            return _COUNT_FIELDS.get(series.name)
        if series.kind == "histogram" and series.name == _names.STAGE_SECONDS:
            return _STAGE_FIELDS.get(series.labels.get("stage"))
        return None

    def _add(self, field_name: str, value: float) -> None:
        """Add ``value`` to a field, truncated to ``int`` for the counts."""
        current = getattr(self, field_name)
        setattr(self, field_name, current + type(current)(value))


@dataclass
class Stopwatch:
    """Minimal perf_counter stopwatch (accumulates across start/stop pairs)."""

    elapsed: float = 0.0
    _started: float | None = field(default=None, repr=False)

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("stopwatch was not started")
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def aggregate_stats(stats: list[QueryStats]) -> dict[str, float]:
    """Mean metrics over a query workload (what each figure's point plots)."""
    if not stats:
        return {
            "cpu_seconds": 0.0,
            "refine_seconds": 0.0,
            "inference_seconds": 0.0,
            "io_accesses": 0.0,
            "candidates": 0.0,
            "answers": 0.0,
            "pruned_pairs": 0.0,
        }
    count = len(stats)
    return {
        "cpu_seconds": sum(s.cpu_seconds for s in stats) / count,
        "refine_seconds": sum(s.refine_seconds for s in stats) / count,
        "inference_seconds": sum(s.inference_seconds for s in stats) / count,
        "io_accesses": sum(s.io_accesses for s in stats) / count,
        "candidates": sum(s.candidates for s in stats) / count,
        "answers": sum(s.answers for s in stats) / count,
        "pruned_pairs": sum(s.pruned_pairs for s in stats) / count,
    }
