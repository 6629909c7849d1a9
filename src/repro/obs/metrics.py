"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency, Prometheus-shaped instrumentation primitives. A
:class:`MetricsRegistry` owns a flat namespace of metrics keyed by
``(name, labels)``; engines get-or-create their series once per query
(or once per engine) and then update plain Python attributes on the hot
path -- an update is one float add, no locking, no dict lookups.

Two consumption styles are supported:

* **cumulative** (Prometheus style): :meth:`MetricsRegistry.collect`
  and the exporters in :mod:`repro.obs.exporters` render the running
  totals of the whole process / engine lifetime;
* **scoped deltas**: :meth:`MetricsRegistry.mark` snapshots the
  monotonic state and :meth:`MetricsRegistry.since` returns what changed
  -- correct only when nothing else touches the registry in between;
* **per-query registries**: a query creates a private
  :class:`MetricsRegistry`, records into it without any locking (one
  thread owns it), and the engine folds it into the shared registry at
  the end with :meth:`MetricsRegistry.merge`. The private registry's
  :meth:`~MetricsRegistry.snapshot` *is* the query's delta, exact even
  when many queries run concurrently -- this is how
  :class:`repro.eval.counters.QueryStats` is produced since the
  concurrent query-serving layer landed.

The process-global default registry is reachable via :func:`get_registry`;
engines use it unless their :class:`repro.config.ObservabilityConfig`
asks for a private one.
"""

from __future__ import annotations

import bisect
import functools
import threading
from collections.abc import Mapping

from ..errors import ValidationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
    "parse_key",
]

#: Default latency buckets (seconds): sub-millisecond to tens of seconds.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def metric_key(
    name: str, labels: Mapping[str, str] | None = None, suffix: str = ""
) -> str:
    """Flat snapshot key: ``name{k="v",...}suffix`` (labels sorted).

    Keys are memoized, so every snapshot of a series shares one string
    object instead of building (and retaining) a fresh one per query.
    """
    items = tuple((k, str(labels[k])) for k in sorted(labels)) if labels else ()
    return _interned_key(name, items, suffix)


@functools.lru_cache(maxsize=4096)
def _interned_key(name: str, items: tuple[tuple[str, str], ...], suffix: str) -> str:
    if items:
        inner = ",".join(f'{k}="{v}"' for k, v in items)
        return f"{name}{{{inner}}}{suffix}"
    return f"{name}{suffix}"


#: Shared float objects for the whole numbers ``0 .. 1023``: most snapshot
#: values are such counts, and a caller that keeps one snapshot per query
#: would otherwise keep a private copy of each.
_WHOLE_FLOATS = tuple(float(i) for i in range(1024))


def _shared_float(value: float) -> float:
    """``float(value)``, as a shared object when it is a small whole number."""
    if 0 <= value < len(_WHOLE_FLOATS) and value == int(value):
        return _WHOLE_FLOATS[int(value)]
    return float(value)


def parse_key(key: str) -> tuple[str, str, str]:
    """Split a snapshot key into ``(name, labels_text, suffix)``.

    The inverse of :func:`metric_key` for labelled keys; unlabelled keys
    cannot carry a suffix (the registry always labels its histograms),
    so they parse as ``(key, "", "")``.
    """
    if "{" not in key:
        return key, "", ""
    name, _, rest = key.partition("{")
    labels, _, suffix = rest.rpartition("}")
    return name, labels, suffix


def _check_name(name: str) -> None:
    if not name or any(c in name for c in '{}" =,\n'):
        raise ValidationError(f"invalid metric name {name!r}")


class _Metric:
    """Shared identity of one series: name, sorted labels, help text."""

    __slots__ = ("name", "labels", "help")
    kind = "untyped"

    def __init__(self, name: str, labels: Mapping[str, str], help: str = ""):
        self.name = name
        self.labels = {k: str(labels[k]) for k in sorted(labels)}
        self.help = help

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class Counter(_Metric):
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge(_Metric):
    """Point-in-time value that may go up or down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(_Metric):
    """Fixed-boundary histogram with a running sum and count.

    ``buckets`` are upper bounds (ascending); an implicit ``+Inf`` bucket
    catches the tail, exactly like Prometheus histograms.
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValidationError(
                f"histogram buckets must be ascending and non-empty: {buckets}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style cumulative bucket counts (ending at +Inf)."""
        out: list[int] = []
        total = 0
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        The same linear-within-bucket interpolation Prometheus's
        ``histogram_quantile`` applies: find the bucket where the
        cumulative count crosses ``q * count`` and interpolate between
        its bounds (the first bucket interpolates from 0). Observations
        in the ``+Inf`` bucket clamp to the highest finite bound. Raises
        :class:`~repro.errors.ValidationError` for ``q`` outside [0, 1];
        returns ``nan`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        total = 0
        for index, bucket_count in enumerate(self.counts):
            total += bucket_count
            if total >= rank and bucket_count:
                if index >= len(self.buckets):  # +Inf bucket: clamp
                    return self.buckets[-1]
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index else 0.0
                within = (rank - (total - bucket_count)) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, within))
        return self.buckets[-1]


class MetricsRegistry:
    """Get-or-create home of all metric series of one process or engine."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        # Reentrant: merge() holds the lock across get-or-create calls.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------
    def _get_or_create(
        self, cls: type[_Metric], name: str, help: str, labels: dict, **extra
    ) -> _Metric:
        _check_name(name)
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, labels, help=help, **extra)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise ValidationError(
                f"metric {key} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Snapshots and deltas
    # ------------------------------------------------------------------
    def collect(self) -> list[_Metric]:
        """All metrics, sorted by key (stable export order)."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict[str, float]:
        """Flat ``{key: value}`` view of the current state.

        Counters and gauges appear under their plain key; histograms
        contribute ``<key>_sum`` and ``<key>_count`` entries.
        """
        out: dict[str, float] = {}
        for metric in self.collect():
            if isinstance(metric, Histogram):
                out[metric_key(metric.name, metric.labels, "_sum")] = metric.sum
                out[metric_key(metric.name, metric.labels, "_count")] = (
                    _shared_float(metric.count)
                )
            else:
                out[metric.key] = _shared_float(metric.value)  # type: ignore[attr-defined]
        return out

    def mark(self) -> dict[str, float]:
        """Snapshot to later diff against with :meth:`since`."""
        return self.snapshot()

    def since(self, mark: Mapping[str, float]) -> dict[str, float]:
        """What changed since ``mark``: current values minus the baseline.

        Counters and histogram sums/counts are monotonic, so the delta is
        exactly the activity of the marked scope even on a registry shared
        by many engines. Gauges report their *current* value (a gauge has
        no meaningful delta).
        """
        out: dict[str, float] = {}
        for key, value in self.snapshot().items():
            if isinstance(self._metrics.get(key), Gauge):
                out[key] = value
            else:
                out[key] = value - mark.get(key, 0.0)
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one (thread-safe).

        The backbone of the reentrant query path: each query records into
        a private registry (no locks, single owner) and merges it into the
        shared registry once, here, under one lock acquisition. Counters
        and histograms accumulate; gauges take the other registry's
        current value. Histograms must agree on bucket boundaries.
        """
        with self._lock:
            for metric in other.collect():
                if isinstance(metric, Counter):
                    self.counter(
                        metric.name, help=metric.help, **metric.labels
                    ).value += metric.value
                elif isinstance(metric, Gauge):
                    self.gauge(
                        metric.name, help=metric.help, **metric.labels
                    ).set(metric.value)
                elif isinstance(metric, Histogram):
                    mine = self.histogram(
                        metric.name,
                        help=metric.help,
                        buckets=metric.buckets,
                        **metric.labels,
                    )
                    if mine.buckets != metric.buckets:
                        raise ValidationError(
                            f"histogram {metric.key} bucket mismatch on merge"
                        )
                    for i, count in enumerate(metric.counts):
                        mine.counts[i] += count
                    mine.sum += metric.sum
                    mine.count += metric.count

    def reset(self) -> None:
        """Drop every registered series (tests / process recycling)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide default registry (what ``imgrn stats`` renders).
GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return GLOBAL_REGISTRY
