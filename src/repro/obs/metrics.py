"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency, Prometheus-shaped instrumentation primitives. A
:class:`MetricsRegistry` owns a flat namespace of metrics keyed by
``(name, labels)``; callers get-or-create a series once and then
update plain Python attributes on the hot path -- an update is one
float add, no locking, no dict lookups.

Three consumption styles are supported:

* **cumulative** (Prometheus style): :meth:`MetricsRegistry.collect`
  and the exporters in :mod:`repro.obs.exporters` render the running
  totals of the whole process / engine lifetime;
* **scoped deltas**: :meth:`MetricsRegistry.mark` snapshots the
  monotonic state and :meth:`MetricsRegistry.since` returns what changed
  -- correct only when nothing else touches the registry in between;
* **per-query meters**: an engine resolves its per-query series once,
  in a :class:`SeriesTable` that maps each ``(kind, name, labels)`` to
  a slot and remembers the slot's snapshot keys and shared-registry
  handle. A query counts into a :class:`QueryMeter` (the registry's
  ``counter(...)`` / ``histogram(...)`` surface over a flat slot list,
  one thread owns it, no locking), and :meth:`SeriesTable.fold` adds it
  into the shared registry under one lock acquisition while building
  the query's delta -- exactly the snapshot a private registry would
  have had, exact even when many queries run concurrently. This is how
  :class:`repro.eval.counters.QueryStats` is produced.

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
    "CounterHandle",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryMeter",
    "SeriesTable",
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
        # Reentrant: SeriesTable.fold holds the lock across get-or-create
        # calls.
        self._lock = threading.RLock()
        # Bumped by reset(), so a SeriesTable knows its handles are stale.
        self._generation = 0

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

    def reset(self) -> None:
        """Drop every registered series (tests / process recycling)."""
        with self._lock:
            self._metrics.clear()
            self._generation += 1


class CounterHandle:
    """A long-lived holder's counter on a registry, kept across resets.

    For engine-lifetime series a component increments directly, outside
    any per-query meter. Holding the :class:`Counter` itself would keep
    counting into a detached object after :meth:`MetricsRegistry.reset`;
    the handle fetches the series again when the registry's generation
    changed, as :class:`SeriesTable` does. The series is registered at
    construction, so it shows (at zero) before its first increment.
    """

    __slots__ = ("_registry", "_name", "_help", "_counter", "_generation")

    def __init__(self, registry: MetricsRegistry, name: str, help: str = "") -> None:
        self._registry = registry
        self._name = name
        self._help = help
        self._resolve(registry._generation)

    def _resolve(self, generation: int) -> None:
        # The generation is read before the fetch, and stored after it: a
        # reset in between leaves a stale generation, so the next inc()
        # fetches again, and a matching generation implies a fresh counter.
        self._counter = self._registry.counter(self._name, help=self._help)
        self._generation = generation

    def inc(self, amount: float = 1.0) -> None:
        generation = self._registry._generation
        if generation != self._generation:
            self._resolve(generation)
        self._counter.inc(amount)


class SeriesTable:
    """One engine's per-query series, resolved once.

    Maps each ``(kind, name, labels)`` a query records under to a slot
    of a :class:`QueryMeter`, and keeps what folding a slot needs: a
    prototype series (kind, sorted labels, help, buckets), the snapshot
    key strings, an optional tag and the shared registry's handle.
    Slots are added lazily under the table's lock; a handle is fetched
    with the registry's get-or-create the first time its slot is folded,
    and again after :meth:`MetricsRegistry.reset`. ``tag(series)`` names
    what a slot feeds in the caller's own accounting (see :meth:`fold`),
    or returns ``None``.
    """

    def __init__(self, registry: MetricsRegistry, tag=None) -> None:
        self._registry = registry
        self._tag = tag
        self._lock = threading.Lock()
        # (kind, name, *label items) as a call site passes them -> slot;
        # published last, so a reader that finds a slot finds its columns.
        self._slots: dict[tuple, int] = {}
        self._slot_of_key: dict[str, int] = {}
        self._series: list[_Metric] = []
        self._keys: list[tuple[str, ...]] = []
        self._tags: list[object] = []
        self._handles: list[_Metric | None] = []
        self._order: tuple[int, ...] = ()  # slots by series key
        self._generation = registry._generation

    def meter(self) -> "QueryMeter":
        """A fresh meter for one query."""
        return QueryMeter(self)

    def _resolve(
        self,
        lookup: tuple,
        cls: type[_Metric],
        name: str,
        help: str,
        labels: dict,
        **extra,
    ) -> int:
        """The slot of a series, added on its first call (see
        :meth:`QueryMeter.counter`)."""
        with self._lock:
            slot = self._slots.get(lookup)
            if slot is not None:
                return slot
            _check_name(name)
            key = metric_key(name, labels)
            slot = self._slot_of_key.get(key)
            if slot is None:
                series = cls(name, labels, help=help, **extra)
                slot = len(self._series)
                if isinstance(series, Histogram):
                    keys = (
                        metric_key(name, labels, "_sum"),
                        metric_key(name, labels, "_count"),
                    )
                else:
                    keys = (key,)
                self._series.append(series)
                self._keys.append(keys)
                self._tags.append(self._tag(series) if self._tag else None)
                self._handles.append(None)
                self._slot_of_key[key] = slot
                self._order = tuple(
                    s for _key, s in sorted(self._slot_of_key.items())
                )
            elif not isinstance(self._series[slot], cls):
                raise ValidationError(
                    f"metric {key} already registered as "
                    f"{self._series[slot].kind}"
                )
            self._slots[lookup] = slot
            return slot

    def _register(self, slot: int) -> _Metric:
        """The shared registry's series for ``slot`` (get-or-create)."""
        series = self._series[slot]
        if isinstance(series, Histogram):
            handle = self._registry.histogram(
                series.name,
                help=series.help,
                buckets=series.buckets,
                **series.labels,
            )
            if handle.buckets != series.buckets:
                raise ValidationError(
                    f"histogram {series.key} bucket mismatch on fold"
                )
            return handle
        return self._registry.counter(
            series.name, help=series.help, **series.labels
        )

    def fold(
        self, meter: "QueryMeter"
    ) -> tuple[dict[str, float], list[tuple[object, float]]]:
        """Add ``meter`` into the shared registry under one lock acquisition.

        Counters add their totals and histograms their observations.
        Returns the query's delta -- ``{snapshot key: value}`` for every
        series the query touched (zero counts included), in series-key
        order with ``_sum`` before ``_count``: the
        :meth:`~MetricsRegistry.snapshot` a private registry would have
        taken -- and ``(tag, value)`` per touched tagged slot in the
        same order (a counter's total, a histogram's sum).
        """
        values = meter._values
        touched = len(values)
        delta: dict[str, float] = {}
        tagged: list[tuple[object, float]] = []
        registry = self._registry
        with registry._lock:
            if self._generation != registry._generation:
                with self._lock:
                    self._handles = [None] * len(self._series)
                    self._generation = registry._generation
            handles = self._handles
            for slot in self._order:
                value = values[slot] if slot < touched else None
                if value is None:
                    continue
                handle = handles[slot]
                if handle is None:
                    handle = handles[slot] = self._register(slot)
                keys = self._keys[slot]
                if isinstance(value, list):
                    total = 0.0
                    counts, buckets = handle.counts, handle.buckets
                    for observed in value:
                        counts[bisect.bisect_left(buckets, observed)] += 1
                        total += observed
                    handle.sum += total
                    handle.count += len(value)
                    delta[keys[0]] = total
                    delta[keys[1]] = _shared_float(len(value))
                else:
                    handle.value += value
                    delta[keys[0]] = total = _shared_float(value)
                tag = self._tags[slot]
                if tag is not None:
                    tagged.append((tag, total))
        return delta, tagged


class QueryMeter:
    """One query's counts, in the flat slots of a :class:`SeriesTable`.

    Offers the registry's ``counter(...)`` / ``histogram(...)`` calls. A
    counter slot holds its running total, a histogram slot the values it
    observed, and ``None`` marks a slot the query never touched. One
    thread owns a meter: nothing here locks.
    """

    __slots__ = ("_table", "_values")

    def __init__(self, table: SeriesTable) -> None:
        self._table = table
        self._values: list = [None] * len(table._series)

    def _touch(self, slot: int, empty):
        values = self._values
        if slot >= len(values):
            values.extend([None] * (slot + 1 - len(values)))
        value = values[slot]
        if value is None:
            value = values[slot] = empty
        return value

    def counter(self, name: str, help: str = "", **labels: str) -> "_SlotCounter":
        lookup = (Counter, name, *labels.items())
        table = self._table
        slot = table._slots.get(lookup)
        if slot is None:
            slot = table._resolve(lookup, Counter, name, help, labels)
        self._touch(slot, 0.0)
        return _SlotCounter(self._values, slot, name)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> "_SlotHistogram":
        lookup = (Histogram, name, *labels.items())
        table = self._table
        slot = table._slots.get(lookup)
        if slot is None:
            slot = table._resolve(
                lookup, Histogram, name, help, labels, buckets=buckets
            )
        return _SlotHistogram(self._touch(slot, []))


class _SlotCounter:
    """:meth:`Counter.inc` into one meter slot."""

    __slots__ = ("_values", "_slot", "_name")

    def __init__(self, values: list, slot: int, name: str) -> None:
        self._values = values
        self._slot = slot
        self._name = name

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter {self._name} cannot decrease (inc {amount})"
            )
        self._values[self._slot] += amount


class _SlotHistogram:
    """:meth:`Histogram.observe` into one meter slot's value list."""

    __slots__ = ("observe",)

    def __init__(self, observed: list) -> None:
        self.observe = observed.append


#: The process-wide default registry (what ``imgrn stats`` renders).
GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return GLOBAL_REGISTRY
