"""End-to-end observability: tracing spans, metrics registry, exporters.

The subsystem the whole cost story of the paper reports through:

* :mod:`repro.obs.tracing` -- nested context-manager spans recording
  wall/CPU time and attributes, with a free no-op default;
* :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges and fixed-bucket histograms that supersedes the hand-threaded
  ``QueryStats`` field writes (stats are now *snapshots* of the
  registry);
* :mod:`repro.obs.exporters` -- JSON, Prometheus text format and Chrome
  ``trace_event`` dumps (``imgrn query --trace-out`` / ``imgrn stats``);
* :mod:`repro.obs.names` -- the canonical metric/span taxonomy.

Engines hold an :class:`Observability` bundle built from their
:class:`repro.config.ObservabilityConfig`; with the default config the
tracer is a no-op and metrics land in the process-global registry.
"""

from __future__ import annotations

from . import names
from .exporters import (
    chrome_trace,
    metrics_to_json,
    metrics_to_prometheus,
    registry_from_json,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    CounterHandle,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryMeter,
    SeriesTable,
    get_registry,
    metric_key,
    parse_key,
)
from .tracing import NOOP_SPAN, NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "names",
    "Observability",
    # tracing
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_SPAN",
    "NOOP_TRACER",
    # metrics
    "Counter",
    "CounterHandle",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryMeter",
    "SeriesTable",
    "DEFAULT_BUCKETS",
    "get_registry",
    "metric_key",
    "parse_key",
    # exporters
    "metrics_to_json",
    "metrics_to_prometheus",
    "registry_from_json",
    "chrome_trace",
    "write_chrome_trace",
]


class Observability:
    """One engine's tracer + metrics registry, bundled.

    Built from an :class:`repro.config.ObservabilityConfig`; the default
    configuration yields a no-op tracer (hot paths pay ~nothing) and the
    process-global registry.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: "Tracer | NoopTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics if metrics is not None else get_registry()

    @classmethod
    def from_config(cls, config: object | None) -> "Observability":
        """Build the bundle an :class:`repro.config.ObservabilityConfig` asks for.

        ``config`` is duck-typed (``tracing`` / ``shared_registry`` /
        ``trace_capacity`` attributes) so this module never imports
        :mod:`repro.config`; ``None`` yields the all-defaults bundle.
        """
        if config is None:
            return cls()
        tracer: Tracer | NoopTracer
        if getattr(config, "tracing", False):
            tracer = Tracer(capacity=getattr(config, "trace_capacity", 1_000_000))
        else:
            tracer = NOOP_TRACER
        if getattr(config, "shared_registry", True):
            metrics = get_registry()
        else:
            metrics = MetricsRegistry()
        return cls(tracer, metrics)

    @classmethod
    def disabled(cls) -> "Observability":
        """A private, no-op-traced bundle (default for standalone helpers)."""
        return cls(NOOP_TRACER, MetricsRegistry())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observability(tracing={self.tracer.enabled}, "
            f"metrics={len(self.metrics)} series)"
        )
