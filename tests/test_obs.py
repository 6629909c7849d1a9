"""Unit tests of the observability layer (`repro.obs`).

Covers span nesting/attributes, the no-op fast path and its overhead
budget, the metrics registry (get-or-create, labels, histograms,
mark/since deltas), and all three exporters -- with a golden test
pinning the Prometheus text format.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ValidationError
from repro.obs import (
    DEFAULT_BUCKETS,
    NOOP_SPAN,
    NOOP_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
    chrome_trace,
    metric_key,
    metrics_to_json,
    metrics_to_prometheus,
    parse_key,
    registry_from_json,
    write_chrome_trace,
)
from repro.obs import names


class TestSpans:
    def test_nesting_depth_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer", engine="imgrn"):
            time.sleep(0.001)
            with tracer.span("inner") as inner:
                inner.set(candidates=3)
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.depth == 1 and outer.depth == 0
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.wall_seconds >= 0.001
        assert outer.attrs == {"engine": "imgrn"}
        assert inner.attrs == {"candidates": 3}

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.spans) == 1
        assert not tracer._stack

    def test_capacity_drops_and_reset(self):
        tracer = Tracer(capacity=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2 and tracer.dropped == 2
        tracer.reset()
        assert tracer.spans == [] and tracer.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            Tracer(capacity=0)

    def test_noop_tracer_records_nothing(self):
        span = NOOP_TRACER.span("anything", attr=1)
        assert span is NOOP_SPAN
        with span as entered:
            assert entered.set(more=2) is span
        assert NOOP_TRACER.chrome_trace_events() == []
        assert not NOOP_TRACER.enabled


class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("c", engine="imgrn")
        b = registry.counter("c", engine="imgrn")
        assert a is b
        a.inc()
        b.inc(2.5)
        assert a.value == 3.5

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("c").inc(-1)

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("c", engine="imgrn").inc()
        registry.counter("c", engine="baseline").inc(5)
        snap = registry.snapshot()
        assert snap['c{engine="imgrn"}'] == 1
        assert snap['c{engine="baseline"}'] == 5

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValidationError):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter('bad{name"')

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(-3)
        assert registry.snapshot()["g"] == 7.0

    def test_histogram_buckets_and_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0), stage="refine")
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.cumulative_counts() == [1, 2, 3]
        snap = registry.snapshot()
        assert snap['h{stage="refine"}_sum'] == pytest.approx(5.55)
        assert snap['h{stage="refine"}_count'] == 3

    def test_bad_histogram_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.histogram("h", buckets=(1.0, 0.5))

    def test_mark_since_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h", stage="x")
        counter.inc(10)
        gauge.set(100)
        hist.observe(1.0)
        mark = registry.mark()
        counter.inc(5)
        gauge.set(42)
        hist.observe(2.0)
        delta = registry.since(mark)
        assert delta["c"] == 5.0
        assert delta["g"] == 42.0  # gauges report current value, not delta
        assert delta['h{stage="x"}_sum'] == pytest.approx(2.0)
        assert delta['h{stage="x"}_count'] == 1.0

    def test_metric_key_round_trip(self):
        key = metric_key("q.s", {"stage": "refine", "engine": "imgrn"}, "_sum")
        assert key == 'q.s{engine="imgrn",stage="refine"}_sum'
        name, labels, suffix = parse_key(key)
        assert name == "q.s"
        assert labels == 'engine="imgrn",stage="refine"'
        assert suffix == "_sum"
        assert parse_key("plain") == ("plain", "", "")

    def test_snapshots_share_keys_and_small_counts(self):
        # A caller keeping one snapshot per query keeps one copy of each
        # key and of each small whole-number value, not one per query.
        snapshots = []
        for _ in range(2):
            registry = MetricsRegistry()
            registry.counter("q.count", kind="topk").inc(3)
            registry.gauge("g").set(-0.5)
            registry.histogram("q.s", stage="x").observe(0.25)
            snapshots.append(registry.snapshot())
        first, second = snapshots
        assert first == second
        assert first['q.count{kind="topk"}'] == 3.0
        for (key_a, value_a), (key_b, value_b) in zip(
            first.items(), second.items()
        ):
            assert key_a is key_b
            if value_a in (1.0, 3.0):
                assert value_a is value_b

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestExporters:
    @staticmethod
    def _sample_registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("query.io_accesses", help="pages read", engine="imgrn").inc(5)
        registry.gauge("cache.entries", help="entries").set(2)
        hist = registry.histogram(
            "query.stage_seconds",
            help="stage seconds",
            buckets=(0.1, 1.0),
            engine="imgrn",
            stage="refine",
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_prometheus_golden(self):
        text = metrics_to_prometheus(self._sample_registry())
        assert text == (
            "# HELP imgrn_cache_entries entries\n"
            "# TYPE imgrn_cache_entries gauge\n"
            "imgrn_cache_entries 2\n"
            "# HELP imgrn_query_io_accesses_total pages read\n"
            "# TYPE imgrn_query_io_accesses_total counter\n"
            'imgrn_query_io_accesses_total{engine="imgrn"} 5\n'
            "# HELP imgrn_query_stage_seconds stage seconds\n"
            "# TYPE imgrn_query_stage_seconds histogram\n"
            'imgrn_query_stage_seconds_bucket{engine="imgrn",stage="refine",le="0.1"} 1\n'
            'imgrn_query_stage_seconds_bucket{engine="imgrn",stage="refine",le="1"} 2\n'
            'imgrn_query_stage_seconds_bucket{engine="imgrn",stage="refine",le="+Inf"} 3\n'
            'imgrn_query_stage_seconds_sum{engine="imgrn",stage="refine"} 5.55\n'
            'imgrn_query_stage_seconds_count{engine="imgrn",stage="refine"} 3\n'
        )

    def test_json_round_trip(self):
        registry = self._sample_registry()
        restored = registry_from_json(metrics_to_json(registry))
        assert restored.snapshot() == registry.snapshot()
        assert metrics_to_prometheus(restored) == metrics_to_prometheus(registry)

    def test_registry_from_json_rejects_garbage(self):
        with pytest.raises(ValidationError):
            registry_from_json("[1, 2, 3]")
        with pytest.raises(ValidationError):
            registry_from_json('{"version": 1, "metrics": [{"name": "x", "type": "nope"}]}')

    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query", engine="imgrn", gamma=0.5):
            with tracer.span("query.refine"):
                pass
        document = chrome_trace(tracer)
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["query", "query.refine"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
        assert events[0]["args"]["engine"] == "imgrn"
        assert events[1]["args"]["depth"] == 1
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert reloaded["otherData"]["dropped_spans"] == 0
        assert len(reloaded["traceEvents"]) == 2


class TestObservabilityBundle:
    def test_disabled_bundle_is_noop(self):
        obs = Observability.disabled()
        assert obs.tracer is NOOP_TRACER
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_names_are_valid_metric_names(self):
        registry = MetricsRegistry()
        for constant in names.__all__:
            value = getattr(names, constant)
            if constant.startswith("STAGE_") and constant != "STAGE_SECONDS":
                continue  # label values, not metric names
            registry.counter(value + ".probe")  # must not raise

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


@pytest.mark.microbench
def test_noop_tracer_overhead():
    """Instrumenting a span site with the no-op tracer costs < 5 %.

    The engine span sites wrap non-trivial chunks of work; here the
    per-entry cost of a no-op span is compared against a deliberately
    *small* representative chunk. Best-of-repeats on both sides keeps
    the comparison stable under scheduler noise.
    """
    import timeit

    span_seconds = min(
        timeit.repeat(
            "\nwith tracer.span('hot'):\n    pass\n",
            globals={"tracer": NOOP_TRACER},
            repeat=5,
            number=50_000,
        )
    ) / 50_000
    work_seconds = min(
        timeit.repeat("sum(range(3000))", repeat=5, number=2_000)
    ) / 2_000
    overhead = span_seconds / work_seconds
    assert overhead < 0.05, (
        f"no-op span costs {span_seconds * 1e9:.0f} ns = {overhead:.1%} of a "
        f"{work_seconds * 1e6:.0f} us work chunk (budget: 5%)"
    )
