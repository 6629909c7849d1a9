"""Per-query accounting: series tables, query meters and their fold.

Under test: a meter folded into a registry yields exactly the snapshot
a private registry fed the same calls would take (keys, order, values,
touched-but-zero series) and leaves the shared registry as if every
call had gone to it; a warm ``execute()`` on every engine makes no
registry get-or-create call and builds no registry; a table notices
``reset()`` of the registry it folds into.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaselineEngine,
    EngineConfig,
    IMGRNEngine,
    LinearScanEngine,
    MeasureScanEngine,
    ObservabilityConfig,
    QuerySpec,
)
from repro.errors import ValidationError
from repro.eval.counters import QueryStats
from repro.obs import MetricsRegistry, SeriesTable, metric_key, metrics_to_json
from repro.obs import metrics as metrics_module
from repro.obs import names as _names

CONFIG = EngineConfig(
    mc_samples=64, seed=11, observability=ObservabilityConfig(shared_registry=False)
)

#: Dyadic observations: their sums are exact in any order, so the
#: shared registry's histogram sums compare exactly.
OBSERVED = (0.0, 0.000244140625, 0.25, 1.5, 20.0)

_labels = st.dictionaries(
    st.sampled_from(("engine", "stage")), st.sampled_from(("a", "b")), max_size=2
)
_op = st.one_of(
    st.tuples(
        st.just("counter"),
        st.sampled_from(("c.one", "c.two")),
        _labels,
        st.integers(0, 3),
    ),
    st.tuples(
        st.just("histogram"),
        st.sampled_from(("h.seconds",)),
        _labels,
        st.sampled_from(OBSERVED),
    ),
)


def _apply(target, ops) -> None:
    """Feed ``ops`` to a registry or a meter; label order as drawn."""
    for kind, name, labels, value in ops:
        if kind == "counter":
            target.counter(name, help=f"{name} help", **labels).inc(value)
        else:
            target.histogram(name, help=f"{name} help", **labels).observe(value)


class TestFold:
    @settings(max_examples=150, deadline=None)
    @given(queries=st.lists(st.lists(_op, max_size=12), min_size=1, max_size=4))
    def test_fold_equals_private_registry_and_direct_updates(self, queries):
        shared = MetricsRegistry()
        table = SeriesTable(shared)
        direct = MetricsRegistry()
        for ops in queries:
            private = MetricsRegistry()
            _apply(private, ops)
            meter = table.meter()
            _apply(meter, ops)
            delta, tagged = table.fold(meter)
            assert list(delta.items()) == list(private.snapshot().items())
            assert tagged == []
            _apply(direct, ops)
        assert metrics_to_json(shared) == metrics_to_json(direct)

    def test_label_order_shares_one_slot(self):
        table = SeriesTable(MetricsRegistry())
        meter = table.meter()
        meter.counter("q.pruned", engine="x", stage="s").inc(2)
        meter.counter("q.pruned", stage="s", engine="x").inc(3)
        meter.counter("q.zero", engine="x")
        delta, _ = table.fold(meter)
        assert delta == {
            metric_key("q.pruned", {"engine": "x", "stage": "s"}): 5.0,
            metric_key("q.zero", {"engine": "x"}): 0.0,
        }

    def test_tags_follow_delta_order(self):
        table = SeriesTable(MetricsRegistry(), QueryStats.field_of)
        meter = table.meter()
        meter.counter(_names.QUERY_PRUNED, engine="e", stage="b").inc(2)
        meter.counter(_names.QUERY_PRUNED, engine="e", stage="a").inc(3)
        meter.counter(_names.QUERY_COUNT, engine="e", kind="topk").inc()
        meter.histogram(_names.STAGE_SECONDS, engine="e", stage="refine").observe(
            0.5
        )
        delta, tagged = table.fold(meter)
        assert tagged == [
            ("pruned_pairs", 3.0),
            ("pruned_pairs", 2.0),
            ("refine_seconds", 0.5),
        ]
        assert QueryStats.from_series(tagged) == QueryStats.from_metrics(delta)

    def test_errors_raise_where_a_registry_raises(self):
        shared = MetricsRegistry()
        table = SeriesTable(shared)
        meter = table.meter()
        with pytest.raises(ValidationError, match="invalid metric name"):
            meter.counter("bad name")
        with pytest.raises(ValidationError, match="cannot decrease"):
            meter.counter("c.one").inc(-1)
        meter.histogram("h.seconds")
        with pytest.raises(ValidationError, match="already registered"):
            meter.counter("h.seconds")
        shared.gauge("c.one")
        with pytest.raises(ValidationError, match="already registered"):
            table.fold(meter)

    def test_untouched_table_slots_stay_out_of_a_delta(self):
        shared = MetricsRegistry()
        table = SeriesTable(shared)
        first = table.meter()
        first.counter("c.one").inc()
        table.fold(first)
        second = table.meter()
        second.counter("c.two").inc(4)
        delta, _ = table.fold(second)
        assert delta == {"c.two": 4.0}
        assert shared.snapshot() == {"c.one": 1.0, "c.two": 4.0}


def _engines(database):
    return {
        "imgrn": lambda: IMGRNEngine(database, CONFIG),
        "baseline": lambda: BaselineEngine(database, CONFIG),
        "linear_scan": lambda: LinearScanEngine(database, CONFIG),
        "measure_scan": lambda: MeasureScanEngine(
            database, "pearson", config=CONFIG
        ),
    }


def _specs(queries) -> list[QuerySpec]:
    specs = []
    for matrix in queries:
        specs += [
            QuerySpec(matrix, 0.5, 0.2),
            QuerySpec(matrix, 0.5, kind="topk", k=2),
            QuerySpec(matrix, 0.5, 0.2, kind="similarity", edge_budget=1),
        ]
    return specs


@pytest.mark.parametrize(
    "engine_name", ["imgrn", "baseline", "linear_scan", "measure_scan"]
)
def test_warm_execute_makes_no_registry_calls(
    engine_name, small_database, query_workload, monkeypatch
):
    """Once an engine has seen every series its queries record, a query
    resolves none again and builds no registry; its stats equal the
    projection of its delta."""
    engine = _engines(small_database)[engine_name]()
    engine.build()
    specs = _specs(query_workload[:3])
    for spec in specs:
        engine.execute(spec)  # warm-up: resolves every series once

    created: list[MetricsRegistry] = []
    resolved: list[str] = []
    init = MetricsRegistry.__init__
    get_or_create = MetricsRegistry._get_or_create

    def counting_init(self) -> None:
        created.append(self)
        init(self)

    def counting_get_or_create(self, cls, name, *args, **kwargs):
        resolved.append(name)
        return get_or_create(self, cls, name, *args, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "__init__", counting_init)
    monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting_get_or_create)
    results = [engine.execute(spec) for spec in specs]
    monkeypatch.undo()

    assert created == []
    assert resolved == []
    for result in results:
        key = metric_key(
            _names.QUERY_COUNT, {"engine": engine_name, "kind": "containment"}
        )
        assert result.metrics.get(key, 1.0) == 1.0
        assert result.stats == QueryStats.from_metrics(result.metrics)


def test_registry_reset_between_queries(small_database, query_workload, monkeypatch):
    """A table on the process-global registry re-resolves after reset():
    the series reappear, counting only the query after the reset."""
    monkeypatch.setattr(metrics_module, "GLOBAL_REGISTRY", MetricsRegistry())
    config = EngineConfig(
        mc_samples=64, seed=11, observability=ObservabilityConfig(shared_registry=True)
    )
    engine = IMGRNEngine(small_database, config)
    engine.build()
    registry = metrics_module.get_registry()
    assert engine.obs.metrics is registry
    spec = QuerySpec(query_workload[0], 0.5, 0.2)
    engine.execute(spec)
    registry.reset()
    assert registry.snapshot() == {}
    result = engine.execute(spec)
    snapshot = registry.snapshot()
    count = metric_key(_names.QUERY_COUNT, {"engine": "imgrn", "kind": "containment"})
    assert snapshot[count] == 1.0
    assert {key: snapshot[key] for key in result.metrics} == result.metrics


@pytest.mark.parametrize("kind", ["imgrn", "measure_scan"])
def test_engine_counters_survive_registry_reset(
    small_database, query_workload, monkeypatch, kind
):
    """The engine-lifetime ``inference.*`` counters re-resolve after
    reset(): the series reappear with exactly the counts of the one
    query after it (a private-registry engine gives the reference)."""
    monkeypatch.setattr(metrics_module, "GLOBAL_REGISTRY", MetricsRegistry())

    def engine(shared: bool):
        config = EngineConfig(
            mc_samples=64,
            seed=11,
            observability=ObservabilityConfig(shared_registry=shared),
        )
        if kind == "imgrn":
            built = IMGRNEngine(small_database, config)
        else:
            built = MeasureScanEngine(small_database, config=config)
        built.build()
        return built

    def inference_series(values: dict) -> dict:
        return {k: v for k, v in values.items() if k.startswith("inference.") and v}

    first = QuerySpec(query_workload[0], 0.5, 0.2)
    second = QuerySpec(query_workload[1], 0.5, 0.2)
    reference = engine(shared=False)
    reference.execute(first)
    mark = reference.obs.metrics.mark()
    reference.execute(second)
    expected = inference_series(reference.obs.metrics.since(mark))
    assert expected.get(_names.INFERENCE_PAIRS, 0.0) > 0

    shared = engine(shared=True)
    registry = metrics_module.get_registry()
    shared.execute(first)
    registry.reset()
    shared.execute(second)
    assert inference_series(registry.snapshot()) == expected
