"""The observable surface of all four engines, pinned by a recording.

For every engine x workload case, :data:`GOLDEN_SURFACE` holds what
``execute()`` shows the outside world over the shared ``small_database``
/ ``query_workload`` fixtures: the answers (``repr`` of every
probability), every non-timing ``result.metrics`` value, the set of
timing keys, the span names each traced query records (in the order
they close) and the estimator-cache counters after the case's queries.
A refactor of the query pipeline must leave all of it unchanged.

Re-record the fixture with ``PYTHONPATH=src python
tests/test_engine_surface.py`` only when the surface is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import make_query_workload, make_small_database

from repro import (
    BaselineEngine,
    EngineConfig,
    IMGRNEngine,
    LinearScanEngine,
    MeasureScanEngine,
    ObservabilityConfig,
    QuerySpec,
)
from repro.errors import IndexNotBuiltError

GOLDEN_SURFACE = Path(__file__).parent / "golden" / "engine_surface.json"

GAMMA, ALPHA, K = 0.5, 0.3, 3

#: Private registry (no cross-test bleed) and a live tracer.
CONFIG = EngineConfig(
    mc_samples=64,
    seed=11,
    observability=ObservabilityConfig(tracing=True, shared_registry=False),
)

ENGINES = {
    "imgrn": lambda db: IMGRNEngine(db, CONFIG),
    "baseline": lambda db: BaselineEngine(db, CONFIG),
    "linear_scan": lambda db: LinearScanEngine(db, CONFIG),
    "measure_scan": lambda db: MeasureScanEngine(db, config=CONFIG),
}

WORKLOADS = {
    "containment": lambda q: QuerySpec(q, GAMMA, ALPHA),
    "topk": lambda q: QuerySpec(q, GAMMA, kind="topk", k=K),
    "similarity_b0": lambda q: QuerySpec(
        q, GAMMA, ALPHA, kind="similarity", edge_budget=0
    ),
    "similarity_b1": lambda q: QuerySpec(
        q, GAMMA, ALPHA, kind="similarity", edge_budget=1
    ),
    "similarity_b2": lambda q: QuerySpec(
        q, GAMMA, ALPHA, kind="similarity", edge_budget=2
    ),
}


def _is_timing(key: str) -> bool:
    """Wall-clock series: a ``*_seconds`` histogram's sum."""
    return "_seconds" in key and key.endswith("_sum")


def _surface(engine_name: str, workload: str, database, queries) -> dict:
    """Run one case on a fresh engine and record its surface."""
    engine = ENGINES[engine_name](database)
    engine.build()
    tracer = engine.obs.tracer
    records = []
    for query in queries:
        tracer.reset()
        result = engine.execute(WORKLOADS[workload](query))
        records.append(
            {
                "answers": [
                    [a.source_id, repr(a.probability)] for a in result.answers
                ],
                "metrics": {
                    key: value
                    for key, value in sorted(result.metrics.items())
                    if not _is_timing(key)
                },
                "timing_keys": sorted(k for k in result.metrics if _is_timing(k)),
                "spans": [span.name for span in tracer.spans],
            }
        )
    return {"queries": records, "cache": _cache_stats(engine)}


def _cache_stats(engine) -> dict[str, float]:
    """Estimator-cache hits / misses / entries of any engine."""
    inference = getattr(engine, "_inference", None)
    if inference is not None:
        return inference.stats()
    return engine.inference_stats()


def _write_golden_surface() -> None:
    database = make_small_database()
    queries = make_query_workload(database)
    golden = {
        engine_name: {
            workload: _surface(engine_name, workload, database, queries)
            for workload in WORKLOADS
        }
        for engine_name in ENGINES
    }
    GOLDEN_SURFACE.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="module")
def golden_surface():
    return json.loads(GOLDEN_SURFACE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_surface_matches_recording(
    golden_surface, small_database, query_workload, engine_name, workload
):
    got = _surface(engine_name, workload, small_database, query_workload)
    # Round-trip through JSON so float and tuple types compare like-for-like.
    assert json.loads(json.dumps(got)) == golden_surface[engine_name][workload]


@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_unbuilt_engine_refuses_execute(
    small_database, query_workload, engine_name
):
    engine = ENGINES[engine_name](small_database)
    spec = QuerySpec(query_workload[0], GAMMA, ALPHA)
    with pytest.raises(IndexNotBuiltError) as raised:
        engine.execute(spec)
    assert str(raised.value) == "call build() before execute()"


if __name__ == "__main__":
    _write_golden_surface()
