"""Parallel sharded build, incremental maintenance, per-shard persistence.

The contract under test: however the index is produced -- serial build,
a build fanned out over processes, add/remove maintenance, or a (partial)
reload from a sharded save -- the resulting engine is bit-identical to a
fresh serial build over the same database. The build's width is derived
(:func:`repro.core.parallel_build.build_width`); tests fake its CPU probe
so the fan-out runs even on a 1-CPU host.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import (
    BuildConfig,
    EngineConfig,
    ObservabilityConfig,
    SyntheticConfig,
)
from repro.core import parallel_build
from repro.core.parallel_build import build_width
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.query import IMGRNEngine
from repro.data.database import GeneFeatureDatabase
from repro.data.matrix import GeneFeatureMatrix
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database

SEED = 11


def _config(shard_size: int = 3, tracing: bool = False) -> EngineConfig:
    return EngineConfig(
        seed=SEED,
        build=BuildConfig(shard_size=shard_size),
        observability=ObservabilityConfig(tracing=tracing, shared_registry=False),
    )


def _build_on(cpus: int, database, config: EngineConfig | None = None):
    """Build with the CPU probe faked to ``cpus``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel_build, "usable_cpus", lambda: cpus)
        engine = IMGRNEngine(database, config or _config())
        engine.build()
    return engine


def _assert_engines_identical(a: IMGRNEngine, b: IMGRNEngine) -> None:
    assert a.array_index.fingerprint() == b.array_index.fingerprint()
    assert a.inverted_file._entries == b.inverted_file._entries
    assert a.inverted_file._exact_sources == b.inverted_file._exact_sources
    for sid in a._entries:
        ea, eb = a._entries[sid].embedded, b._entries[sid].embedded
        assert ea.pivot_indices == eb.pivot_indices
        assert ea.x.tobytes() == eb.x.tobytes()
        assert ea.y.tobytes() == eb.y.tobytes()


def _answers(engine: IMGRNEngine, queries) -> list[tuple]:
    out = []
    for query in queries:
        result = engine.query(query, gamma=0.4, alpha=0.4)
        out.append(
            tuple(
                (answer.source_id, round(answer.probability, 12))
                for answer in sorted(result.answers, key=lambda a: a.source_id)
            )
        )
    return out


@pytest.fixture(scope="module")
def database():
    return generate_database(
        SyntheticConfig(genes_range=(10, 20), seed=SEED), 9
    )


@pytest.fixture(scope="module")
def queries(database):
    return generate_query_workload(database, n_q=3, count=3, rng=SEED)


@pytest.fixture(scope="module")
def serial_engine(database):
    return _build_on(1, database)


@pytest.fixture(scope="module")
def parallel_engine(database):
    return _build_on(2, database)


def test_parallel_build_bit_identical(serial_engine, parallel_engine):
    _assert_engines_identical(serial_engine, parallel_engine)


def test_parallel_build_same_answers(serial_engine, parallel_engine, queries):
    assert _answers(serial_engine, queries) == _answers(parallel_engine, queries)


def test_add_remove_round_trip(database, queries):
    matrices = list(database)
    head = GeneFeatureDatabase()
    for matrix in matrices[:-1]:
        head.add(matrix)

    engine = IMGRNEngine(head, _config())
    engine.build()
    engine.add_matrix(matrices[-1])

    fresh_full = IMGRNEngine(database, _config())
    fresh_full.build()
    assert _answers(engine, queries) == _answers(fresh_full, queries)

    engine.remove_matrix(matrices[-1].source_id)
    head_again = GeneFeatureDatabase()
    for matrix in matrices[:-1]:
        head_again.add(matrix)
    fresh_head = IMGRNEngine(head_again, _config())
    fresh_head.build()
    assert _answers(engine, queries) == _answers(fresh_head, queries)


def test_sharded_save_load_round_trip(serial_engine, queries, tmp_path):
    report = save_engine_sharded(serial_engine, tmp_path / "engine")
    assert len(report["written"]) == 3  # 9 matrices / shard_size 3
    assert report["skipped"] == []

    restored = load_engine_sharded(tmp_path / "engine")
    _assert_engines_identical(serial_engine, restored)
    assert _answers(restored, queries) == _answers(serial_engine, queries)

    # A second save over the same directory rewrites nothing.
    report = save_engine_sharded(restored, tmp_path / "engine")
    assert report["written"] == []
    assert len(report["skipped"]) == 3


def test_sharded_reload_reembeds_only_changed_matrix(
    database, serial_engine, queries, tmp_path
):
    save_engine_sharded(serial_engine, tmp_path / "engine")

    matrices = list(database)
    changed = matrices[4]
    perturbed = GeneFeatureMatrix(
        changed.values * 1.5 + 0.25,
        list(changed.gene_ids),
        changed.source_id,
        sorted(changed.truth_edges),
    )
    new_db = GeneFeatureDatabase()
    for matrix in matrices:
        new_db.add(perturbed if matrix.source_id == changed.source_id else matrix)

    reloaded = load_engine_sharded(tmp_path / "engine", new_db)
    assert reloaded.shard_load_report == {
        "reused": [m.source_id for m in matrices if m is not changed],
        "reembedded": [changed.source_id],
    }

    fresh = IMGRNEngine(new_db, _config())
    fresh.build()
    _assert_engines_identical(reloaded, fresh)
    assert _answers(reloaded, queries) == _answers(fresh, queries)

    # Re-saving rewrites only the shard holding the changed matrix.
    report = save_engine_sharded(reloaded, tmp_path / "engine")
    assert report["written"] == ["shard_0001.npz"]  # matrix 4 lives in shard 1
    assert len(report["skipped"]) == 2


def test_build_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(shard_size=0)


def test_parallel_build_records_shard_telemetry(parallel_engine):
    snapshot = parallel_engine.obs.metrics.snapshot()
    shard_counts = {
        key: value for key, value in snapshot.items() if "build.shards" in key
    }
    assert sum(shard_counts.values()) == 3  # 9 matrices / shard_size 3
    # Two worker processes embedded the shards (stripes of 2 and 1).
    assert sorted(shard_counts.values()) == [1.0, 2.0]
    assert any("build.shard_seconds" in key for key in snapshot)


class TestBuildWidth:
    """The one rule: ``min(usable CPUs, shards)``, else serial."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def fake(count: int) -> None:
            monkeypatch.setattr(parallel_build, "usable_cpus", lambda: count)

        fake(4)
        return fake

    def test_min_of_cpus_and_shards(self, cpus):
        assert build_width(3, tracing=False) == 3
        assert build_width(9, tracing=False) == 4
        cpus(2)
        assert build_width(13, tracing=False) == 2

    def test_fewer_than_two_shards_is_serial(self, cpus):
        assert build_width(1, tracing=False) == 1
        assert build_width(0, tracing=False) == 1

    def test_one_cpu_is_serial(self, cpus):
        cpus(1)
        assert build_width(9, tracing=False) == 1

    def test_live_thread_is_serial(self, cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert build_width(9, tracing=False) == 1
        finally:
            release.set()
            thread.join()
        assert build_width(9, tracing=False) == 4

    def test_tracing_is_serial(self, cpus):
        assert build_width(9, tracing=True) == 1

    def test_traced_build_keeps_its_spans(self, database, serial_engine):
        engine = _build_on(2, database, _config(tracing=True))
        _assert_engines_identical(serial_engine, engine)
        spans = engine.obs.tracer.spans
        build = next(span for span in spans if span.name == "build")
        assert build.attrs["width"] == 1
        names = [span.name for span in spans]
        assert names.count("build.embed") == len(database)
        assert names.count("build.shard") == 3
