"""Parallel sharded build, incremental maintenance, per-shard persistence.

The contract under test: however the index is produced -- serial build,
process-parallel build, add/remove maintenance, or a (partial) reload from
a sharded save -- the resulting engine is bit-identical to a fresh serial
build over the same database.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    BuildConfig,
    EngineConfig,
    ObservabilityConfig,
    SyntheticConfig,
)
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.query import IMGRNEngine
from repro.data.database import GeneFeatureDatabase
from repro.data.matrix import GeneFeatureMatrix
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database

SEED = 11


def _config(workers: int = 0, shard_size: int = 3) -> EngineConfig:
    return EngineConfig(
        seed=SEED,
        build=BuildConfig(workers=workers, shard_size=shard_size),
        observability=ObservabilityConfig(shared_registry=False),
    )


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
    engine = IMGRNEngine(database, _config(workers=0))
    engine.build()
    return engine


@pytest.fixture(scope="module")
def parallel_engine(database):
    engine = IMGRNEngine(database, _config(workers=2))
    engine.build()
    return engine


def test_parallel_build_bit_identical(serial_engine, parallel_engine):
    _assert_engines_identical(serial_engine, parallel_engine)


def test_parallel_build_same_answers(serial_engine, parallel_engine, queries):
    assert _answers(serial_engine, queries) == _answers(parallel_engine, queries)


def test_serial_backend_matches_process_backend(database, serial_engine):
    engine = IMGRNEngine(
        database,
        EngineConfig(
            seed=SEED,
            build=BuildConfig(workers=4, shard_size=3, backend="serial"),
            observability=ObservabilityConfig(shared_registry=False),
        ),
    )
    engine.build()
    _assert_engines_identical(serial_engine, engine)


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
        BuildConfig(workers=-1)
    with pytest.raises(ValueError):
        BuildConfig(shard_size=0)
    with pytest.raises(ValueError):
        BuildConfig(backend="thread")


def test_parallel_build_records_shard_telemetry(parallel_engine):
    snapshot = parallel_engine.obs.metrics.snapshot()
    shard_counts = {
        key: value for key, value in snapshot.items() if "build.shards" in key
    }
    assert sum(shard_counts.values()) == 3  # 9 matrices / shard_size 3
    assert any("build.shard_seconds" in key for key in snapshot)
