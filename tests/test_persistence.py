"""Tests for engine save/load (prototype-system persistence).

A save is a sharded directory (:func:`save_engine_sharded`); the bit-level
shard contract lives in ``tests/test_parallel_build.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import GeneFeatureDatabase, IMGRNEngine
from repro.config import BuildConfig
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.errors import IndexNotBuiltError, ValidationError

from conftest import TEST_CONFIG, assert_store_invariants


class TestSaveLoad:
    def test_roundtrip_answers_identical(
        self, built_engine, query_workload, tmp_path
    ):
        path = tmp_path / "engine"
        save_engine_sharded(built_engine, path)
        loaded = load_engine_sharded(path)
        for query in query_workload:
            original = built_engine.query(query, gamma=0.5, alpha=0.2)
            restored = loaded.query(query, gamma=0.5, alpha=0.2)
            assert restored.answer_sources() == original.answer_sources()
            assert restored.stats.candidates == original.stats.candidates

    def test_roundtrip_preserves_embeddings(self, built_engine, tmp_path):
        path = tmp_path / "engine"
        save_engine_sharded(built_engine, path)
        loaded = load_engine_sharded(path)
        for source_id, entry in built_engine._entries.items():
            restored = loaded._entries[source_id].embedded
            np.testing.assert_array_equal(restored.x, entry.embedded.x)
            np.testing.assert_array_equal(restored.y, entry.embedded.y)
            assert restored.pivot_indices == entry.embedded.pivot_indices

    def test_roundtrip_preserves_config_and_database(
        self, built_engine, tmp_path
    ):
        path = tmp_path / "engine"
        save_engine_sharded(built_engine, path)
        loaded = load_engine_sharded(path)
        assert loaded.config == built_engine.config
        assert loaded.database.source_ids == built_engine.database.source_ids
        assert_store_invariants(loaded.array_index, loaded.config.rstar_max_entries)

    def test_loaded_engine_supports_updates(
        self, built_engine, tmp_path, query_workload
    ):
        from repro.config import SyntheticConfig
        from repro.data.synthetic import generate_matrix

        path = tmp_path / "engine"
        save_engine_sharded(built_engine, path)
        loaded = load_engine_sharded(path)
        new_matrix = generate_matrix(
            SyntheticConfig(
                genes_range=(10, 14), samples_range=(8, 12), gene_pool=50, seed=5
            ),
            source_id=600,
            rng=np.random.default_rng(5),
        )
        loaded.add_matrix(new_matrix)
        query = new_matrix.submatrix(list(new_matrix.gene_ids[:3]))
        assert 600 in loaded.query(query, gamma=0.5, alpha=0.0).answer_sources()

    def test_save_unbuilt_rejected(self, small_database, tmp_path):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        with pytest.raises(IndexNotBuiltError):
            save_engine_sharded(engine, tmp_path / "x")

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage"
        path.mkdir()
        (path / "meta.json").write_text('{"foo": [0, 0, 0]}', encoding="utf-8")
        with pytest.raises(ValidationError):
            load_engine_sharded(path)


def _rewrite_meta(path, mutate):
    """Apply ``mutate`` to a sharded save's ``meta.json`` dict, in place."""
    import json

    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    mutate(meta)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


class TestConfigCompatibility:
    """Archives from older/newer versions load with config defaults."""

    def test_config_from_dict_tolerates_unknown_and_missing(self):
        from repro.config import EngineConfig
        from repro.core.persistence import _config_from_dict

        config = _config_from_dict(
            {
                "num_pivots": 4,
                "from_the_future": True,
                "inference": {"cache_size": 99, "also_new": 1},
            }
        )
        assert config.num_pivots == 4
        assert config.inference.cache_size == 99
        # everything absent from the dict falls back to the defaults
        defaults = EngineConfig()
        assert config.bitvector_bits == defaults.bitvector_bits
        assert config.observability == defaults.observability

    def test_archive_missing_observability_loads(
        self, built_engine, query_workload, tmp_path
    ):
        path = tmp_path / "old"
        save_engine_sharded(built_engine, path)

        def mutate(meta):
            del meta["config"]["observability"]
            meta["config"]["future_knob"] = 123

        _rewrite_meta(path, mutate)
        loaded = load_engine_sharded(path)
        assert loaded.config.observability == built_engine.config.observability
        original = built_engine.query(query_workload[0], gamma=0.5, alpha=0.2)
        restored = loaded.query(query_workload[0], gamma=0.5, alpha=0.2)
        assert restored.answer_sources() == original.answer_sources()

    def test_save_with_removed_execution_knobs_loads(
        self, built_engine, query_workload, tmp_path
    ):
        """Saves written while the build and inference widths were config
        fields still load, and answer identically."""
        path = tmp_path / "knobs"
        save_engine_sharded(built_engine, path)

        def mutate(meta):
            meta["config"]["build"].update(workers=4, backend="process")
            meta["config"]["inference"]["workers"] = 2

        _rewrite_meta(path, mutate)
        loaded = load_engine_sharded(path)
        assert loaded.config == built_engine.config
        for query in query_workload:
            original = built_engine.query(query, gamma=0.5, alpha=0.2)
            restored = loaded.query(query, gamma=0.5, alpha=0.2)
            assert [(a.source_id, a.probability) for a in restored.answers] == [
                (a.source_id, a.probability) for a in original.answers
            ]


class TestSaveAfterRemoval:
    """A save holds the indexed sources in indexing order, so a source
    removed from the index (but kept by the database) is not saved."""

    @pytest.fixture()
    def engine(self, small_database):
        database = GeneFeatureDatabase(list(small_database)[:8])
        engine = IMGRNEngine(
            database, dataclasses.replace(TEST_CONFIG, build=BuildConfig(shard_size=2))
        )
        engine.build()
        return engine

    def test_reload_equals_saved_engine(self, engine, query_workload, tmp_path):
        engine.remove_matrix(engine.database.source_ids[3])
        path = tmp_path / "engine"
        save_engine_sharded(engine, path)
        for mmap_index in (False, True):
            loaded = load_engine_sharded(path, mmap_index=mmap_index)
            assert list(loaded._entries) == list(engine._entries)
            assert (
                loaded.array_index.fingerprint() == engine.array_index.fingerprint()
            )
            for query in query_workload:
                original = engine.query(query, gamma=0.5, alpha=0.2)
                restored = loaded.query(query, gamma=0.5, alpha=0.2)
                assert [(a.source_id, a.probability) for a in restored.answers] == [
                    (a.source_id, a.probability) for a in original.answers
                ]

    def test_incremental_save_rewrites_shifted_shards(self, engine, tmp_path):
        path = tmp_path / "engine"
        first = save_engine_sharded(engine, path)
        assert first["written"] == [f"shard_{i:04d}.npz" for i in range(4)]
        engine.remove_matrix(engine.database.source_ids[3])
        second = save_engine_sharded(engine, path)
        # Shard 0 keeps its two sources; every later one shifts by one.
        assert second["skipped"] == ["shard_0000.npz"]
        assert second["written"] == [f"shard_{i:04d}.npz" for i in (1, 2, 3)]
        loaded = load_engine_sharded(path)
        assert loaded.database.source_ids == tuple(engine._entries)
        assert loaded.array_index.fingerprint() == engine.array_index.fingerprint()
