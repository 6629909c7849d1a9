"""Per-source estimator state (standardized columns and content seeds,
built once per stored source) and the permutation indices refinement
admits for its columns into the engine's permutation store.

Under test: a block gathered from stored indices equals the freshly
drawn permutation block byte for byte; pair-block estimates are equal
with and without the state and the store; engines fill the states and
the store lazily under concurrent queries without changing an answer; a
reader never sees a half-built state or index array; and a removed
source's state and store entries are freed with it.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BuildConfig,
    EngineConfig,
    IMGRNEngine,
    InferenceConfig,
    LinearScanEngine,
    ObservabilityConfig,
    QuerySpec,
    SyntheticConfig,
)
from repro.core.batch_inference import (
    BatchInferenceEngine,
    _permutation_block,
    _permutation_indices,
    standardize_columns,
)
from repro.core.inference import EdgeProbabilityEstimator
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.randomization import content_seed
from repro.core.standardize import standardize_vector
from repro.data.database import GeneFeatureDatabase
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database

SEED = 11
THREADS = 8


def _config(**changes) -> EngineConfig:
    return EngineConfig(
        seed=SEED,
        mc_samples=64,
        build=BuildConfig(shard_size=3),
        observability=ObservabilityConfig(shared_registry=False),
        **changes,
    )


def _database() -> GeneFeatureDatabase:
    return generate_database(
        SyntheticConfig(genes_range=(10, 20), gene_pool=40, seed=SEED), 16
    )


def _specs(database) -> list[QuerySpec]:
    specs = []
    for query in generate_query_workload(database, n_q=5, count=6, rng=SEED):
        specs += [
            QuerySpec(query, 0.4, 0.2),
            QuerySpec(query, 0.4, kind="topk", k=3),
            QuerySpec(query, 0.4, 0.2, kind="similarity", edge_budget=1),
        ]
    return specs


def _answers(engine, specs) -> list[tuple]:
    """Per spec, the answers. Cache-dependent counters (prescreens,
    batches) legitimately vary with the interleaving of threads that
    share one estimator cache; answers must not."""
    return [
        tuple((a.source_id, a.probability) for a in engine.execute(spec).answers)
        for spec in specs
    ]


class TestMemoizedBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(9, 300),
        n_samples=st.integers(1, 400),
        col_seed=st.integers(0, 2**64 - 1),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_gathered_block_equals_drawn_block(
        self, length, n_samples, col_seed, seed, data
    ):
        values = data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=length, max_size=length
            )
        )
        column = np.array(values, dtype=np.float64)
        indices = _permutation_indices(col_seed, length, n_samples, seed)
        assert indices.shape == (n_samples, length)
        drawn = _permutation_block(column, col_seed, n_samples, seed)
        assert column[indices].tobytes() == drawn.tobytes()
        # Drawn once: an admitting call publishes the indices, narrowed
        # and read-only, and the next call gathers from that same array.
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=n_samples, seed=seed)
        )
        first = engine._column_block(column, col_seed, n_samples, admit=True)
        stored = engine._blocks[col_seed]
        assert stored.dtype == (np.uint8 if length <= 256 else np.uint16)
        assert not stored.flags.writeable
        assert np.array_equal(stored, indices)
        again = engine._column_block(column, col_seed, n_samples, admit=False)
        assert engine._blocks[col_seed] is stored
        assert first.tobytes() == again.tobytes() == drawn.tobytes()

    def test_state_columns_match_single_vector_path(self, rng):
        values = rng.normal(size=(37, 12))
        engine = BatchInferenceEngine(EdgeProbabilityEstimator(n_samples=32, seed=5))
        state = engine.estimator_state(values)
        assert not state.std.flags.writeable
        for c in range(values.shape[1]):
            vector = standardize_vector(values[:, c])
            assert state.std[:, c].tobytes() == vector.tobytes()
            assert state.seeds[c] == content_seed(vector)
        assert state.admit
        assert engine._blocks == {}  # building a state draws nothing


class TestPairBlocksWithState:
    PAIRS = [(0, 1), (2, 1), (0, 5), (3, 4), (6, 2), (5, 6), (1, 6)]

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("samples", [6, 40])
    def test_equal_with_and_without_memo(self, rng, cache, samples):
        values = rng.normal(size=(samples, 7))
        estimator = EdgeProbabilityEstimator(n_samples=48, seed=5, exact_below=8)

        def engine():
            return BatchInferenceEngine(estimator, InferenceConfig(cache=cache))

        plain = engine().pair_block_probabilities(
            standardize_columns(values), self.PAIRS, raw=values
        )
        stateful = engine()
        state = stateful.estimator_state(values)
        for _round in range(2):  # the second round gathers from the store
            if cache:
                stateful.cache.clear()
            stored = stateful.pair_block_probabilities(
                state.std,
                self.PAIRS,
                raw=values,
                seeds=state.seeds,
                admit=state.admit,
            )
            assert stored == plain
        # The exact-enumeration regime (l <= 8) draws no permutations.
        targets = {state.seeds[t] for _s, t in self.PAIRS}
        assert set(stateful._blocks) == (set() if samples <= 8 else targets)
        for s, t in self.PAIRS:
            assert plain[(s, t)] == estimator.pair_probability(
                values[:, s], values[:, t]
            )


def _mmap_engine(tmp_path):
    engine = IMGRNEngine(_database(), _config())
    engine.build()
    save_engine_sharded(engine, tmp_path / "engine")
    return lambda: load_engine_sharded(tmp_path / "engine", mmap_index=True)


def _maintained_engine(tmp_path):
    def make():
        matrices = list(_database())
        head = GeneFeatureDatabase()
        for matrix in matrices[:-1]:
            head.add(matrix)
        engine = IMGRNEngine(head, _config())
        engine.build()
        engine.add_matrix(matrices[-1])
        engine.remove_matrix(matrices[3].source_id)
        return engine

    return make


def _linear_scan_engine(tmp_path):
    def make():
        engine = LinearScanEngine(_database(), _config())
        engine.build()
        return engine

    return make


def _states(engine) -> list:
    if isinstance(engine, LinearScanEngine):
        return list(engine._states.values())
    return [e._estimator_state for e in engine._entries.values()]


class TestConcurrentStates:
    """Eight threads querying a fresh engine, whose estimator states are
    built lazily by the queries themselves, answer exactly like a serial
    run."""

    @pytest.mark.parametrize("state", ["mmap", "maintained", "linear_scan"])
    def test_threads_match_serial(self, state, tmp_path):
        make = globals()[f"_{state}_engine"](tmp_path)
        specs = _specs(_database())
        reference = make()
        serial = _answers(reference, specs)
        assert any(serial)  # the comparison is not vacuously empty
        assert reference._inference._blocks

        engine = make()
        assert not any(_states(engine))
        assert not engine._inference._blocks
        barrier = threading.Barrier(THREADS)

        def run():
            barrier.wait(timeout=60)
            return _answers(engine, specs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the lazy fills
        try:
            with ThreadPoolExecutor(THREADS) as pool:
                futures = [pool.submit(run) for _ in range(THREADS)]
                runs = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [serial] * THREADS
        assert any(_states(engine))
        assert engine._inference._blocks

    def test_racing_first_touches_share_one_state(self, monkeypatch):
        """Two threads that first touch one source together both get the
        one published state, so no memo indices go into a dropped one.

        The build waits for a second builder (bounded, so a fix that
        serializes the builds only pays the timeout); check-then-store
        lets both build and each keep its own state.
        """
        engine = IMGRNEngine(_database(), _config())
        engine.build()
        inference = engine._inference
        entry = next(iter(engine._entries.values()))
        build = inference.estimator_state
        second_builder = threading.Barrier(2)

        def waiting_build(values):
            try:
                second_builder.wait(timeout=1.0)
            except threading.BrokenBarrierError:
                pass
            return build(values)

        monkeypatch.setattr(inference, "estimator_state", waiting_build)
        states = [None, None]

        def touch(index: int) -> None:
            states[index] = entry.estimator_state(inference)

        threads = [threading.Thread(target=touch, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert states[0] is not None
        assert states[0] is states[1] is entry._estimator_state

    def test_readers_see_all_or_nothing(self):
        """Threads racing to build every source's state and to admit its
        columns' blocks each get complete values, never a half-built
        tuple or index array."""
        engine = IMGRNEngine(_database(), _config())
        engine.build()
        inference = engine._inference
        n_samples = inference.estimator.resolved_samples()
        entries = list(engine._entries.values())

        def read(start: int = 0) -> list[tuple]:
            """Every source's state as seen right after it is fetched;
            thread ``start`` visits the sources rotated by ``start``, so
            threads reach one source at different moments."""
            out = [None] * len(entries)
            for step in range(len(entries)):
                index = (start + step) % len(entries)
                state = entries[index].estimator_state(inference)
                seeds = tuple(state.seeds)
                blocks = []
                for t in range(state.std.shape[1]):
                    block = inference._column_block(
                        state.std[:, t], seeds[t], n_samples, admit=True
                    )
                    indices = inference._blocks[seeds[t]]
                    blocks.append((block.tobytes(), indices.tobytes()))
                out[index] = (state.std.tobytes(), seeds, blocks)
            return out

        reference = read()
        barrier = threading.Barrier(THREADS)

        def race(start: int) -> list[tuple]:
            barrier.wait(timeout=60)
            return read(start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                for entry in entries:
                    entry._estimator_state = None
                inference.clear_blocks()
                with ThreadPoolExecutor(THREADS) as pool:
                    futures = [
                        pool.submit(race, thread) for thread in range(THREADS)
                    ]
                    reads = [future.result(timeout=120) for future in futures]
                assert reads == [reference] * THREADS
        finally:
            sys.setswitchinterval(interval)


class TestStateLifetime:
    def test_remove_matrix_frees_the_state(self):
        database = _database()
        engine = IMGRNEngine(database, _config())
        engine.build()
        for spec in _specs(database):
            engine.execute(spec)
        store = engine._inference._blocks
        source, entry = next(
            (s, e)
            for s, e in engine._entries.items()
            if e._estimator_state is not None
            and any(seed in store for seed in e._estimator_state.seeds)
        )
        state = entry._estimator_state
        seeds = [seed for seed in state.seeds if seed in store]
        refs = [weakref.ref(state.std)] + [weakref.ref(store[seed]) for seed in seeds]
        del state, entry
        engine.remove_matrix(source)
        gc.collect()
        assert source not in engine._entries
        assert not any(seed in store for seed in seeds)
        assert all(ref() is None for ref in refs)

    def test_removed_source_refines_from_a_transient_state(self):
        """A query still refining a source that ``remove_matrix`` took out
        gets a transient state, with the scalar estimator's values, and
        the engine keeps none."""
        database = _database()
        engine = IMGRNEngine(database, _config())
        engine.build()
        source = next(iter(engine._entries))
        matrix = database.get(source)
        genes = sorted(matrix.gene_ids[:3])
        edges = [(genes[0], genes[1]), (genes[0], genes[2]), (genes[1], genes[2])]
        evaluator = engine._edge_evaluator()
        engine.remove_matrix(source)
        columns = evaluator.lookup(source, genes, edges)
        estimated = evaluator.evaluate(columns, range(len(edges)))
        assert estimated == [
            engine._estimator.pair_probability(matrix.column(u), matrix.column(v))
            for u, v in edges
        ]
        assert source not in engine._entries

    def test_build_starts_without_states(self):
        database = _database()
        engine = IMGRNEngine(database, _config())
        engine.build()
        engine.execute(_specs(database)[0])
        assert any(_states(engine))
        engine.build()
        assert not any(_states(engine))
