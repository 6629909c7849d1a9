"""The engine's content-addressed permutation store.

A column's permutation block is keyed by the column's content, so one
stored entry serves every byte-identical column. Refinement of an
indexed source admits the target columns it estimates; query-graph
inference and a removed source's transient state only read the store.

Under test: inference on query columns copied from stored ones gives
the same probabilities with a filled store as with an empty one and as
the scalar estimator; ad-hoc query columns never enter the store; a
removed source's transient state admits nothing; ``build()`` and
``remove_matrix`` free the entries; and threads that refine and infer
over the same columns at once answer like a serial run and leave the
store a serial run leaves.
"""

from __future__ import annotations

import functools
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
    GeneFeatureMatrix,
    IMGRNEngine,
    InferenceConfig,
    LinearScanEngine,
    ObservabilityConfig,
    QuerySpec,
    SyntheticConfig,
)
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.obs import names as _names

SEED = 13
THREADS = 8


def _config(cache: bool = True) -> EngineConfig:
    return EngineConfig(
        seed=SEED,
        mc_samples=64,
        build=BuildConfig(shard_size=4),
        inference=InferenceConfig(cache=cache),
        observability=ObservabilityConfig(shared_registry=False),
    )


@functools.cache
def _database():
    return generate_database(
        SyntheticConfig(
            genes_range=(10, 16), samples_range=(20, 30), gene_pool=30, seed=SEED
        ),
        8,
    )


def _engine(cls=IMGRNEngine, cache: bool = True):
    engine = cls(_database(), _config(cache))
    engine.build()
    return engine


def _fill(engine) -> None:
    """Admit every stored column of every source, as refinement would."""
    inference = engine._inference
    n_samples = inference.estimator.resolved_samples()
    for matrix in engine.database:
        state = engine._source_state(matrix.source_id)
        for t, col_seed in enumerate(state.seeds):
            inference._column_block(state.std[:, t], col_seed, n_samples, admit=True)


def _blocks(engine) -> tuple[float, float]:
    """The engine's ``(blocks drawn, blocks gathered)`` counters."""
    snapshot = engine.obs.metrics.snapshot()
    return (
        snapshot[_names.INFERENCE_BLOCKS_DRAWN],
        snapshot[_names.INFERENCE_BLOCKS_GATHERED],
    )


def _specs() -> list[QuerySpec]:
    specs = []
    for query in generate_query_workload(_database(), n_q=5, count=5, rng=SEED):
        specs += [
            QuerySpec(query, 0.3, 0.05),
            QuerySpec(query, 0.3, kind="topk", k=3),
            QuerySpec(query, 0.3, 0.05, kind="similarity", edge_budget=1),
        ]
    return specs


def _store_bytes(engine) -> dict[int, bytes]:
    return {seed: a.tobytes() for seed, a in engine._inference._blocks.items()}


def _outcome(result) -> tuple:
    return (
        tuple(sorted(result.query_graph.edges())),
        tuple((a.source_id, a.probability) for a in result.answers),
    )


class TestQueryInference:
    EMPTY = None
    FILLED = None

    @classmethod
    def engines(cls):
        """Two cache-free engines: one with an empty store, one with every
        stored column admitted. Without a cache every pair is estimated."""
        if cls.EMPTY is None:
            cls.EMPTY = _engine(cache=False)
            filled = _engine(cache=False)
            _fill(filled)
            cls.FILLED = filled
        return cls.EMPTY, cls.FILLED

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), gamma=st.floats(0.0, 0.6))
    def test_copied_columns_infer_equal_probabilities(self, data, gamma):
        empty, filled = self.engines()
        matrices = list(_database())
        matrix = matrices[data.draw(st.integers(0, len(matrices) - 1))]
        genes = data.draw(
            st.lists(
                st.sampled_from(matrix.gene_ids), min_size=2, max_size=6, unique=True
            )
        )
        # Sorted genes: an edge (u, v) then randomizes v's column.
        query = matrix.submatrix(sorted(genes))
        stored = len(filled._inference._blocks)
        before = _blocks(filled)
        from_empty = empty.infer_query_graph(query, gamma)
        from_filled = filled.infer_query_graph(query, gamma)
        drawn, gathered = (a - b for a, b in zip(_blocks(filled), before))
        assert drawn == 0  # every target column was a hit...
        assert gathered == len(genes) - 1  # ...one per target column
        assert len(filled._inference._blocks) == stored
        assert dict(from_filled.edges()) == dict(from_empty.edges())
        estimator = filled._estimator
        for (u, v), p in from_filled.edges():
            assert p == estimator.pair_probability(query.column(u), query.column(v))


def test_ad_hoc_query_columns_never_enter_the_store(rng):
    """50 queries on fresh random columns: the store (holding every
    stored column already) keeps its size, and the queries drew blocks."""
    engine = _engine(cache=False)
    _fill(engine)
    size = len(engine._inference._blocks)
    drawn_before, _gathered = _blocks(engine)
    pool = sorted({g for m in _database() for g in m.gene_ids})
    for i in range(50):
        genes = [int(g) for g in rng.choice(pool, size=5, replace=False)]
        query = GeneFeatureMatrix(rng.normal(size=(24, 5)), genes, 10_000 + i)
        engine.execute(QuerySpec(query, 0.3, 0.05))
    assert len(engine._inference._blocks) == size
    assert _blocks(engine)[0] - drawn_before >= 50 * 4


def test_removed_source_transient_state_admits_nothing():
    engine = _engine()
    source = next(iter(engine._entries))
    matrix = engine.database.get(source)
    genes = sorted(matrix.gene_ids[:4])
    edges = [(u, v) for i, u in enumerate(genes) for v in genes[i + 1 :]]
    evaluator = engine._edge_evaluator()
    engine.remove_matrix(source)
    columns = evaluator.lookup(source, genes, edges)
    assert columns.state.admit is False
    evaluator.evaluate(columns, range(len(edges)))
    assert _blocks(engine) == (len(genes) - 1, 0)
    assert engine._inference._blocks == {}


def _store_refs(engine) -> list[weakref.ref]:
    for spec in _specs():
        engine.execute(spec)
    store = engine._inference._blocks
    assert store
    return [weakref.ref(indices) for indices in store.values()]


class TestStoreLifetime:
    @pytest.mark.parametrize("cls", [IMGRNEngine, LinearScanEngine])
    def test_build_frees_the_entries(self, cls):
        engine = _engine(cls, cache=False)
        refs = _store_refs(engine)
        engine.build()
        gc.collect()
        assert engine._inference._blocks == {}
        assert all(ref() is None for ref in refs)

    def test_remove_matrix_frees_the_entries(self):
        """Removing sources frees the entries refinement admitted for
        them; only the remaining source's entries stay."""
        engine = _engine(cache=False)
        refs = _store_refs(engine)
        for source in list(engine._entries)[:-1]:
            engine.remove_matrix(source)
        state = next(iter(engine._entries.values()))._estimator_state
        kept = set(state.seeds) if state is not None else set()
        gc.collect()
        assert set(engine._inference._blocks) <= kept
        alive = sum(ref() is not None for ref in refs)
        assert alive == len(engine._inference._blocks) < len(refs)


def test_threads_refining_and_inferring_match_serial():
    """Eight threads behind a barrier run the specs (inference over query
    columns copied from stored ones, refinement admitting those stored
    columns) in rotated orders. Without a cache every pair is estimated,
    so each run reads and writes the store throughout."""
    specs = _specs()
    reference = _engine(cache=False)
    serial = [_outcome(reference.execute(spec)) for spec in specs]
    assert any(answers for _edges, answers in serial)
    expected = _store_bytes(reference)
    assert expected and _blocks(reference)[1] > 0  # inference hit the store

    engine = _engine(cache=False)
    barrier = threading.Barrier(THREADS)

    def run(start: int) -> list[tuple]:
        barrier.wait(timeout=60)
        out = [None] * len(specs)
        for step in range(len(specs)):
            index = (start + step) % len(specs)
            out[index] = _outcome(engine.execute(specs[index]))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [
                pool.submit(run, thread * len(specs) // THREADS)
                for thread in range(THREADS)
            ]
            runs = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [serial] * THREADS
    assert _store_bytes(engine) == expected
