"""Zero-copy array store: layout, persistence, the query read path.

The STR-packed array store is the engine's only index structure, and
every index change repacks it. Under test: the IM-GRN traversal
returns exactly what a brute-force, index-free oracle computes, on a
fresh build, after maintenance and on an ``np.memmap`` reload;
maintenance and reloads give the same store as a fresh build; saved
engines reload to the same answers.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    BuildConfig,
    EngineConfig,
    ObservabilityConfig,
    SyntheticConfig,
)
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.pruning import (
    edge_inference_prunable,
    markov_edge_upper_bound,
    pivot_edge_upper_bound,
)
from repro.core.query import IMGRNEngine
from repro.core.randomization import expected_randomized_distance_jensen
from repro.core.spec import QuerySpec
from repro.core.standardize import standardize_matrix
from repro.data.database import GeneFeatureDatabase
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.errors import IndexNotBuiltError, ValidationError
from repro.index.arraystore import (
    ArrayStore,
    int_to_words,
    min_dist_many,
    signature_words,
    words_to_int,
)
from repro.index.packer import str_pack
from repro.obs import MetricsRegistry, metric_key
from repro.obs.names import QUERY_PRUNED

SEED = 11

#: Traversal-oracle grid: databases over a small gene pool (so many
#: sources share each gene) indexed into a deep fan-out-4 tree, walked
#: at thresholds below and above the point where Lemma 3 starts pruning
#: leaf pairs.
ORACLE_SEEDS = (3, 11, 29)
ORACLE_GAMMAS = (0.2, 0.6, 0.9)
ORACLE_MATRICES = 24
ORACLE_QUERIES = 6


def _config(seed: int = SEED, **changes) -> EngineConfig:
    return EngineConfig(
        seed=seed,
        build=BuildConfig(shard_size=3),
        observability=ObservabilityConfig(shared_registry=False),
        **changes,
    )


def _answers(engine, queries) -> list[tuple]:
    out = []
    for query in queries:
        result = engine.query(query, gamma=0.4, alpha=0.4)
        out.append(
            (
                tuple(
                    (answer.source_id, answer.probability)
                    for answer in sorted(
                        result.answers, key=lambda a: a.source_id
                    )
                ),
                # Wall-clock metrics legitimately differ; every counter
                # (io, candidates, all pruning stages) must not.
                tuple(
                    sorted(
                        (key, value)
                        for key, value in result.metrics.items()
                        if "seconds" not in key
                    )
                ),
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
def array_engine(database):
    engine = IMGRNEngine(database, _config())
    engine.build()
    return engine


def _oracle_database(seed: int):
    return generate_database(
        SyntheticConfig(genes_range=(10, 20), gene_pool=40, seed=seed),
        ORACLE_MATRICES,
    )


def _oracle_engine(database, seed: int) -> IMGRNEngine:
    return IMGRNEngine(database, _config(seed, rstar_max_entries=4))


@pytest.fixture(scope="module", params=ORACLE_SEEDS)
def oracle_case(request):
    """``(built engine, queries)`` for one oracle database seed."""
    seed = request.param
    database = _oracle_database(seed)
    engine = _oracle_engine(database, seed)
    engine.build()
    queries = generate_query_workload(
        database, n_q=5, count=ORACLE_QUERIES, rng=seed
    )
    return engine, queries


def _leaf_pair_bound(engine, source, gene_s, gene_t, point_s, point_t) -> float:
    """The traversal's leaf bound for one gene pair, from scalar primitives.

    The minimum of the pivot bound on the two embedded points (Eq. 7) and
    the Lemma-4 Markov bound on the true distance with the Jensen
    expectation, both computed one pair at a time.
    """
    d = engine.config.num_pivots
    pivot = pivot_edge_upper_bound(
        point_s[0 : 2 * d : 2], point_t[0 : 2 * d : 2], point_t[1 : 2 * d : 2]
    )
    entry = engine._entries[source]
    std = standardize_matrix(entry.matrix.values)
    x_s = std[:, entry.matrix.column_index(gene_s)]
    x_t = std[:, entry.matrix.column_index(gene_t)]
    distance = float(np.linalg.norm(x_s - x_t))
    expected = expected_randomized_distance_jensen(x_t, x_s)
    return min(pivot, markov_edge_upper_bound(distance, expected))


def _brute_force_walk(engine, anchor, neighbor_genes, gamma):
    """The traversal's exact output, computed without touching the index.

    Every indexed source holding the anchor and a neighbor gene yields
    ``(source, gene) -> _leaf_pair_bound(...)`` over the two genes'
    embedded points, kept unless Lemma 3 prunes the bound. A false
    dismissal by gene-range, signature or Lemma-6 pruning shows up here
    as a missing key, and a drift of the vectorized leaf bound as a
    changed value.
    """
    expected = {}
    for source, entry in engine._entries.items():
        rows = {gene: row for row, gene in enumerate(entry.embedded.gene_ids)}
        if anchor not in rows:
            continue
        points = entry.embedded.points()
        for gene in neighbor_genes:
            if gene not in rows:
                continue
            bound = _leaf_pair_bound(
                engine,
                source,
                anchor,
                gene,
                points[rows[anchor]],
                points[rows[gene]],
            )
            if not edge_inference_prunable(bound, gamma):
                expected[(source, gene)] = bound
    return expected


def _assert_walk_matches_oracle(engine, queries) -> None:
    """Every (query, anchor, gamma) walk equals the brute-force dict.

    Query ``i`` anchors at its ``i``-th gene (cyclically) with all other
    query genes as neighbors; floats must match exactly.
    """
    kept = 0
    for i, query in enumerate(queries):
        genes = query.gene_ids
        anchor = genes[i % len(genes)]
        neighbors = sorted(g for g in genes if g != anchor)
        for gamma in ORACLE_GAMMAS:
            walked = engine._traverse(
                anchor,
                neighbors,
                gamma,
                pages=engine.pages.counter(),
                metrics=MetricsRegistry(),
            )
            expected = _brute_force_walk(engine, anchor, neighbors, gamma)
            assert walked == expected, (anchor, neighbors, gamma)
            kept += len(expected)
    assert kept > 0  # the oracle is not vacuously empty


#: Recorded walks (see :func:`_write_golden_walk`): per oracle seed and
#: engine state, every walk's ordered items, pruning counters and page
#: accesses. The brute-force oracle compares dicts, which hides the
#: insertion order the Lemma-5 product multiplies its factors in.
GOLDEN_WALK = Path(__file__).parent / "golden" / "traversal_walk.json"
WALK_STAGES = (
    "gene_range",
    "bitvector_gene",
    "bitvector_source",
    "lemma6",
    "leaf_edge_bound",
)


def _walk_records(engine, queries) -> list[dict]:
    """Each (query, gamma) walk as JSON-ready data, floats as ``repr``."""
    records = []
    for i, query in enumerate(queries):
        genes = query.gene_ids
        anchor = genes[i % len(genes)]
        neighbors = sorted(g for g in genes if g != anchor)
        for gamma in ORACLE_GAMMAS:
            pages = engine.pages.counter()
            metrics = MetricsRegistry()
            walked = engine._traverse(
                anchor, neighbors, gamma, pages=pages, metrics=metrics
            )
            snapshot = metrics.snapshot()
            records.append(
                {
                    "anchor": anchor,
                    "gamma": gamma,
                    "items": [
                        [source, gene, repr(bound)]
                        for (source, gene), bound in walked.items()
                    ],
                    "pruned": [
                        snapshot.get(
                            metric_key(
                                QUERY_PRUNED, {"engine": "imgrn", "stage": stage}
                            ),
                            0.0,
                        )
                        for stage in WALK_STAGES
                    ],
                    "io_accesses": pages.accesses,
                }
            )
    return records


def _golden_states(seed: int):
    """``(state name, engine, queries)`` for every recorded engine state.

    ``built`` is a fresh build (its ``mmap_index=True`` reload must walk
    identically); ``added`` builds all but the last matrix and adds it;
    ``removed`` then removes the fourth source. Maintenance repacks, so
    the last two walk like fresh builds over their sources (see
    :func:`_fresh_build`).
    """
    database = _oracle_database(seed)
    built = _oracle_engine(database, seed)
    built.build()
    queries = generate_query_workload(
        database, n_q=5, count=ORACLE_QUERIES, rng=seed
    )
    yield "built", built, queries
    matrices = list(database)
    head = GeneFeatureDatabase()
    for matrix in matrices[:-1]:
        head.add(matrix)
    maintained = _oracle_engine(head, seed)
    maintained.build()
    maintained.add_matrix(matrices[-1])
    yield "added", maintained, queries
    maintained.remove_matrix(matrices[3].source_id)
    yield "removed", maintained, queries


def _fresh_build(seed: int, state: str) -> IMGRNEngine:
    """A fresh build over the sources a maintained ``state`` indexes."""
    matrices = list(_oracle_database(seed))
    if state == "removed":
        del matrices[3]
    database = GeneFeatureDatabase()
    for matrix in matrices:
        database.add(matrix)
    engine = _oracle_engine(database, seed)
    engine.build()
    return engine


def _write_golden_walk() -> None:
    """Re-record :data:`GOLDEN_WALK` from the current walk.

    Run ``PYTHONPATH=src python tests/test_arraystore.py`` only when the
    walk's output is meant to change; the fixture pins it otherwise.
    """
    golden = {
        str(seed): {
            state: _walk_records(engine, queries)
            for state, engine, queries in _golden_states(seed)
        }
        for seed in ORACLE_SEEDS
    }
    GOLDEN_WALK.write_text(
        json.dumps(golden, separators=(",", ":")) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="module")
def golden_walk():
    return json.loads(GOLDEN_WALK.read_text(encoding="utf-8"))


def _pack(points: np.ndarray) -> ArrayStore:
    rows = np.arange(points.shape[0])
    return str_pack(
        points, rows % 17, rows % 5, rows, max_entries=4, bitvector_bits=64
    )


@pytest.fixture()
def store(rng):
    return _pack(rng.uniform(0.0, 10.0, size=(120, 3)))


class TestSignatureWords:
    def test_round_trip(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**64, (1 << 1024) - 1):
            words = int_to_words(value, 17)
            assert words_to_int(words) == value

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            int_to_words(-1, 2)

    def test_overflow_rejected(self):
        with pytest.raises(ValidationError):
            int_to_words(1 << 128, 2)

    def test_word_count(self):
        assert signature_words(1) == 1
        assert signature_words(64) == 1
        assert signature_words(65) == 2
        assert signature_words(1024) == 16

    def test_wordwise_and_equals_int_and(self, rng):
        # The vectorized signature filter: word-wise AND any() must be
        # exactly the scalar (a & b) != 0 test.
        for _ in range(50):
            a = int(rng.integers(0, 1 << 63)) | (
                int(rng.integers(0, 1 << 63)) << 70
            )
            b = int(rng.integers(0, 1 << 63)) | (
                int(rng.integers(0, 1 << 63)) << 70
            )
            wa, wb = int_to_words(a, 3), int_to_words(b, 3)
            assert bool((wa & wb).any()) == ((a & b) != 0)


class TestFromTree:
    """The array layout of a packed tree."""

    def test_compaction_mirrors_tree(self, store):
        assert store.num_entries == 120
        assert sorted(store.entry_payloads.tolist()) == list(range(120))
        assert store.height == int(store.node_levels.max()) + 1
        assert store.node_levels[0] == store.height - 1
        # Pages are numbered in node order; the store owns all of them.
        assert store.node_page_ids.tolist() == list(range(store.num_nodes))
        assert store.pages_allocated == store.num_nodes

    def test_children_contiguous(self, store):
        seen = np.zeros(store.num_nodes, dtype=bool)
        seen[0] = True
        for index in range(store.num_nodes):
            if store.node_levels[index] == 0:
                continue
            start = int(store.node_child_start[index])
            stop = start + int(store.node_child_count[index])
            assert not seen[start:stop].any()  # each child claimed once
            seen[start:stop] = True
            # Parents strictly precede children (BFS order).
            assert start > index
        assert seen.all()


class TestMinDist:
    def test_min_dist_many_matches_scalar_shape(self, rng):
        lows = rng.uniform(0.0, 5.0, size=(20, 4))
        highs = lows + rng.uniform(0.0, 3.0, size=(20, 4))
        point = rng.uniform(-1.0, 7.0, size=4)
        dists = min_dist_many(lows, highs, point)
        assert dists.shape == (20,)
        inside = np.all(lows <= point, axis=1) & np.all(point <= highs, axis=1)
        assert np.all(dists[inside] == 0.0)
        assert np.all(dists >= 0.0)


class TestPersistence:
    def test_save_load_round_trip(self, store, tmp_path):
        header = store.save(tmp_path / "arrays")
        assert header["format_version"] == 1
        assert header["fingerprint"] == store.fingerprint()

        for mmap in (True, False):
            loaded = ArrayStore.load(tmp_path / "arrays", mmap=mmap)
            assert loaded.fingerprint() == store.fingerprint()
            assert loaded.num_nodes == store.num_nodes
            assert loaded.num_entries == store.num_entries

    def test_mmap_load_is_read_only_view(self, store, tmp_path):
        store.save(tmp_path / "arrays")
        loaded = ArrayStore.load(tmp_path / "arrays", mmap=True)
        assert isinstance(loaded.entry_points, np.memmap)
        with pytest.raises((ValueError, OSError)):
            loaded.entry_points[0, 0] = 99.0

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path)

    def test_version_mismatch_rejected(self, store, tmp_path):
        store.save(tmp_path / "arrays")
        header_path = tmp_path / "arrays" / "header.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format_version"] = 99
        header_path.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_shape_mismatch_rejected(self, store, tmp_path):
        store.save(tmp_path / "arrays")
        np.save(
            tmp_path / "arrays" / "entry_gene_ids.npy",
            np.zeros(3, dtype="<i8"),
        )
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_fingerprint_tracks_content(self, store):
        before = store.fingerprint()
        store.entry_payloads[0] += 1
        assert store.fingerprint() != before
        store.entry_payloads[0] -= 1
        assert store.fingerprint() == before


class TestTraversalOracle:
    """The array-store walk against an index-free brute-force oracle."""

    def test_built_engine(self, oracle_case):
        engine, queries = oracle_case
        _assert_walk_matches_oracle(engine, queries)

    def test_maintained_engine(self, oracle_case):
        built, queries = oracle_case
        matrices = list(built.database)
        head = GeneFeatureDatabase()
        for matrix in matrices[:-1]:
            head.add(matrix)
        engine = _oracle_engine(head, built.config.seed)
        engine.build()
        engine.add_matrix(matrices[-1])
        _assert_walk_matches_oracle(engine, queries)
        engine.remove_matrix(matrices[3].source_id)
        _assert_walk_matches_oracle(engine, queries)

    def test_mmap_reload(self, oracle_case, tmp_path):
        engine, queries = oracle_case
        save_engine_sharded(engine, tmp_path / "engine")
        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        _assert_walk_matches_oracle(mapped, queries)


def _spec_answers(engine, specs) -> list[tuple]:
    return [
        tuple(
            (answer.source_id, answer.probability)
            for answer in engine.execute(spec).answers
        )
        for spec in specs
    ]


def _assert_table_matches_store(table, engine) -> None:
    """``table`` describes its own store: each entry's length, column
    statistics and buffered column are those of the entry's source."""
    store = table.store
    assert table.entry_length.shape == (store.num_entries,)
    for row in range(store.num_entries):
        # Payload keys pack (source, column) as source * 1_000_000 + column.
        source, column = divmod(int(store.entry_payloads[row]), 1_000_000)
        x = standardize_matrix(engine.database.get(source).values)[:, column]
        length = int(table.entry_length[row])
        assert length == x.shape[0]
        assert table.entry_square[row] == x @ x
        assert table.entry_mean[row] == x.mean()
        buffered = table.buffers[length][table.entry_row[row]]
        assert buffered.tobytes() == x.tobytes()


class TestConcurrentLeafBounds:
    """Threads querying while the index changes read one consistent
    store and column table each, and answer exactly like a serial run."""

    THREADS = 8

    @staticmethod
    def _mmap_engine(tmp_path):
        database = _oracle_database(SEED)
        engine = _oracle_engine(database, SEED)
        engine.build()
        save_engine_sharded(engine, tmp_path / "engine")
        return lambda: load_engine_sharded(tmp_path / "engine", mmap_index=True)

    @staticmethod
    def _maintained_engine(tmp_path):
        def make():
            matrices = list(_oracle_database(SEED))
            head = GeneFeatureDatabase()
            for matrix in matrices[:-1]:
                head.add(matrix)
            engine = _oracle_engine(head, SEED)
            engine.build()
            engine.add_matrix(matrices[-1])
            engine.remove_matrix(matrices[3].source_id)
            return engine

        return make

    @pytest.mark.parametrize("state", ["mmap", "maintained"])
    def test_threads_match_serial(self, state, tmp_path):
        make = getattr(self, f"_{state}_engine")(tmp_path)
        queries = generate_query_workload(
            _oracle_database(SEED), n_q=5, count=ORACLE_QUERIES, rng=SEED
        )
        specs = []
        for query in queries:
            specs += [
                QuerySpec(query, 0.4, 0.2),
                QuerySpec(query, 0.4, kind="topk", k=3),
                QuerySpec(query, 0.4, 0.2, kind="similarity", edge_budget=1),
            ]
        serial = _spec_answers(make(), specs)
        assert any(serial)  # the comparison is not vacuously empty

        engine = make()
        _assert_table_matches_store(engine._table, engine)
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait(timeout=60)
            return _spec_answers(engine, specs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the walk
        try:
            with ThreadPoolExecutor(self.THREADS) as pool:
                futures = [pool.submit(run) for _ in range(self.THREADS)]
                runs = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [serial] * self.THREADS

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_queries_read_their_stores_table(self, seed):
        """One writer adds and removes sources while the other threads
        query: every leaf bound reads the table published with the store
        its walk started from, and every published table matches its
        store."""
        matrices = list(_oracle_database(seed))
        head = GeneFeatureDatabase()
        for matrix in matrices[:-4]:
            head.add(matrix)
        engine = _oracle_engine(head, seed)
        engine.build()
        queries = generate_query_workload(
            _oracle_database(seed), n_q=5, count=ORACLE_QUERIES, rng=seed
        )
        specs = [QuerySpec(query, 0.4, 0.2) for query in queries]

        published = {engine.array_index: engine._table}
        publish = engine._publish

        def publish_and_record(store, changed=None):
            publish(store, changed)
            published[store] = engine._table

        read = []
        leaf_pair_bounds = engine._leaf_pair_bounds

        def record_read(table, rows_s, rows_t):
            read.append(table)
            return leaf_pair_bounds(table, rows_s, rows_t)

        engine._publish = publish_and_record
        engine._leaf_pair_bounds = record_read
        writing = threading.Event()
        writing.set()
        barrier = threading.Barrier(self.THREADS)

        def write():
            barrier.wait(timeout=60)
            try:
                for added, removed in zip(matrices[-4:], matrices[:4]):
                    engine.add_matrix(added)
                    engine.remove_matrix(removed.source_id)
            finally:
                writing.clear()

        def query():
            barrier.wait(timeout=60)
            rounds = 0
            while writing.is_set() or rounds == 0:
                _spec_answers(engine, specs)
                rounds += 1
            return rounds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(self.THREADS) as pool:
                writer = pool.submit(write)
                readers = [pool.submit(query) for _ in range(self.THREADS - 1)]
                writer.result(timeout=300)
                assert all(r.result(timeout=300) for r in readers)
        finally:
            sys.setswitchinterval(interval)
        assert len(published) == 9  # the build, then 4 adds and 4 removals
        assert read and all(published[table.store] is table for table in read)
        tables = {id(t): t for t in read}
        assert len(tables) > 1  # queries did overlap the repacks
        for table in tables.values():
            _assert_table_matches_store(table, engine)


class TestTraversalGolden:
    """The walk's order, pruning counters and page accesses, pinned."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_walk_matches_recording(self, golden_walk, seed, tmp_path):
        for state, engine, queries in _golden_states(seed):
            recorded = golden_walk[str(seed)][state]
            assert _walk_records(engine, queries) == recorded, state
            if state == "built":
                save_engine_sharded(engine, tmp_path / "engine")
                mapped = load_engine_sharded(
                    tmp_path / "engine", mmap_index=True
                )
                assert _walk_records(mapped, queries) == recorded, "mmap"
            else:
                fresh = _fresh_build(seed, state)
                assert _walk_records(fresh, queries) == recorded, state


class TestEngineEquivalence:
    """In-memory arrays vs mmap reload vs maintenance: one answer set."""

    def test_array_engine_holds_both_views(self, array_engine):
        # The spatial index (an in-memory store) and the inverted file.
        assert array_engine.array_index is not None
        assert not isinstance(array_engine.array_index.entry_points, np.memmap)
        assert array_engine.inverted_file is not None

    def test_mmap_reload_bit_identical(self, array_engine, queries, tmp_path):
        report = save_engine_sharded(array_engine, tmp_path / "engine")
        assert report["index_arrays"] == "written"

        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        assert mapped.array_index is not None
        assert isinstance(mapped.array_index.entry_points, np.memmap)
        assert _answers(mapped, queries) == _answers(array_engine, queries)

    def test_mmap_engine_is_read_only(self, array_engine, database, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        matrix = next(iter(database))
        with pytest.raises(IndexNotBuiltError):
            mapped.add_matrix(matrix)
        with pytest.raises(IndexNotBuiltError):
            mapped.remove_matrix(matrix.source_id)

    def test_resave_skips_unchanged_arrays(self, array_engine, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        report = save_engine_sharded(array_engine, tmp_path / "engine")
        assert report["index_arrays"] == "skipped"

    def test_fingerprint_verified_on_load(self, array_engine, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        arrays_dir = tmp_path / "engine" / "index_arrays"
        payloads = np.load(arrays_dir / "entry_payloads.npy")
        payloads[0] += 1
        np.save(arrays_dir / "entry_payloads.npy", payloads)
        with pytest.raises(ValidationError):
            load_engine_sharded(tmp_path / "engine", mmap_index=True)

    def test_mmap_with_database_rejected(self, array_engine, database, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        with pytest.raises(ValidationError):
            load_engine_sharded(
                tmp_path / "engine", database, mmap_index=True
            )

    def test_maintenance_recompacts_arrays(self, database, queries):
        # Incremental equals rebuild: add_matrix / remove_matrix repack to
        # exactly the store a fresh build over the same sources packs.
        matrices = list(database)
        head = GeneFeatureDatabase()
        for matrix in matrices[:-1]:
            head.add(matrix)

        engine = IMGRNEngine(head, _config())
        engine.build()
        engine.add_matrix(matrices[-1])
        fresh = IMGRNEngine(database, _config())
        fresh.build()
        assert engine.array_index.fingerprint() == fresh.array_index.fingerprint()
        assert _answers(engine, queries) == _answers(fresh, queries)

        engine.remove_matrix(matrices[2].source_id)
        without = GeneFeatureDatabase()
        for matrix in matrices:
            if matrix is not matrices[2]:
                without.add(matrix)
        fresh = IMGRNEngine(without, _config())
        fresh.build()
        assert engine.array_index.fingerprint() == fresh.array_index.fingerprint()
        assert _answers(engine, queries) == _answers(fresh, queries)

    def test_reload_repacks_the_saved_store(self, array_engine, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        meta = json.loads((tmp_path / "engine" / "meta.json").read_text())
        loaded = load_engine_sharded(tmp_path / "engine", mmap_index=False)
        assert loaded.array_index.fingerprint() == meta["index_arrays"]["fingerprint"]

    def test_page_counter_survives_a_repack(self, database):
        # A query that started on the old store keeps passing its page
        # bounds checks however the repack resizes the index.
        matrices = list(database)
        head = GeneFeatureDatabase()
        for matrix in matrices[:-1]:
            head.add(matrix)
        engine = IMGRNEngine(head, _config())
        engine.build()
        for change in ("add", "remove"):
            counter = engine.pages.counter()
            old_pages = np.asarray(engine.array_index.node_page_ids)
            if change == "add":
                engine.add_matrix(matrices[-1])
            else:
                for matrix in matrices[:-1]:
                    engine.remove_matrix(matrix.source_id)
                assert engine.array_index.num_nodes < old_pages.shape[0]
            counter.access_many(old_pages)
            for page_id in old_pages:
                counter.access(int(page_id))
            assert counter.accesses == 2 * old_pages.shape[0]

    @pytest.mark.parametrize("mmap_index", [False, True])
    def test_save_with_retired_config_key_loads(
        self, array_engine, tmp_path, mmap_index
    ):
        # Older saves record the retired array-view switch in their
        # config (spelled in two parts here so the name has no live use
        # left in the tree); the unknown key is dropped on load.
        retired_key = "use_" + "array_index"
        save_engine_sharded(array_engine, tmp_path / "engine")
        meta_path = tmp_path / "engine" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["config"][retired_key] = False
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        loaded = load_engine_sharded(tmp_path / "engine", mmap_index=mmap_index)
        assert loaded.array_index is not None
        assert loaded.config == array_engine.config

    @pytest.mark.parametrize("mmap_index", [False, True])
    def test_save_with_refine_config_key_loads(
        self, array_engine, queries, tmp_path, mmap_index
    ):
        # Older saves carry the deleted refinement-knob block as a nested
        # config dict; the unknown key is dropped on load.
        save_engine_sharded(array_engine, tmp_path / "engine")
        meta_path = tmp_path / "engine" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["config"]["refine"] = {
            "strategy": "perpair",
            "prescreen": False,
            "chunk_size": 2,
        }
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        loaded = load_engine_sharded(tmp_path / "engine", mmap_index=mmap_index)
        assert loaded.config == array_engine.config
        assert _answers(loaded, queries) == _answers(array_engine, queries)

    @pytest.mark.parametrize(
        "name,mmap_index",
        [
            ("meta.json", False),
            ("meta.json", True),
            ("shard_0000.npz", False),
            ("shard_0000.npz", True),
            ("index_arrays/header.json", True),
        ],
    )
    def test_truncated_file_raises_validation_error(
        self, array_engine, tmp_path, name, mmap_index
    ):
        # A half-written file (a crash mid-save) is reported as a
        # ValidationError naming it, never as a raw decoder exception.
        save_engine_sharded(array_engine, tmp_path / "engine")
        path = tmp_path / "engine" / name
        _truncate(path)
        with pytest.raises(ValidationError, match=path.name):
            load_engine_sharded(tmp_path / "engine", mmap_index=mmap_index)

    def test_truncated_index_array_raises_validation_error(
        self, array_engine, tmp_path
    ):
        # Only the mmap load reads index_arrays/*.npy; check every array.
        save_engine_sharded(array_engine, tmp_path / "pristine")
        arrays = sorted((tmp_path / "pristine" / "index_arrays").glob("*.npy"))
        assert arrays
        for array in arrays:
            target = tmp_path / array.stem
            save_engine_sharded(array_engine, target)
            path = target / "index_arrays" / array.name
            _truncate(path)
            with pytest.raises(ValidationError, match=path.name):
                load_engine_sharded(target, mmap_index=True)

    def test_save_without_array_snapshot(self, array_engine, queries, tmp_path):
        # A save whose meta.json has no index_arrays entry (one written
        # with the array view switched off) cannot be memory-mapped but
        # still loads by repacking the stored embeddings.
        save_engine_sharded(array_engine, tmp_path / "engine")
        meta_path = tmp_path / "engine" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["index_arrays"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        with pytest.raises(ValidationError, match="no array-store snapshot"):
            load_engine_sharded(tmp_path / "engine", mmap_index=True)
        loaded = load_engine_sharded(tmp_path / "engine", mmap_index=False)
        assert loaded.array_index is not None
        assert _answers(loaded, queries) == _answers(array_engine, queries)


def _truncate(path: Path) -> None:
    """Cut ``path`` to half its size, as an interrupted write leaves it."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


if __name__ == "__main__":
    _write_golden_walk()
