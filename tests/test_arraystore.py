"""Zero-copy array store: compaction, persistence, the query read path.

The array-backed view of a finalized R*-tree is the engine's only read
path; the tree is its builder. Under test: range search and kNN keep the
tree's answers and page-access counts; the IM-GRN traversal returns
exactly what a brute-force, index-free oracle computes, on a fresh
build, after maintenance and on an ``np.memmap`` reload; saved engines
reload to the same answers.
"""

from __future__ import annotations

import json
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
from repro.core.pruning import edge_inference_prunable
from repro.core.query import IMGRNEngine
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
from repro.index.mbr import MBR
from repro.index.pagemanager import PageManager
from repro.index.rstartree import RStarTree
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
        build=BuildConfig(workers=0, shard_size=3),
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


def _brute_force_walk(engine, anchor, neighbor_genes, gamma):
    """The traversal's exact output, computed without touching the index.

    Every indexed source holding the anchor and a neighbor gene yields
    ``(source, gene) -> engine._leaf_pair_bound(...)`` over the two
    genes' embedded points, kept unless Lemma 3 prunes the bound. A
    false dismissal by gene-range, signature or Lemma-6 pruning shows up
    here as a missing key.
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
            bound = engine._leaf_pair_bound(
                source, anchor, gene, points[rows[anchor]], points[rows[gene]]
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
    ``removed`` then removes the fourth source.
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


@pytest.fixture()
def tree(rng):
    tree = RStarTree(dim=3, max_entries=4, pages=PageManager())
    points = rng.uniform(0.0, 10.0, size=(120, 3))
    for i, point in enumerate(points):
        tree.insert(point, gene_id=i % 17, source_id=i % 5, payload=i)
    tree.finalize()
    return tree


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
    def test_unfinalized_rejected(self):
        tree = RStarTree(dim=2)
        tree.insert(np.zeros(2), 0, 0, 0)
        with pytest.raises(ValidationError):
            ArrayStore.from_tree(tree)

    def test_compaction_mirrors_tree(self, tree):
        store = ArrayStore.from_tree(tree)
        assert store.num_entries == len(tree) == 120
        assert store.height == tree.height
        assert store.node_levels[0] == tree.root.level

        # Walk the BFS layout and re-derive every node from the tree.
        nodes = [tree.root]
        for node in nodes:
            if not node.is_leaf:
                nodes.extend(node.entries)
        assert store.num_nodes == len(nodes)
        for index, node in enumerate(nodes):
            assert store.node_levels[index] == node.level
            assert store.node_page_ids[index] == node.page_id
            assert store.node_vf(index) == node.vf
            assert store.node_vd(index) == node.vd
            assert store.node_lows[index].tobytes() == node.mbr.low.tobytes()
            assert store.node_highs[index].tobytes() == node.mbr.high.tobytes()

        # Every leaf entry row is recoverable, in tree order.
        rows = sorted(int(p) for p in store.entry_payloads)
        assert rows == list(range(120))

    def test_children_contiguous(self, tree):
        store = ArrayStore.from_tree(tree)
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


class TestSearchEquivalence:
    def test_search_matches_tree_and_counts_pages(self, tree, rng):
        store = ArrayStore.from_tree(tree)
        for _ in range(15):
            low = rng.uniform(0.0, 8.0, size=3)
            high = low + rng.uniform(0.5, 5.0, size=3)

            tree.pages.reset()
            expected = sorted(e.payload for e in tree.search(MBR(low, high)))
            tree_accesses = tree.pages.accesses

            tree.pages.reset()
            rows = store.search(low, high, pages=tree.pages)
            found = sorted(int(store.entry_payloads[r]) for r in rows)
            assert found == expected
            assert tree.pages.accesses == tree_accesses

    def test_nearest_matches_tree_and_counts_pages(self, tree, rng):
        store = ArrayStore.from_tree(tree)
        for k in (1, 3, 10):
            point = rng.uniform(0.0, 10.0, size=3)

            tree.pages.reset()
            expected = [
                (dist, entry.payload) for dist, entry in tree.nearest(point, k)
            ]
            tree_accesses = tree.pages.accesses

            tree.pages.reset()
            got = [
                (dist, int(store.entry_payloads[row]))
                for dist, row in store.nearest(point, k, pages=tree.pages)
            ]
            assert got == expected  # distances bit-identical, same order
            assert tree.pages.accesses == tree_accesses

    def test_empty_store(self):
        tree = RStarTree(dim=2)
        tree.finalize()
        store = ArrayStore.from_tree(tree)
        assert store.search(np.zeros(2), np.ones(2)) == []
        assert store.nearest(np.zeros(2), k=2) == []

    def test_nearest_validates_inputs(self, tree):
        store = ArrayStore.from_tree(tree)
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(3), k=0)
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(4))

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
    def test_save_load_round_trip(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        header = store.save(tmp_path / "arrays")
        assert header["format_version"] == 1
        assert header["fingerprint"] == store.fingerprint()

        for mmap in (True, False):
            loaded = ArrayStore.load(tmp_path / "arrays", mmap=mmap)
            assert loaded.fingerprint() == store.fingerprint()
            assert loaded.num_nodes == store.num_nodes
            assert loaded.num_entries == store.num_entries

    def test_mmap_load_is_read_only_view(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        loaded = ArrayStore.load(tmp_path / "arrays", mmap=True)
        assert isinstance(loaded.entry_points, np.memmap)
        with pytest.raises((ValueError, OSError)):
            loaded.entry_points[0, 0] = 99.0

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path)

    def test_version_mismatch_rejected(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        header_path = tmp_path / "arrays" / "header.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format_version"] = 99
        header_path.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_shape_mismatch_rejected(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        np.save(
            tmp_path / "arrays" / "entry_gene_ids.npy",
            np.zeros(3, dtype="<i8"),
        )
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_fingerprint_tracks_content(self, tree):
        store = ArrayStore.from_tree(tree)
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
        assert mapped.tree is None
        _assert_walk_matches_oracle(mapped, queries)


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


class TestEngineEquivalence:
    """In-memory arrays vs mmap reload vs maintenance: one answer set."""

    def test_array_engine_holds_both_views(self, array_engine):
        assert array_engine.array_index is not None
        assert array_engine.tree is not None

    def test_mmap_reload_bit_identical(self, array_engine, queries, tmp_path):
        report = save_engine_sharded(array_engine, tmp_path / "engine")
        assert report["index_arrays"] == "written"

        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        assert mapped.tree is None
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
        matrices = list(database)
        head = GeneFeatureDatabase()
        for matrix in matrices[:-1]:
            head.add(matrix)

        engine = IMGRNEngine(head, _config())
        engine.build()
        before = engine.array_index.fingerprint()

        engine.add_matrix(matrices[-1])
        assert engine.array_index is not None
        assert engine.array_index.fingerprint() != before
        assert len(engine.array_index) == len(engine.tree)

        # After maintenance the array view answers like a fresh build
        # over the same matrices.
        full = GeneFeatureDatabase()
        for matrix in matrices:
            full.add(matrix)
        fresh = IMGRNEngine(full, _config())
        fresh.build()
        assert _answers(engine, queries) == _answers(fresh, queries)

        engine.remove_matrix(matrices[-1].source_id)
        assert len(engine.array_index) == len(engine.tree)

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

    def test_save_without_array_snapshot(self, array_engine, queries, tmp_path):
        # A save whose meta.json has no index_arrays entry (one written
        # with the array view switched off) cannot be memory-mapped but
        # still loads by rebuilding the tree.
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


if __name__ == "__main__":
    _write_golden_walk()
