"""Unit + integration tests for the packed R-tree.

The index is an R-tree held as an :class:`ArrayStore` and built by STR
packing (:func:`~repro.index.packer.str_pack`), not by R* insertion;
these tests cover what every R-tree must give: all entries kept, tight
nodes within their fan-out bounds, node MBRs that an exact range walk
(:func:`conftest.store_search`) can follow, rejected NaN/inf
coordinates, page accounting and covering signatures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index.bitvector import signature, signatures_overlap
from repro.index.invertedfile import SOURCE_SALT
from repro.index.packer import str_pack
from repro.index.pagemanager import PageManager

from conftest import assert_store_invariants, store_search


def build_tree(points, gene_ids=None, source_ids=None, max_entries=8):
    rows = np.arange(points.shape[0])
    return str_pack(
        points,
        rows if gene_ids is None else gene_ids,
        np.zeros_like(rows) if source_ids is None else source_ids,
        rows,
        max_entries=max_entries,
        bitvector_bits=128,
    )


class TestInsertion:
    def test_size_tracks_inserts(self, rng):
        tree = build_tree(rng.normal(size=(50, 3)))
        assert len(tree) == 50

    def test_invariants_after_bulk_insert(self, rng):
        tree = build_tree(rng.normal(size=(300, 5)))
        assert_store_invariants(tree, 8)

    def test_invariants_with_duplicates(self, rng):
        pts = np.repeat(rng.normal(size=(10, 3)), 20, axis=0)
        tree = build_tree(pts)
        assert_store_invariants(tree, 8)
        assert len(tree) == 200

    def test_grows_in_height(self, rng):
        small = build_tree(rng.normal(size=(4, 2)), max_entries=4)
        big = build_tree(rng.normal(size=(400, 2)), max_entries=4)
        assert small.height == 1
        assert big.height >= 3

    def test_all_entries_preserved(self, rng):
        pts = rng.normal(size=(120, 4))
        tree = build_tree(pts)
        assert sorted(tree.entry_payloads.tolist()) == list(range(120))
        # Each payload keeps its own point.
        assert (tree.entry_points == pts[tree.entry_payloads]).all()

    def test_wrong_dim_rejected(self, rng):
        with pytest.raises(ValidationError):
            str_pack(
                rng.normal(size=5), [0], [0], [0], max_entries=8, bitvector_bits=64
            )

    def test_constructor_domains(self):
        with pytest.raises(ValidationError):
            build_tree(np.empty((3, 0)))
        with pytest.raises(ValidationError):
            build_tree(np.zeros((3, 2)), max_entries=3)
        rows = np.arange(30)
        with pytest.raises(ValidationError):  # a gene column one row short
            build_tree(np.zeros((30, 2)), gene_ids=rows[:-1])


class TestSearch:
    def test_matches_brute_force(self, rng):
        pts = rng.uniform(0.0, 10.0, size=(250, 3))
        tree = build_tree(pts)
        for _ in range(20):
            low = rng.uniform(0.0, 8.0, size=3)
            high = low + rng.uniform(0.5, 4.0, size=3)
            found = sorted(
                int(tree.entry_payloads[r]) for r in store_search(tree, low, high)
            )
            expected = sorted(
                int(i)
                for i in range(250)
                if np.all(pts[i] >= low) and np.all(pts[i] <= high)
            )
            assert found == expected

    def test_empty_tree_search(self):
        tree = build_tree(np.empty((0, 2)))
        assert store_search(tree, np.zeros(2), np.ones(2)) == []

    def test_whole_space_returns_everything(self, rng):
        tree = build_tree(rng.normal(size=(60, 2)))
        assert len(store_search(tree, np.full(2, -100.0), np.full(2, 100.0))) == 60


class TestCoordinateValidation:
    """NaN coordinates must raise, not silently vanish from every search."""

    def test_insert_nan_rejected(self, rng):
        pts = rng.normal(size=(10, 2))
        pts[4, 1] = np.nan
        with pytest.raises(ValidationError):
            build_tree(pts)

    def test_insert_inf_rejected(self, rng):
        for bad in (np.inf, -np.inf):
            pts = rng.normal(size=(10, 2))
            pts[7, 0] = bad
            with pytest.raises(ValidationError):
                build_tree(pts)

    def test_bulk_load_nan_rejected(self, rng):
        # One bad row in a load large enough for a multi-level tree.
        pts = rng.normal(size=(500, 3))
        pts[321, 2] = np.nan
        with pytest.raises(ValidationError):
            build_tree(pts)

    def test_finite_points_unaffected(self, rng):
        # The validation must not reject any finite workload.
        pts = rng.normal(size=(40, 3)) * 1e6
        tree = build_tree(pts)
        assert len(tree) == 40
        assert_store_invariants(tree, 8)


class TestIOAccounting:
    def test_unallocated_page_rejected(self):
        with pytest.raises(ValidationError):
            PageManager().counter().access(0)

    def test_batched_access_checks_every_id(self):
        pages = PageManager()
        pages.reserve(4)
        counter = pages.counter()
        counter.access_many(np.array([0, 3, 3, 1]))
        assert counter.accesses == 4
        for bad in (4, -1):
            with pytest.raises(ValidationError, match=f"page {bad} was never"):
                counter.access_many(np.array([0, 2, bad, 1]))
        assert counter.accesses == 4  # a rejected batch charges nothing

    def test_reserve_never_shrinks(self):
        pages = PageManager()
        pages.reserve(9)
        pages.reserve(3)
        assert pages.num_pages == 9
        with pytest.raises(ValidationError):
            pages.reserve(-1)

    def test_page_size_domain(self):
        with pytest.raises(ValidationError):
            PageManager(page_size=32)


class TestSignatures:
    def test_leaf_signatures_cover_entries(self, rng):
        gene_ids = rng.integers(0, 1000, size=80)
        source_ids = rng.integers(0, 40, size=80)
        tree = build_tree(
            rng.normal(size=(80, 3)), gene_ids=gene_ids, source_ids=source_ids
        )
        bits = tree.bitvector_bits
        for node in range(tree.num_nodes):
            if tree.node_levels[node]:
                continue
            start = int(tree.node_child_start[node])
            for row in range(start, start + int(tree.node_child_count[node])):
                assert signatures_overlap(
                    signature(int(tree.entry_gene_ids[row]), bits),
                    tree.node_vf(node),
                )
                assert signatures_overlap(
                    signature(int(tree.entry_source_ids[row]), bits, SOURCE_SALT),
                    tree.node_vd(node),
                )

    def test_parent_signatures_superset_of_children(self, rng):
        tree = build_tree(rng.normal(size=(150, 3)), max_entries=4)
        assert tree.height >= 3
        assert_store_invariants(tree, 4)  # includes signature containment

    def test_root_signature_covers_all_genes(self, rng):
        gene_ids = np.arange(200, 260)
        tree = build_tree(rng.normal(size=(60, 2)), gene_ids=gene_ids)
        for gene in gene_ids:
            assert signatures_overlap(
                signature(int(gene), tree.bitvector_bits), tree.node_vf(0)
            )


class TestQualityHeuristics:
    def test_reasonable_leaf_overlap(self, rng):
        """STR tiling should keep sibling leaf overlap modest on uniform
        data (sanity check that the slab/page cuts do their job)."""
        pts = rng.uniform(0.0, 100.0, size=(500, 2))
        tree = build_tree(pts, max_entries=8)
        leaves = tree.node_levels == 0
        extents = tree.node_highs[leaves] - tree.node_lows[leaves]
        total_area = float(np.prod(extents, axis=1).sum())
        # Leaves tile ~the data extent; gross over-covering would inflate
        # total leaf area far beyond the 100x100 universe.
        assert total_area < 4.0 * 100.0 * 100.0
