"""Unit tests for minimum bounding rectangles.

Node MBRs are the ``node_lows`` / ``node_highs`` rows of a packed
:class:`ArrayStore`; query boxes are the ``[low, high]`` corners of the
reference walk :func:`conftest.store_search`. Both are closed,
axis-aligned boxes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.packer import str_pack

from conftest import store_search


def pack(points, max_entries=4):
    points = np.asarray(points, dtype=float)
    rows = np.arange(points.shape[0])
    return str_pack(
        points, rows, rows % 3, rows, max_entries=max_entries, bitvector_bits=64
    )


def children(store, node):
    """``(lows, highs)`` of a node's children (its entries at a leaf)."""
    start = int(store.node_child_start[node])
    stop = start + int(store.node_child_count[node])
    if store.node_levels[node] == 0:
        points = store.entry_points[start:stop]
        return points, points
    return store.node_lows[start:stop], store.node_highs[start:stop]


def contains(outer_low, outer_high, lows, highs) -> bool:
    return bool(np.all(outer_low <= lows) and np.all(highs <= outer_high))


@pytest.fixture()
def store(rng):
    return pack(rng.uniform(0.0, 10.0, size=(90, 3)))


class TestConstruction:
    def test_from_point_degenerate(self):
        point = np.array([1.0, 2.0])
        store = pack([point])
        assert store.height == 1
        assert store.node_lows[0].tolist() == store.node_highs[0].tolist() == [1, 2]
        assert store_search(store, point, point) == [0]

    def test_from_points_tight(self, rng):
        pts = rng.normal(size=(20, 3))
        store = pack(pts, max_entries=20)  # one leaf holds every point
        assert store.num_nodes == 1
        assert store.node_lows[0].tobytes() == pts.min(axis=0).tobytes()
        assert store.node_highs[0].tobytes() == pts.max(axis=0).tobytes()


class TestGeometry:
    def test_union_encloses_both(self, store):
        # Every node's MBR is the union of its children's.
        for node in range(store.num_nodes):
            lows, highs = children(store, node)
            assert contains(store.node_lows[node], store.node_highs[node], lows, highs)
            assert (store.node_lows[node] == lows.min(axis=0)).all()
            assert (store.node_highs[node] == highs.max(axis=0)).all()

    def test_intersects_touching_boxes(self, store):
        # Boxes are closed: a query box that only touches a point on its
        # boundary (and so touches every node box on the way down) still
        # reaches the point.
        for row, point in enumerate(store.entry_points):
            assert row in store_search(store, point - 1.0, point)
            assert row in store_search(store, point, point + 1.0)

    def test_containment(self, store):
        for node in np.nonzero(store.node_levels == 0)[0]:
            low, high = store.node_lows[node], store.node_highs[node]
            points, _ = children(store, node)
            assert contains(low, high, points, points)
            # A query box equal to the leaf MBR finds all of its entries.
            start = int(store.node_child_start[node])
            rows = set(range(start, start + len(points)))
            assert rows <= set(store_search(store, low, high))

    def test_copy_independent(self, rng):
        pts = rng.normal(size=(40, 2))
        store = pack(pts)
        fingerprint = store.fingerprint()
        pts[:] = 99.0
        assert store.fingerprint() == fingerprint
        assert store.node_highs.max() < 99.0

    def test_equality(self, rng):
        pts = rng.normal(size=(40, 2))
        assert pack(pts).fingerprint() == pack(pts.copy()).fingerprint()
        moved = pts.copy()
        moved[11, 0] += 1e-9
        assert pack(moved).fingerprint() != pack(pts).fingerprint()

    def test_union_of_many(self, rng):
        pts = rng.normal(size=(200, 2))
        store = pack(pts)
        assert store.height >= 3
        assert store.node_lows[0].tobytes() == pts.min(axis=0).tobytes()
        assert store.node_highs[0].tobytes() == pts.max(axis=0).tobytes()
