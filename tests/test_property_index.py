"""Property-based tests (hypothesis) for the index substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.index.arraystore import min_dist_many
from repro.index.bitvector import (
    hash_bit,
    hash_bits,
    signature,
    signature_many,
    signatures_overlap,
)
from repro.index.packer import str_pack

from conftest import assert_store_invariants, store_search


class TestBitvectorProperties:
    @given(st.sets(st.integers(0, 10_000), max_size=40), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_no_false_negatives(self, members, probe):
        sig = signature_many(members, 256)
        if probe in members:
            assert signatures_overlap(signature(probe, 256), sig)

    @given(
        st.lists(st.integers(-(2**62), 2**62), max_size=30),
        st.integers(1, 2048),
        st.sampled_from([0, 0x5EED]),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_hash_matches_scalar(self, values, bits, salt):
        got = hash_bits(np.asarray(values, dtype=np.int64), bits, salt)
        assert got.tolist() == [hash_bit(v, bits, salt) for v in values]


def _columns(n: int, dim: int, seed: int, duplicates: bool):
    """``n`` random index rows; the last coordinate is the gene ID."""
    rng = np.random.default_rng(seed)
    if duplicates:  # three values per axis: heavy ties and equal points
        points = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    else:
        points = rng.normal(size=(n, dim))
        points[:, -1] = rng.integers(0, 40, n)
    genes = points[:, -1].astype(np.int64)
    return points, genes, rng.integers(0, 9, n), rng.permutation(n) * 7 + 3


def _check_pack(n: int, dim: int, max_entries: int, seed: int, duplicates: bool):
    columns = _columns(n, dim, seed, duplicates)
    points, genes, sources, payloads = columns
    store = str_pack(*columns, max_entries=max_entries, bitvector_bits=128)
    assert_store_invariants(store, max_entries)
    # Every payload exactly once, with its own point, gene and source.
    assert sorted(store.entry_payloads.tolist()) == sorted(payloads.tolist())
    row_of = {int(p): i for i, p in enumerate(payloads)}
    rows = [row_of[int(p)] for p in store.entry_payloads]
    assert store.entry_points.tobytes() == points[rows].tobytes()
    assert store.entry_gene_ids.tolist() == genes[rows].tolist()
    assert store.entry_source_ids.tolist() == sources[rows].tolist()
    # A pure function of its input columns.
    again = str_pack(*columns, max_entries=max_entries, bitvector_bits=128)
    assert again.fingerprint() == store.fingerprint()


class TestPackerProperties:
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("max_entries", [4, 5, 16])
    def test_boundary_sizes(self, max_entries, duplicates):
        for n in (0, 1, max_entries, max_entries + 1):
            _check_pack(n, 3, max_entries, seed=n, duplicates=duplicates)

    @given(
        st.integers(0, 2000),
        st.integers(1, 5),
        st.integers(4, 20),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_sizes(self, n, dim, max_entries, seed, duplicates):
        _check_pack(n, dim, max_entries, seed, duplicates)


coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def clouds(dim=3):
    """Non-empty ``n x dim`` point arrays."""
    return hnp.arrays(
        np.float64, st.tuples(st.integers(1, 60), st.just(dim)), elements=coords
    )


def pack(points, max_entries=6):
    rows = np.arange(points.shape[0])
    return str_pack(
        points, rows, rows % 5, rows, max_entries=max_entries, bitvector_bits=64
    )


def root_box(store):
    return store.node_lows[0], store.node_highs[0]


class TestMBRProperties:
    @given(clouds(), clouds())
    @settings(max_examples=60, deadline=None)
    def test_union_contains_both(self, a, b):
        # The root MBR over both clouds is the union of each one's root.
        (a_low, a_high), (b_low, b_high) = root_box(pack(a)), root_box(pack(b))
        low, high = root_box(pack(np.concatenate([a, b])))
        assert np.all(low <= a_low) and np.all(a_high <= high)
        assert np.all(low <= b_low) and np.all(b_high <= high)
        assert (low == np.minimum(a_low, b_low)).all()
        assert (high == np.maximum(a_high, b_high)).all()


class TestDegenerateBoxProperties:
    """Point boxes (zero extent): single-point leaves and query boxes."""

    @given(hnp.arrays(np.float64, 3, elements=coords))
    @settings(max_examples=40, deadline=None)
    def test_point_box_geometry(self, point):
        store = pack(point[None, :])
        low, high = root_box(store)
        assert (low == point).all() and (high == point).all()
        assert store_search(store, point, point) == [0]
        assert min_dist_many(low[None, :], high[None, :], point).tolist() == [0.0]

    @given(
        hnp.arrays(np.float64, 3, elements=coords),
        hnp.arrays(np.float64, 3, elements=coords),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_box_union_contains_both(self, a, b):
        store = pack(np.stack([a, b]))
        low, high = root_box(store)
        assert (low == np.minimum(a, b)).all()
        assert (high == np.maximum(a, b)).all()
        for payload, point in enumerate((a, b)):
            hits = store.entry_payloads[store_search(store, point, point)].tolist()
            assert payload in hits


class TestRStarTreeProperties:
    """Properties of the packed R-tree over arbitrary point sets."""

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 120), st.just(3)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_and_search_oracle(self, points):
        store = pack(points)
        assert_store_invariants(store, 6)
        assert len(store) == points.shape[0]

        # Oracle check on a random-ish box derived from the data.
        low = points.min(axis=0)
        high = low + (points.max(axis=0) - low) * 0.6
        found = sorted(
            int(store.entry_payloads[r]) for r in store_search(store, low, high)
        )
        expected = sorted(
            int(i)
            for i in range(points.shape[0])
            if np.all(points[i] >= low) and np.all(points[i] <= high)
        )
        assert found == expected

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_degenerate_collinear_points(self, xs):
        """Many duplicate / collinear points must not break the tiling."""
        points = np.array([[float(x), 0.0] for x in xs])
        store = pack(points, max_entries=4)
        assert_store_invariants(store, 4)
        assert len(store) == len(xs)
