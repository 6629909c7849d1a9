"""Unit tests for the pivot-based 2d+1-dimensional embedding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.embedding import (
    embed_matrix,
    interleave_coordinates,
    jensen_coordinates,
)
from repro.core.randomization import expected_randomized_distance_jensen
from repro.core.standardize import standardize_matrix
from repro.errors import DimensionMismatchError, ValidationError


@pytest.fixture()
def matrix(rng):
    return rng.normal(size=(12, 8))


class TestInterleave:
    def test_layout(self):
        point = interleave_coordinates(
            np.array([1.0, 2.0]), np.array([3.0, 4.0]), gene_id=9
        )
        np.testing.assert_allclose(point, [1.0, 3.0, 2.0, 4.0, 9.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            interleave_coordinates(np.ones(2), np.ones(3), 0)


class TestEmbedMatrix:
    def test_coordinate_shapes(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), source_id=5, num_pivots=3, rng=1)
        assert emb.x.shape == (8, 3)
        assert emb.y.shape == (8, 3)
        assert emb.num_genes == 8
        assert emb.num_pivots == 3
        assert emb.source_id == 5

    def test_x_is_distance_to_pivot_columns(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=2, rng=1)
        std = standardize_matrix(matrix)
        for s in range(8):
            for r, piv in enumerate(emb.pivot_indices):
                expected = float(np.linalg.norm(std[:, s] - std[:, piv]))
                assert emb.x[s, r] == pytest.approx(expected, abs=1e-9)

    def test_pivot_self_distance_zero(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=2, rng=1)
        for r, piv in enumerate(emb.pivot_indices):
            assert emb.x[piv, r] == pytest.approx(0.0, abs=1e-9)

    def test_jensen_y_is_sqrt_2l(self, matrix):
        emb = embed_matrix(
            matrix, list(range(8)), 0, num_pivots=2, expectation_mode="jensen", rng=1
        )
        np.testing.assert_allclose(emb.y, math.sqrt(2 * 12), atol=1e-9)

    def test_mc_y_below_jensen(self, matrix):
        jensen = embed_matrix(
            matrix, list(range(8)), 0, num_pivots=2, expectation_mode="jensen", rng=1
        )
        mc = embed_matrix(
            matrix,
            list(range(8)),
            0,
            num_pivots=2,
            expectation_mode="mc",
            expectation_samples=200,
            rng=1,
        )
        # Jensen dominates in expectation; individual MC estimates may
        # exceed it by sampling noise, so compare the means.
        assert float(np.mean(mc.y)) <= float(np.mean(jensen.y)) + 0.02

    def test_points_interleaving_and_gene_dim(self, matrix):
        gene_ids = [10, 20, 30, 40, 50, 60, 70, 80]
        emb = embed_matrix(matrix, gene_ids, 0, num_pivots=2, rng=1)
        pts = emb.points()
        assert pts.shape == (8, 5)
        np.testing.assert_allclose(pts[:, 0], emb.x[:, 0])
        np.testing.assert_allclose(pts[:, 1], emb.y[:, 0])
        np.testing.assert_allclose(pts[:, 2], emb.x[:, 1])
        np.testing.assert_allclose(pts[:, 3], emb.y[:, 1])
        np.testing.assert_allclose(pts[:, 4], gene_ids)

    def test_point_matches_points_row(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=2, rng=1)
        np.testing.assert_allclose(emb.point(3), emb.points()[3])

    def test_point_index_out_of_range(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=2, rng=1)
        with pytest.raises(ValidationError):
            emb.point(8)

    def test_random_pivot_strategy(self, matrix):
        emb = embed_matrix(
            matrix, list(range(8)), 0, num_pivots=2, pivot_strategy="random", rng=1
        )
        assert len(emb.pivot_indices) == 2

    def test_invalid_modes(self, matrix):
        with pytest.raises(ValidationError):
            embed_matrix(matrix, list(range(8)), 0, 2, expectation_mode="exact")
        with pytest.raises(ValidationError):
            embed_matrix(matrix, list(range(8)), 0, 2, pivot_strategy="greedy")

    def test_gene_id_count_mismatch(self, matrix):
        with pytest.raises(DimensionMismatchError):
            embed_matrix(matrix, list(range(7)), 0, 2)

    def test_coordinates_read_only(self, matrix):
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=2, rng=1)
        with pytest.raises(ValueError):
            emb.x[0, 0] = 1.0

    def test_triangle_inequality_lower_bound_property(self, matrix):
        """|x_s[r] - x_t[r]| <= dist(X_s, X_t): the relaxation the pivot
        pruning region relies on."""
        emb = embed_matrix(matrix, list(range(8)), 0, num_pivots=3, rng=1)
        std = standardize_matrix(matrix)
        for s in range(8):
            for t in range(8):
                true_dist = float(np.linalg.norm(std[:, s] - std[:, t]))
                lower = float(np.max(np.abs(emb.x[s] - emb.x[t])))
                assert lower <= true_dist + 1e-9


def _per_pair_jensen(std, pivots):
    n = std.shape[1]
    y = np.empty((n, len(pivots)), dtype=np.float64)
    for s in range(n):
        for r, p in enumerate(pivots):
            y[s, r] = expected_randomized_distance_jensen(std[:, s], std[:, p])
    return y


@pytest.mark.parametrize(
    ("length", "genes", "scale"),
    [
        (12, 50, 1.0),  # atlas-shaped
        (17, 77, 3.0),
        (23, 100, 1e-3),
        (24, 100, 50.0),
        (37, 27, 1.0),  # panel-shaped
        (48, 30, 7.0),
        (3, 9, 1.0),
        (61, 5, 1e3),
    ],
)
def test_jensen_coordinates_bit_equal_per_pair(length, genes, scale):
    """The one-expression ``y`` equals the per-pair Jensen call bit for bit."""
    gen = np.random.default_rng(length * 1000 + genes)
    values = gen.normal(size=(length, genes)) * scale + gen.normal(size=genes)
    std = standardize_matrix(values)
    pivots = np.asarray(sorted(gen.choice(genes, size=min(4, genes), replace=False)))
    fast = jensen_coordinates(std, pivots)
    slow = _per_pair_jensen(std, pivots)
    assert fast.view(np.int64).tolist() == slow.view(np.int64).tolist()
    # Standardized means are ~0, so the cross term barely moves ``y``;
    # the raw columns' offset means pin its operation order too.
    raw = jensen_coordinates(values, pivots)
    assert raw.view(np.int64).tolist() == _per_pair_jensen(values, pivots).view(
        np.int64
    ).tolist()
    emb = embed_matrix(values, list(range(genes)), 0, num_pivots=2, rng=3)
    piv = np.asarray(emb.pivot_indices)
    assert emb.y.view(np.int64).tolist() == _per_pair_jensen(std, piv).view(
        np.int64
    ).tolist()
