"""Unit tests for the cost model and Fig.-3 pivot selection."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pivots import (
    pivot_cost,
    pivot_cost_literal,
    select_pivots,
    select_pivots_random,
    select_pivots_standardized,
)
from repro.core.randomization import default_rng
from repro.core.standardize import standardize_matrix
from repro.errors import ValidationError


def swap_loop_pivots(matrix, num_pivots, global_iter=3, swap_iter=20, rng=None):
    """The per-candidate Fig.-3 search: every candidate scored by its own
    :func:`pivot_cost` call. The oracle the gathered search must match."""
    std = standardize_matrix(np.asarray(matrix, dtype=np.float64))
    n = std.shape[1]
    if num_pivots == n:
        return tuple(range(n))
    gen = default_rng(rng)
    global_cost = np.inf
    best = None
    for _restart in range(global_iter):
        pivots = gen.choice(n, size=num_pivots, replace=False)
        local_cost = pivot_cost(std, pivots)
        non_pivots = np.setdiff1d(np.arange(n), pivots)
        for _swap in range(swap_iter):
            r = int(gen.integers(num_pivots))
            j = int(gen.integers(non_pivots.shape[0]))
            candidate = pivots.copy()
            swapped_out = candidate[r]
            candidate[r] = non_pivots[j]
            candidate_cost = pivot_cost(std, candidate)
            if candidate_cost < local_cost:
                local_cost = candidate_cost
                pivots = candidate
                non_pivots[j] = swapped_out
        if local_cost < global_cost:
            global_cost = local_cost
            best = pivots
    return tuple(sorted(int(i) for i in best))


@st.composite
def tie_heavy_matrices(draw):
    """Integer-valued ``l x n`` matrices with few levels and many
    duplicated columns: costs that tie, or differ by one GEMM rounding."""
    length = draw(st.integers(3, 60))
    n = draw(st.integers(3, 130))
    num_pivots = draw(st.integers(1, min(4, n)))
    levels = draw(st.integers(2, 4))
    distinct = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    base = gen.integers(0, levels, size=(length, distinct)).astype(np.float64)
    base[0], base[1] = 0.0, 1.0  # no constant column
    matrix = base[:, gen.integers(0, distinct, size=n)]
    return matrix, num_pivots, seed


class TestCostModel:
    def test_fast_form_equals_literal_double_min(self, rng):
        m = rng.normal(size=(12, 9))
        std = standardize_matrix(m)
        for pivots in ([0], [1, 4], [2, 5, 8]):
            fast = pivot_cost(std, np.array(pivots))
            literal = pivot_cost_literal(std, np.array(pivots))
            assert fast == pytest.approx(literal, rel=1e-10)

    def test_cost_non_negative(self, rng):
        std = standardize_matrix(rng.normal(size=(10, 6)))
        assert pivot_cost(std, np.array([0, 3])) >= 0.0

    def test_all_columns_as_pivots_gives_zero_cost(self, rng):
        std = standardize_matrix(rng.normal(size=(10, 4)))
        assert pivot_cost(std, np.arange(4)) == pytest.approx(0.0)

    def test_cost_decreases_with_more_pivots(self, rng):
        std = standardize_matrix(rng.normal(size=(10, 8)))
        c1 = pivot_cost(std, np.array([0]))
        c2 = pivot_cost(std, np.array([0, 1]))
        c3 = pivot_cost(std, np.array([0, 1, 2]))
        assert c1 >= c2 >= c3


class TestSelectPivots:
    def test_returns_sorted_unique_valid_indices(self, rng):
        m = rng.normal(size=(10, 12))
        pivots = select_pivots(m, 3, rng=rng)
        assert len(pivots) == 3
        assert len(set(pivots)) == 3
        assert pivots == tuple(sorted(pivots))
        assert all(0 <= p < 12 for p in pivots)

    def test_never_worse_than_initial_random_choice(self, rng):
        """The swap search starts from random sets and only accepts
        improvements, so its result beats a fresh random pick on average."""
        m = rng.normal(size=(14, 20))
        std = standardize_matrix(m)
        selected_costs = []
        random_costs = []
        for seed in range(6):
            chosen = select_pivots(m, 2, global_iter=2, swap_iter=15, rng=seed)
            selected_costs.append(pivot_cost(std, np.array(chosen)))
            randomly = select_pivots_random(m, 2, rng=seed + 100)
            random_costs.append(pivot_cost(std, np.array(randomly)))
        assert np.mean(selected_costs) <= np.mean(random_costs) + 1e-9

    def test_d_equals_n_returns_all(self, rng):
        m = rng.normal(size=(8, 5))
        assert select_pivots(m, 5, rng=rng) == (0, 1, 2, 3, 4)

    def test_deterministic_given_seed(self, rng):
        m = rng.normal(size=(10, 15))
        assert select_pivots(m, 3, rng=42) == select_pivots(m, 3, rng=42)

    def test_domain_checks(self, rng):
        m = rng.normal(size=(8, 5))
        with pytest.raises(ValidationError):
            select_pivots(m, 0)
        with pytest.raises(ValidationError):
            select_pivots(m, 6)
        with pytest.raises(ValidationError):
            select_pivots(m, 2, global_iter=0)

    def test_random_strategy_domain(self, rng):
        m = rng.normal(size=(8, 5))
        with pytest.raises(ValidationError):
            select_pivots_random(m, 9)

    def test_swap_improves_over_pure_restart(self, rng):
        """With swap_iter=0 the search is pure random restart; swaps only
        lower the cost."""
        m = rng.normal(size=(12, 30))
        std = standardize_matrix(m)
        no_swap = select_pivots(m, 2, global_iter=1, swap_iter=0, rng=3)
        with_swap = select_pivots(m, 2, global_iter=1, swap_iter=40, rng=3)
        assert pivot_cost(std, np.array(with_swap)) <= pivot_cost(
            std, np.array(no_swap)
        ) + 1e-9


@settings(max_examples=300, deadline=None)
@given(tie_heavy_matrices())
def test_gathered_search_equals_swap_loop_oracle(case):
    """The one-GEMM search picks exactly the per-candidate search's pivots,
    on the tie-heavy matrices where gathered and exact costs disagree in
    the last bits."""
    matrix, num_pivots, seed = case
    assert select_pivots(matrix, num_pivots, rng=seed) == swap_loop_pivots(
        matrix, num_pivots, rng=seed
    )


def test_gathered_search_equals_oracle_on_gaussian_matrices(rng):
    for trial in range(40):
        length = int(rng.integers(3, 30))
        n = int(rng.integers(3, 100))
        d = int(rng.integers(1, min(4, n) + 1))
        m = rng.normal(size=(length, n))
        assert select_pivots(m, d, rng=trial) == swap_loop_pivots(m, d, rng=trial)


@pytest.mark.parametrize(
    ("length", "n", "levels", "seed"),
    [
        (40, 3000, None, 0),
        (40, 3000, None, 1),
        (805, 4511, None, 0),
        (30, 2000, 3, 0),
        (30, 2000, 3, 1),
        (12, 5000, 2, 2),
        (12, 5000, 2, 3),
    ],
)
def test_gathered_search_equals_oracle_at_paper_scale(length, n, levels, seed):
    """Thousands of genes (DREAM5's E. coli matrix is 805 x 4,511), Gaussian
    or integer-valued with duplicated columns."""
    gen = np.random.default_rng((length, n, seed))
    if levels is None:
        m = gen.normal(size=(length, n))
    else:
        base = gen.integers(0, levels, size=(length, 200)).astype(np.float64)
        base[0], base[1] = 0.0, 1.0
        m = base[:, gen.integers(0, 200, size=n)]
    d = 2 + seed % 3
    assert select_pivots(m, d, rng=seed) == swap_loop_pivots(m, d, rng=seed)


def test_search_memory_is_linear_in_genes():
    """The search forms only the ``k = global_iter * (d + swap_iter)``
    distance rows its candidates can read, never an ``n x n`` matrix
    (128 MB here)."""
    length, n, d = 40, 4000, 2
    std = standardize_matrix(np.random.default_rng(3).normal(size=(length, n)))
    k = 3 * (d + 20)
    tracemalloc.start()
    try:
        select_pivots_standardized(std, d, global_iter=3, swap_iter=20, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * (4 * k + 2 * length)
