"""Cost-model-based pivot selection (Section 4.3, Fig. 3).

Pivots are ``d`` of the matrix's own gene feature vectors. The paper's cost
model scores a pivot set ``PIV`` on matrix ``M_i`` by

    T_i = sum_s min_{r,w} { dist(X_s, piv_r) + dist(X_s, piv_w) }

-- smaller ``T_i`` means a larger expected pivot pruning region (Fig. 2) and
hence higher pruning power. Because ``r`` and ``w`` range independently, the
inner double-min equals ``2 * min_r dist(X_s, piv_r)``, making the model a
k-medoids-style objective; we exploit that identity for speed but keep
:func:`pivot_cost_literal` as the literal double-min for verification.

The selection algorithm is the paper's random-restart swap search: pick a
random pivot set, repeatedly swap a random pivot with a random non-pivot
when that lowers ``T_i``, and restart ``global_iter`` times to escape local
optima. Every candidate's cost is gathered from the column-distance rows
of its pivots, formed once per search for just the columns some
candidate holds, with exact :func:`pivot_cost` scoring only where a
gathered comparison falls inside its rounding band
(:func:`select_pivots_standardized`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from .randomization import default_rng
from .standardize import standardize_matrix

__all__ = [
    "pivot_cost",
    "pivot_cost_literal",
    "select_pivots",
    "select_pivots_random",
    "select_pivots_standardized",
]


def _pairwise_distances_to(std: np.ndarray, pivot_indices: np.ndarray) -> np.ndarray:
    """Distances from every column of ``std`` to each pivot column.

    Returns an ``n x d`` array ``D[s, r] = dist(X_s, piv_r)``.
    """
    pivots = std[:, pivot_indices]  # l x d
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b ; columns are standardized so
    # each squared norm equals l, but keep the general form for safety.
    col_sq = np.sum(std * std, axis=0)
    piv_sq = col_sq[pivot_indices]
    cross = std.T @ pivots
    sq = col_sq[:, np.newaxis] + piv_sq[np.newaxis, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def pivot_cost(std: np.ndarray, pivot_indices: np.ndarray) -> float:
    """The cost ``T_i`` of a pivot set on a standardized ``l x n`` matrix.

    Uses the identity ``min_{r,w}(dist_r + dist_w) = 2 * min_r dist_r``.
    """
    distances = _pairwise_distances_to(std, np.asarray(pivot_indices, dtype=np.intp))
    return float(2.0 * np.sum(np.min(distances, axis=1)))


def pivot_cost_literal(std: np.ndarray, pivot_indices: np.ndarray) -> float:
    """Literal double-min form of ``T_i`` (verification counterpart)."""
    distances = _pairwise_distances_to(std, np.asarray(pivot_indices, dtype=np.intp))
    total = 0.0
    for row in distances:
        best = min(float(a) + float(b) for a in row for b in row)
        total += best
    return total


def select_pivots(
    matrix: np.ndarray,
    num_pivots: int,
    global_iter: int = 3,
    swap_iter: int = 20,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """Fig.-3 ``Pivot_Selection``: column indices of the chosen pivots.

    Parameters
    ----------
    matrix:
        Raw ``l x n`` gene feature matrix (columns are genes); standardized
        internally so the cost model sees the same geometry as the query
        pipeline.
    num_pivots:
        ``d``; must satisfy ``1 <= d <= n``.
    global_iter, swap_iter:
        Outer restarts and inner swap attempts (lines 2 and 5 of Fig. 3).
    rng:
        Random source for the restarts/swaps.

    Returns
    -------
    tuple[int, ...]
        Sorted column indices of the best pivot set found.
    """
    std = standardize_matrix(np.asarray(matrix, dtype=np.float64))
    return select_pivots_standardized(std, num_pivots, global_iter, swap_iter, rng)


class _Scored:
    """A pivot set, its gathered cost, and its exact cost once needed."""

    __slots__ = ("pivots", "cost", "exact")

    def __init__(self, pivots: np.ndarray, cost: float):
        self.pivots = pivots
        self.cost = cost
        self.exact: float | None = None


def _guard_band(std: np.ndarray, col_sq: np.ndarray):
    """``band(a, b)`` over two gathered costs of ``std`` (see below).

    Let ``u = 2**-53`` and ``gamma_k = k u / (1 - k u)``. Columns are
    ``l`` long and ``Q = max(col_sq) / (1 - gamma_l)`` bounds every real
    squared column norm. The gathered rows (a ``k x n`` GEMM) and
    :func:`pivot_cost` (an ``n x d`` GEMM) evaluate the same expression
    ``max(0, (q_s + q_p) - 2 c_sp)`` on the same ``col_sq`` entries
    ``q``; only the dot ``c_sp`` may be blocked differently. For either:

    * any order of a length-``l`` dot errs by at most
      ``gamma_l * sum|a_i b_i| <= gamma_l Q`` (Cauchy--Schwarz); each
      ``q`` errs by at most ``gamma_l Q``; the add and the subtract round
      by at most ``8 u Q`` together. So against the real squared distance
      ``rho**2 >= 0`` the computed one errs by ``Delta <= 4 gamma_{l+4} Q``,
      and the clamp at 0 does not widen that.
    * ``|sqrt(x) - sqrt(y)| <= sqrt(|x - y|)``, and the square root
      rounds by at most ``u * 2 sqrt(Q)``: each distance errs by
      ``delta <= sqrt(Delta) + 3 u sqrt(Q)``; so does each row's min.
    * summing ``n`` non-negative mins errs by ``n delta`` plus
      ``gamma_{n-1}`` of the sum, which is at most ``gamma_{2n}`` of the
      computed sum; doubling is exact.

    So a computed cost ``C`` is within ``2 n delta + gamma_{2n} C`` of the
    real ``T``, whichever kernel computed it, and a gathered cost ``G``
    within ``w(G) = (4 n delta + 2 gamma_{2n} G) / (1 - gamma_{2n})`` of
    the exact one. When two gathered costs differ by more than
    ``w(G_a) + w(G_b)`` the exact costs order the same way. The factor
    ``1 + gamma_32`` covers the (fewer than 32) roundings of evaluating
    the band and the difference it is compared with, each relative to
    the band.
    """
    u = np.finfo(np.float64).eps / 2.0
    length, n = std.shape

    def gamma(k: int) -> float:
        return k * u / (1.0 - k * u)

    q = float(np.max(col_sq)) / (1.0 - gamma(length))
    delta = math.sqrt(4.0 * gamma(length + 4) * q) + 3.0 * u * math.sqrt(q)
    scale = (1.0 + gamma(32)) / (1.0 - gamma(2 * n))
    fixed = 8.0 * n * delta * scale
    relative = 2.0 * gamma(2 * n) * scale

    def band(a: float, b: float) -> float:
        return fixed + relative * (a + b)

    return band


def select_pivots_standardized(
    std: np.ndarray,
    num_pivots: int,
    global_iter: int = 3,
    swap_iter: int = 20,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """:func:`select_pivots` over an already standardized matrix.

    The Fig.-3 swap search, with every candidate's cost gathered from
    the rows of the column-distance matrix ``D`` that its pivots index:
    ``T = 2 * sum_s min_r D[piv_r, s]``. Only the rows of columns some
    candidate holds are formed, at most
    ``k = global_iter * (num_pivots + swap_iter)``, with one GEMM: the
    search costs ``O(k l n)`` time and ``O(k n)`` memory, never more
    than the per-candidate search's ``n x d`` GEMMs, whatever ``n`` is.
    The random stream is drawn call for call as the per-candidate search
    draws it, and every comparison decides as :func:`pivot_cost` would:
    a gathered row of ``D`` is not bit-equal to :func:`pivot_cost`'s
    ``n x d`` GEMM, so where two gathered costs fall within the rounding
    band of :func:`_guard_band`, both sets are scored exactly and
    compared instead. The chosen pivots therefore equal those of the
    per-candidate search bit for bit.
    """
    n = std.shape[1]
    if not 1 <= num_pivots <= n:
        raise ValidationError(
            f"num_pivots must be in [1, {n}], got {num_pivots}"
        )
    if global_iter < 1 or swap_iter < 0:
        raise ValidationError("global_iter must be >= 1 and swap_iter >= 0")
    if num_pivots == n:
        return tuple(range(n))
    gen = default_rng(rng)
    # No draw depends on a cost (a swap draws from ``num_pivots`` and
    # ``n - num_pivots`` whatever was accepted), so every restart's draws
    # are taken first, call for call in the per-candidate search's order.
    # A candidate can then only hold a restart's starting pivots or the
    # starting non-pivots its swaps index, and just those rows of ``D``
    # are formed, with one GEMM.
    restarts = []
    for _restart in range(global_iter):
        start = gen.choice(n, size=num_pivots, replace=False)
        outside = np.ones(n, dtype=bool)
        outside[start] = False
        non_pivots = np.flatnonzero(outside)
        swaps = [
            (int(gen.integers(num_pivots)), int(gen.integers(non_pivots.shape[0])))
            for _swap in range(swap_iter)
        ]
        restarts.append((start, non_pivots, swaps))
    used = np.unique(
        np.concatenate(
            [start for start, _, _ in restarts]
            + [non_pivots[[j for _, j in swaps]] for _, non_pivots, swaps in restarts]
        )
    )
    col_sq = np.sum(std * std, axis=0)
    sq = (col_sq[used][:, np.newaxis] + col_sq[np.newaxis, :]) - 2.0 * (
        std[:, used].T @ std
    )
    np.maximum(sq, 0.0, out=sq)
    rows = np.sqrt(sq)
    slot = np.empty(n, dtype=np.intp)
    slot[used] = np.arange(used.size)
    band = _guard_band(std, col_sq)

    def scored(pivots: np.ndarray) -> _Scored:
        return _Scored(pivots, float(2.0 * rows[slot[pivots]].min(axis=0).sum()))

    def cheaper(a: _Scored, b: _Scored) -> bool:
        """Whether ``pivot_cost(a) < pivot_cost(b)``."""
        gap = b.cost - a.cost
        margin = band(a.cost, b.cost)
        if gap > margin:
            return True
        if gap < -margin:
            return False
        for s in (a, b):
            if s.exact is None:
                s.exact = pivot_cost(std, s.pivots)
        return a.exact < b.exact

    best: _Scored | None = None
    for start, non_pivots, swaps in restarts:
        local = scored(start)
        for r, j in swaps:
            candidate = local.pivots.copy()
            swapped_out = candidate[r]
            candidate[r] = non_pivots[j]
            challenger = scored(candidate)
            if cheaper(challenger, local):
                local = challenger
                non_pivots[j] = swapped_out
        if best is None or cheaper(local, best):
            best = local
    return tuple(sorted(int(i) for i in best.pivots))


def select_pivots_random(
    matrix: np.ndarray,
    num_pivots: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """Random pivot choice -- the ablation baseline for the cost model."""
    arr = np.asarray(matrix, dtype=np.float64)
    n = arr.shape[1]
    if not 1 <= num_pivots <= n:
        raise ValidationError(
            f"num_pivots must be in [1, {n}], got {num_pivots}"
        )
    gen = default_rng(rng)
    chosen = gen.choice(n, size=num_pivots, replace=False)
    return tuple(sorted(int(i) for i in chosen))
