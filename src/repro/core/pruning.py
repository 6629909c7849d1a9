"""Pruning strategies of Sections 3.2, 4.2 and 5.1.

Four sound filters, all derived from the Markov inequality applied to the
random distance ``Z = dist(X_s, X_t^R)``:

* **Edge inference pruning** (Lemmas 3-4): the edge ``e_{s,t}`` cannot
  exist when ``ub_P(e_{s,t}) = E(Z) / dist(X_s, X_t) <= gamma``.
* **Graph existence pruning** (Lemma 5): a candidate subgraph cannot be an
  answer when the product of its edge upper bounds is ``<= alpha``.
* **Pivot-based pruning** (Section 4.2, Eq. 7-9): the same bound computed
  purely from the ``2d``-dimensional embedded coordinates -- no access to
  the raw vectors -- via the triangle inequality through pivots.
* **Index pruning** (Lemma 6): the pivot bound lifted to index-node MBRs, so
  whole node pairs are discarded at once.

Soundness: every bound here *over*-estimates the true probability, so a
pruned edge/subgraph/node-pair can never be a true answer (no false
dismissals), provided the supplied expectations ``E[dist(X^R, .)]`` are
themselves upper bounds -- which the default Jensen mode guarantees.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..errors import ValidationError

__all__ = [
    "markov_edge_upper_bound",
    "markov_edge_upper_bounds",
    "edge_inference_prunable",
    "graph_existence_upper_bound",
    "graph_existence_prunable",
    "relaxed_graph_existence_upper_bound",
    "pivot_edge_upper_bound",
    "pivot_edge_upper_bounds",
    "pivot_pruning_condition",
    "index_pair_prunable",
    "index_pairs_prunable",
]


# ----------------------------------------------------------------------
# Lemmas 3-4: edge inference pruning
# ----------------------------------------------------------------------
def markov_edge_upper_bound(distance: float, expected_z: float) -> float:
    """Lemma-4 upper bound ``ub_P(e_{s,t}) = E(Z) / dist(X_s, X_t)``.

    Parameters
    ----------
    distance:
        Observed distance ``dist(X_s, X_t)`` between standardized vectors.
    expected_z:
        (An upper bound on) ``E[dist(X_s, X_t^R)]``; use
        :func:`repro.core.randomization.expected_randomized_distance_jensen`
        for a sound closed form.

    Returns
    -------
    float
        The bound clamped to ``[0, 1]`` (a probability upper bound larger
        than 1 is vacuous). A zero distance means the vectors coincide and
        nothing can be pruned, so the bound is 1.
    """
    if distance < 0.0:
        raise ValidationError(f"distance must be >= 0, got {distance}")
    if expected_z < 0.0:
        raise ValidationError(f"expected_z must be >= 0, got {expected_z}")
    if distance == 0.0:
        return 1.0
    return min(1.0, expected_z / distance)


def markov_edge_upper_bounds(
    distances: np.ndarray, expected_z: np.ndarray | float
) -> np.ndarray:
    """Vectorized Lemma 4 over ``n`` pairs.

    Entry ``i`` equals :func:`markov_edge_upper_bound` on
    ``(distances[i], expected_z[i])`` bit for bit: one IEEE division and
    the same clamp (a zero distance gives the vacuous 1.0, as does a
    NaN ratio, which the scalar ``min`` never selects).

    Parameters
    ----------
    distances:
        ``(n,)`` observed distances ``dist(X_s, X_t)``.
    expected_z:
        ``(n,)`` (upper bounds on the) expectations ``E[dist(X_s,
        X_t^R)]``, or one scalar shared by every pair.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 1:
        raise ValidationError(f"distances must be 1-D, got shape {distances.shape}")
    expected_z = np.broadcast_to(
        np.asarray(expected_z, dtype=np.float64), distances.shape
    )
    if (distances < 0.0).any():
        raise ValidationError("distances must be >= 0")
    if (expected_z < 0.0).any():
        raise ValidationError("expected_z must be >= 0")
    with np.errstate(all="ignore"):
        ratio = expected_z / distances
    return np.where((distances == 0.0) | ~(ratio < 1.0), 1.0, ratio)


def edge_inference_prunable(upper_bound: float, gamma: float) -> bool:
    """Lemma 3: the edge cannot exist when ``ub_P(e_{s,t}) <= gamma``."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    return upper_bound <= gamma


# ----------------------------------------------------------------------
# Lemma 5: graph existence pruning
# ----------------------------------------------------------------------
def graph_existence_upper_bound(edge_upper_bounds: Iterable[float]) -> float:
    """``UB_Pr{G} = prod ub_P(e_{s,t})`` over the candidate's query edges."""
    product = 1.0
    for bound in edge_upper_bounds:
        if not 0.0 <= bound <= 1.0:
            raise ValidationError(
                f"edge upper bound must be in [0,1], got {bound}"
            )
        product *= bound
        if product == 0.0:
            return 0.0
    return product


def relaxed_graph_existence_upper_bound(
    edge_upper_bounds: Iterable[float], budget: int
) -> float:
    """Budget-aware Lemma 5 for similarity search.

    A similarity candidate may still drop up to ``budget`` of its
    *present* candidate edges during refinement (each could turn out to
    have ``p <= gamma`` and be absorbed by the remaining edge budget), and
    a dropped edge leaves the matched-product unchanged. The tightest
    sound upper bound on the achievable matched probability is therefore
    the product of the edge bounds *after discarding the ``budget``
    smallest ones* -- discarding small factors maximizes the product, so
    every reachable refinement outcome is dominated.

    ``budget <= 0`` delegates to :func:`graph_existence_upper_bound`
    verbatim (same multiplication order), so an exhausted budget is
    bit-identical to the containment bound.
    """
    values = list(edge_upper_bounds)
    if budget <= 0:
        return graph_existence_upper_bound(values)
    for bound in values:
        if not 0.0 <= bound <= 1.0:
            raise ValidationError(
                f"edge upper bound must be in [0,1], got {bound}"
            )
    values.sort()
    product = 1.0
    for bound in values[min(budget, len(values)) :]:
        product *= bound
        if product == 0.0:
            return 0.0
    return product


def graph_existence_prunable(upper_bound: float, alpha: float) -> bool:
    """Lemma 5: the candidate subgraph is a false alarm when
    ``UB_Pr{G} <= alpha``."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must be in [0,1), got {alpha}")
    return upper_bound <= alpha


# ----------------------------------------------------------------------
# Section 4.2: pivot-based pruning on embedded coordinates
# ----------------------------------------------------------------------
def pivot_edge_upper_bound(
    xs: np.ndarray, xt: np.ndarray, yt: np.ndarray
) -> float:
    """Pivot upper bound ``min_w ub_P(e_{s,t}, piv_w)`` from Eq. 7.

    Works entirely in the embedded space: for pivot ``w``,

        C_w = max_r |x_s[r] - x_t[r]| - x_s[w]
        ub  = 1                 if C_w <= 0          (Case 1)
        ub  = y_t[w] / C_w      otherwise            (Case 2)

    where ``x_s[r] = dist(X_s, piv_r)``, ``x_t[r] = dist(X_t, piv_r)`` and
    ``y_t[w] = E[dist(X_t^R, piv_w)]``. ``max_r |x_s[r]-x_t[r]|`` is the
    triangle-inequality lower bound on ``dist(X_s, X_t)``, so the bound is
    never tighter than Lemma 4 computed on the true distance -- but needs
    only the ``2d`` embedded coordinates.

    Parameters
    ----------
    xs, xt:
        Length-``d`` pivot-distance coordinates of genes ``s`` and ``t``.
    yt:
        Length-``d`` expected randomized distances of gene ``t``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    yt = np.asarray(yt, dtype=np.float64)
    if xs.shape != xt.shape or xs.shape != yt.shape or xs.ndim != 1:
        raise ValidationError(
            f"coordinate shapes differ: {xs.shape}, {xt.shape}, {yt.shape}"
        )
    lower_dist = float(np.max(np.abs(xs - xt)))
    best = 1.0
    for w in range(xs.shape[0]):
        c = lower_dist - float(xs[w])
        if c <= 0.0:
            continue  # Case 1: vacuous bound for this pivot
        best = min(best, float(yt[w]) / c)
    return max(0.0, best)


def pivot_edge_upper_bounds(
    xs: np.ndarray, xt: np.ndarray, yt: np.ndarray
) -> np.ndarray:
    """Vectorized Eq. 7 over ``n`` row-aligned embedded pairs.

    Row ``i`` of the three ``(n, d)`` arrays holds one pair's ``x_s``,
    ``x_t`` and ``y_t``, and entry ``i`` of the result equals
    :func:`pivot_edge_upper_bound` on those rows, bit for bit: the
    elementwise subtract, divide and compare are the scalar loop's
    operations, and a min over the pivots (Case-1 pivots and NaN ratios
    skipped, as the scalar ``min`` skips them) picks the same value.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    yt = np.asarray(yt, dtype=np.float64)
    if xs.ndim != 2 or not xs.shape == xt.shape == yt.shape:
        raise ValidationError(
            "coordinate arrays must share one 2-D (pairs x pivots) shape, "
            f"got {xs.shape}, {xt.shape}, {yt.shape}"
        )
    c = np.abs(xs - xt).max(axis=1)[:, None] - xs
    with np.errstate(all="ignore"):
        ratio = np.where(c <= 0.0, 1.0, yt / c)  # Case 1: vacuous
    best = np.fmin.reduce(ratio, axis=1, initial=1.0)
    return np.where(best > 0.0, best, 0.0)


def pivot_pruning_condition(
    xs: np.ndarray, xt: np.ndarray, yt: np.ndarray, gamma: float
) -> bool:
    """True if the embedded pair falls in some pivot pruning region (PPR).

    Equivalent to ``pivot_edge_upper_bound(...) <= gamma`` -- i.e. there is
    a pivot ``w`` and a dimension ``r`` with ``x_t[r] >= x_s[r] + x_s[w]``
    (Case 2 applies) and ``y_t[w] <= gamma * (|x_s[r]-x_t[r]| - x_s[w])``,
    which is the shaded region of Fig. 2.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    return pivot_edge_upper_bound(xs, xt, yt) <= gamma


# ----------------------------------------------------------------------
# Lemma 6: index-level pruning on MBRs
# ----------------------------------------------------------------------
def index_pair_prunable(
    ea_x_max: np.ndarray,
    eb_x_min: np.ndarray,
    eb_y_max: np.ndarray,
    gamma: float,
) -> bool:
    """Lemma 6: prune the node pair ``(E_a, E_b)`` entirely.

    The pair is prunable when there exists a pivot dimension ``w`` with

        E_by^+[w] <= max_r { gamma*E_bx^-[r] - gamma*E_ax^+[r] } - gamma*E_ax^+[w]

    (Inequality 10). Every possible edge between a gene in ``E_a`` and a
    gene in ``E_b`` then has ``ub_P <= gamma``, because the MBR corners
    over-relax each per-point quantity: ``y_t[w]`` is replaced by its node
    maximum, ``x_t[r]`` by its node minimum, and ``x_s[r]``, ``x_s[w]`` by
    their node maxima (Appendix F). Note the bound uses the *one-sided*
    difference ``x_t[r] - x_s[r]`` (Eq. 9), which is weaker than the
    absolute version but monotone in the MBR corners -- exactly why it
    lifts to nodes.

    Parameters
    ----------
    ea_x_max:
        Per-pivot maxima of ``dist(X_s, piv_r)`` over genes in ``E_a``
        (``E_ax^+``), length ``d``.
    eb_x_min:
        Per-pivot minima of ``dist(X_t, piv_r)`` over genes in ``E_b``
        (``E_bx^-``), length ``d``.
    eb_y_max:
        Per-pivot maxima of ``E[dist(X_t^R, piv_w)]`` over genes in
        ``E_b`` (``E_by^+``), length ``d``.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    ea_x_max = np.asarray(ea_x_max, dtype=np.float64)
    eb_x_min = np.asarray(eb_x_min, dtype=np.float64)
    eb_y_max = np.asarray(eb_y_max, dtype=np.float64)
    if not ea_x_max.shape == eb_x_min.shape == eb_y_max.shape or ea_x_max.ndim != 1:
        raise ValidationError("MBR corner arrays must share a 1-D shape")
    if gamma == 0.0:
        # The RHS of Inequality 10 is <= 0 while y >= 0; pruning would need
        # y exactly 0, which cannot certify Pr <= 0 for MC-estimated y.
        return False
    best_gap = float(np.max(gamma * eb_x_min - gamma * ea_x_max))
    threshold = best_gap - gamma * ea_x_max
    return bool(np.any(eb_y_max <= threshold))


def index_pairs_prunable(
    ea_x_max: np.ndarray,
    eb_x_min: np.ndarray,
    eb_y_max: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Vectorized Lemma 6 over ``n`` row-aligned ``(E_a, E_b)`` node pairs.

    Row ``i`` of the three corner arrays describes one node pair, and
    entry ``i`` of the result equals :func:`index_pair_prunable` on those
    rows, bit for bit (the per-element operations -- multiply by
    ``gamma``, subtract, max, compare -- are identical, so the boolean
    verdicts cannot drift). A cross product of ``n_s`` anchors and
    ``n_t`` neighbors is passed as ``n_s * n_t`` gathered rows.

    Parameters
    ----------
    ea_x_max:
        ``(n, d)`` per-pivot maxima ``E_ax^+`` of each pair's anchor node.
    eb_x_min:
        ``(n, d)`` per-pivot minima ``E_bx^-`` of each pair's neighbor node.
    eb_y_max:
        ``(n, d)`` per-pivot maxima ``E_by^+`` of each pair's neighbor node.

    Returns
    -------
    np.ndarray
        ``(n,)`` boolean vector; ``True`` where the pair is prunable.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    ea_x_max = np.asarray(ea_x_max, dtype=np.float64)
    eb_x_min = np.asarray(eb_x_min, dtype=np.float64)
    eb_y_max = np.asarray(eb_y_max, dtype=np.float64)
    if ea_x_max.ndim != 2 or not ea_x_max.shape == eb_x_min.shape == eb_y_max.shape:
        raise ValidationError(
            "corner arrays must share one 2-D (pairs x pivots) shape, got "
            f"{ea_x_max.shape}, {eb_x_min.shape}, {eb_y_max.shape}"
        )
    if gamma == 0.0:
        # Same convention as the scalar path: gamma == 0 never prunes.
        return np.zeros(ea_x_max.shape[0], dtype=bool)
    gamma_s = gamma * ea_x_max
    best_gap = (gamma * eb_x_min - gamma_s).max(axis=1)
    threshold = best_gap[:, None] - gamma_s
    return (eb_y_max <= threshold).any(axis=1)


def combine_edge_bounds(markov: float, pivot: float) -> float:
    """Tightest available sound bound for one edge (min of the two)."""
    if math.isnan(markov) or math.isnan(pivot):
        raise ValidationError("edge bounds must not be NaN")
    return min(markov, pivot)
