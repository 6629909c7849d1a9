"""Pivot-based matrix embedding into a ``2d+1``-dimensional space (§4.2, §5.1).

Gene feature vectors have matrix-specific lengths ``l_i``, so they cannot be
indexed directly. For each matrix the engine selects ``d`` pivot columns and
embeds every gene vector ``X_s`` as

    g_{i,s} = ( x_s[1], y_s[1]; ...; x_s[d], y_s[d]; gene_id )

where ``x_s[r] = dist(X_s, piv_r)`` and ``y_s[r] = E[dist(X_s^R, piv_r)]``.
All embedded points -- regardless of the source matrix's dimensions -- live
in the same ``2d+1``-dimensional space and go into one index tree. The
gene-ID coordinate groups equal genes from different sources together,
which is what makes the bit-vector + MBR filters effective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, ValidationError
from .pivots import _pairwise_distances_to, select_pivots, select_pivots_random
from .randomization import (
    default_rng,
    expected_randomized_distance_jensen,
    expected_randomized_distance_mc,
)
from .standardize import standardize_matrix

__all__ = ["EmbeddedMatrix", "embed_matrix", "interleave_coordinates"]


@dataclass(frozen=True)
class EmbeddedMatrix:
    """Embedded coordinates of one gene feature matrix.

    Attributes
    ----------
    source_id:
        The data-source ID ``i`` of the matrix.
    gene_ids:
        ``n`` global gene labels (one per column of the source matrix).
    pivot_indices:
        Column indices (within the source matrix) of the ``d`` pivots.
    x:
        ``n x d`` pivot distances ``x_s[r] = dist(X_s, piv_r)`` on
        standardized vectors.
    y:
        ``n x d`` expected randomized distances
        ``y_s[r] = E[dist(X_s^R, piv_r)]`` (or the Jensen upper bound,
        depending on the embedding mode).
    """

    source_id: int
    gene_ids: tuple[int, ...]
    pivot_indices: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray

    @property
    def num_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def num_pivots(self) -> int:
        return len(self.pivot_indices)

    def point(self, gene_index: int) -> np.ndarray:
        """The ``2d+1``-dim index point of one gene (interleaved + gene ID)."""
        if not 0 <= gene_index < self.num_genes:
            raise ValidationError(
                f"gene_index {gene_index} out of range [0, {self.num_genes})"
            )
        return interleave_coordinates(
            self.x[gene_index], self.y[gene_index], self.gene_ids[gene_index]
        )

    def points(self) -> np.ndarray:
        """All index points as an ``n x (2d+1)`` array."""
        n, d = self.x.shape
        out = np.empty((n, 2 * d + 1), dtype=np.float64)
        out[:, 0 : 2 * d : 2] = self.x
        out[:, 1 : 2 * d : 2] = self.y
        out[:, 2 * d] = np.asarray(self.gene_ids, dtype=np.float64)
        return out


def interleave_coordinates(x: np.ndarray, y: np.ndarray, gene_id: int) -> np.ndarray:
    """Build one ``(x[1], y[1], ..., x[d], y[d], gene_id)`` index point."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(
            f"x/y coordinate shapes differ: {x.shape} vs {y.shape}"
        )
    d = x.shape[0]
    out = np.empty(2 * d + 1, dtype=np.float64)
    out[0 : 2 * d : 2] = x
    out[1 : 2 * d : 2] = y
    out[2 * d] = float(gene_id)
    return out


def embed_matrix(
    matrix: np.ndarray,
    gene_ids: tuple[int, ...] | list[int],
    source_id: int,
    num_pivots: int,
    expectation_mode: str = "jensen",
    expectation_samples: int = 32,
    pivot_strategy: str = "cost_model",
    pivot_global_iter: int = 3,
    pivot_swap_iter: int = 20,
    rng: np.random.Generator | int | None = None,
    tracer=None,
) -> EmbeddedMatrix:
    """Embed one matrix: select pivots, compute ``x`` and ``y`` coordinates.

    Parameters
    ----------
    matrix:
        Raw ``l x n`` gene feature matrix.
    gene_ids:
        ``n`` unique global gene labels.
    source_id:
        Data-source ID of the matrix.
    num_pivots:
        ``d``; clamped guidance: must be ``<= n``.
    expectation_mode:
        ``"jensen"`` (closed-form sound bound, default) or ``"mc"``
        (Monte-Carlo estimate, as pre-computed offline in the paper).
    expectation_samples:
        Sample count for the MC mode.
    pivot_strategy:
        ``"cost_model"`` (Fig. 3) or ``"random"`` (ablation baseline).
    rng:
        Random source shared by pivot selection and MC expectations.
    tracer:
        Optional :class:`repro.obs.Tracer`; records ``build.pivots`` and
        ``build.coordinates`` sub-spans when tracing is on.
    """
    if tracer is None:
        from ..obs import NOOP_TRACER

        tracer = NOOP_TRACER
    ids = tuple(int(g) for g in gene_ids)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(ids):
        raise DimensionMismatchError(
            f"matrix shape {arr.shape} does not match {len(ids)} gene IDs"
        )
    if expectation_mode not in ("jensen", "mc"):
        raise ValidationError(
            f"expectation_mode must be 'jensen' or 'mc', got {expectation_mode!r}"
        )
    if pivot_strategy not in ("cost_model", "random"):
        raise ValidationError(
            f"pivot_strategy must be 'cost_model' or 'random', got {pivot_strategy!r}"
        )
    gen = default_rng(rng)
    with tracer.span(
        "build.pivots", source=int(source_id), strategy=pivot_strategy
    ):
        if pivot_strategy == "cost_model":
            pivot_indices = select_pivots(
                arr,
                num_pivots,
                global_iter=pivot_global_iter,
                swap_iter=pivot_swap_iter,
                rng=gen,
            )
        else:
            pivot_indices = select_pivots_random(arr, num_pivots, rng=gen)

    with tracer.span(
        "build.coordinates", source=int(source_id), mode=expectation_mode
    ):
        std = standardize_matrix(arr)
        piv = np.asarray(pivot_indices, dtype=np.intp)
        x = _pairwise_distances_to(std, piv)

        n = std.shape[1]
        d = len(pivot_indices)
        y = np.empty((n, d), dtype=np.float64)
        if expectation_mode == "jensen":
            for s in range(n):
                for r in range(d):
                    y[s, r] = expected_randomized_distance_jensen(
                        std[:, s], std[:, piv[r]]
                    )
        else:
            for s in range(n):
                for r in range(d):
                    y[s, r] = expected_randomized_distance_mc(
                        std[:, s],
                        std[:, piv[r]],
                        n_samples=expectation_samples,
                        rng=gen,
                    )
    x.setflags(write=False)
    y.setflags(write=False)
    return EmbeddedMatrix(
        source_id=int(source_id),
        gene_ids=ids,
        pivot_indices=pivot_indices,
        x=x,
        y=y,
    )
