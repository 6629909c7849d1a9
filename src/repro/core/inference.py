"""Edge-probability estimation and ad-hoc GRN inference.

This is the paper's core contribution (Definition 2 + Lemma 1): the
existence probability of the edge between genes ``s`` and ``t`` is

    e_{s,t}.p = Pr{ r(X_s, X_t) > r(X_s, X_t^R) }            (Eq. 1)
             = Pr{ dist(X_s, X_t^R) > dist(X_s, X_t) }       (Eq. 4, Lemma 1)

over uniformly random permutations ``X_t^R`` of ``X_t``, where ``r`` is the
absolute Pearson coefficient and both vectors are standardized.

**Semantics note.** For z-scored vectors (``||X||^2 = l``) the Appendix-B
identity gives ``|r| = |dot| / l`` and ``dist^2 = 2l - 2 dot``, so

* Eq. 1 compares ``|dot(X_s, X_t)| > |dot(X_s, X_t^R)|``  (two-sided),
* Eq. 4 compares ``dot(X_s, X_t) > dot(X_s, X_t^R)``      (one-sided),

and the two coincide exactly when ``dot(X_s, X_t) >= |dot(X_s, X_t^R)|``
for the permutations in play -- in practice, for non-negatively correlated
pairs (the regime Appendix B's ``dist^2 <= 4`` assumption describes). Both
are implemented: ``semantics="one_sided"`` is the Eq.-4 form that every
pruning/embedding bound in this library provably upper-bounds (the query
engine uses it); ``semantics="two_sided"`` is the literal Eq.-1 measure
(the robust permutation test on the absolute coefficient) used by the ROC
accuracy experiments.

**Blessed entrypoint.** :func:`edge_probability` is the one public way to
compute edge probabilities: ``edge_probability(x_s, x_t, method=...)``
dispatches to the Monte-Carlo distance form (``"distance"``, the
default), the literal Eq.-1 correlation form (``"correlation"``), exact
``l!`` enumeration (``"exact"``), or -- with a single matrix argument --
the vectorized all-pairs sweep (``"matrix"``). The historical
``edge_probability_{distance,correlation,exact,matrix}`` names remain as
thin deprecated aliases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import InferenceConfig
from ..errors import ValidationError
from .batch_inference import batched_probability_matrix
from .correlation import absolute_pearson
from .probgraph import ProbabilisticGraph
from .randomization import (
    MAX_EXACT_LENGTH,
    content_seed,
    default_rng,
    lemma2_sample_size,
    permutation_beaten,
)
from .standardize import standardize_vector

__all__ = [
    "EdgeProbabilityEstimator",
    "edge_probability",
    "infer_grn",
    "infer_grn_correlation",
    "infer_grn_partial_correlation",
]

_SEMANTICS = ("one_sided", "two_sided")


def _check_semantics(semantics: str) -> None:
    if semantics not in _SEMANTICS:
        raise ValidationError(
            f"semantics must be one of {_SEMANTICS}, got {semantics!r}"
        )


def _dot_samples(
    xs: np.ndarray,
    xt: np.ndarray,
    n_samples: int,
    rng: np.random.Generator | int | None,
) -> tuple[float, np.ndarray]:
    """Observed dot product and permutation-sampled dot products.

    For standardized vectors the distance comparison of Eq. 4 reduces to a
    dot-product comparison (``dist^2 = 2l - 2 dot``), which is what all the
    estimators below share.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    gen = default_rng(rng)
    observed = float(xs @ xt)
    permuted = gen.permuted(np.tile(xt, (n_samples, 1)), axis=1)
    return observed, permuted @ xs


def _distance_probability(
    x_s: np.ndarray,
    x_t: np.ndarray,
    n_samples: int = 200,
    rng: np.random.Generator | int | None = None,
    semantics: str = "one_sided",
) -> float:
    """Monte-Carlo edge probability (Eq. 4 / Eq. 1, see module doc).

    Both inputs are standardized internally. The randomized vector is a
    permutation of ``x_t``, matching the paper's asymmetric definition
    (``e_{s,t}.p`` randomizes the second argument).
    """
    _check_semantics(semantics)
    xs = standardize_vector(np.asarray(x_s, dtype=np.float64))
    xt = standardize_vector(np.asarray(x_t, dtype=np.float64))
    observed, sampled = _dot_samples(xs, xt, n_samples, rng)
    # dist(X_s, X_t^R) > dist(X_s, X_t)  <=>  dot^R < dot
    return float(
        np.mean(permutation_beaten(observed, sampled, xt.shape[0], semantics))
    )


def _correlation_probability(
    x_s: np.ndarray,
    x_t: np.ndarray,
    n_samples: int = 200,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Literal Eq.-1 Monte-Carlo estimate via absolute Pearson coefficients.

    Slower reference implementation used to validate that the two-sided
    dot-product form is exactly Eq. 1.
    """
    xs = np.asarray(x_s, dtype=np.float64)
    xt = np.asarray(x_t, dtype=np.float64)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    observed = absolute_pearson(xs, xt)
    gen = default_rng(rng)
    permuted = gen.permuted(np.tile(xt, (n_samples, 1)), axis=1)
    hits = 0
    for row in permuted:
        if observed > absolute_pearson(xs, row):
            hits += 1
    return hits / n_samples


def _exact_probability(
    x_s: np.ndarray, x_t: np.ndarray, semantics: str = "one_sided"
) -> float:
    """Exact edge probability by enumerating all ``l!`` permutations.

    Only valid for ``len(x_t) <= 8``; the ground truth for the Monte-Carlo
    estimators in tests.
    """
    import itertools

    _check_semantics(semantics)
    xs = standardize_vector(np.asarray(x_s, dtype=np.float64))
    xt = standardize_vector(np.asarray(x_t, dtype=np.float64))
    length = xt.shape[0]
    if length > MAX_EXACT_LENGTH:
        raise ValidationError(
            f"exact enumeration limited to length <= {MAX_EXACT_LENGTH}, "
            f"got {length}"
        )
    observed = float(xs @ xt)
    perms = np.array(list(itertools.permutations(xt.tolist())), dtype=np.float64)
    sampled = perms @ xs
    return float(np.mean(permutation_beaten(observed, sampled, length, semantics)))


@dataclass(frozen=True)
class EdgeProbabilityEstimator:
    """Configured estimator for edge existence probabilities.

    Bundles the sampling policy so the query engine, the baselines and the
    experiments all compute probabilities identically.

    Attributes
    ----------
    n_samples:
        Monte-Carlo sample count ``S``; ``None`` derives it from
        ``(epsilon, delta)`` via Lemma 2.
    epsilon, delta:
        Lemma-2 approximation parameters (used when ``n_samples is None``).
    exact_below:
        Vector lengths ``l <= exact_below`` use exact ``l!`` enumeration
        instead of sampling (capped at 8).
    semantics:
        ``"one_sided"`` (Eq. 4; what the pruning bounds cover) or
        ``"two_sided"`` (Eq. 1; the robust absolute-correlation test).
    seed:
        Base seed. The permutation stream of each estimate is keyed by
        ``(seed, content of the *standardized* randomized vector)``, so
        the same pair yields bit-identical estimates in every code path
        (single-pair, all-pairs matrix, batched engine, baseline store)
        and in any evaluation order -- and estimates are invariant to
        per-column affine transforms, matching the measure itself.
    """

    n_samples: int | None = 200
    epsilon: float = 0.25
    delta: float = 0.05
    exact_below: int = 0
    semantics: str = "one_sided"
    seed: int = 7

    def __post_init__(self) -> None:
        _check_semantics(self.semantics)

    def resolved_samples(self) -> int:
        """The concrete sample count (applies Lemma 2 when unset)."""
        if self.n_samples is not None:
            return self.n_samples
        return lemma2_sample_size(self.epsilon, self.delta)

    def pair_probability(self, x_s: np.ndarray, x_t: np.ndarray) -> float:
        """Edge probability for one vector pair (randomizes ``x_t``).

        The permutation stream is keyed by the content of the standardized
        ``x_t``, matching ``edge_probability(..., method="matrix")`` and
        the batched engine exactly, so a pair's probability is the same
        whether estimated alone or inside an all-pairs sweep.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        length = int(x_t.shape[0])
        if 0 < length <= min(self.exact_below, MAX_EXACT_LENGTH):
            return _exact_probability(x_s, x_t, self.semantics)
        xs = standardize_vector(np.asarray(x_s, dtype=np.float64))
        xt = standardize_vector(x_t)
        return self.sampled_probability_std(xs, xt)

    def sampled_probability_std(self, xs: np.ndarray, xt: np.ndarray) -> float:
        """Monte-Carlo probability for one *already standardized* pair.

        The shared scalar kernel: the permutation stream is derived from
        ``(seed, content_seed(xt))``, which is what makes every execution
        strategy (scalar, batched, cached, parallel) agree bit-for-bit.
        """
        rng = np.random.default_rng((self.seed, content_seed(xt)))
        observed = float(xs @ xt)
        permuted = rng.permuted(
            np.tile(xt, (self.resolved_samples(), 1)), axis=1
        )
        sampled = permuted @ xs
        return float(
            np.mean(
                permutation_beaten(observed, sampled, xt.shape[0], self.semantics)
            )
        )

    def probability_matrix(
        self, matrix: np.ndarray, inference: InferenceConfig | None = None
    ) -> np.ndarray:
        """All-pairs edge probabilities for the columns of ``matrix``.

        ``inference`` tunes batching only; the probabilities are
        identical for every setting (and to the scalar path).
        """
        cfg = inference or InferenceConfig()
        return _matrix_probability(
            matrix,
            n_samples=self.resolved_samples(),
            seed=self.seed,
            semantics=self.semantics,
            batch_size=cfg.batch_size,
        )


def _matrix_probability(
    matrix: np.ndarray,
    n_samples: int = 200,
    seed: int = 7,
    semantics: str = "one_sided",
    batch_size: int = 32,
) -> np.ndarray:
    """All-pairs edge probabilities for the columns of an ``l x n`` matrix.

    Vectorized over pairs: one permutation batch per column ``t`` scores
    all ``s < t`` at once, and ``batch_size`` columns share one matrix
    multiply (see :mod:`repro.core.batch_inference`); ``batch_size`` never
    changes the returned probabilities.

    Returns
    -------
    numpy.ndarray
        ``n x n`` with zero diagonal. The measure randomizes the *second*
        vector, so one probability is computed per unordered pair (with
        ``t`` the larger column index, following the paper's single value
        per edge) and mirrored to keep the matrix symmetric.
    """
    _check_semantics(semantics)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    return batched_probability_matrix(
        matrix,
        n_samples=n_samples,
        seed=seed,
        semantics=semantics,
        batch_size=batch_size,
    )


_EDGE_PROBABILITY_METHODS = ("distance", "correlation", "exact", "matrix")


def edge_probability(
    x_s: np.ndarray,
    x_t: np.ndarray | None = None,
    *,
    method: str = "distance",
    **kwargs: object,
):
    """Edge existence probability -- the one blessed entrypoint.

    Parameters
    ----------
    x_s, x_t:
        The gene feature vector pair. For ``method="matrix"`` pass a
        single ``l x n`` matrix as ``x_s`` (``x_t`` must be omitted) and
        an ``n x n`` probability matrix is returned.
    method:
        * ``"distance"`` (default) -- Monte-Carlo estimate of the Eq.-4
          distance comparison (kwargs: ``n_samples``, ``rng``,
          ``semantics``);
        * ``"correlation"`` -- literal Eq.-1 permutation test on the
          absolute Pearson coefficient (kwargs: ``n_samples``, ``rng``);
        * ``"exact"`` -- full ``l!`` enumeration, ``l <= 8`` (kwargs:
          ``semantics``);
        * ``"matrix"`` -- vectorized all-pairs sweep (kwargs:
          ``n_samples``, ``seed``, ``semantics``, ``batch_size``).

    Returns
    -------
    float (pair methods) or numpy.ndarray (``method="matrix"``).
    """
    if method not in _EDGE_PROBABILITY_METHODS:
        raise ValidationError(
            f"method must be one of {_EDGE_PROBABILITY_METHODS}, got {method!r}"
        )
    if method == "matrix":
        if x_t is not None:
            raise ValidationError(
                "method='matrix' takes a single l x n matrix; "
                "pass it as the first argument only"
            )
        return _matrix_probability(x_s, **kwargs)  # type: ignore[arg-type]
    if x_t is None:
        raise ValidationError(f"method={method!r} requires both x_s and x_t")
    if method == "distance":
        return _distance_probability(x_s, x_t, **kwargs)  # type: ignore[arg-type]
    if method == "correlation":
        return _correlation_probability(x_s, x_t, **kwargs)  # type: ignore[arg-type]
    return _exact_probability(x_s, x_t, **kwargs)  # type: ignore[arg-type]


def infer_grn(
    matrix: np.ndarray,
    gene_ids: tuple[int, ...] | list[int] | np.ndarray,
    gamma: float,
    estimator: EdgeProbabilityEstimator | None = None,
    inference: InferenceConfig | None = None,
) -> ProbabilisticGraph:
    """Infer the probabilistic GRN of a feature matrix (Definitions 2-3).

    Computes all pairwise edge probabilities and keeps edges with
    ``p > gamma``. This is the *materializing* inference used for query
    graphs and refinement; the query engine avoids calling it on whole
    databases thanks to the pruning/indexing machinery.

    Parameters
    ----------
    matrix:
        ``l x n`` gene feature matrix (columns are genes).
    gene_ids:
        ``n`` unique integer gene labels for the columns.
    gamma:
        Ad-hoc inference threshold in ``[0, 1)``.
    estimator:
        Sampling policy; defaults to :class:`EdgeProbabilityEstimator()`.
    inference:
        Batching knobs for the all-pairs sweep; the inferred
        graph is identical for every setting (and the same seed).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    ids = tuple(int(g) for g in gene_ids)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(ids):
        raise ValidationError(
            f"matrix shape {arr.shape} does not match {len(ids)} gene IDs"
        )
    est = estimator or EdgeProbabilityEstimator()
    probs = est.probability_matrix(arr, inference=inference)
    rows, cols = np.triu_indices(len(ids), k=1)
    keep = probs[rows, cols] > gamma
    edges = {
        (ids[int(s)], ids[int(t)]): float(probs[s, t])
        for s, t in zip(rows[keep], cols[keep])
    }
    return ProbabilisticGraph(ids, edges)


def infer_grn_correlation(
    matrix: np.ndarray,
    gene_ids: tuple[int, ...] | list[int] | np.ndarray,
    threshold: float,
) -> ProbabilisticGraph:
    """The ``Correlation`` competitor: threshold absolute Pearson scores.

    Edges whose absolute Pearson coefficient exceeds ``threshold`` are kept,
    carrying the coefficient itself as the edge weight (relevance networks
    [4] have no probabilistic semantics; the weight is stored for reporting
    only).
    """
    from .correlation import absolute_correlation_matrix

    ids = tuple(int(g) for g in gene_ids)
    scores = absolute_correlation_matrix(np.asarray(matrix, dtype=np.float64))
    return _threshold_score_graph(ids, scores, threshold)


def infer_grn_partial_correlation(
    matrix: np.ndarray,
    gene_ids: tuple[int, ...] | list[int] | np.ndarray,
    threshold: float,
    shrinkage: float = 1e-3,
) -> ProbabilisticGraph:
    """The ``pCorr`` competitor (Appendix H): threshold |partial correlation|."""
    from .correlation import partial_correlation_matrix

    ids = tuple(int(g) for g in gene_ids)
    scores = np.abs(
        partial_correlation_matrix(np.asarray(matrix, dtype=np.float64), shrinkage)
    )
    return _threshold_score_graph(ids, scores, threshold)


def _threshold_score_graph(
    ids: tuple[int, ...], scores: np.ndarray, threshold: float
) -> ProbabilisticGraph:
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0,1], got {threshold}")
    if scores.shape != (len(ids), len(ids)):
        raise ValidationError(
            f"score matrix shape {scores.shape} does not match {len(ids)} genes"
        )
    rows, cols = np.triu_indices(len(ids), k=1)
    keep = scores[rows, cols] > threshold
    edges = {
        (ids[int(s)], ids[int(t)]): min(float(scores[s, t]), 1.0)
        for s, t in zip(rows[keep], cols[keep])
    }
    return ProbabilisticGraph(ids, edges)
