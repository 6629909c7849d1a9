"""Typed query specification shared by engines, server, daemon and CLI.

One frozen dataclass, :class:`QuerySpec`, names the three supported
workload kinds and validates their parameters in a single place:

``containment``
    Definition 4: sources whose inferred GRN contains the query graph
    with appearance probability ``> alpha`` (``gamma`` is the ad-hoc
    edge-inference threshold).
``topk``
    The ``k`` sources with the highest appearance probability ``Pr{G}``
    (no ``alpha`` cut-off; ranking replaces the threshold).
``similarity``
    Containment relaxed by ``edge_budget``: up to that many query edges
    may be missing from a source's inferred GRN, and the appearance
    probability of the *matched* edges must still exceed ``alpha``.
    ``edge_budget=0`` is exactly containment.

Engines answer a spec via ``QueryEngine.execute(spec)``; the serving
stack (:class:`repro.serve.QueryServer`, the daemon's ``/query`` route,
:class:`repro.serve.DaemonClient` and ``imgrn query --kind``) dispatches
through the same object, so adding a workload kind never again means a
new method on every layer.

Validation is eager: an invalid combination of parameters raises
:class:`~repro.errors.ValidationError` at construction, before anything
is queued or sent over the wire. :func:`validate_query_params`
exposes the same checks for callers that validate before they have a
matrix in hand (the daemon's request parsing).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.matrix import GeneFeatureMatrix
from ..errors import ValidationError

__all__ = ["KINDS", "QuerySpec", "validate_query_params"]

#: The supported workload kinds, in documentation order.
KINDS = ("containment", "topk", "similarity")


def _as_int(name: str, value) -> int:
    """Coerce to int, rejecting silently-truncating floats like 2.5."""
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if coerced != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return coerced


def validate_query_params(
    kind: str,
    gamma,
    alpha=None,
    k=None,
    edge_budget=None,
) -> tuple[float, float | None, int | None, int | None]:
    """Validate one workload's parameters; returns them normalized.

    The single home of every cross-parameter rule (which kinds take
    ``alpha``, ``k``, ``edge_budget`` and their domains). Returns
    ``(gamma, alpha, k, edge_budget)`` with floats/ints coerced; raises
    :class:`~repro.errors.ValidationError` on any violation.
    """
    if kind not in KINDS:
        raise ValidationError(
            f"kind must be one of {', '.join(KINDS)}, got {kind!r}"
        )
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0,1), got {gamma}")
    if kind == "topk":
        if alpha is not None:
            raise ValidationError(
                "topk ranks by Pr{G}; alpha must be omitted (None)"
            )
        if k is None:
            raise ValidationError("kind='topk' requires k")
        k = _as_int("k", k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
    else:
        if k is not None:
            raise ValidationError(
                f"k only applies to kind='topk', got k={k} for {kind!r}"
            )
        if alpha is None:
            raise ValidationError(f"kind={kind!r} requires alpha")
        alpha = float(alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValidationError(f"alpha must be in [0,1), got {alpha}")
    if kind == "similarity":
        if edge_budget is None:
            raise ValidationError("kind='similarity' requires edge_budget")
        edge_budget = _as_int("edge_budget", edge_budget)
        if edge_budget < 0:
            raise ValidationError(
                f"edge_budget must be >= 0, got {edge_budget}"
            )
    elif edge_budget is not None:
        raise ValidationError(
            "edge_budget only applies to kind='similarity', "
            f"got edge_budget={edge_budget} for {kind!r}"
        )
    return gamma, alpha, k, edge_budget


@dataclass(frozen=True)
class QuerySpec:
    """One query request: the matrix plus its fully-validated workload.

    Field order keeps the long-standing positional form
    ``QuerySpec(matrix, gamma, alpha)`` (a containment query) working
    unchanged; the new kinds are spelled with keywords::

        QuerySpec(matrix, 0.5, 0.3)                                # containment
        QuerySpec(matrix, 0.5, kind="topk", k=5)                   # top-k
        QuerySpec(matrix, 0.5, 0.3, kind="similarity", edge_budget=1)

    Instances are frozen and validated eagerly, so a spec that exists is
    servable.
    """

    matrix: GeneFeatureMatrix
    gamma: float
    alpha: float | None = None
    kind: str = "containment"
    k: int | None = None
    edge_budget: int | None = None

    def __post_init__(self) -> None:
        gamma, alpha, k, edge_budget = validate_query_params(
            self.kind, self.gamma, self.alpha, self.k, self.edge_budget
        )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edge_budget", edge_budget)
