"""Probabilistic GRN graph model with possible-world semantics.

Definition 3 of the paper models an inferred GRN as a probabilistic graph
``(V, E, Phi)`` whose vertices carry gene labels and whose edges carry
existence probabilities in ``[0, 1)``. This module provides that model:

* :class:`ProbabilisticGraph` -- an immutable undirected probabilistic
  graph over integer gene IDs,
* possible-world enumeration (exponential; guarded, for tests and tiny
  graphs) implementing the semantics that Definition 4 quantifies over,
* the appearance probability ``Pr{G} = prod e.p`` of Eq. 3.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from ..errors import UnknownGeneError, ValidationError

if TYPE_CHECKING:  # networkx adds ~13 MB of RSS; only the converters use it
    import networkx as nx

__all__ = ["EdgeKey", "edge_key", "ProbabilisticGraph", "PossibleWorld"]

#: Canonical undirected edge key: the sorted pair of endpoint gene IDs.
EdgeKey = tuple[int, int]

#: Possible worlds beyond this many edges would exceed 2^20 instances.
_MAX_WORLD_EDGES = 20


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical (sorted) key for the undirected edge ``{u, v}``."""
    if u == v:
        raise ValidationError(f"self-loop on gene {u} is not a valid GRN edge")
    return (u, v) if u < v else (v, u)


class PossibleWorld:
    """One materialized instance of a probabilistic graph.

    A possible world fixes, for every probabilistic edge, whether it exists;
    its probability is the product over edges of ``p`` (present) or
    ``1 - p`` (absent).
    """

    __slots__ = ("present_edges", "probability")

    def __init__(self, present_edges: frozenset[EdgeKey], probability: float):
        self.present_edges = present_edges
        self.probability = probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PossibleWorld(edges={sorted(self.present_edges)}, "
            f"p={self.probability:.6g})"
        )


class ProbabilisticGraph:
    """Undirected probabilistic graph over labelled gene vertices.

    Vertices are integer gene IDs (globally meaningful labels: the same ID
    in two graphs denotes the same gene). Each edge carries an existence
    probability. Instances are immutable after construction.

    Parameters
    ----------
    gene_ids:
        The vertex set. IDs must be unique.
    edge_probabilities:
        Mapping from (unordered) gene-ID pairs to probabilities in
        ``[0, 1]``. Keys may be given in either order.
    """

    __slots__ = ("_gene_ids", "_edges", "_adjacency")

    def __init__(
        self,
        gene_ids: Iterable[int],
        edge_probabilities: Mapping[tuple[int, int], float] | None = None,
    ):
        ids = tuple(int(g) for g in gene_ids)
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate gene IDs in vertex set")
        self._gene_ids = ids
        id_set = set(ids)
        edges: dict[EdgeKey, float] = {}
        adjacency: dict[int, set[int]] = {g: set() for g in ids}
        for (u, v), p in (edge_probabilities or {}).items():
            key = edge_key(int(u), int(v))
            if key[0] not in id_set or key[1] not in id_set:
                raise UnknownGeneError(
                    f"edge {key} references a gene outside the vertex set"
                )
            if not 0.0 <= p <= 1.0:
                raise ValidationError(
                    f"edge probability must be in [0,1], got {p} for {key}"
                )
            if key in edges:
                raise ValidationError(f"duplicate edge {key}")
            edges[key] = float(p)
            adjacency[key[0]].add(key[1])
            adjacency[key[1]].add(key[0])
        self._edges = edges
        self._adjacency = adjacency

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def gene_ids(self) -> tuple[int, ...]:
        """The vertex labels, in construction order."""
        return self._gene_ids

    @property
    def num_vertices(self) -> int:
        return len(self._gene_ids)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, gene: int) -> bool:
        return gene in self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        """True if the probabilistic edge ``{u, v}`` is present."""
        if u == v:
            return False
        return edge_key(u, v) in self._edges

    def edge_probability(self, u: int, v: int) -> float:
        """Existence probability of edge ``{u, v}``.

        Raises
        ------
        UnknownGeneError
            If the edge is not in the graph.
        """
        key = edge_key(u, v)
        try:
            return self._edges[key]
        except KeyError:
            raise UnknownGeneError(f"no edge {key} in graph") from None

    def edges(self) -> Iterator[tuple[EdgeKey, float]]:
        """Iterate ``((u, v), probability)`` pairs in sorted key order."""
        for key in sorted(self._edges):
            yield key, self._edges[key]

    def neighbors(self, gene: int) -> frozenset[int]:
        """Neighbor gene IDs of ``gene``."""
        try:
            return frozenset(self._adjacency[gene])
        except KeyError:
            raise UnknownGeneError(f"gene {gene} not in graph") from None

    def degree(self, gene: int) -> int:
        """Number of probabilistic edges incident to ``gene``."""
        return len(self.neighbors(gene))

    def highest_degree_gene(self) -> int:
        """The gene with the most incident edges (ties: smallest ID).

        This is the anchor vertex of the Fig.-4 traversal ("the vertex with
        the highest degree can achieve higher pruning power").

        Raises
        ------
        ValidationError
            If the graph has no vertices.
        """
        if not self._gene_ids:
            raise ValidationError("graph has no vertices")
        return min(self._adjacency, key=lambda g: (-len(self._adjacency[g]), g))

    def is_connected(self) -> bool:
        """True if the graph is connected under its probabilistic edges."""
        if not self._gene_ids:
            return False
        if len(self._gene_ids) == 1:
            return True
        seen = {self._gene_ids[0]}
        frontier = [self._gene_ids[0]]
        while frontier:
            gene = frontier.pop()
            for nxt in self._adjacency[gene]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self._gene_ids)

    # ------------------------------------------------------------------
    # Probability semantics
    # ------------------------------------------------------------------
    def appearance_probability(self, edge_keys: Iterable[tuple[int, int]]) -> float:
        """``Pr{G} = prod e.p`` (Eq. 3) over the given edges of this graph.

        ``edge_keys`` are the images, under a subgraph-isomorphism mapping,
        of the query edges; every key must be an edge of this graph.
        """
        log_p = 0.0
        for u, v in edge_keys:
            p = self.edge_probability(u, v)
            if p == 0.0:
                return 0.0
            log_p += math.log(p)
        return math.exp(log_p)

    def possible_worlds(self) -> Iterator[PossibleWorld]:
        """Enumerate all ``2^|E|`` possible worlds (tests / tiny graphs only).

        Raises
        ------
        ValidationError
            If the graph has more than 20 edges (over a million worlds).
        """
        keys = sorted(self._edges)
        if len(keys) > _MAX_WORLD_EDGES:
            raise ValidationError(
                f"refusing to enumerate 2^{len(keys)} possible worlds "
                f"(limit {_MAX_WORLD_EDGES} edges)"
            )
        probs = [self._edges[k] for k in keys]
        for mask in itertools.product((False, True), repeat=len(keys)):
            probability = 1.0
            present: list[EdgeKey] = []
            for key, p, present_flag in zip(keys, probs, mask):
                if present_flag:
                    probability *= p
                    present.append(key)
                else:
                    probability *= 1.0 - p
            yield PossibleWorld(frozenset(present), probability)

    def world_containment_probability(
        self, edge_keys: Iterable[tuple[int, int]]
    ) -> float:
        """Probability that *all* given edges co-exist, via possible worlds.

        Brute-force counterpart of :meth:`appearance_probability`; the two
        agree exactly because edges are independent. Used in tests to pin
        the Eq.-3 semantics.
        """
        wanted = {edge_key(u, v) for u, v in edge_keys}
        for key in wanted:
            if key not in self._edges:
                return 0.0
        total = 0.0
        for world in self.possible_worlds():
            if wanted <= world.present_edges:
                total += world.probability
        return total

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Export as a :class:`networkx.Graph` with a ``p`` edge attribute."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._gene_ids)
        for (u, v), p in self._edges.items():
            graph.add_edge(u, v, p=p)
        return graph

    @classmethod
    def from_networkx(
        cls, graph: nx.Graph, default_p: float = 1.0
    ) -> "ProbabilisticGraph":
        """Build from a networkx graph; missing ``p`` attributes get ``default_p``."""
        probs = {
            (int(u), int(v)): float(data.get("p", default_p))
            for u, v, data in graph.edges(data=True)
        }
        return cls((int(g) for g in graph.nodes), probs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbabilisticGraph(|V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticGraph):
            return NotImplemented
        return (
            set(self._gene_ids) == set(other._gene_ids)
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._gene_ids), frozenset(self._edges.items())))
