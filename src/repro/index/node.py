"""R*-tree node structures.

A leaf entry is one embedded gene point ``g_{i,s}`` (Section 5.1) plus its
identity payload; nodes carry their MBR, the gene-ID signature ``V_f`` and
the source-ID signature ``V_d`` (bit-ORs over the subtree, filled in by the
tree's finalize pass).
"""

from __future__ import annotations

import numpy as np

from .mbr import MBR

__all__ = ["LeafEntry", "Node"]


class LeafEntry:
    """One indexed point: embedded coordinates + gene/source identity.

    Attributes
    ----------
    point:
        The ``2d+1``-dimensional embedded vector (x/y interleaved + gene ID).
    gene_id:
        Global gene label of the point.
    source_id:
        Data-source (matrix) ID the gene vector came from.
    payload:
        Opaque integer handle the engine uses to reach the raw vector
        (index into its payload table).
    """

    __slots__ = ("point", "gene_id", "source_id", "payload", "mbr")

    def __init__(self, point: np.ndarray, gene_id: int, source_id: int, payload: int):
        self.point = np.asarray(point, dtype=np.float64)
        self.gene_id = int(gene_id)
        self.source_id = int(source_id)
        self.payload = int(payload)
        self.mbr = MBR.from_point(self.point)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeafEntry(gene={self.gene_id}, source={self.source_id}, "
            f"payload={self.payload})"
        )


class Node:
    """An R*-tree node (one disk page).

    ``level == 0`` marks a leaf whose ``entries`` are :class:`LeafEntry`;
    higher levels hold child :class:`Node` objects in ``entries``.
    """

    __slots__ = ("level", "entries", "mbr", "parent", "page_id", "vf", "vd")

    def __init__(self, level: int, page_id: int):
        self.level = level
        self.entries: list = []
        self.mbr: MBR | None = None
        self.parent: "Node | None" = None
        self.page_id = page_id
        self.vf = 0  # gene-ID signature (bit-OR over subtree)
        self.vd = 0  # source-ID signature (bit-OR over subtree)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def recompute_mbr(self) -> None:
        """Tighten this node's MBR from its current entries."""
        if not self.entries:
            self.mbr = None
            return
        box = self.entries[0].mbr.copy()
        for entry in self.entries[1:]:
            box.extend(entry.mbr)
        self.mbr = box

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node({kind}, page={self.page_id}, fanout={len(self.entries)})"
