"""Inverted bit-vector file ``IF`` (Section 5.1).

For every gene name ``g``, ``IF[g]`` is the bit-OR of the source-ID
signatures of all matrices that contain gene ``g``. The query algorithm
uses it to build, per query gene, the signature of the data sources that
*could* hold that gene -- ANDing these across the query's genes restricts
the traversal to sources that may contain the whole query edge.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import UnknownGeneError, ValidationError
from .bitvector import signature

__all__ = ["InvertedBitVectorFile"]

#: Salt separating source-ID hashing from gene-ID hashing.
SOURCE_SALT = 0x5EED


class InvertedBitVectorFile:
    """Maps gene IDs to bit-vector signatures of their data sources."""

    def __init__(self, bits: int):
        if bits < 8:
            raise ValidationError(f"bits must be >= 8, got {bits}")
        self.bits = bits
        self._entries: dict[int, int] = {}
        self._exact_sources: dict[int, set[int]] = {}

    def add(self, gene_id: int, source_id: int) -> None:
        """Record that matrix ``source_id`` contains ``gene_id``."""
        self.add_source(source_id, (gene_id,))

    def add_source(self, source_id: int, gene_ids: Iterable[int]) -> None:
        """Record that matrix ``source_id`` contains every gene of
        ``gene_ids``, hashing the source's signature once."""
        source_id = int(source_id)
        sig = signature(source_id, self.bits, SOURCE_SALT)
        entries = self._entries
        exact = self._exact_sources
        for gene_id in gene_ids:
            gene_id = int(gene_id)
            entries[gene_id] = entries.get(gene_id, 0) | sig
            exact.setdefault(gene_id, set()).add(source_id)

    def remove_source(self, source_id: int, gene_ids: Iterable[int]) -> None:
        """Forget that ``source_id`` contains the given genes.

        Signatures are bit-ORs, so a bit cannot simply be cleared (other
        sources may share it); each affected gene's signature is rebuilt
        from its remaining exact source set. Genes left with no source are
        dropped entirely.
        """
        source_id = int(source_id)
        for gene_id in gene_ids:
            gene_id = int(gene_id)
            sources = self._exact_sources.get(gene_id)
            if sources is None or source_id not in sources:
                raise UnknownGeneError(
                    f"source {source_id} does not list gene {gene_id}"
                )
            sources.discard(source_id)
            if not sources:
                del self._exact_sources[gene_id]
                del self._entries[gene_id]
                continue
            sig = 0
            for remaining in sources:
                sig |= signature(remaining, self.bits, SOURCE_SALT)
            self._entries[gene_id] = sig

    def sources_signature(self, gene_id: int) -> int:
        """``IF[g]``: the OR of source signatures for gene ``g``.

        An unknown gene returns 0 (no source can contain it), which makes
        downstream AND filters prune immediately -- the correct semantics
        for query genes absent from the database.
        """
        return self._entries.get(int(gene_id), 0)

    def sources_of(self, gene_id: int) -> frozenset[int]:
        """Exact source IDs containing the gene (collision-free lookup).

        The tree traversal uses only the approximate signatures; the exact
        sets serve the refinement step and diagnostics.

        Raises
        ------
        UnknownGeneError
            If no source contains the gene.
        """
        try:
            return frozenset(self._exact_sources[int(gene_id)])
        except KeyError:
            raise UnknownGeneError(f"gene {gene_id} appears in no source") from None

    def __contains__(self, gene_id: int) -> bool:
        return int(gene_id) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InvertedBitVectorFile(genes={len(self._entries)}, bits={self.bits})"
