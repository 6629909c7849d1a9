"""Gene feature matrix model (Definition 1).

A :class:`GeneFeatureMatrix` is one data source's ``l_i x n_i`` matrix:
rows are individuals (patients/observations), columns are gene feature
vectors, each column labelled with a global integer gene ID. Matrices
optionally carry the ground-truth regulatory edge set used by the ROC
experiments (known for synthetic and organism data, unknown for real
clinical sources).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..core.probgraph import EdgeKey, edge_key
from ..core.standardize import standardize_matrix
from ..errors import (
    DegenerateVectorError,
    UnknownGeneError,
    ValidationError,
)

__all__ = ["GeneFeatureMatrix"]


class GeneFeatureMatrix:
    """One data source: an ``l x n`` feature matrix with labelled columns.

    Parameters
    ----------
    values:
        ``l x n`` float array; ``l >= 3`` samples, all finite, and no
        constant column (use :meth:`clean` to drop degenerate genes first).
    gene_ids:
        ``n`` unique non-negative integer gene labels.
    source_id:
        Non-negative integer data-source ID, unique within a database.
    truth_edges:
        Optional ground-truth undirected regulatory edges (gene-ID pairs),
        used by accuracy experiments only.
    """

    __slots__ = (
        "_values",
        "_gene_ids",
        "_source_id",
        "_truth_edges",
        "_index_of",
        "_fingerprint",
    )

    def __init__(
        self,
        values: np.ndarray,
        gene_ids: Sequence[int],
        source_id: int,
        truth_edges: Iterable[tuple[int, int]] | None = None,
    ):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 3:
            raise ValidationError(
                f"need at least 3 sample rows, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise DegenerateVectorError("matrix contains non-finite values")
        ids = tuple(int(g) for g in gene_ids)
        if len(ids) != arr.shape[1]:
            raise ValidationError(
                f"{len(ids)} gene IDs for {arr.shape[1]} columns"
            )
        if len(set(ids)) != len(ids):
            raise ValidationError("gene IDs must be unique within a matrix")
        if any(g < 0 for g in ids):
            raise ValidationError("gene IDs must be non-negative")
        if int(source_id) < 0:
            raise ValidationError(f"source_id must be >= 0, got {source_id}")
        spans = np.ptp(arr, axis=0)
        constant = np.flatnonzero(spans == 0.0)
        if constant.size:
            raise DegenerateVectorError(
                f"constant gene columns at indices {constant.tolist()}; "
                "use GeneFeatureMatrix.clean() to drop them"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr
        self._gene_ids = ids
        self._source_id = int(source_id)
        self._index_of = {g: i for i, g in enumerate(ids)}
        id_set = set(ids)
        edges: set[EdgeKey] = set()
        for u, v in truth_edges or ():
            key = edge_key(int(u), int(v))
            if key[0] not in id_set or key[1] not in id_set:
                raise UnknownGeneError(
                    f"truth edge {key} references a gene not in this matrix"
                )
            edges.add(key)
        self._truth_edges = frozenset(edges)
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def clean(
        cls,
        values: np.ndarray,
        gene_ids: Sequence[int],
        source_id: int,
        truth_edges: Iterable[tuple[int, int]] | None = None,
    ) -> "GeneFeatureMatrix":
        """Build a matrix, silently dropping constant / non-finite genes.

        Truth edges touching a dropped gene are dropped with it.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"values must be 2-D, got shape {arr.shape}")
        finite = np.all(np.isfinite(arr), axis=0)
        varying = np.ptp(np.where(np.isfinite(arr), arr, 0.0), axis=0) > 0.0
        keep = np.flatnonzero(finite & varying)
        if keep.size < 2:
            raise DegenerateVectorError(
                "fewer than 2 usable gene columns after cleaning"
            )
        ids = tuple(int(gene_ids[i]) for i in keep)
        kept_set = set(ids)
        edges = [
            (u, v)
            for u, v in (truth_edges or ())
            if int(u) in kept_set and int(v) in kept_set
        ]
        return cls(arr[:, keep], ids, source_id, edges)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The read-only ``l x n`` value array."""
        return self._values

    @property
    def gene_ids(self) -> tuple[int, ...]:
        return self._gene_ids

    @property
    def source_id(self) -> int:
        return self._source_id

    @property
    def truth_edges(self) -> frozenset[EdgeKey]:
        """Ground-truth regulatory edges (may be empty if unknown)."""
        return self._truth_edges

    @property
    def num_samples(self) -> int:
        """``l_i``: rows / patients."""
        return int(self._values.shape[0])

    @property
    def num_genes(self) -> int:
        """``n_i``: columns / genes."""
        return int(self._values.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_samples, self.num_genes)

    def __contains__(self, gene_id: int) -> bool:
        return int(gene_id) in self._index_of

    def column_index(self, gene_id: int) -> int:
        """Column index of a gene ID.

        Raises
        ------
        UnknownGeneError
            If the gene is not in this matrix.
        """
        try:
            return self._index_of[int(gene_id)]
        except KeyError:
            raise UnknownGeneError(
                f"gene {gene_id} not in source {self._source_id}"
            ) from None

    def column(self, gene_id: int) -> np.ndarray:
        """The (read-only) feature vector of one gene."""
        return self._values[:, self.column_index(gene_id)]

    def standardized(self) -> np.ndarray:
        """Column-standardized copy of the values (zero mean, unit variance)."""
        return standardize_matrix(self._values)

    def fingerprint(self) -> str:
        """Content hash of this matrix (values + gene IDs + truth edges).

        Two matrices with equal fingerprints are interchangeable inputs
        to every engine: they embed identically under the same config and
        seed, and infer the same query graph. The persistence layer keys
        stored embeddings on it. Computed once and memoized (the value
        array is immutable).
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(str(self._values.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(self._values).tobytes())
            digest.update(np.asarray(self._gene_ids, dtype=np.int64).tobytes())
            for u, v in sorted(self._truth_edges):
                digest.update(f"{u},{v};".encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def submatrix(
        self, gene_ids: Sequence[int], source_id: int | None = None
    ) -> "GeneFeatureMatrix":
        """A new matrix restricted to the given genes (same samples).

        Used to cut query matrices ``M_Q`` out of database matrices, per the
        evaluation protocol of Section 6.1.
        """
        ids = [int(g) for g in gene_ids]
        if len(ids) < 2:
            raise ValidationError("a submatrix needs at least 2 genes")
        cols = [self.column_index(g) for g in ids]
        kept = set(ids)
        edges = [(u, v) for u, v in self._truth_edges if u in kept and v in kept]
        return GeneFeatureMatrix(
            self._values[:, cols],
            ids,
            self._source_id if source_id is None else source_id,
            edges,
        )

    def with_values(self, values: np.ndarray) -> "GeneFeatureMatrix":
        """Same labels/truth, different values (e.g. after noise injection)."""
        return GeneFeatureMatrix(
            values, self._gene_ids, self._source_id, self._truth_edges
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeneFeatureMatrix(source={self._source_id}, "
            f"samples={self.num_samples}, genes={self.num_genes})"
        )
