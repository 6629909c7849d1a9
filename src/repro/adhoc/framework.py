"""Generalized ad-hoc graph inference and matching (Appendix A).

The paper observes that IM-GRN is one instance of a general problem class:
*queries over ad-hocly inferred graphs*, where vertices carry content
vectors and edges are inferred online from those vectors against an ad-hoc
threshold -- with social influence networks and near-duplicate video
detection as further instances. This module provides that generalization
as a domain-neutral facade over the IM-GRN machinery:

* a :class:`FeatureCollection` is any set of labelled items with
  equal-length feature vectors (a video's keyframes with colour
  histograms, a user's interaction profiles, ... -- the gene feature
  matrix generalized);
* an :class:`AdHocMatchEngine` indexes many collections (of possibly
  different vector lengths) and answers pattern-matching queries over the
  graphs inferred at query time, with the same randomized measure,
  pruning stack, pivot embedding and index as IM-GRN.

Labels are matched exactly (like gene names); the measure is the
randomization test of Definition 2, which is invariant to per-item affine
transforms -- exactly the robustness the video use-case needs (scaled or
brightness-shifted frames keep their similarity structure).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import EngineConfig
from ..core.query import IMGRNEngine, IMGRNResult
from ..core.spec import QuerySpec
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import ValidationError

__all__ = ["FeatureCollection", "AdHocMatchEngine"]


@dataclass(frozen=True)
class FeatureCollection:
    """One data object: labelled items with equal-length feature vectors.

    Attributes
    ----------
    collection_id:
        Unique non-negative ID of the collection (a video, a user group,
        a data source...).
    item_labels:
        Non-negative integer labels shared across collections (scene
        positions, user IDs, gene names...). Unique within a collection.
    features:
        ``f x n`` array: column ``k`` is the feature vector of item ``k``
        (``f`` = feature dimensionality, e.g. histogram bins). Collections
        may differ in ``f`` -- the pivot embedding absorbs that, exactly
        as it absorbs per-matrix sample counts in IM-GRN.
    """

    collection_id: int
    item_labels: tuple[int, ...]
    features: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.features, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(
                f"features must be 2-D (f x n), got {arr.shape}"
            )
        if arr.shape[1] != len(self.item_labels):
            raise ValidationError(
                f"{len(self.item_labels)} labels for {arr.shape[1]} columns"
            )
        object.__setattr__(self, "features", arr)

    def to_matrix(self) -> GeneFeatureMatrix:
        """The underlying IM-GRN representation."""
        return GeneFeatureMatrix(
            self.features, list(self.item_labels), self.collection_id
        )


class AdHocMatchEngine:
    """Index + query engine over ad-hocly inferred item-similarity graphs.

    Thin facade over :class:`~repro.core.query.IMGRNEngine`: collections
    become feature matrices, items become genes, the inferred similarity
    graph is the GRN, and a query collection plays the role of ``M_Q``.
    """

    def __init__(
        self,
        collections: Sequence[FeatureCollection],
        config: EngineConfig | None = None,
    ):
        if not collections:
            raise ValidationError("need at least one collection")
        ids = [c.collection_id for c in collections]
        if len(set(ids)) != len(ids):
            raise ValidationError("collection IDs must be unique")
        database = GeneFeatureDatabase(c.to_matrix() for c in collections)
        self._engine = IMGRNEngine(database, config)

    @property
    def is_built(self) -> bool:
        return self._engine.is_built

    def build(self) -> float:
        """Build the index; returns wall-clock seconds."""
        return self._engine.build()

    def query(
        self,
        query_collection: FeatureCollection,
        *args: float,
        gamma: float | None = None,
        alpha: float | None = None,
    ) -> IMGRNResult:
        """Collections whose inferred graph contains the query's pattern.

        The query's similarity graph is inferred at ``gamma``; answers are
        collections containing a label-preserving match with appearance
        probability above ``alpha``. Thresholds are keyword-only; the
        positional form completed its deprecation cycle and raises
        :class:`TypeError`. Other workload kinds go through
        :meth:`execute`.
        """
        return self._engine.query(
            query_collection.to_matrix(), *args, gamma=gamma, alpha=alpha
        )

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Answer one typed workload (containment / topk / similarity).

        Passes the spec straight to the wrapped engine's ``execute()``;
        build the spec from ``collection.to_matrix()``.
        """
        return self._engine.execute(spec)

    def infer_graph(self, collection: FeatureCollection, gamma: float):
        """The collection's ad-hocly inferred similarity graph at ``gamma``.

        Exposes the batched graph-inference step on its own -- the
        "inference" half of the framework without the "matching" half --
        so callers can materialize, inspect or post-process an inferred
        graph directly (e.g. scene-transition graphs of one video).
        """
        return self._engine.infer_query_graph(collection.to_matrix(), gamma)

    def stats(self) -> dict[str, float]:
        """Index + inference-cache statistics (size, pages, build time)."""
        engine = self._engine
        return {
            "collections": float(len(engine.database)),
            "items": float(engine.database.total_genes()),
            "index_pages": float(engine.pages.num_pages),
            "build_seconds": engine.build_seconds,
            **engine.inference_stats(),
        }
