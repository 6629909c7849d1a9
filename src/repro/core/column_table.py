"""The traversal's per-entry column table and its two batched kernels.

Every index entry ``(source, gene)`` of an
:class:`~repro.index.arraystore.ArrayStore` gets one row of side data,
gathered once per published store so that the traversal's hot loop does
no per-source Python work:

* the source's sample length ``l``;
* the entry's row in a contiguous ``(columns, l)`` buffer of transposed
  standardized columns -- one buffer per distinct length, shared by every
  source of that length;
* the column's ``x @ x`` and ``x.mean()``, the inputs of the Jensen
  expectation of Lemma 4.

The table also summarizes every node's MBR for the store-level Lemma-6
gate (:meth:`ColumnTable.lemma6_may_prune`).

A table references the store it was built for, and the engine publishes
the table as one reference: a query that reads it once can never pair a
store with another store's columns, however the index is repacked
meanwhile. Tables are immutable and never persisted; every repack and
every reload builds one.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..index.arraystore import ArrayStore
from .pruning import (
    index_pruning_floor,
    index_pruning_possible,
    markov_edge_upper_bounds,
)
from .standardize import standardize_matrix

__all__ = [
    "ColumnTable",
    "SourceColumns",
    "column_statistics",
    "pair_distances",
    "source_columns",
]


def pair_distances(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``dist(left[i], right[i])`` for each row pair of two ``(k, l)`` arrays.

    Each difference is one contiguous row reduced by one BLAS dot
    (``np.matmul`` of a ``1 x l`` by an ``l x 1`` slice calls the dot
    that ``row @ row`` calls), so every distance equals
    ``math.sqrt(row @ row)`` -- and ``np.linalg.norm(row)`` -- bit for
    bit. Rows of different lengths must not share a call: zero-padding
    changes how the dot blocks its sum, and so the last bit.
    """
    diff = np.subtract(left, right, order="C")
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).reshape(-1))


def source_columns(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, squares, means)`` of one source's ``l x n`` matrix:
    :func:`column_statistics` of its
    :func:`~repro.core.standardize.standardize_matrix` columns."""
    return column_statistics(standardize_matrix(values))


def column_statistics(
    std: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, squares, means)`` of a standardized ``l x n`` matrix.

    ``columns`` holds the columns of ``std`` as contiguous rows
    (``n x l``). ``squares[c]`` and ``means[c]`` equal ``x @ x`` and
    ``x.mean()`` for the column ``x = std[:, c]`` bit for bit: the dots
    run over the strided columns (a contiguous dot blocks its sum
    differently), and each mean reduces one contiguous row, as the mean
    of a column view does.
    """
    squares = np.matmul(std.T[:, None, :], std.T[:, :, None]).reshape(-1)
    columns = np.ascontiguousarray(std.T)
    return columns, squares, columns.mean(axis=1)


class SourceColumns(Protocol):
    """What the table reads of one indexed source: its transposed
    standardized ``columns`` (rebound to a view of the table's buffer)
    and their ``squares`` and ``means``."""

    columns: np.ndarray
    squares: np.ndarray
    means: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """Per-entry column side data of one :class:`ArrayStore`.

    ``entry_*`` arrays are indexed like the store's entry rows;
    ``buffers[l]`` holds the transposed standardized columns of every
    source of sample length ``l``; ``node_reach`` / ``node_floor`` are
    each node's ``max_r x^-[r]`` and ``min_w y^+[w]``.
    """

    store: ArrayStore
    buffers: Mapping[int, np.ndarray]
    entry_length: np.ndarray
    entry_row: np.ndarray
    entry_square: np.ndarray
    entry_mean: np.ndarray
    node_reach: np.ndarray
    node_floor: np.ndarray

    @classmethod
    def build(
        cls,
        store: ArrayStore,
        sources: Mapping[int, SourceColumns],
        *,
        payload_limit: int,
        num_pivots: int,
        previous: "ColumnTable | None" = None,
        changed: frozenset[int] = frozenset(),
    ) -> "ColumnTable":
        """The table of ``store``, whose entries are ``sources``' columns.

        ``sources`` maps each indexed source to its columns in indexing
        order, and the store's payloads are ``source * payload_limit +
        column``. Length buffers of ``previous`` are reused unless their
        length is in ``changed`` (a source of that length came or went);
        every other buffer is concatenated from its sources' columns in
        indexing order, and each source's ``columns`` is rebound to a
        read-only view of its rows, so the columns are held once.
        """
        groups: dict[int, list[SourceColumns]] = defaultdict(list)
        next_row: dict[int, int] = defaultdict(int)
        lengths, rows, sizes = [], [], []
        for s in sources.values():
            count, length = s.columns.shape
            groups[length].append(s)
            lengths.append(length)
            rows.append(next_row[length])
            sizes.append(count)
            next_row[length] += count
        buffers: dict[int, np.ndarray] = {}
        for length, group in groups.items():
            buffer = None
            if previous is not None and length not in changed:
                buffer = previous.buffers.get(length)
            if buffer is None:
                buffer = _read_only(np.concatenate([s.columns for s in group]))
                start = 0
                for s in group:
                    stop = start + s.columns.shape[0]
                    s.columns = buffer[start:stop]
                    start = stop
            buffers[length] = buffer
        sizes = np.array(sizes, dtype=np.int64)
        # Each store entry's source slot (indexing order) and column.
        ids = np.fromiter(sources, dtype=np.int64, count=sizes.shape[0])
        by_id = np.argsort(ids)
        entry_sources, entry_columns = np.divmod(store.entry_payloads, payload_limit)
        found, inverse = np.unique(entry_sources, return_inverse=True)
        slot = by_id[np.searchsorted(ids, found, sorter=by_id)][inverse]
        at = (np.cumsum(sizes) - sizes)[slot] + entry_columns
        squares = [s.squares for s in sources.values()]
        means = [s.means for s in sources.values()]
        reach, floor = index_pruning_floor(
            store.node_lows[:, 0 : 2 * num_pivots : 2],
            store.node_highs[:, 1 : 2 * num_pivots : 2],
        )
        return cls(
            store=store,
            buffers=buffers,
            entry_length=_read_only(np.array(lengths, dtype=np.int64)[slot]),
            entry_row=_read_only(np.array(rows, dtype=np.int64)[slot] + entry_columns),
            entry_square=_read_only(np.concatenate([np.empty(0), *squares])[at]),
            entry_mean=_read_only(np.concatenate([np.empty(0), *means])[at]),
            node_reach=_read_only(reach),
            node_floor=_read_only(floor),
        )

    def lemma6_may_prune(self, gamma: float) -> bool:
        """False when Lemma 6 provably prunes no node pair of the store at
        ``gamma`` (see :func:`~repro.core.pruning.index_pruning_possible`)."""
        return index_pruning_possible(self.node_reach, self.node_floor, gamma)

    def markov_bounds(self, rows_s: np.ndarray, rows_t: np.ndarray) -> np.ndarray:
        """Lemma-4 bounds ``E[dist(X_t^R, X_s)] / dist(X_s, X_t)`` of
        joined entry pairs ``(rows_s[i], rows_t[i])`` of one source each.

        The distances take one :func:`pair_distances` call per distinct
        sample length; the Jensen expectation is
        :func:`~repro.core.randomization.expected_randomized_distance_jensen`
        term by term over the gathered column statistics.
        """
        length = self.entry_length[rows_t]
        left = self.entry_row[rows_s]
        right = self.entry_row[rows_t]
        distance = np.empty(length.shape[0], dtype=np.float64)
        for size in np.unique(length).tolist():
            pick = np.flatnonzero(length == size)
            buffer = self.buffers[size]
            distance[pick] = pair_distances(buffer[left[pick]], buffer[right[pick]])
        value = self.entry_square[rows_t] + self.entry_square[rows_s] - (
            2.0 * length * self.entry_mean[rows_t] * self.entry_mean[rows_s]
        )
        return markov_edge_upper_bounds(
            distance, np.sqrt(np.where(value > 0.0, value, 0.0))
        )
