"""Sort-Tile-Recursive packing straight into an :class:`ArrayStore`.

The multidimensional index of Section 5.1 holds one embedded
``2d+1``-dimensional point per (source, gene). Instead of inserting the
points one at a time, :func:`str_pack` packs all of them at once with
Sort-Tile-Recursive loading [Leutenegger et al., ICDE 1997] and writes
the :class:`~repro.index.arraystore.ArrayStore` arrays directly from the
input columns -- no node objects. Every index change (a build, an added
or a removed source) is a repack.

Per level, the packer tiles the level's keys (the points at the leaves,
the children's MBR centers above) into pages of at most ``M`` entries:
sort into slabs along each axis -- the gene-ID axis first, the
traversal's most selective one -- then cut the last axis into pages,
with one batched sort per depth over every slab still too big. A page
below ``m = max(2, round(0.4 M))`` is merged into a neighbour (the union
split in half if it overflows), so every page but a lone root holds
``[m, M]`` entries. Node MBRs come from ``np.minimum/maximum.reduceat``
over each page's rows. A leaf's ``V_f`` / ``V_d`` signature words OR its
entries' hash bits in place (``np.bitwise_or.at``); a parent's OR its
children's words (``np.bitwise_or.reduceat``).

Sorting is stable, so the packing is a pure function of the input
columns and their order: equal inputs give byte-identical stores.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ..errors import ValidationError
from .arraystore import _ARRAY_SPECS, ArrayStore, signature_words
from .bitvector import hash_bits
from .invertedfile import SOURCE_SALT

__all__ = ["str_pack", "min_fanout", "concat_ranges"]


def min_fanout(max_entries: int) -> int:
    """The ``m`` fan-out bound of a page of capacity ``M``."""
    return max(2, int(round(0.4 * max_entries)))


def str_pack(
    points: np.ndarray,
    gene_ids: np.ndarray,
    source_ids: np.ndarray,
    payloads: np.ndarray,
    *,
    max_entries: int,
    bitvector_bits: int,
) -> ArrayStore:
    """Pack ``n`` embedded points into a fresh :class:`ArrayStore`.

    ``points`` is ``n x dim`` with the gene ID in the last column; the
    other three columns are length ``n``. Node ``i`` gets page ID ``i``
    (breadth-first order), so the store allocates ``num_nodes`` pages.

    Raises
    ------
    ValidationError
        On mismatched column shapes, ``max_entries < 4``, or NaN/inf
        coordinates (a NaN fails every range comparison and would vanish
        from every traversal).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValidationError(f"points must be n x dim, got shape {points.shape}")
    n, dim = points.shape
    columns = [
        np.asarray(column, dtype=np.int64)
        for column in (gene_ids, source_ids, payloads)
    ]
    if any(column.shape != (n,) for column in columns):
        raise ValidationError(
            f"gene/source/payload columns must have shape ({n},), got "
            f"{[column.shape for column in columns]}"
        )
    if max_entries < 4:
        raise ValidationError(f"max_entries must be >= 4, got {max_entries}")
    if not np.isfinite(points).all():
        raise ValidationError("points contain NaN/inf coordinates")
    gene_ids, source_ids, payloads = columns
    words = signature_words(bitvector_bits)
    if n == 0:
        return _empty_store(dim, bitvector_bits, words)

    axis_order = [dim - 1] + list(range(dim - 1))
    minimum = min_fanout(max_entries)
    # levels[l] = (perm, starts, node columns): page k of level l holds
    # the level-(l-1) items perm[starts[k] : starts[k] + sizes[k]] (entry
    # rows at the leaves; sizes is the node_child_count column), pages
    # numbered in creation order.
    levels = []
    lows = highs = keys = points
    vf = vd = None
    while True:
        perm, sizes = _tile(keys, axis_order, max_entries, minimum)
        starts = np.cumsum(sizes) - sizes
        lows = np.minimum.reduceat(lows.take(perm, axis=0), starts, axis=0)
        highs = np.maximum.reduceat(highs.take(perm, axis=0), starts, axis=0)
        if vf is None:  # leaves: each entry's hash bit, OR-ed into its page
            pages = np.repeat(np.arange(sizes.shape[0]), sizes)
            vf = _leaf_signatures(gene_ids[perm], pages, bitvector_bits, words, 0)
            vd = _leaf_signatures(
                source_ids[perm], pages, bitvector_bits, words, SOURCE_SALT
            )
        else:
            vf = np.bitwise_or.reduceat(vf.take(perm, axis=0), starts, axis=0)
            vd = np.bitwise_or.reduceat(vd.take(perm, axis=0), starts, axis=0)
        columns = {
            "node_lows": lows,
            "node_highs": highs,
            "node_vf_words": vf,
            "node_vd_words": vd,
            "node_child_count": sizes,
        }
        levels.append((perm, starts, columns))
        if sizes.shape[0] == 1:
            break
        keys = (lows + highs) * 0.5

    # Breadth-first layout, root first: a node's children are the level
    # below's pages in the order its own page lists them, so each level's
    # order follows from the one above it.
    height = len(levels)
    order = np.zeros(1, dtype=np.int64)  # this level's pages, BFS order
    row = 0  # nodes laid out so far
    parts: dict[str, list[np.ndarray]] = defaultdict(list)
    for level in range(height - 1, -1, -1):
        perm, starts, columns = levels[level]
        for name, column in columns.items():
            parts[name].append(column.take(order, axis=0))
        counts = columns["node_child_count"][order]
        row += order.shape[0]
        first_child = row if level else 0  # child node, or entry row
        parts["node_levels"].append(np.full(order.shape[0], level))
        parts["node_child_start"].append(first_child + np.cumsum(counts) - counts)
        order = perm[concat_ranges(starts[order], counts)]
    arrays = {name: np.concatenate(chunks) for name, chunks in parts.items()}
    num_nodes = row
    arrays.update(
        node_page_ids=np.arange(num_nodes),
        entry_points=points.take(order, axis=0),
        entry_gene_ids=gene_ids[order],
        entry_source_ids=source_ids[order],
        entry_payloads=payloads[order],
    )
    return ArrayStore(
        dim=dim,
        bitvector_bits=bitvector_bits,
        height=height,
        pages_allocated=num_nodes,
        arrays=_typed(arrays),
    )


def _tile(
    keys: np.ndarray, axis_order: list[int], capacity: int, minimum: int
) -> tuple[np.ndarray, np.ndarray]:
    """STR-tile the rows of ``keys`` into pages.

    Returns ``(perm, sizes)``: page ``k`` holds rows
    ``perm[sum(sizes[:k]) : sum(sizes[:k + 1])]``.

    One depth at a time: every segment still over ``capacity`` is
    stably sorted along the depth's axis in one batched call, then cut
    into slabs (the last axis: into pages). A segment at or under
    ``capacity`` is a page. Each segment is a contiguous run of ``perm``,
    so ordering the pages by where they start gives the depth-first page
    order of a recursive tiler.
    """
    n, dim = keys.shape
    perm = np.arange(n, dtype=np.int64)
    if n <= capacity:
        return perm, np.array([n], dtype=np.int64)
    # Pages found so far, by where they start in perm.
    page_starts: list[np.ndarray] = []
    page_sizes: list[np.ndarray] = []
    starts = np.zeros(1, dtype=np.int64)  # this depth's oversized segments
    lengths = np.array([n], dtype=np.int64)
    for depth in range(dim):
        rows = concat_ranges(starts, lengths)
        section = perm[rows]
        perm[rows] = section[
            _segment_argsort(keys[section, axis_order[depth]], lengths)
        ]
        if depth == dim - 1:
            chunk_starts, sizes, last = _cut(
                starts, lengths, np.full_like(lengths, capacity)
            )
            # Even out an undersized last page with its neighbour (every
            # segment overflows, so it has one).
            short = last[sizes[last] < minimum]
            merged = sizes[short] + capacity
            sizes[short - 1] = merged // 2
            sizes[short] = merged - merged // 2
            page_starts.append(chunk_starts)
            page_sizes.append(sizes)
            break
        lengths_seen, inverse = np.unique(lengths, return_inverse=True)
        slab = np.array(
            [_slab_size(int(m), capacity, dim - depth) for m in lengths_seen],
            dtype=np.int64,
        )[inverse]
        chunk_starts, chunk_lengths, _ = _cut(starts, lengths, slab)
        fits = chunk_lengths <= capacity
        page_starts.append(chunk_starts[fits])
        page_sizes.append(chunk_lengths[fits])
        starts, lengths = chunk_starts[~fits], chunk_lengths[~fits]
        if lengths.shape[0] == 0:
            break
    order = np.argsort(np.concatenate(page_starts))
    sizes = np.concatenate(page_sizes)[order].tolist()
    _fix_undersized(sizes, capacity, minimum)
    return perm, np.asarray(sizes, dtype=np.int64)


def _cut(
    starts: np.ndarray, lengths: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut each segment ``[starts[i], starts[i] + lengths[i])`` into runs
    of ``size[i]`` rows, the last run taking the rest.

    Returns the runs' starts and lengths, segment by segment, and the
    index of each segment's last run.
    """
    counts = -(-lengths // size)
    size = np.repeat(size, counts)
    runs = np.repeat(starts, counts) + size * concat_ranges(
        np.zeros_like(counts), counts
    )
    last = np.cumsum(counts) - 1
    size[last] = lengths - (counts - 1) * size[last]
    return runs, size, last


def _slab_size(n: int, capacity: int, remaining_axes: int) -> int:
    """Rows per slab when ``n`` rows are cut along the first of
    ``remaining_axes`` axes: ``ceil(P^((k-1)/k))`` slabs for ``P`` pages."""
    num_pages = math.ceil(n / capacity)
    slabs = max(1, math.ceil(num_pages ** ((remaining_axes - 1) / remaining_axes)))
    return math.ceil(n / slabs)


def _segment_argsort(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The stable argsort of each consecutive run of ``lengths`` values,
    as positions into ``values``.

    Several runs are padded with ``+inf`` into one 2-D block and sorted
    along its rows at once; the (finite) values of a run sort ahead of
    its padding, so each row's first ``length`` positions are the run's.
    """
    if lengths.shape[0] == 1:
        return np.argsort(values, kind="stable")
    offsets = np.cumsum(lengths) - lengths
    rows = np.repeat(np.arange(lengths.shape[0]), lengths)
    columns = concat_ranges(np.zeros_like(lengths), lengths)
    block = np.full((lengths.shape[0], int(lengths.max())), np.inf)
    block[rows, columns] = values
    order = np.argsort(block, axis=1, kind="stable")
    return order[rows, columns] + np.repeat(offsets, lengths)


def _fix_undersized(sizes: list[int], capacity: int, minimum: int) -> None:
    """Merge every page below ``minimum`` into a neighbour, in place.

    Slab boundaries can leave undersized pages anywhere. The first one is
    merged with its left neighbour (its right one at the front); a union
    over ``capacity`` is split in half, and because ``minimum <= 0.4
    capacity`` both halves then meet the bound. Pages are contiguous runs
    of one order, so merging and splitting only moves page boundaries.
    """
    index = 0
    while len(sizes) > 1:
        while index < len(sizes) and sizes[index] >= minimum:
            index += 1
        if index == len(sizes):
            return
        index = max(index - 1, 0)
        merged = sizes[index] + sizes.pop(index + 1)
        if merged > capacity:
            sizes[index : index + 1] = [merged // 2, merged - merged // 2]
        else:
            sizes[index] = merged


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )


def _leaf_signatures(
    values: np.ndarray, pages: np.ndarray, bits: int, words: int, salt: int
) -> np.ndarray:
    """Each page's signature words: the OR of its values' hash bits.

    ``pages[i]`` is the (sorted) page of ``values[i]``; the result has one
    ``(words,)`` uint64 row per page.
    """
    positions = hash_bits(values, bits, salt)
    out = np.zeros((int(pages[-1]) + 1, words), dtype="<u8")
    np.bitwise_or.at(
        out,
        (pages, (positions // np.uint64(64)).astype(np.intp)),
        np.uint64(1) << (positions % np.uint64(64)),
    )
    return out


def _empty_store(dim: int, bitvector_bits: int, words: int) -> ArrayStore:
    """The store of an empty index: one leaf root with no entries."""
    arrays = {
        "node_lows": np.zeros((1, dim)),
        "node_highs": np.zeros((1, dim)),
        "node_levels": np.zeros(1),
        "node_child_start": np.zeros(1),
        "node_child_count": np.zeros(1),
        "node_page_ids": np.zeros(1),
        "node_vf_words": np.zeros((1, words)),
        "node_vd_words": np.zeros((1, words)),
        "entry_points": np.zeros((0, dim)),
        "entry_gene_ids": np.zeros(0),
        "entry_source_ids": np.zeros(0),
        "entry_payloads": np.zeros(0),
    }
    return ArrayStore(
        dim=dim,
        bitvector_bits=bitvector_bits,
        height=1,
        pages_allocated=1,
        arrays=_typed(arrays),
    )


def _typed(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each array contiguous, in its on-disk dtype."""
    return {
        name: np.ascontiguousarray(arrays[name], dtype=dtype)
        for name, (dtype, _is_2d) in _ARRAY_SPECS.items()
    }
