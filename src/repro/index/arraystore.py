"""Zero-copy array-backed view of a finalized R*-tree.

The object tree (:class:`~repro.index.rstartree.RStarTree`) is the *write*
path: R* insertion heuristics, forced reinsert, deletion. Once
``finalize()`` has run, the whole structure is immutable until the next
mutation -- which is exactly the shape that wants a structure-of-arrays
layout instead of Python pointer chasing. :class:`ArrayStore` compacts the
tree into contiguous NumPy arrays (breadth-first node order, so every
node's children occupy one contiguous index range) and persists them as
raw ``.npy`` files that reload through ``np.load(..., mmap_mode="r")``:
N worker processes then share a single page-cache copy of the index and
"loading" the index is an ``mmap`` call, not an unpickle.

Layout (``N`` nodes, ``P`` leaf entries, ``dim = 2d+1``, ``W`` signature
words of 64 bits):

================== ========== =========================================
array              dtype      meaning
================== ========== =========================================
node_lows          <f8 (N,dim) MBR low corner per node
node_highs         <f8 (N,dim) MBR high corner per node
node_levels        <i4 (N,)    tree level (0 == leaf)
node_child_start   <i8 (N,)    first child node index (internal) or
                               first entry row (leaf)
node_child_count   <i8 (N,)    number of children / leaf entries
node_page_ids      <i8 (N,)    original page IDs (I/O accounting keeps
                               the tree's page numbering)
node_vf_words      <u8 (N,W)   gene-ID signature ``V_f``, little-endian
                               64-bit words
node_vd_words      <u8 (N,W)   source-ID signature ``V_d``
entry_points       <f8 (P,dim) embedded leaf points
entry_gene_ids     <i8 (P,)    gene ID per entry
entry_source_ids   <i8 (P,)    source (matrix) ID per entry
entry_payloads     <i8 (P,)    opaque engine payload per entry
================== ========== =========================================

The store is the engine's only read path and the tree is its builder:
every query walks the store, while mutations go through the object
tree, which is then re-compacted. ``search`` and ``nearest`` keep the
tree's answers and page-access counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import ValidationError

__all__ = [
    "ArrayStore",
    "int_to_words",
    "words_to_int",
    "signature_words",
    "min_dist_many",
]

#: On-disk format version (bump on any layout change).
FORMAT_VERSION = 1

#: Header file name inside an array-store directory.
_HEADER_NAME = "header.json"

_MASK64 = (1 << 64) - 1

#: name -> (dtype, is_2d) for every persisted array, in a fixed order.
_ARRAY_SPECS: dict[str, tuple[str, bool]] = {
    "node_lows": ("<f8", True),
    "node_highs": ("<f8", True),
    "node_levels": ("<i4", False),
    "node_child_start": ("<i8", False),
    "node_child_count": ("<i8", False),
    "node_page_ids": ("<i8", False),
    "node_vf_words": ("<u8", True),
    "node_vd_words": ("<u8", True),
    "entry_points": ("<f8", True),
    "entry_gene_ids": ("<i8", False),
    "entry_source_ids": ("<i8", False),
    "entry_payloads": ("<i8", False),
}


def int_to_words(value: int, words: int) -> np.ndarray:
    """Split a non-negative Python int into ``words`` little-endian uint64s."""
    if value < 0:
        raise ValidationError(f"signatures are non-negative, got {value}")
    out = np.empty(words, dtype="<u8")
    for index in range(words):
        out[index] = value & _MASK64
        value >>= 64
    if value:
        raise ValidationError(
            f"signature does not fit in {words} 64-bit words"
        )
    return out


def words_to_int(words: np.ndarray) -> int:
    """Inverse of :func:`int_to_words`."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def signature_words(bitvector_bits: int) -> int:
    """Words of 64 bits needed to hold a ``bitvector_bits``-wide signature."""
    return max(1, (int(bitvector_bits) + 63) // 64)


class ArrayStore:
    """Structure-of-arrays compaction of a finalized R*-tree.

    Construct with :meth:`from_tree` (compaction) or :meth:`load`
    (mmap reload); the raw-array constructor is for those two paths.
    Node index 0 is always the root; children of node ``i`` are nodes
    ``child_start[i] .. child_start[i] + child_count[i]`` (internal) or
    entry rows in the same range (leaf).
    """

    __slots__ = (
        "dim",
        "bitvector_bits",
        "sig_words",
        "height",
        "pages_allocated",
        "node_lows",
        "node_highs",
        "node_levels",
        "node_child_start",
        "node_child_count",
        "node_page_ids",
        "node_vf_words",
        "node_vd_words",
        "entry_points",
        "entry_gene_ids",
        "entry_source_ids",
        "entry_payloads",
    )

    def __init__(
        self,
        *,
        dim: int,
        bitvector_bits: int,
        height: int,
        pages_allocated: int,
        arrays: dict[str, np.ndarray],
    ):
        self.dim = int(dim)
        self.bitvector_bits = int(bitvector_bits)
        self.sig_words = signature_words(bitvector_bits)
        self.height = int(height)
        self.pages_allocated = int(pages_allocated)
        for name in _ARRAY_SPECS:
            setattr(self, name, arrays[name])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree) -> "ArrayStore":
        """Compact a finalized :class:`RStarTree` into contiguous arrays.

        Raises
        ------
        ValidationError
            If the tree has not been finalized (signatures would be
            stale, and the store is immutable by design).
        """
        if not tree._finalized:
            raise ValidationError(
                "compact only a finalized tree (call finalize() first)"
            )
        dim = tree.dim
        words = signature_words(tree.bitvector_bits)

        # Breadth-first order: children of every internal node land in one
        # contiguous index range, parents strictly before children.
        nodes = [tree.root]
        for node in nodes:  # nodes grows while iterating: BFS queue
            if not node.is_leaf:
                nodes.extend(node.entries)
        count = len(nodes)

        total_entries = sum(len(n.entries) for n in nodes if n.is_leaf)
        arrays = {
            "node_lows": np.zeros((count, dim), dtype="<f8"),
            "node_highs": np.zeros((count, dim), dtype="<f8"),
            "node_levels": np.zeros(count, dtype="<i4"),
            "node_child_start": np.zeros(count, dtype="<i8"),
            "node_child_count": np.zeros(count, dtype="<i8"),
            "node_page_ids": np.zeros(count, dtype="<i8"),
            "node_vf_words": np.zeros((count, words), dtype="<u8"),
            "node_vd_words": np.zeros((count, words), dtype="<u8"),
            "entry_points": np.zeros((total_entries, dim), dtype="<f8"),
            "entry_gene_ids": np.zeros(total_entries, dtype="<i8"),
            "entry_source_ids": np.zeros(total_entries, dtype="<i8"),
            "entry_payloads": np.zeros(total_entries, dtype="<i8"),
        }
        next_node = 1  # BFS row of the next unplaced child (root is 0)
        next_entry = 0
        for index, node in enumerate(nodes):
            arrays["node_levels"][index] = node.level
            arrays["node_page_ids"][index] = node.page_id
            arrays["node_vf_words"][index] = int_to_words(node.vf, words)
            arrays["node_vd_words"][index] = int_to_words(node.vd, words)
            if node.mbr is not None:
                arrays["node_lows"][index] = node.mbr.low
                arrays["node_highs"][index] = node.mbr.high
            if node.is_leaf:
                arrays["node_child_start"][index] = next_entry
                arrays["node_child_count"][index] = len(node.entries)
                for entry in node.entries:
                    arrays["entry_points"][next_entry] = entry.point
                    arrays["entry_gene_ids"][next_entry] = entry.gene_id
                    arrays["entry_source_ids"][next_entry] = entry.source_id
                    arrays["entry_payloads"][next_entry] = entry.payload
                    next_entry += 1
            else:
                arrays["node_child_start"][index] = next_node
                arrays["node_child_count"][index] = len(node.entries)
                next_node += len(node.entries)
        return cls(
            dim=dim,
            bitvector_bits=tree.bitvector_bits,
            height=tree.height,
            pages_allocated=tree.pages.num_pages,
            arrays=arrays,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.node_levels.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_gene_ids.shape[0])

    def __len__(self) -> int:
        return self.num_entries

    def node_vf(self, index: int) -> int:
        """The Python-int ``V_f`` signature of one node."""
        return words_to_int(self.node_vf_words[index])

    def node_vd(self, index: int) -> int:
        """The Python-int ``V_d`` signature of one node."""
        return words_to_int(self.node_vd_words[index])

    def fingerprint(self) -> str:
        """SHA-256 over the header scalars plus every array's raw bytes."""
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    "format_version": FORMAT_VERSION,
                    "dim": self.dim,
                    "bitvector_bits": self.bitvector_bits,
                    "height": self.height,
                    "pages_allocated": self.pages_allocated,
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        for name in _ARRAY_SPECS:
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> dict:
        """Write raw ``.npy`` files plus a versioned JSON header.

        Raw (uncompressed) ``.npy`` is deliberate: it is the format
        ``np.load(..., mmap_mode="r")`` can map without copying, which a
        compressed ``.npz`` member cannot. Returns the header dict.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        header: dict = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "bitvector_bits": self.bitvector_bits,
            "sig_words": self.sig_words,
            "height": self.height,
            "pages_allocated": self.pages_allocated,
            "num_nodes": self.num_nodes,
            "num_entries": self.num_entries,
            "fingerprint": self.fingerprint(),
            "arrays": {},
        }
        for name, (dtype, _is_2d) in _ARRAY_SPECS.items():
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            file_name = f"{name}.npy"
            np.save(target / file_name, array)
            header["arrays"][name] = {
                "file": file_name,
                "dtype": dtype,
                "shape": list(array.shape),
            }
        (target / _HEADER_NAME).write_text(
            json.dumps(header, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return header

    @classmethod
    def load(cls, directory: str | Path, *, mmap: bool = True) -> "ArrayStore":
        """Reload a saved store; ``mmap=True`` maps the arrays read-only.

        Raises
        ------
        ValidationError
            If the directory is not an array store, the format version is
            unsupported, or an array is missing / has the wrong shape.
        """
        target = Path(directory)
        header_path = target / _HEADER_NAME
        if not header_path.is_file():
            raise ValidationError(f"{target}: not an array-store directory")
        header = json.loads(header_path.read_text(encoding="utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"{target}: unsupported array-store version "
                f"{header.get('format_version')!r}"
            )
        arrays: dict[str, np.ndarray] = {}
        mode = "r" if mmap else None
        for name, (dtype, _is_2d) in _ARRAY_SPECS.items():
            spec = header.get("arrays", {}).get(name)
            if spec is None:
                raise ValidationError(f"{target}: header misses array {name!r}")
            array = np.load(target / spec["file"], mmap_mode=mode)
            if list(array.shape) != list(spec["shape"]) or array.dtype != np.dtype(
                dtype
            ):
                raise ValidationError(
                    f"{target}: array {name!r} does not match its header "
                    f"(shape {array.shape}, dtype {array.dtype})"
                )
            arrays[name] = array
        return cls(
            dim=int(header["dim"]),
            bitvector_bits=int(header["bitvector_bits"]),
            height=int(header["height"]),
            pages_allocated=int(header["pages_allocated"]),
            arrays=arrays,
        )

    # ------------------------------------------------------------------
    # Traversal (range search and kNN over the compacted layout)
    # ------------------------------------------------------------------
    def _is_empty(self) -> bool:
        return self.num_nodes == 0 or (
            self.node_levels[0] == 0 and self.node_child_count[0] == 0
        )

    def search(self, low, high, pages=None) -> list[int]:
        """Entry rows whose point lies in ``[low, high]``.

        Visits nodes in the same order as :meth:`RStarTree.search` (LIFO
        stack, children pushed in index order) and charges the same page
        accesses when ``pages`` (a :class:`PageManager` or
        :class:`PageCounter`) is given; the intersection / containment
        tests are whole-node NumPy calls instead of per-child Python.
        """
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        results: list[int] = []
        if self._is_empty():
            return results
        stack = [0]
        while stack:
            index = stack.pop()
            if pages is not None:
                pages.access(int(self.node_page_ids[index]))
            start = int(self.node_child_start[index])
            stop = start + int(self.node_child_count[index])
            if self.node_levels[index] == 0:
                points = self.entry_points[start:stop]
                inside = np.all(points >= low, axis=1) & np.all(
                    points <= high, axis=1
                )
                results.extend(start + int(i) for i in np.nonzero(inside)[0])
            else:
                lows = self.node_lows[start:stop]
                highs = self.node_highs[start:stop]
                hits = np.all(lows <= high, axis=1) & np.all(
                    low <= highs, axis=1
                )
                stack.extend(start + int(i) for i in np.nonzero(hits)[0])
        return results

    def nearest(
        self, point, k: int = 1, pages=None
    ) -> list[tuple[float, int]]:
        """The ``k`` nearest entry rows to ``point`` (best-first search).

        Mirrors :meth:`RStarTree.nearest` -- same heap discipline, same
        tie-break order, same per-expansion page accesses -- with MinDist
        over a whole node's children computed in one NumPy call.
        """
        import heapq
        import itertools as _it

        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"point shape {point.shape} does not match dim {self.dim}"
            )
        if self._is_empty():
            return []
        tie = _it.count()
        root_delta = np.clip(point, self.node_lows[0], self.node_highs[0]) - point
        heap: list[tuple[float, int, bool, int]] = [
            (float(np.sqrt(root_delta @ root_delta)), next(tie), False, 0)
        ]
        results: list[tuple[float, int]] = []
        while heap:
            dist, _t, is_entry, index = heapq.heappop(heap)
            if len(results) >= k and dist > results[-1][0]:
                break
            if is_entry:
                results.append((dist, index))
                results.sort(key=lambda pair: pair[0])
                del results[k:]
                continue
            if pages is not None:
                pages.access(int(self.node_page_ids[index]))
            start = int(self.node_child_start[index])
            stop = start + int(self.node_child_count[index])
            if self.node_levels[index] == 0:
                for row in range(start, stop):
                    delta = self.entry_points[row] - point
                    heapq.heappush(
                        heap,
                        (float(np.sqrt(delta @ delta)), next(tie), True, row),
                    )
            else:
                dists = min_dist_many(
                    self.node_lows[start:stop],
                    self.node_highs[start:stop],
                    point,
                )
                for offset, child_dist in enumerate(dists):
                    heapq.heappush(
                        heap,
                        (float(child_dist), next(tie), False, start + offset),
                    )
        return results


def min_dist_many(lows: np.ndarray, highs: np.ndarray, point: np.ndarray):
    """MinDist from ``point`` to each of N boxes, one vectorized call.

    Per row this performs exactly the scalar ``_min_dist`` operations
    (clip, subtract, dot, sqrt) so the distances match the object path
    bit for bit.
    """
    clipped = np.clip(point, lows, highs)
    delta = clipped - point
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
