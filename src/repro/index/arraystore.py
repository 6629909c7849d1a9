"""The index as a structure of arrays: the engine's only index structure.

:func:`~repro.index.packer.str_pack` writes an :class:`ArrayStore`
straight from the embedded points (breadth-first node order, so every
node's children occupy one contiguous index range), and every index
change repacks it; the store itself is immutable. It persists as raw
``.npy`` files that reload through ``np.load(..., mmap_mode="r")``: N
worker processes then share a single page-cache copy of the index and
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
node_page_ids      <i8 (N,)    page ID per node (I/O accounting; the
                               packer numbers pages in node order)
node_vf_words      <u8 (N,W)   gene-ID signature ``V_f``, little-endian
                               64-bit words
node_vd_words      <u8 (N,W)   source-ID signature ``V_d``
entry_points       <f8 (P,dim) embedded leaf points
entry_gene_ids     <i8 (P,)    gene ID per entry
entry_source_ids   <i8 (P,)    source (matrix) ID per entry
entry_payloads     <i8 (P,)    opaque engine payload per entry
================== ========== =========================================
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
    """Structure-of-arrays layout of an STR-packed tree.

    Construct with :func:`~repro.index.packer.str_pack` or :meth:`load`
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
            unsupported, or a file is unreadable (truncated, corrupt) or
            an array is missing / has the wrong shape.
        """
        target = Path(directory)
        header_path = target / _HEADER_NAME
        if not header_path.is_file():
            raise ValidationError(f"{target}: not an array-store directory")
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValidationError(f"{header_path}: unreadable header: {exc}") from exc
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
            path = target / spec["file"]
            try:
                array = np.load(path, mmap_mode=mode)
            except (OSError, ValueError, EOFError) as exc:
                raise ValidationError(f"{path}: unreadable array: {exc}") from exc
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


def min_dist_many(lows: np.ndarray, highs: np.ndarray, point: np.ndarray):
    """MinDist from ``point`` to each of N boxes, one vectorized call.

    No query path calls it; the CI traversal micro-benchmark
    (``benchmarks/bench_ci_smoke.py``) times it against the scalar form.

    Per row this performs the scalar MinDist operations (clip, subtract,
    dot, sqrt), so each distance equals the one-box computation.
    """
    clipped = np.clip(point, lows, highs)
    delta = clipped - point
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
