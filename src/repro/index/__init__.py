"""Index substrate: the STR-packed array store, bit-vector signatures,
inverted file, page accounting."""

from .arraystore import ArrayStore
from .bitvector import hash_bit, signature, signature_many, signatures_overlap
from .invertedfile import InvertedBitVectorFile
from .packer import str_pack
from .pagemanager import PageCounter, PageManager

__all__ = [
    "ArrayStore",
    "PageCounter",
    "PageManager",
    "InvertedBitVectorFile",
    "hash_bit",
    "signature",
    "signature_many",
    "signatures_overlap",
    "str_pack",
]
