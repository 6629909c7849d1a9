"""Bit-vector signatures for gene IDs and data-source IDs (Section 5.1).

Each embedded point carries two size-``B`` bit vectors: ``V_f`` hashes its
gene ID, ``V_d`` hashes its data-source ID. Intermediate index nodes hold
the bit-OR of their subtree's vectors, so one AND against a query signature
can rule out a whole subtree. Like any Bloom-style filter the signatures
admit false positives (hash collisions) but never false negatives -- pruned
subtrees genuinely contain no matching gene/source.

Bit vectors are plain Python ints (arbitrary precision), which makes OR/AND
single opcodes. The hash is a deterministic multiplicative mix (Python's
builtin ``hash`` is randomized per process and would break reproducibility).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import ValidationError

__all__ = [
    "hash_bit",
    "hash_bits",
    "signature",
    "signature_many",
    "signatures_overlap",
    "popcount",
]

#: SplitMix64-style multiplicative constants.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(value: int, salt: int) -> int:
    """Deterministic 64-bit avalanche mix of ``value`` with ``salt``."""
    z = (value * 0x9E3779B97F4A7C15 + salt * 0xD1B54A32D192ED03) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def hash_bit(value: int, bits: int, salt: int = 0) -> int:
    """The bit position ``H(value)`` in a size-``bits`` vector."""
    if bits < 1:
        raise ValidationError(f"bits must be >= 1, got {bits}")
    return _mix(int(value), salt) % bits


def hash_bits(values: np.ndarray, bits: int, salt: int = 0) -> np.ndarray:
    """:func:`hash_bit` of every value at once, in ``uint64`` arithmetic.

    The same mix modulo ``2**64`` (negative values wrap the same way),
    so each position equals ``hash_bit(value, bits, salt)``.
    """
    if bits < 1:
        raise ValidationError(f"bits must be >= 1, got {bits}")
    z = np.asarray(values, dtype=np.int64).astype(np.uint64)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
        (salt * 0xD1B54A32D192ED03) & _MASK64
    )
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z % np.uint64(bits)


def signature(value: int, bits: int, salt: int = 0) -> int:
    """Single-value signature: one set bit at ``H(value)``."""
    return 1 << hash_bit(value, bits, salt)


def signature_many(values: Iterable[int], bits: int, salt: int = 0) -> int:
    """Bit-OR of the signatures of every value (a node-level signature)."""
    sig = 0
    for value in values:
        sig |= signature(value, bits, salt)
    return sig


def signatures_overlap(a: int, b: int) -> bool:
    """True when the AND of two signatures is non-zero.

    The filter semantics of Fig. 4: a zero AND proves the underlying ID
    sets are disjoint; a non-zero AND proves nothing (possible collision).
    """
    return (a & b) != 0


def popcount(sig: int) -> int:
    """Number of set bits (used by the bit-vector ablation bench)."""
    return bin(sig).count("1")
