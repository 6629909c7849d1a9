"""The STR packer against a recursive oracle and recorded store digests.

:func:`repro.index.packer._tile` sorts every oversized slab of one depth
in a single batched call. :func:`_recursive_tile` below is the recursive
tiler it replaced, kept as the oracle: both must return the same
``(perm, sizes)`` on any input, ties and signed zeros included.

:data:`GOLDEN_DIGESTS` pins the bytes of whole stores -- maintained
engines and tie-heavy direct packs -- so a rewrite of the packer cannot
change a store unnoticed (the traversal golden only sees what a walk
reads).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, IMGRNEngine
from repro.config import SyntheticConfig
from repro.data.synthetic import generate_database, generate_matrix
from repro.index.packer import _fix_undersized, _tile, min_fanout, str_pack

#: ``{case: ArrayStore.fingerprint()}`` (see :func:`_write_golden_digests`).
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "store_digests.json"

#: ``(name, n_matrices, SyntheticConfig)`` of the maintained engines: an
#: atlas-shaped database (a 600-gene pool, 50-100 genes per source) and a
#: panel-shaped one (every source over one 30-gene panel).
ENGINE_CASES = (
    (
        "atlas",
        48,
        SyntheticConfig(
            weights="uni",
            genes_range=(50, 100),
            samples_range=(12, 24),
            gene_pool=600,
            seed=1,
        ),
    ),
    (
        "panel",
        16,
        SyntheticConfig(
            weights="uni",
            genes_range=(27, 30),
            samples_range=(36, 48),
            gene_pool=30,
            seed=1,
        ),
    ),
)

#: Capacities of the direct tie-heavy packs.
PACK_CAPACITIES = (4, 7, 16, 33)


def _recursive_tile(
    keys: np.ndarray, axis_order: list[int], capacity: int, minimum: int
) -> tuple[np.ndarray, np.ndarray]:
    """The recursive STR tiler: the oracle of the batched :func:`_tile`."""
    dim = keys.shape[1]
    parts: list[np.ndarray] = []
    sizes: list[int] = []

    def tile(rows: np.ndarray, depth: int) -> None:
        n = rows.shape[0]
        if n <= capacity:
            parts.append(rows)
            sizes.append(n)
            return
        rows = rows[np.argsort(keys[rows, axis_order[depth]], kind="stable")]
        if depth >= dim - 1:
            pages = [capacity] * (n // capacity)
            if n % capacity:
                pages.append(n % capacity)
            if len(pages) >= 2 and pages[-1] < minimum:
                merged = pages[-2] + pages[-1]
                pages[-2:] = [merged // 2, merged - merged // 2]
            parts.append(rows)
            sizes.extend(pages)
            return
        num_pages = math.ceil(n / capacity)
        remaining_axes = dim - depth
        slabs = max(
            1, math.ceil(num_pages ** ((remaining_axes - 1) / remaining_axes))
        )
        slab_size = math.ceil(n / slabs)
        for start in range(0, n, slab_size):
            tile(rows[start : start + slab_size], depth + 1)

    tile(np.arange(keys.shape[0], dtype=np.int64), 0)
    _fix_undersized(sizes, capacity, minimum)
    return np.concatenate(parts), np.asarray(sizes, dtype=np.int64)


def _grid_keys(n: int, dim: int, levels: int, seed: int) -> np.ndarray:
    """``n x dim`` keys on a ``levels``-value integer grid around zero,
    every zero signed at random: heavy ties, and ``-0.0`` next to
    ``+0.0`` (equal under the sort, so only stability orders them)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(levels // 2), levels - levels // 2, size=(n, dim))
    keys = keys.astype(np.float64)
    keys[(keys == 0) & (rng.random((n, dim)) < 0.5)] = -0.0
    return keys


def _tie_heavy_columns(n: int, seed: int):
    """Direct :func:`str_pack` input: 5-d grid points whose last column is
    the gene ID (about 40 distinct), 25 sources, shuffled payloads."""
    rng = np.random.default_rng(seed)
    points = _grid_keys(n, 5, 5, seed)
    points[:, -1] = rng.integers(0, 40, n)
    return (
        points,
        points[:, -1].astype(np.int64),
        rng.integers(0, 25, n),
        rng.permutation(n) * 3 + 1,
    )


def _engine_states(name: str, count: int, synthetic: SyntheticConfig):
    """``(state, engine)``: a fresh build, then three arrivals, then the
    removal of the fourth source -- each store a full repack."""
    database = generate_database(synthetic, count)
    engine = IMGRNEngine(database, EngineConfig(seed=11))
    engine.build()
    yield f"{name}/built", engine
    genes = sum(synthetic.genes_range) // 2
    samples = sum(synthetic.samples_range) // 2
    arrival = replace(
        synthetic, genes_range=(genes, genes), samples_range=(samples, samples)
    )
    for offset in range(3):
        source = count + offset
        engine.add_matrix(
            generate_matrix(arrival, source, rng=np.random.default_rng((7, source)))
        )
    yield f"{name}/added", engine
    engine.remove_matrix(3)
    yield f"{name}/removed", engine


def _digests() -> dict[str, str]:
    """Every recorded case's store fingerprint, computed afresh."""
    out = {}
    for name, count, synthetic in ENGINE_CASES:
        for state, engine in _engine_states(name, count, synthetic):
            out[state] = engine.array_index.fingerprint()
    for capacity in PACK_CAPACITIES:
        store = str_pack(
            *_tie_heavy_columns(3000, seed=capacity),
            max_entries=capacity,
            bitvector_bits=1024,
        )
        out[f"pack/M={capacity}"] = store.fingerprint()
    return out


def _write_golden_digests() -> None:
    """Re-record :data:`GOLDEN_DIGESTS` from the current packer.

    Run ``PYTHONPATH=src python tests/test_packer.py`` only when a store's
    bytes are meant to change; the test pins them otherwise.
    """
    GOLDEN_DIGESTS.write_text(
        json.dumps(_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


class TestTileOracle:
    @given(
        n=st.integers(0, 3000),
        dim=st.integers(1, 7),
        capacity=st.integers(4, 64),
        levels=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_tiler(self, n, dim, capacity, levels, seed):
        keys = _grid_keys(n, dim, levels, seed)
        axis_order = [dim - 1] + list(range(dim - 1))
        minimum = min_fanout(capacity)
        perm, sizes = _tile(keys, axis_order, capacity, minimum)
        want_perm, want_sizes = _recursive_tile(keys, axis_order, capacity, minimum)
        assert perm.dtype == want_perm.dtype and sizes.dtype == want_sizes.dtype
        assert perm.tolist() == want_perm.tolist()
        assert sizes.tolist() == want_sizes.tolist()

    @pytest.mark.parametrize("capacity", [4, 5, 16, 63])
    def test_continuous_keys_match(self, capacity):
        rng = np.random.default_rng(capacity)
        keys = rng.normal(size=(2500, 5))
        keys[:, -1] = rng.integers(0, 600, 2500)  # the gene-ID axis
        axis_order = [4, 0, 1, 2, 3]
        minimum = min_fanout(capacity)
        got = _tile(keys, axis_order, capacity, minimum)
        want = _recursive_tile(keys, axis_order, capacity, minimum)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


class TestGoldenDigests:
    def test_stores_match_recording(self):
        recorded = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
        assert _digests() == recorded


if __name__ == "__main__":
    _write_golden_digests()
