"""Micro-benchmark of the index substrate: STR pack throughput.

Not a paper figure -- operational visibility into the access method that
every IM-GRN query rides on, at the embedded-space dimensionality (2d+1=5).
Every index change (build, add, remove) is one :func:`str_pack` call, so
the atlas-scale case (the perfbench ``atlas`` index: ~15,000 points over
~600 gene IDs from 200 sources) is what every arrival's repack pays.
"""

from __future__ import annotations

import numpy as np

from repro.index.packer import str_pack

DIM = 5


def _bench_pack(benchmark, seed, n_points, n_genes, n_sources):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 10, size=(n_points, DIM))
    points[:, -1] = rng.integers(0, n_genes, n_points)  # gene-ID axis
    rows = np.arange(n_points)

    def pack():
        return str_pack(
            points,
            points[:, -1].astype(np.int64),
            rows % n_sources,
            rows,
            max_entries=16,
            bitvector_bits=1024,
        )

    store = benchmark.pedantic(pack, rounds=5, iterations=1)
    assert store.num_entries == n_points


def test_pack_throughput(benchmark, bench_seed):
    _bench_pack(benchmark, bench_seed, 2000, 200, 50)


def test_pack_throughput_atlas_scale(benchmark, bench_seed):
    _bench_pack(benchmark, bench_seed, 15_000, 600, 200)
