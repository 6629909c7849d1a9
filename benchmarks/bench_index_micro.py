"""Micro-benchmark of the index substrate: STR pack throughput.

Not a paper figure -- operational visibility into the access method that
every IM-GRN query rides on, at the embedded-space dimensionality (2d+1=5).
Every index change (build, add, remove) is one :func:`str_pack` call.
"""

from __future__ import annotations

import numpy as np

from repro.index.packer import str_pack

DIM = 5
N_POINTS = 2000


def test_pack_throughput(benchmark, bench_seed):
    rng = np.random.default_rng(bench_seed)
    points = rng.uniform(0, 10, size=(N_POINTS, DIM))
    points[:, -1] = rng.integers(0, 200, N_POINTS)  # gene-ID axis
    rows = np.arange(N_POINTS)

    def pack():
        return str_pack(
            points,
            points[:, -1].astype(np.int64),
            rows % 50,
            rows,
            max_entries=16,
            bitvector_bits=1024,
        )

    store = benchmark.pedantic(pack, rounds=5, iterations=1)
    assert store.num_entries == N_POINTS
