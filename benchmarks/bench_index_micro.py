"""Micro-benchmarks of the index substrate: STR pack and embed throughput.

Not a paper figure -- operational visibility into the access method that
every IM-GRN query rides on, at the embedded-space dimensionality (2d+1=5).
Every index change (build, add, remove) is one :func:`str_pack` call, so
the atlas-scale case (the perfbench ``atlas`` index: ~15,000 points over
~600 gene IDs from 200 sources) is what every arrival's repack pays.
Every build embeds each matrix once (pivot search plus coordinates, the
per-matrix share of Fig. 13), and every arrival embeds its own; the
atlas-scale embed case times 200 atlas-shaped matrices, the paper-scale
case one matrix the size of DREAM5's E. coli compendium.
"""

from __future__ import annotations

import numpy as np

from repro.config import EngineConfig
from repro.core.parallel_build import embed_with_padding
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


def _bench_embed(benchmark, bench_seed, shapes, rounds):
    rng = np.random.default_rng(bench_seed)
    config = EngineConfig(seed=bench_seed)
    matrices = [
        (rng.normal(size=(length, genes)), tuple(range(genes)))
        for length, genes in shapes
    ]

    def embed_all():
        return [
            embed_with_padding(
                values,
                gene_ids,
                source_id,
                config,
                "cost_model",
                np.random.default_rng((config.seed, source_id)),
            )
            for source_id, (values, gene_ids) in enumerate(matrices)
        ]

    embedded = benchmark.pedantic(embed_all, rounds=rounds, iterations=1)
    assert len(embedded) == len(shapes)


def test_embed_throughput_atlas_scale(benchmark, bench_seed):
    """Embed 200 atlas-shaped matrices (12-24 samples, 50-100 genes)."""
    rng = np.random.default_rng(bench_seed)
    shapes = [
        (int(rng.integers(12, 25)), int(rng.integers(50, 101))) for _ in range(200)
    ]
    _bench_embed(benchmark, bench_seed, shapes, rounds=3)


def test_embed_throughput_paper_scale(benchmark, bench_seed):
    """Embed one DREAM5-sized matrix (805 samples, 4,511 genes)."""
    _bench_embed(benchmark, bench_seed, [(805, 4511)], rounds=3)
