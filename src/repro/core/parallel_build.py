"""Sharded, optionally process-parallel index-construction helpers.

Fig. 13 of the paper shows index construction dominating IM-GRN's offline
cost; the per-matrix work (pivot selection, embedding, expected-distance
computation) is embarrassingly parallel because every matrix is embedded
under its own ``(seed, source_id)``-keyed random stream. This module
provides the building blocks :meth:`repro.core.query.IMGRNEngine.build`
fans that work out with:

* :func:`partition_shards` cuts the database into shards of
  ``BuildConfig.shard_size`` matrices -- the unit of progress spans,
  worker dispatch and per-shard persistence;
* :func:`embed_with_padding` embeds one matrix exactly as the serial
  build always has (pivots padded when ``n_i < d``), callable from a
  worker process;
* :func:`stripe_worker` is the ``ProcessPoolExecutor`` entry point: one
  round-robin stripe of shards per worker (the sharding pattern proven in
  :mod:`repro.core.batch_inference`), returning the embedded matrices plus
  per-shard wall seconds.

Packing shard outputs into the index stays in the parent process and
follows database order, so the parallel build is bit-identical to the
serial one (asserted in ``tests/test_parallel_build.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import EngineConfig
from .embedding import EmbeddedMatrix, embed_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..data.matrix import GeneFeatureMatrix

__all__ = [
    "ShardSpec",
    "ShardResult",
    "partition_shards",
    "embed_with_padding",
    "embed_shard",
    "stripe_worker",
]


class _NullSpan:
    """Do-nothing context manager for tracer-less (worker) embeds."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class ShardSpec:
    """One build shard: a contiguous run of matrices in database order.

    Matrices travel as plain ``(values, gene_ids, source_id)`` triples so
    the spec pickles cheaply into worker processes.
    """

    index: int
    matrices: tuple[tuple[np.ndarray, tuple[int, ...], int], ...]

    @property
    def source_ids(self) -> tuple[int, ...]:
        return tuple(sid for _values, _genes, sid in self.matrices)


@dataclass(frozen=True)
class ShardResult:
    """Embedded output of one shard plus its embed wall-clock seconds."""

    index: int
    embedded: tuple[EmbeddedMatrix, ...]
    seconds: float


def partition_shards(
    matrices: "list[GeneFeatureMatrix]", shard_size: int
) -> list[ShardSpec]:
    """Cut ``matrices`` (in database order) into shards of ``shard_size``."""
    shards: list[ShardSpec] = []
    for start in range(0, len(matrices), shard_size):
        chunk = matrices[start : start + shard_size]
        shards.append(
            ShardSpec(
                index=len(shards),
                matrices=tuple(
                    (m.values, m.gene_ids, m.source_id) for m in chunk
                ),
            )
        )
    return shards


def embed_with_padding(
    values: np.ndarray,
    gene_ids: tuple[int, ...],
    source_id: int,
    config: EngineConfig,
    pivot_strategy: str,
    rng: np.random.Generator,
    tracer=None,
) -> EmbeddedMatrix:
    """Embed one matrix, padding pivots when ``n_i < d``.

    All index points must share one dimensionality; a matrix with fewer
    genes than ``d`` repeats its last pivot, which is sound (a repeated
    pivot adds a duplicate coordinate and never tightens a bound
    incorrectly).
    """
    effective = min(config.num_pivots, len(gene_ids))
    embedded = embed_matrix(
        values,
        gene_ids,
        source_id,
        num_pivots=effective,
        expectation_mode=config.expectation_mode,
        expectation_samples=config.expectation_samples,
        pivot_strategy=pivot_strategy,
        pivot_global_iter=config.pivot_global_iter,
        pivot_swap_iter=config.pivot_swap_iter,
        rng=rng,
        tracer=tracer,
    )
    if effective == config.num_pivots:
        return embedded
    pad = config.num_pivots - effective
    x = np.hstack([embedded.x, np.repeat(embedded.x[:, -1:], pad, axis=1)])
    y = np.hstack([embedded.y, np.repeat(embedded.y[:, -1:], pad, axis=1)])
    pivots = embedded.pivot_indices + (embedded.pivot_indices[-1],) * pad
    return EmbeddedMatrix(
        source_id=embedded.source_id,
        gene_ids=embedded.gene_ids,
        pivot_indices=pivots,
        x=x,
        y=y,
    )


def embed_shard(
    shard: ShardSpec,
    config: EngineConfig,
    pivot_strategy: str,
    tracer=None,
) -> ShardResult:
    """Embed every matrix of one shard (deterministic per-matrix seeding)."""
    started = time.perf_counter()
    results: list[EmbeddedMatrix] = []
    for values, gene_ids, source_id in shard.matrices:
        span = (
            tracer.span("build.embed", source=source_id, genes=len(gene_ids))
            if tracer is not None
            else _NULL_SPAN
        )
        with span:
            results.append(
                embed_with_padding(
                    values,
                    gene_ids,
                    source_id,
                    config,
                    pivot_strategy,
                    np.random.default_rng((config.seed, source_id)),
                    tracer=tracer,
                )
            )
    embedded = tuple(results)
    return ShardResult(
        index=shard.index,
        embedded=embedded,
        seconds=time.perf_counter() - started,
    )


def stripe_worker(
    args: tuple[list[ShardSpec], EngineConfig, str],
) -> list[ShardResult]:
    """Process-pool entry point: embed one round-robin stripe of shards.

    Workers never see the tracer (spans stay in the parent); the returned
    per-shard seconds feed the parent's ``build.shard_seconds`` histogram.
    """
    shards, config, pivot_strategy = args
    return [embed_shard(shard, config, pivot_strategy) for shard in shards]
