"""Sharded index-construction helpers and the one build fan-out.

Fig. 13 of the paper shows index construction dominating IM-GRN's offline
cost; the per-matrix work (pivot selection, embedding, expected-distance
computation) is embarrassingly parallel because every matrix is embedded
under its own ``(seed, source_id)``-keyed random stream. This module
provides the building blocks :meth:`repro.core.query.IMGRNEngine.build`
fans that work out with:

* :func:`partition_shards` cuts the database into shards of
  ``BuildConfig.shard_size`` matrices -- the unit of progress spans,
  worker dispatch and per-shard persistence;
* :func:`build_width` derives how many processes embed them from the
  input and the machine: ``min(usable CPUs, shards)``, or 1 where a
  fork would be unsafe or would drop the build's spans;
* :func:`embed_with_padding` embeds one matrix exactly as the serial
  build always has (pivots padded when ``n_i < d``), callable from a
  worker process;
* :func:`fan_out` embeds round-robin stripes of shards in forked worker
  processes, returning the embedded matrices plus per-shard wall seconds.

Packing shard outputs into the index stays in the parent process and
follows database order, so a build of any width is bit-identical to the
serial one (asserted in ``tests/test_parallel_build.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent import futures
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
    "usable_cpus",
    "build_width",
    "embed_with_padding",
    "embed_shard",
    "fan_out",
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


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def build_width(shards: int, tracing: bool) -> int:
    """Processes that embed ``shards`` build shards: ``min(CPUs, shards)``.

    The build stays serial (width 1) when a fan-out cannot win or is
    unsafe: fewer than 2 shards or usable CPUs; another Python thread is
    alive (forking a threaded process is unsafe, and Python 3.12+ warns);
    the tracer is on (worker processes would drop the ``build.*`` spans);
    or the platform cannot fork.
    """
    if (
        shards < 2
        or tracing
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return max(1, min(usable_cpus(), shards))


def _embed_stripe(
    args: tuple[list[ShardSpec], EngineConfig, str],
) -> list[ShardResult]:
    """Worker entry point: embed one round-robin stripe of shards."""
    shards, config, pivot_strategy = args
    return [embed_shard(shard, config, pivot_strategy) for shard in shards]


def fan_out(
    shards: list[ShardSpec], width: int, config: EngineConfig, pivot_strategy: str
) -> list[list[ShardResult]]:
    """Embed ``shards`` in ``width`` forked processes, one per stripe.

    Shards are striped round-robin (``shards[w::width]``; shard cost is
    roughly uniform, so stripes balance). Returns each worker's shard
    results; workers never see the tracer, and the per-shard seconds they
    measure feed the parent's ``build.shard_seconds`` histogram.
    """
    payloads = [(shards[w::width], config, pivot_strategy) for w in range(width)]
    with futures.ProcessPoolExecutor(
        width, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        return list(pool.map(_embed_stripe, payloads))
