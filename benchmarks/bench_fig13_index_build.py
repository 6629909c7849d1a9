"""Figure 13: index construction time vs [n_min, n_max] and vs N.

The paper's shape: build time grows with both the genes-per-matrix range
(more points to embed + insert) and the number of matrices. A second
series compares a forced-serial build with the derived build width.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from conftest import scaled, write_table
from repro.config import BuildConfig, EngineConfig, SyntheticConfig
from repro.core import parallel_build
from repro.core.parallel_build import build_width
from repro.core.query import IMGRNEngine
from repro.data.synthetic import generate_database
from repro.eval.experiments import ExperimentResult
from repro.eval.reporting import format_table

RANGES = ((10, 20), (20, 50), (50, 100))
SIZES = (50, 100, 200)


def _cpus(count: int | None):
    """Fake the build's CPU probe to ``count`` (``None``: the real one)."""
    if count is None:
        return contextlib.nullcontext()
    return mock.patch.object(parallel_build, "usable_cpus", lambda: count)


@pytest.fixture(scope="module")
def databases(bench_seed):
    built = {}
    for weights in ("uni", "gau"):
        for genes_range in RANGES:
            key = (weights, "range", genes_range)
            built[key] = generate_database(
                SyntheticConfig(
                    weights=weights, genes_range=genes_range, seed=bench_seed
                ),
                scaled(100),
            )
        for n in SIZES:
            key = (weights, "N", n)
            built[key] = generate_database(
                SyntheticConfig(weights=weights, seed=bench_seed), scaled(n)
            )
    return built


@pytest.mark.parametrize("genes_range", RANGES)
def test_build_speed_vs_matrix_width(benchmark, databases, genes_range, bench_seed):
    database = databases[("uni", "range", genes_range)]

    def build():
        engine = IMGRNEngine(database, EngineConfig(seed=bench_seed))
        engine.build()
        return engine

    engine = benchmark.pedantic(build, rounds=1, iterations=1)
    assert engine.is_built


@pytest.mark.parametrize("cpus", (1, None))
def test_build_speed_vs_width(benchmark, databases, cpus, bench_seed):
    """Forced-serial build (CPU probe faked to 1) vs the derived width."""
    database = databases[("uni", "range", RANGES[-1])]
    config = EngineConfig(seed=bench_seed, build=BuildConfig(shard_size=8))

    def build():
        engine = IMGRNEngine(database, config)
        with _cpus(cpus):
            engine.build()
        return engine

    engine = benchmark.pedantic(build, rounds=1, iterations=1)
    assert engine.is_built


def test_figure13_width_series(benchmark, databases, bench_seed):
    """Forced-serial vs derived-width build time (written for
    EXPERIMENTS.md); both builds must be bit-identical."""
    database = databases[("uni", "range", RANGES[-1])]
    config = EngineConfig(seed=bench_seed, build=BuildConfig(shard_size=8))

    def sweep():
        result = ExperimentResult(name="fig13_parallel_build", x_label="width")
        engines = []
        for cpus in (1, None):
            engine = IMGRNEngine(database, config)
            with _cpus(cpus):
                seconds = engine.build()
            engines.append(engine)
            shards = -(-len(database) // config.build.shard_size)
            with _cpus(cpus):
                width = build_width(shards, tracing=False)
            result.rows.append(
                {
                    "width": float(width),
                    "build_seconds": seconds,
                    "speedup": result.rows[0]["build_seconds"] / seconds
                    if result.rows
                    else 1.0,
                }
            )
        serial, derived = engines
        assert (
            serial.array_index.fingerprint() == derived.array_index.fingerprint()
        )
        for sid, entry in serial._entries.items():
            other = derived._entries[sid].embedded
            assert entry.embedded.x.tobytes() == other.x.tobytes()
            assert entry.embedded.y.tobytes() == other.y.tobytes()
        return result

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table("fig13_parallel_build", format_table(result))
    assert all(row["build_seconds"] > 0 for row in result.rows)


def test_figure13_series(benchmark, databases, bench_seed):
    def sweep():
        result = ExperimentResult(name="fig13_index_build", x_label="sweep")
        for weights in ("uni", "gau"):
            for genes_range in RANGES:
                engine = IMGRNEngine(
                    databases[(weights, "range", genes_range)],
                    EngineConfig(seed=bench_seed),
                )
                seconds = engine.build()
                result.rows.append(
                    {
                        "dataset": weights,
                        "sweep": f"range[{genes_range[0]},{genes_range[1]}]",
                        "build_seconds": seconds,
                        "index_pages": float(engine.pages.num_pages),
                    }
                )
            for n in SIZES:
                engine = IMGRNEngine(
                    databases[(weights, "N", n)], EngineConfig(seed=bench_seed)
                )
                seconds = engine.build()
                result.rows.append(
                    {
                        "dataset": weights,
                        "sweep": f"N={scaled(n)}",
                        "build_seconds": seconds,
                        "index_pages": float(engine.pages.num_pages),
                    }
                )
        return result

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table("fig13_index_build", format_table(result))
    for weights in ("uni", "gau"):
        ranges = [
            r for r in result.rows
            if r["dataset"] == weights and str(r["sweep"]).startswith("range")
        ]
        sizes = [
            r for r in result.rows
            if r["dataset"] == weights and str(r["sweep"]).startswith("N=")
        ]
        assert ranges[-1]["build_seconds"] > ranges[0]["build_seconds"]
        assert sizes[-1]["build_seconds"] > sizes[0]["build_seconds"]
