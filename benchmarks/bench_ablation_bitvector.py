"""Ablation: bit-vector signature width B.

The gene/source signatures (Section 5.1) are Bloom-style: narrow vectors
saturate on a large gene pool and stop filtering, inflating the traversal's
I/O; wide vectors keep collisions rare. Answers never change (signatures
only admit false positives).
"""

from __future__ import annotations

import pytest

from conftest import ABLATION, ablation_workload, write_table
from repro.config import EngineConfig
from repro.core.query import IMGRNEngine
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows

GAMMA = ALPHA = 0.5
WIDTHS = (16, 64, 256, 1024)


@pytest.fixture(scope="module")
def setup(bench_seed):
    database, queries = ablation_workload()
    engines = {}
    for bits in WIDTHS:
        engine = IMGRNEngine(
            database, EngineConfig(bitvector_bits=bits, seed=bench_seed)
        )
        engine.build()
        engines[bits] = engine
    return engines, queries


@pytest.mark.parametrize("bits", WIDTHS)
def test_query_speed_by_bitvector_width(benchmark, setup, bits):
    engines, queries = setup
    engine = engines[bits]
    benchmark.pedantic(
        lambda: [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries],
        rounds=3,
        iterations=1,
    )


def test_ablation_bitvector_series(benchmark, setup):
    engines, queries = setup

    def sweep():
        return [
            row
            for bits, engine in engines.items()
            for row in primed_rows(ABLATION, engine, queries, B=bits)
        ]

    rows = per_query_means(benchmark.pedantic(sweep, rounds=1, iterations=1), "B")
    write_table("ablation_bitvector", text_table("ablation_bitvector", rows))
    answers = {
        bits: [
            engine.query(q, gamma=GAMMA, alpha=ALPHA).answer_sources()
            for q in queries
        ]
        for bits, engine in engines.items()
    }
    # Signatures are filters, never deciders: identical answers at any B.
    for bits in WIDTHS[1:]:
        assert answers[bits] == answers[WIDTHS[0]]
    # Wider signatures can only help the traversal (same or less I/O).
    io = {row["B"]: row["io_accesses"] for row in rows}
    assert io[1024] <= io[16] * 1.05
