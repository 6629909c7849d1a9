"""Serve-layer throughput benchmark: queries/sec vs worker threads.

Builds one IM-GRN index over a synthetic database, then serves the same
fixed query workload through :class:`repro.serve.QueryServer` at several
worker-thread counts and reports wall-clock seconds and queries/sec per
thread count.

The engines' read paths are reentrant (per-query metrics registries and
page counters), so the concurrent rounds must agree bit-for-bit with the
single-threaded round on every deterministic counter -- the benchmark
asserts that before reporting numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --threads 1 2 4 8 --n-matrices 24 --queries 8 --json serve.json

:func:`smoke` is the CI entry point: a small 1-vs-8-thread sweep whose
flat dict feeds ``bench_ci_smoke.py`` / ``check_regression.py``. The
``speedup_threads8`` key is gated by a baseline floor on multi-core
runners only (see check_regression.py) -- a 1-CPU box cannot show a
parallel speedup.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.config import EngineConfig, ObservabilityConfig, SyntheticConfig
from repro.core.query import IMGRNEngine
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.serve import QueryServer, QuerySpec, ServeConfig

SEED = 7
GAMMA = ALPHA = 0.5

#: Private registries keep the bench's counters isolated from anything
#: else in the process.
_OBS = ObservabilityConfig(shared_registry=False)

#: Count fields of ``QueryStats`` that must be identical across rounds.
COUNT_FIELDS = ("io_accesses", "candidates", "answers", "pruned_pairs")


def build_engine(n_matrices: int = 24, seed: int = SEED) -> IMGRNEngine:
    """A built IM-GRN engine over a fixed synthetic database."""
    database = generate_database(
        SyntheticConfig(weights="uni", genes_range=(20, 40), seed=seed),
        n_matrices,
    )
    engine = IMGRNEngine(database, EngineConfig(seed=seed, observability=_OBS))
    engine.build()
    return engine


def make_specs(
    engine: IMGRNEngine, n_q: int = 4, count: int = 8, seed: int = SEED
) -> list[QuerySpec]:
    """The fixed workload served at every thread count."""
    queries = generate_query_workload(
        engine.database, n_q=n_q, count=count, rng=seed
    )
    return [QuerySpec(q, GAMMA, ALPHA) for q in queries]


def serve_round(
    engine: IMGRNEngine, specs: list[QuerySpec], threads: int
) -> dict[str, object]:
    """Serve the workload once with ``threads`` workers."""
    config = ServeConfig(max_workers=threads)
    with QueryServer(engine, config) as server:
        started = time.perf_counter()
        outcomes = server.batch(specs)
        seconds = time.perf_counter() - started
    statuses = [o.status for o in outcomes]
    if statuses != ["ok"] * len(specs):
        raise AssertionError(f"non-ok outcomes at {threads} thread(s): {statuses}")
    counts = [
        tuple(getattr(o.result.stats, field) for field in COUNT_FIELDS)
        for o in outcomes
    ]
    return {
        "threads": threads,
        "seconds": seconds,
        "qps": len(specs) / seconds if seconds > 0 else 0.0,
        "answers": sum(len(o.result.answers) for o in outcomes),
        "sources": [o.answer_sources() for o in outcomes],
        "counts": counts,
    }


def sweep(
    engine: IMGRNEngine, specs: list[QuerySpec], thread_counts: list[int]
) -> list[dict[str, object]]:
    """Serve the workload at each thread count; verify bit-identity."""
    rounds = [serve_round(engine, specs, threads) for threads in thread_counts]
    reference = rounds[0]
    for other in rounds[1:]:
        if other["sources"] != reference["sources"]:
            raise AssertionError(
                f"answers diverged between {reference['threads']} and "
                f"{other['threads']} thread(s)"
            )
        if other["counts"] != reference["counts"]:
            raise AssertionError(
                f"per-query count stats diverged between "
                f"{reference['threads']} and {other['threads']} thread(s)"
            )
    return rounds


def smoke() -> dict[str, float]:
    """CI smoke numbers: 1 vs 8 worker threads over one fixed workload."""
    engine = build_engine()
    specs = make_specs(engine)
    rounds = sweep(engine, specs, [1, 8])
    one, eight = rounds
    return {
        "serve_threads1_seconds": float(one["seconds"]),
        "serve_threads8_seconds": float(eight["seconds"]),
        "speedup_threads8": (
            float(one["seconds"]) / float(eight["seconds"])
            if float(eight["seconds"]) > 0
            else 0.0
        ),
        "queries_served": float(len(specs)),
        "total_answers": float(one["answers"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="worker-thread counts to sweep (default: 1 2 4 8)",
    )
    parser.add_argument("--n-matrices", type=int, default=24)
    parser.add_argument("--n-q", type=int, default=4)
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--json", default=None, help="also write results as JSON")
    args = parser.parse_args()

    engine = build_engine(n_matrices=args.n_matrices, seed=args.seed)
    specs = make_specs(engine, n_q=args.n_q, count=args.queries, seed=args.seed)
    print(
        f"serving {len(specs)} queries over {args.n_matrices} matrices "
        f"(gamma={GAMMA}, alpha={ALPHA})"
    )
    rounds = sweep(engine, specs, args.threads)
    base_qps = float(rounds[0]["qps"])
    print(f"{'threads':>8} {'seconds':>10} {'queries/s':>10} {'speedup':>8}")
    for r in rounds:
        speedup = float(r["qps"]) / base_qps if base_qps > 0 else 0.0
        print(
            f"{r['threads']:>8} {r['seconds']:>10.4f} "
            f"{r['qps']:>10.2f} {speedup:>7.2f}x"
        )
    print(f"total answers: {rounds[0]['answers']} (identical in every round)")

    if args.json:
        payload = {
            "threads": {
                str(r["threads"]): {
                    "seconds": r["seconds"],
                    "qps": r["qps"],
                }
                for r in rounds
            },
            "total_answers": rounds[0]["answers"],
            "queries": len(specs),
        }
        from _paths import resolve_out

        target = resolve_out(args.json, "serve_throughput.json")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
