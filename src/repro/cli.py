"""Command-line entry point: ``imgrn <experiment> [options]``.

Runs any of the paper's experiments and prints its series, e.g.::

    imgrn roc --organism ecoli
    imgrn gamma --n-matrices 100
    imgrn vs-baseline --queries 3
    imgrn index-build

plus the operational commands::

    imgrn build --save index_dir         # sharded build, saved to a directory
    imgrn query --trace-out trace.json   # run queries, dump a Chrome trace
    imgrn serve-batch --serve-workers 8  # concurrent batch via QueryServer
    imgrn serve index_dir --port 8080    # network daemon over a sharded save
    imgrn stats metrics.json             # pretty-print a metrics snapshot

and the experiment harness (docs/experiments.md)::

    imgrn experiment run --config benchmarks/experiments/ci_smoke.toml
    imgrn experiment report --results experiment-out/results.json
    imgrn experiment compare --new BENCH_CI.json --history benchmarks/trajectory
    imgrn experiment archive --bench BENCH_CI.json --dir trajectory --keep 20

Every option has a laptop-scale default; the sweeps reproduce the figure
*shapes* of the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .eval.harness.report import text_table
from .eval.harness.runner import ENGINE_REGISTRY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="imgrn",
        description="Run IM-GRN reproduction experiments (SIGMOD 2017).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    roc = sub.add_parser("roc", help="Fig. 5(a)/14: ROC of IM-GRN vs Correlation")
    roc.add_argument(
        "--organism",
        default="ecoli",
        choices=["ecoli", "saureus", "scerevisiae"],
    )
    roc.add_argument("--genes", type=int, default=120)
    roc.add_argument("--mc-samples", type=int, default=300)
    roc.add_argument("--seed", type=int, default=7)
    roc.add_argument("--plot", action="store_true", help="render an ASCII ROC plot")

    pcorr = sub.add_parser("pcorr", help="Fig. 15: ROC of IM-GRN vs pCorr")
    pcorr.add_argument(
        "--organism",
        default="ecoli",
        choices=["ecoli", "saureus", "scerevisiae"],
    )
    pcorr.add_argument("--genes", type=int, default=120)
    pcorr.add_argument("--mc-samples", type=int, default=300)
    pcorr.add_argument("--seed", type=int, default=7)
    pcorr.add_argument(
        "--plot", action="store_true", help="render an ASCII ROC plot"
    )

    itime = sub.add_parser("inference-time", help="Fig. 5(b): inference wall-clock")
    itime.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 150, 200])
    itime.add_argument("--seed", type=int, default=7)
    itime.add_argument("--mc-samples", type=int, default=200)
    itime.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="columns per permutation-block GEMM",
    )
    itime.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the edge-probability cache",
    )
    itime.add_argument(
        "--no-sequential",
        action="store_true",
        help="skip the per-pair sequential reference timing",
    )

    vsb = sub.add_parser("vs-baseline", help="Fig. 6: IM-GRN vs Baseline")
    vsb.add_argument("--n-matrices", type=int, default=60)
    vsb.add_argument("--queries", type=int, default=5)
    vsb.add_argument(
        "--linear-scan",
        action="store_true",
        help="also run the pruning-only linear scan",
    )
    vsb.add_argument("--seed", type=int, default=7)

    for name, help_text in (
        ("gamma", "Fig. 7: sweep the inference threshold gamma"),
        ("alpha", "Fig. 8: sweep the probabilistic threshold alpha"),
        ("pivots", "Fig. 9: sweep the number of pivots d"),
        ("query-size", "Fig. 10: sweep the number of query genes n_Q"),
        ("matrix-size", "Fig. 11: sweep genes-per-matrix range"),
        ("database-size", "Fig. 12: sweep the number of matrices N"),
    ):
        sweep = sub.add_parser(name, help=help_text)
        sweep.add_argument("--n-matrices", type=int, default=None)
        sweep.add_argument("--queries", type=int, default=8)
        sweep.add_argument("--seed", type=int, default=7)

    build = sub.add_parser("index-build", help="Fig. 13: index construction time")
    build.add_argument("--seed", type=int, default=7)

    report = sub.add_parser(
        "report", help="collate the measured series from benchmarks/out/"
    )
    report.add_argument(
        "--out-dir",
        default=None,
        help="directory holding the bench outputs (default: benchmarks/out)",
    )

    pbuild = sub.add_parser(
        "build",
        help="build an IM-GRN index over a synthetic DB "
        "(sharded build; optionally persist it)",
    )
    pbuild.add_argument("--n-matrices", type=int, default=60)
    pbuild.add_argument(
        "--genes-range",
        type=int,
        nargs=2,
        default=[20, 40],
        metavar=("LO", "HI"),
    )
    pbuild.add_argument(
        "--shard-size",
        type=int,
        default=16,
        help="matrices per build shard (dispatch + persistence unit)",
    )
    pbuild.add_argument("--seed", type=int, default=7)
    pbuild.add_argument(
        "--save",
        default=None,
        metavar="PATH",
        help="persist the engine as a per-shard directory "
        "(what `imgrn serve` reads)",
    )
    pbuild.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the build spans",
    )

    query = sub.add_parser(
        "query",
        help="build an engine over a synthetic DB, run queries, "
        "export traces/metrics",
    )
    query.add_argument(
        "--engine",
        default="imgrn",
        choices=list(ENGINE_REGISTRY),
    )
    query.add_argument("--n-matrices", type=int, default=40)
    query.add_argument(
        "--genes-range",
        type=int,
        nargs=2,
        default=[20, 40],
        metavar=("LO", "HI"),
    )
    query.add_argument("--n-q", type=int, default=4, help="genes per query graph")
    query.add_argument("--queries", type=int, default=3)
    query.add_argument("--gamma", type=float, default=0.5)
    query.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="appearance-probability threshold (containment/similarity; "
        "default 0.5)",
    )
    query.add_argument(
        "--kind",
        default="containment",
        choices=["containment", "topk", "similarity"],
        help="workload kind dispatched through QuerySpec/execute()",
    )
    query.add_argument(
        "--k",
        type=int,
        default=None,
        help="answers to return for --kind topk",
    )
    query.add_argument(
        "--edge-budget",
        type=int,
        default=None,
        help="tolerated missing query edges for --kind similarity",
    )
    query.add_argument("--seed", type=int, default=7)
    query.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of all spans",
    )
    query.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry as JSON",
    )
    query.add_argument(
        "--prometheus-out",
        default=None,
        metavar="PATH",
        help="write the metrics in Prometheus text format",
    )

    serve = sub.add_parser(
        "serve-batch",
        help="serve a query batch concurrently through the QueryServer "
        "(threads, per-query deadlines)",
    )
    serve.add_argument(
        "--engine",
        default="imgrn",
        choices=list(ENGINE_REGISTRY),
    )
    serve.add_argument("--n-matrices", type=int, default=40)
    serve.add_argument(
        "--genes-range",
        type=int,
        nargs=2,
        default=[20, 40],
        metavar=("LO", "HI"),
    )
    serve.add_argument("--n-q", type=int, default=4, help="genes per query graph")
    serve.add_argument("--queries", type=int, default=8)
    serve.add_argument("--gamma", type=float, default=0.5)
    serve.add_argument("--alpha", type=float, default=0.5)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="server thread-pool size (batch concurrency)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (each round recomputes)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of all spans",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry as JSON",
    )

    daemon = sub.add_parser(
        "serve",
        help="run the network serving daemon over a sharded save "
        "(multi-process mmap workers; see docs/daemon.md)",
    )
    daemon.add_argument(
        "index_dir",
        help="directory written by save_engine_sharded (imgrn build --out)",
    )
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    daemon.add_argument(
        "--daemon-workers",
        type=int,
        default=2,
        help="worker processes, each mmap-ing the index read-only",
    )
    daemon.add_argument(
        "--backend",
        default="process",
        choices=["process", "thread"],
        help="process = forked mmap workers; thread = one in-process engine",
    )
    daemon.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="admission queue bound; beyond it requests are shed (503)",
    )
    daemon.add_argument(
        "--rate-limit-qps",
        type=float,
        default=0.0,
        help="per-client token-bucket refill rate (0 disables)",
    )
    daemon.add_argument(
        "--rate-limit-burst",
        type=int,
        default=8,
        help="per-client token-bucket capacity",
    )
    daemon.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-query deadline in seconds (0 disables)",
    )
    daemon.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="grace period for in-flight work on SIGTERM",
    )

    experiment = sub.add_parser(
        "experiment",
        help="declarative experiment harness: run / report / compare / "
        "archive (see docs/experiments.md)",
    )
    action = experiment.add_subparsers(dest="action", required=True)

    run = action.add_parser(
        "run", help="execute a TOML/JSON experiment config, archive results"
    )
    run.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="experiment spec (.toml or .json; see docs/experiments.md)",
    )
    run.add_argument(
        "--out-dir",
        default="experiment-out",
        metavar="DIR",
        help="directory receiving results.json + BENCH_<label>.json",
    )
    run.add_argument(
        "--label",
        default=None,
        metavar="LABEL",
        help="trajectory label (e.g. PR number; default: the git hash)",
    )
    run.add_argument(
        "--csv",
        action="store_true",
        help="also write the tidy frame as results.csv",
    )

    rep = action.add_parser(
        "report", help="render markdown/HTML from an archived result set"
    )
    rep.add_argument(
        "--results",
        default="experiment-out/results.json",
        metavar="PATH",
        help="results.json written by `imgrn experiment run`",
    )
    rep.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="markdown report path (default: report.md next to the results)",
    )
    rep.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="also write a standalone HTML report",
    )
    rep.add_argument(
        "--trajectory",
        default=None,
        metavar="DIR",
        help="BENCH_*.json archive to render the trend table from",
    )

    cmp = action.add_parser(
        "compare",
        help="statistical trajectory gate: fresh BENCH_*.json vs the archive",
    )
    cmp.add_argument("--new", required=True, metavar="PATH")
    cmp.add_argument("--history", required=True, metavar="DIR")
    cmp.add_argument("--tolerance", type=float, default=0.30)
    cmp.add_argument("--significance", type=float, default=0.05)
    cmp.add_argument("--min-slowdown", type=float, default=0.10)

    arch = action.add_parser(
        "archive",
        help="add a BENCH_*.json to the trajectory archive and apply retention",
    )
    arch.add_argument("--bench", required=True, metavar="PATH")
    arch.add_argument("--dir", required=True, metavar="DIR")
    arch.add_argument(
        "--keep",
        type=int,
        default=20,
        help="retention: newest entries kept in the archive (default 20)",
    )
    arch.add_argument(
        "--label",
        default=None,
        metavar="LABEL",
        help="relabel the entry on archive (so repeated CI labels like "
        "'CI' accumulate under unique names instead of overwriting)",
    )

    stats = sub.add_parser(
        "stats", help="render a metrics snapshot (JSON file or live registry)"
    )
    stats.add_argument(
        "path",
        nargs="?",
        default=None,
        help="metrics JSON written by `imgrn query --metrics-out` "
        "(omit to read the in-process global registry)",
    )
    stats.add_argument(
        "--format", default="table", choices=["table", "json", "prometheus"]
    )
    return parser


def _run_report(out_dir: str | None) -> int:
    """Print every stored bench series (the EXPERIMENTS.md raw material)."""
    from pathlib import Path

    directory = (
        Path(out_dir)
        if out_dir is not None
        else Path(__file__).resolve().parent.parent.parent / "benchmarks" / "out"
    )
    files = sorted(directory.glob("*.txt")) if directory.is_dir() else []
    if not files:
        print(
            f"no bench outputs under {directory}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    for path in files:
        print(f"### {path.stem}")
        print(path.read_text(encoding="utf-8").rstrip())
        print()
    return 0


def _run_build(args: argparse.Namespace) -> int:
    """Build (and optionally persist) an index over a synthetic database."""
    from pathlib import Path

    from .config import (
        BuildConfig,
        EngineConfig,
        ObservabilityConfig,
        SyntheticConfig,
    )
    from .core.persistence import save_engine_sharded
    from .core.query import IMGRNEngine
    from .data.synthetic import generate_database
    from .obs.exporters import write_chrome_trace

    config = EngineConfig(
        seed=args.seed,
        build=BuildConfig(shard_size=args.shard_size),
        observability=ObservabilityConfig(
            tracing=args.trace_out is not None,
            shared_registry=False,
        ),
    )
    database = generate_database(
        SyntheticConfig(genes_range=tuple(args.genes_range), seed=args.seed),
        args.n_matrices,
    )
    engine = IMGRNEngine(database, config)
    seconds = engine.build()
    shards = -(-len(database) // args.shard_size)
    print(
        f"built {len(database)} matrices ({database.total_genes()} points) "
        f"in {seconds:.3f}s -- {shards} shard(s)"
    )
    if args.save:
        target = Path(args.save)
        report = save_engine_sharded(engine, target)
        print(
            f"engine saved to {target}/ "
            f"({len(report['written'])} shard(s) written, "
            f"{len(report['skipped'])} unchanged, "
            f"index arrays: {report['index_arrays']})"
        )
    if args.trace_out:
        path = write_chrome_trace(engine.obs.tracer, args.trace_out)
        print(f"trace written to {path}")
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """Build + query an engine over a synthetic database, export telemetry."""
    from .config import EngineConfig, ObservabilityConfig, SyntheticConfig
    from .core.spec import QuerySpec
    from .data.queries import generate_query_workload
    from .data.synthetic import generate_database
    from .obs.exporters import (
        metrics_to_json,
        metrics_to_prometheus,
        write_chrome_trace,
    )

    config = EngineConfig(
        seed=args.seed,
        observability=ObservabilityConfig(
            tracing=args.trace_out is not None,
            shared_registry=False,
        ),
    )
    database = generate_database(
        SyntheticConfig(genes_range=tuple(args.genes_range), seed=args.seed),
        args.n_matrices,
    )
    engine = ENGINE_REGISTRY[args.engine](database, config=config)
    build_seconds = engine.build()
    workload = generate_query_workload(
        database, args.n_q, count=args.queries, rng=args.seed
    )
    kind = args.kind
    alpha = args.alpha
    if alpha is None and kind != "topk":
        alpha = 0.5
    edge_budget = args.edge_budget
    if edge_budget is None and kind == "similarity":
        edge_budget = 1
    k = args.k
    if k is None and kind == "topk":
        k = 5
    total_answers = 0
    for index, query_matrix in enumerate(workload):
        spec = QuerySpec(
            query_matrix,
            args.gamma,
            alpha=alpha,
            kind=kind,
            k=k,
            edge_budget=edge_budget,
        )
        result = engine.execute(spec)
        total_answers += len(result.answers)
        print(
            f"query {index} [{kind}]: {query_matrix.num_genes} genes, "
            f"{result.query_graph.num_edges} query edges, "
            f"{result.stats.candidates} candidates, "
            f"{len(result.answers)} answers, "
            f"{result.stats.io_accesses} page accesses"
        )
    print(
        f"{args.engine}: {len(workload)} {kind} queries over "
        f"{len(database)} matrices, {total_answers} answers, "
        f"build {build_seconds:.3f}s"
    )
    if args.trace_out:
        path = write_chrome_trace(engine.obs.tracer, args.trace_out)
        print(f"trace written to {path}")
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(
            metrics_to_json(engine.obs.metrics), encoding="utf-8"
        )
        print(f"metrics written to {args.metrics_out}")
    if args.prometheus_out:
        from pathlib import Path

        Path(args.prometheus_out).write_text(
            metrics_to_prometheus(engine.obs.metrics), encoding="utf-8"
        )
        print(f"prometheus metrics written to {args.prometheus_out}")
    return 0


def _run_serve_batch(args: argparse.Namespace) -> int:
    """Serve a synthetic query batch through the concurrent QueryServer."""
    import time as _time

    from .config import EngineConfig, ObservabilityConfig, SyntheticConfig
    from .data.queries import generate_query_workload
    from .data.synthetic import generate_database
    from .obs.exporters import metrics_to_json, write_chrome_trace
    from .serve import QueryServer, QuerySpec, ServeConfig

    config = EngineConfig(
        seed=args.seed,
        observability=ObservabilityConfig(
            tracing=args.trace_out is not None,
            shared_registry=False,
        ),
    )
    database = generate_database(
        SyntheticConfig(genes_range=tuple(args.genes_range), seed=args.seed),
        args.n_matrices,
    )
    engine = ENGINE_REGISTRY[args.engine](database, config=config)
    build_seconds = engine.build()
    workload = generate_query_workload(
        database, args.n_q, count=args.queries, rng=args.seed
    )
    specs = [QuerySpec(m, args.gamma, args.alpha) for m in workload]
    serve_config = ServeConfig(
        max_workers=args.serve_workers,
        timeout_seconds=args.timeout,
    )
    print(
        f"{args.engine}: built {len(database)} matrices in "
        f"{build_seconds:.3f}s; serving {len(specs)} queries on "
        f"{serve_config.max_workers} thread(s), repeat={args.repeat}"
    )
    with QueryServer(engine, serve_config) as server:
        for round_index in range(max(1, args.repeat)):
            started = _time.perf_counter()
            outcomes = server.batch(specs)
            elapsed = _time.perf_counter() - started
            by_status: dict[str, int] = {}
            for outcome in outcomes:
                by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
            status_text = ", ".join(
                f"{count} {status}" for status, count in sorted(by_status.items())
            )
            rate = len(outcomes) / elapsed if elapsed > 0 else float("inf")
            print(
                f"round {round_index}: {status_text} in {elapsed:.3f}s "
                f"({rate:.1f} queries/s)"
            )
        for outcome in outcomes:
            answers = outcome.answer_sources()
            detail = (
                f"answers={answers}"
                if outcome.ok
                else f"error={outcome.error}"
            )
            print(
                f"  query {outcome.index}: {outcome.status}, "
                f"{outcome.seconds:.3f}s, {detail}"
            )
    if args.trace_out:
        path = write_chrome_trace(engine.obs.tracer, args.trace_out)
        print(f"trace written to {path}")
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(
            metrics_to_json(engine.obs.metrics), encoding="utf-8"
        )
        print(f"metrics written to {args.metrics_out}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the network serving daemon until SIGTERM/SIGINT."""
    import asyncio

    from .config import DaemonConfig
    from .serve import QueryDaemon

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.daemon_workers,
        backend=args.backend,
        queue_size=args.queue_size,
        rate_limit_qps=args.rate_limit_qps,
        rate_limit_burst=args.rate_limit_burst,
        timeout_seconds=args.timeout if args.timeout > 0 else None,
        drain_seconds=args.drain_seconds,
    )
    daemon = QueryDaemon(index_dir=args.index_dir, config=config)

    def _ready(d: QueryDaemon) -> None:
        # Parseable by scripts doing port-0 discovery (see docs/daemon.md).
        print(
            f"imgrn serve: listening on {config.host}:{d.port} "
            f"(backend={config.backend}, workers={config.workers}, "
            f"fingerprint={d.fingerprint[:12] if d.fingerprint else 'n/a'})",
            flush=True,
        )

    asyncio.run(daemon.run(ready=_ready))
    print("imgrn serve: drained cleanly", flush=True)
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    """Dispatch `imgrn experiment run|report|compare|archive`."""
    import shutil
    from pathlib import Path

    from .eval.harness import ExperimentRunner, load_config
    from .eval.harness import trajectory as trajectory_mod
    from .eval.harness.results import ExperimentResults
    from .eval.harness.runner import git_hash

    if args.action == "run":
        config = load_config(args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        label = args.label or git_hash()
        runner = ExperimentRunner(config)
        trial_count = 0

        def progress(row: dict) -> None:
            nonlocal trial_count
            trial_count += 1
            print(
                f"trial {trial_count}: {row['engine']} {row['kind']} "
                f"{row['weights']}/{row['scale']} repeat={row['repeat']} "
                f"{row['seconds']:.4f}s",
                flush=True,
            )

        results = runner.run(progress=progress)
        results_path = results.save(out_dir / "results.json")
        payload = trajectory_mod.bench_payload(
            results.bench_samples,
            label=label,
            meta={"experiment": config.name, "repeats": config.repeats},
        )
        bench_path = trajectory_mod.write_bench(
            payload, out_dir / f"BENCH_{label}.json"
        )
        print(f"results archived to {results_path}")
        print(f"trajectory entry written to {bench_path}")
        if args.csv:
            csv_path = out_dir / "results.csv"
            csv_path.write_text(results.frame.to_csv(), encoding="utf-8")
            print(f"tidy frame written to {csv_path}")
        return 0

    if args.action == "report":
        from .eval.harness.report import render_html, render_markdown

        results = ExperimentResults.load(args.results)
        history = (
            trajectory_mod.load_history(args.trajectory)
            if args.trajectory
            else None
        )
        markdown_path = (
            Path(args.out)
            if args.out
            else Path(args.results).parent / "report.md"
        )
        markdown_path.parent.mkdir(parents=True, exist_ok=True)
        markdown_path.write_text(
            render_markdown(results, trajectory=history), encoding="utf-8"
        )
        print(f"markdown report written to {markdown_path}")
        if args.html:
            html_path = Path(args.html)
            html_path.parent.mkdir(parents=True, exist_ok=True)
            html_path.write_text(
                render_html(results, trajectory=history), encoding="utf-8"
            )
            print(f"HTML report written to {html_path}")
        return 0

    if args.action == "compare":
        new = trajectory_mod.load_bench(args.new)
        history = trajectory_mod.load_history(args.history)
        failures, notes = trajectory_mod.compare_trajectory(
            new,
            history,
            tolerance=args.tolerance,
            significance=args.significance,
            min_slowdown=args.min_slowdown,
        )
        for note in notes:
            print(f"note: {note}")
        if failures:
            print(f"trajectory gate FAILED ({len(failures)} regression(s)):")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("trajectory gate passed")
        return 0

    # archive: copy the fresh entry in, then apply the retention policy.
    source = Path(args.bench)
    payload = trajectory_mod.load_bench(source)
    target_dir = Path(args.dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    if args.label:
        payload["label"] = args.label
        target = trajectory_mod.write_bench(
            payload, target_dir / f"BENCH_{args.label}.json"
        )
    else:
        target = target_dir / f"BENCH_{payload['label']}.json"
        shutil.copyfile(source, target)
    pruned = trajectory_mod.prune_archive(target_dir, keep=args.keep)
    print(
        f"archived {target} (pruned {len(pruned)} old "
        f"entr{'y' if len(pruned) == 1 else 'ies'}, keep={args.keep})"
    )
    return 0


def _run_stats(path: str | None, output_format: str) -> int:
    """Render a metrics snapshot as a table, JSON or Prometheus text."""
    from .obs import get_registry
    from .obs.exporters import (
        metrics_to_json,
        metrics_to_prometheus,
        registry_from_json,
    )

    if path is None:
        registry = get_registry()
    else:
        from pathlib import Path

        target = Path(path)
        if not target.is_file():
            print(f"no metrics file at {target}", file=sys.stderr)
            return 1
        registry = registry_from_json(target.read_text(encoding="utf-8"))
    if output_format == "json":
        print(metrics_to_json(registry))
    elif output_format == "prometheus":
        print(metrics_to_prometheus(registry), end="")
    else:
        snapshot = registry.snapshot()
        if not snapshot:
            print("(registry is empty)")
            return 0
        width = max(len(key) for key in snapshot)
        for key in sorted(snapshot):
            print(f"{key:<{width}}  {snapshot[key]:g}")
    return 0


def _run_index_build(seed: int) -> int:
    """Fig. 13: IM-GRN build time vs ``[n_min, n_max]`` and vs ``N``."""
    from .config import DEFAULTS, EngineConfig, SyntheticConfig
    from .core.query import IMGRNEngine
    from .data.synthetic import generate_database

    sweep = [
        (f"range[{lo},{hi}]", (lo, hi), DEFAULTS.n_matrices // 2)
        for lo, hi in ((10, 20), (20, 50), (50, 100))
    ] + [(f"N={n}", DEFAULTS.genes_per_matrix, n) for n in (50, 100, 200)]
    rows = []
    for weights in ("uni", "gau"):
        for label, genes_range, n_matrices in sweep:
            database = generate_database(
                SyntheticConfig(weights=weights, genes_range=genes_range, seed=seed),
                n_matrices,
            )
            engine = IMGRNEngine(database, EngineConfig(seed=seed))
            rows.append(
                {
                    "dataset": weights,
                    "sweep": label,
                    "build_seconds": engine.build(),
                    "index_pages": engine.pages.num_pages,
                }
            )
    print(text_table("fig13_index_build", rows))
    return 0


#: Query-sweep subcommand -> (figure table name, its x-axis column).
_SWEEPS = {
    "vs-baseline": ("fig6_vs_baseline", "engine"),
    "gamma": ("fig7_gamma", "gamma"),
    "alpha": ("fig8_alpha", "alpha"),
    "pivots": ("fig9_pivots", "d"),
    "query-size": ("fig10_query_size", "n_Q"),
    "matrix-size": ("fig11_matrix_size", "n_range"),
    "database-size": ("fig12_database_size", "N"),
}


def _run_query_sweep(name: str, args: argparse.Namespace) -> int:
    """Figs. 6-12: one query sweep on the experiment runner.

    Axes the config has (engines, weights, scales, gamma, alpha) are
    config values; pivots ``d`` and ``n_Q`` prime one runner per value
    with an engine or query workload built here. Prints the per-query
    means of every trial.
    """
    from dataclasses import replace

    from .config import DEFAULTS, EngineConfig
    from .core.query import IMGRNEngine
    from .data.queries import generate_query_workload
    from .eval.harness import ExperimentConfig, ExperimentRunner, ScaleSpec
    from .eval.harness.report import per_query_means
    from .eval.harness.runner import primed_rows

    title, axis = _SWEEPS[name]
    thresholds = (0.2, 0.3, 0.5, 0.8, 0.9)
    n_matrices = DEFAULTS.n_matrices if args.n_matrices is None else args.n_matrices
    scale = ScaleSpec(n_matrices, DEFAULTS.genes_per_matrix)
    config = ExperimentConfig(
        name=name,
        engines=("imgrn",),
        baseline_engine="imgrn",
        weights=("uni", "gau"),
        scales=(scale,),
        gammas=(DEFAULTS.gamma,),
        alphas=(DEFAULTS.alpha,),
        n_q=DEFAULTS.query_genes,
        num_queries=args.queries,
        repeats=1,
        seed=args.seed,
    )
    if name in ("pivots", "query-size"):
        base = ExperimentRunner(config)
        rows = []
        for weights in config.weights:
            database = base.database(weights, scale)
            cell = replace(config, weights=(weights,))
            if name == "pivots":
                queries = base.workload(weights, scale)
                for d in (1, 2, 3, 4):
                    engine = IMGRNEngine(
                        database, EngineConfig(num_pivots=d, seed=args.seed)
                    )
                    engine.build()
                    rows += primed_rows(cell, engine, queries, d=d)
            else:
                engine = base.engine("imgrn", weights, scale)
                for n_q in (2, 3, 5, 8, 10):
                    queries = generate_query_workload(
                        database, n_q=n_q, count=args.queries, rng=(args.seed, n_q)
                    )
                    rows += primed_rows(
                        replace(cell, n_q=n_q), engine, queries, n_Q=n_q
                    )
    else:
        if name == "vs-baseline":
            linear_scan = ("linear-scan",) if args.linear_scan else ()
            config = replace(
                config,
                engines=("imgrn", "baseline", *linear_scan),
                weights=("real", "uni", "gau"),
            )
        elif name == "gamma":
            config = replace(config, gammas=thresholds)
        elif name == "alpha":
            config = replace(config, alphas=thresholds)
        elif name == "matrix-size":
            ranges = ((10, 20), (20, 50), (50, 100), (100, 200))
            config = replace(
                config, scales=tuple(ScaleSpec(n_matrices, r) for r in ranges)
            )
        elif name == "database-size":
            config = replace(
                config,
                scales=tuple(
                    ScaleSpec(n, DEFAULTS.genes_per_matrix)
                    for n in (50, 100, 200, 400)
                ),
            )
        n_range = {s.label: "[{},{}]".format(*s.genes_range) for s in config.scales}
        rows = [
            {**row, "N": row["n_matrices"], "n_range": n_range[row["scale"]]}
            for row in ExperimentRunner(config).run().rows
        ]
    print(text_table(title, per_query_means(rows, axis)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    name = args.experiment

    if name == "report":
        return _run_report(args.out_dir)

    if name == "build":
        return _run_build(args)

    if name == "query":
        return _run_query(args)

    if name == "serve-batch":
        return _run_serve_batch(args)

    if name == "serve":
        return _run_serve(args)

    if name == "experiment":
        return _run_experiment(args)

    if name == "stats":
        return _run_stats(args.path, args.format)

    if name in ("roc", "pcorr"):
        from .eval.roc import format_roc_summary, render_roc_ascii, roc_curves

        curves = roc_curves(
            organism=args.organism,
            genes=args.genes,
            mc_samples=args.mc_samples,
            seed=args.seed,
            comparator="correlation" if name == "roc" else "pcorr",
        )
        print(format_roc_summary(curves))
        if args.plot:
            print()
            print(render_roc_ascii(curves))
        return 0

    if name == "inference-time":
        from .eval.roc import inference_time

        rows = inference_time(
            sizes=tuple(args.sizes),
            seed=args.seed,
            mc_samples=args.mc_samples,
            batch_size=args.batch_size,
            cache=not args.no_cache,
            measure_sequential=not args.no_sequential,
        )
        print(text_table("fig5b_inference_time", rows))
        return 0

    if name == "index-build":
        return _run_index_build(args.seed)

    return _run_query_sweep(name, args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
