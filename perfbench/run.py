"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any answer was wrong and 2 when the
run could not measure (for example, no ``src/repro`` to benchmark).
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (tracing off) and their units; BENCHMARK.json
#: carries the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "throughput_qps": "1/s",
    "containment_p50_ms": "ms",
    "topk_p50_ms": "ms",
    "similarity_p50_ms": "ms",
    "freshness_s": "s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_input_byte": "ratio",
}

#: Per-layer ledger of a traced run, by layer (see README.md).
PER_LAYER = {
    "infer.ms": "ms",
    "infer.edges": "count",
    "infer.lemma3_pruned": "count",
    "estimate.ms": "ms",
    "estimate.pairs": "count",
    "estimate.cache_hit_ratio": "ratio",
    "traverse.ms": "ms",
    "traverse.io_accesses": "count",
    "traverse.candidate_pairs": "count",
    "traverse.pruned.gene_range": "count",
    "traverse.pruned.bitvector_gene": "count",
    "traverse.pruned.bitvector_source": "count",
    "traverse.pruned.lemma6": "count",
    "traverse.pruned.leaf_edge_bound": "count",
    "filter.ms": "ms",
    "filter.pruned.lemma5": "count",
    "filter.pruned.missing_edge": "count",
    "filter.candidates": "count",
    "refine.ms": "ms",
    "refine.self_ms": "ms",
    "refine.sources": "count",
    "refine.edges_evaluated": "count",
    "refine.memo_hits": "count",
    "refine.prescreened": "count",
    "refine.batches": "count",
    "refine.pruned.topk_kth_bound": "count",
    "refine.answer_ratio": "ratio",
    "build.embed_s": "s",
    "build.pivots_s": "s",
    "build.coordinates_s": "s",
    "build.index_insert_s": "s",
    "build.inverted_file_s": "s",
    "build.pages": "count",
    "build.add_matrix_ms": "ms",
    "persist.save_ms": "ms",
    "persist.shards_written": "count",
    "persist.shards_skipped": "count",
    "persist.load_ms": "ms",
    "daemon.worker_ms": "ms",
    "daemon.overhead_ms": "ms",
    "daemon.server_p50_ms": "ms",
    "daemon.reload_ms": "ms",
    "daemon.shed": "count",
    "loadgen.lag_p95_ms": "ms",
    "query.ms": "ms",
    "query.p95_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Stop a run that overstays; every runner cleans up in ``finally``.
WATCHDOG_SECONDS = 170


class Overstayed(Exception):
    pass


def _alarm(_signum, _frame):
    raise Overstayed(f"run exceeded {WATCHDOG_SECONDS}s")


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (say, a
    killed daemon's workers), so :func:`reap_children` finds them too.
    Linux only (``PR_SET_CHILD_SUBREAPER``); elsewhere a no-op."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """PIDs whose parent is this process, zombies included (Linux /proc)."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited meanwhile
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def reap_children(grace: float = 5.0) -> None:
    """Stop and wait for every child still there, so no process the run
    started outlives it: SIGTERM, then SIGKILL after ``grace`` seconds."""
    for _round in range(10):
        pids = [pid for pid in _children() if not _reaped(pid)]
        if not pids:
            return
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + grace
        while pids and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = [pid for pid in pids if not _reaped(pid)]
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_workload(name: str, args) -> dict:
    """Run one workload; returns its result dict (see the runners)."""
    from perfbench.common import provenance
    from perfbench.inprocess import run_inprocess
    from perfbench.live import run_live
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    if args.tiny:
        workload = workload.tiny()
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        if workload.mode == "serve":
            result = run_live(workload, args.seed, args.seconds, trace, ROOT, workdir)
        else:
            result = run_inprocess(
                workload, args.seed, args.seconds, trace, ROOT, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still works there
            pass
    result["provenance"] = {**provenance(ROOT, name, args.seed), **result["extra"]}
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the human-readable report; returns the JSON summary."""
    from perfbench.common import FAILURE_CAUSES

    names = PER_LAYER if trace else END_TO_END
    source = result["layers"] if trace else result["e2e"]
    raw_values = {} if trace else result["raw"]
    metrics = {}
    print(f"== {name} ({'traced per-layer ledger' if trace else 'end-to-end'})")
    for metric, unit in names.items():
        value = source.get(metric)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{name}: metric {metric} was not measured")
        # Times are at reference host speed (see calibrate.py); the raw
        # measurement is printed beside them.
        note = f"  raw {raw_values[metric]:.6g}" if metric in raw_values else ""
        metrics[metric] = {"value": value, "unit": unit}
        samples = "" if trace else f"  (n={result['samples'].get(metric, 1)})"
        print(f"  {metric:<34} {value:>14.6g} {unit:<6}{samples}{note}")
    if trace:
        print("  where did the time go (self time per traced query):")
        for line in result["table"]:
            print("  " + line)
    failed = sum(result["failures"].values())
    causes = {cause: result["failures"].get(cause, 0) for cause in FAILURE_CAUSES}
    print(
        f"  attempted={result['attempted']} failed={failed} "
        f"failed_frac={failed / max(1, result['attempted']):.4f} "
        f"causes={json.dumps(causes)}"
    )
    if result["provenance"].get("generator_behind"):
        print("  WARNING: the load generator fell behind its schedule")
    print("  provenance: " + json.dumps(result["provenance"], sort_keys=True))
    return {
        "correct": result["wrong"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["atlas", "panel", "live", "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-long inputs for self-tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT} to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    _adopt_orphans()
    signal.signal(signal.SIGALRM, _alarm)
    names = ["atlas", "panel", "live"] if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            signal.alarm(WATCHDOG_SECONDS)
            result = run_workload(name, args)
            signal.alarm(0)
            summaries[name] = report(name, result, bool(args.trace))
    except (Overstayed, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        reap_children()
    if len(summaries) == 1:
        summary = next(iter(summaries.values()))
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, s in summaries.items()
                for metric, value in s["metrics"].items()
            },
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
