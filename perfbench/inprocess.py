"""In-process workloads (``atlas``, ``panel``): one closed-loop caller.

Run shape: generate inputs; build the engine ``setup_reps`` times
(``setup_s`` is the median); run untimed warm-up queries; execute
distinct queries for ``--seconds`` of query-phase wall time; check every
answer against :class:`LinearScanEngine`; ingest arrivals and probe each
(``freshness_s``); publish a sharded save (``stored_bytes_per_input_byte``).
A traced run also drives the saved index through the daemon briefly so
the serving-layer ledger exists on every workload (see _serve_probe).
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import (
    EngineConfig,
    IMGRNEngine,
    InferenceConfig,
    LinearScanEngine,
    ObservabilityConfig,
    load_engine_sharded,
)
from repro.obs import NOOP_TRACER

from . import ledger, serving
from .calibrate import SpeedProbe, at_reference, bracketed
from .common import answer_list, dir_bytes, median, peak_rss_mb, percentile
from .workloads import KINDS, QueryStream, Workload, arrivals

#: Queries per timed stretch of the query phase; a host-speed reading
#: and query generation run between stretches.
CHUNK = 32


def engine_config(workload: Workload, trace: bool) -> EngineConfig:
    """Default engine knobs (shard_size 16) but the workload's estimator
    cache size; tracing on for traced runs."""
    return EngineConfig(
        inference=InferenceConfig(cache_size=workload.cache_size),
        observability=ObservabilityConfig(tracing=trace, shared_registry=False),
    )


@dataclass
class Record:
    """One timed ``execute``: its spec, latency, answers and counters."""

    spec: object
    seconds: float
    answers: list
    metrics: dict
    edges: int
    traced: bool
    slowdown: float = 1.0  # host slowdown around its stretch (calibrate.py)


class Executor:
    """Times ``engine.execute`` per query.

    With ``trace``, every other query runs with the engine's tracer and
    the rest with the no-op tracer, so one run yields both the per-layer
    spans and the tracing overhead on interleaved, comparable queries.
    """

    def __init__(self, engine, trace: bool):
        self.engine = engine
        self.tracer = engine.obs.tracer
        self.trace = trace and self.tracer.enabled
        self.records: list[Record] = []

    def run(self, specs, budget: float | None = None) -> float:
        """Execute ``specs`` in order; stop once ``budget`` wall seconds
        are used. Returns the wall time spent."""
        started = time.perf_counter()
        try:
            for spec in specs:
                traced = self.trace and len(self.records) % 2 == 1
                tracer = self.tracer if traced else NOOP_TRACER
                self.engine.obs.tracer = tracer
                t0 = time.perf_counter()
                with tracer.span("bench.execute", kind=spec.kind):
                    result = self.engine.execute(spec)
                seconds = time.perf_counter() - t0
                self.records.append(
                    Record(
                        spec,
                        seconds,
                        answer_list(result.answers),
                        result.metrics,
                        result.query_graph.num_edges,
                        traced,
                    )
                )
                if budget is not None and time.perf_counter() - started >= budget:
                    break
        finally:
            self.engine.obs.tracer = self.tracer
        return time.perf_counter() - started


def replay(trace: bool):
    """``serving.reference_answers`` callback: answers per spec, and the
    traced records kept for the ledger."""
    kept: list[tuple[list, list, dict]] = []

    def run(engine, specs):
        executor = Executor(engine, trace)
        executor.run(specs)
        if trace:
            stats = engine.inference_stats()
            kept.append((executor.records, list(engine.obs.tracer.spans), stats))
        return [record.answers for record in executor.records]

    run.kept = kept
    return run


def _scan_mismatches(payload) -> list[int]:
    """Oracle worker: positions whose linear-scan answers differ."""
    database, config, specs, answers = payload
    scan = LinearScanEngine(database, config)
    scan.build()
    return [
        i
        for i, (spec, expected) in enumerate(zip(specs, answers))
        if answer_list(scan.execute(spec).answers) != expected
    ]


def oracle_mismatches(
    database, records, config: EngineConfig, workers: int = 2
) -> list[int]:
    """Indices of records whose answers differ from the linear scan's.

    The scan is as slow as the engine under test, so the records are
    striped over ``workers`` forked processes (outside any timed region).
    Fork, not spawn: a spawn pool starts multiprocessing's resource
    tracker, a process that lives until this one exits.
    """
    workers = max(1, min(workers, len(records)))
    payloads = [
        (database, config, [r.spec for r in records[w::workers]],
         [r.answers for r in records[w::workers]])
        for w in range(workers)
    ]
    if workers == 1:
        return _scan_mismatches(payloads[0])
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        stripes = list(pool.map(_scan_mismatches, payloads))
    return sorted(i * workers + w for w, found in enumerate(stripes) for i in found)


def latency_metrics(kinds, ms, wall: float) -> tuple[dict, dict]:
    """End-to-end latency figures (and sample counts) of a query phase:
    each query's kind and milliseconds, and the phase's wall seconds."""
    values = {
        "query_p50_ms": percentile(ms, 50.0),
        "throughput_qps": len(ms) / wall,
    }
    samples = {"query_p50_ms": len(ms), "throughput_qps": len(ms)}
    for kind in KINDS:
        kind_ms = [m for k, m in zip(kinds, ms) if k == kind]
        values[f"{kind}_p50_ms"] = percentile(kind_ms, 50.0)
        samples[f"{kind}_p50_ms"] = len(kind_ms)
    return values, samples


def query_layers(records, spans, hits: float, misses: float) -> dict:
    """Per-layer query figures: spans of traced queries, counters of all,
    and the estimator cache's hits and misses over the same queries."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    out = ledger.query_ledger(spans, len(traced))
    out.update(ledger.counter_ledger([r.metrics for r in records]))
    out["estimate.pairs"] = misses / max(1, len(records))
    out["estimate.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["infer.edges"] = sum(r.edges for r in records) / max(1, len(records))
    out["query.p95_ms"] = percentile([r.seconds for r in plain], 95.0) * 1e3
    out["trace.overhead_ms"] = (
        median([r.seconds for r in traced]) - median([r.seconds for r in plain])
    ) * 1e3
    return out


def run_inprocess(
    workload: Workload, seed: int, seconds: float, trace: bool, root, workdir
) -> dict:
    database = workload.database()
    stream = QueryStream(workload, database, seed)
    warmup = stream.take(workload.warmup)
    first_new = max(m.source_id for m in database) + 1
    arrived = arrivals(workload, seed, first_new, workload.arrivals + int(trace))
    config = engine_config(workload, trace)

    probe = SpeedProbe()
    setups, readings = [], []
    engine = None
    for _rep in range(1 if trace else workload.setup_reps):
        engine = None
        gc.collect()
        readings.append(probe.reading())
        engine = IMGRNEngine(database, config)
        started = time.perf_counter()
        with engine.obs.tracer.span("bench.build"):
            engine.build()
        setups.append(time.perf_counter() - started)
    readings.append(probe.reading())
    setups_ref = at_reference(setups, readings)
    build_spans = list(engine.obs.tracer.spans)
    Executor(engine, False).run(warmup)
    engine.obs.tracer.reset()

    executor = Executor(engine, trace)
    cache_before = engine.inference_stats()
    stretches, readings = [], [probe.reading()]
    wall = 0.0
    while wall < seconds:
        first = len(executor.records)
        spent = executor.run(stream.take(CHUNK), budget=seconds - wall)
        readings.append(probe.reading())
        stretches.append((first, len(executor.records), spent))
        wall += spent
    wall_ref = 0.0
    for (first, end, spent), slowdown in zip(stretches, bracketed(readings)):
        for record in executor.records[first:end]:
            record.slowdown = slowdown
        wall_ref += spent / slowdown
    cache_after = engine.inference_stats()
    rss = peak_rss_mb()
    query_spans = list(engine.obs.tracer.spans)
    records = executor.records

    failures: dict[str, int] = {}
    wrong = oracle_mismatches(database, records, engine_config(workload, False))
    if wrong:
        failures["wrong_answer"] = len(wrong)

    # A full save of the database as built, then the incremental
    # republish over it after the arrivals, as on the serving path.
    publisher = serving.Publisher(workdir)
    publisher.publish(engine)
    fresh, add_s, readings = [], [], [probe.reading()]
    for matrix, query in arrived[: workload.arrivals]:
        started = time.perf_counter()
        engine.add_matrix(matrix)
        added = time.perf_counter()
        found = matrix.source_id in engine.execute(query).answer_sources()
        fresh.append(time.perf_counter() - started)
        add_s.append(added - started)
        readings.append(probe.reading())
        if not found:
            failures["wrong_answer"] = failures.get("wrong_answer", 0) + 1

    save = publisher.publish(engine)
    final = publisher.serve_dir
    input_bytes = sum(m.values.nbytes for m in engine.database)
    started = time.perf_counter()
    load_engine_sharded(final, mmap_index=True)
    load_s = time.perf_counter() - started

    kinds = [r.spec.kind for r in records]
    raw, _ = latency_metrics(kinds, [r.seconds * 1e3 for r in records], wall)
    raw.update(setup_s=median(setups), freshness_s=median(fresh))
    values, samples = latency_metrics(
        kinds, [r.seconds * 1e3 / r.slowdown for r in records], wall_ref
    )
    values.update(
        setup_s=median(setups_ref),
        freshness_s=median(at_reference(fresh, readings)),
        peak_rss_mb=rss,
        stored_bytes_per_input_byte=dir_bytes(final) / input_bytes,
    )
    samples.update(setup_s=len(setups), freshness_s=len(fresh), peak_rss_mb=1,
                   stored_bytes_per_input_byte=1)
    result = {
        "e2e": values,
        "raw": raw,
        "samples": samples,
        "attempted": len(records) + len(fresh),
        "failures": failures,
        "wrong": failures.get("wrong_answer", 0),
        "extra": {},
        "layers": None,
    }
    if not trace:
        return result

    layers = query_layers(
        records,
        query_spans,
        cache_after["cache_hits"] - cache_before["cache_hits"],
        cache_after["cache_misses"] - cache_before["cache_misses"],
    )
    layers.update(ledger.build_ledger(build_spans))
    layers.update(
        {
            "build.pages": float(engine.array_index.num_nodes),
            "build.add_matrix_ms": median(add_s) * 1e3,
            "persist.save_ms": save["save_s"] * 1e3,
            "persist.shards_written": float(save["written"]),
            "persist.shards_skipped": float(save["skipped"]),
            "persist.load_ms": load_s * 1e3,
        }
    )
    served = _serve_probe(root, engine, publisher, records, arrived[-1:])
    for key, value in served["layers"].items():
        layers.setdefault(key, value)
    for cause, count in served["failures"].items():
        failures[cause] = failures.get(cause, 0) + count
    result["attempted"] += served["attempted"]
    result["wrong"] += served["wrong"]
    result["layers"] = layers
    result["table"] = ledger.time_table(layers)
    return result


#: Traced runs only: queries cycled through the daemon, and their rate.
PROBE_POOL = 24
PROBE_RATE = 10.0


def _serve_probe(root, engine, publisher, records, extra) -> dict:
    """Serve the saved index briefly: both load phases, then one
    republish and reload with no read in flight. Reads beside an in-place
    republish race the workers' mapped files (measured on ``live``); here
    they would make the gated workloads fail at random."""
    pool = [record.spec for record in records[:PROBE_POOL]]
    publisher.keep(engine)
    daemon = serving.DaemonProcess(root, publisher.serve_dir)
    try:
        daemon.start()
        session = serving.serve_session(
            daemon, engine, publisher, pool, extra,
            phases=(1.0, 1.5, 1.5), rate=PROBE_RATE, interval=0.5,
            beside_reads=False,
        )
    finally:
        daemon.stop()
    settled = serving.settle(session, publisher.generations, pool, replay(False))
    return {"layers": serving.serving_layers(session), **settled}
