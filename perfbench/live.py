"""The ``live`` workload: the daemon as a subprocess under mixed load.

Set-up (``setup_s``, median of ``setup_reps``): build the engine, publish
generation 0, start ``python -m repro serve`` and wait for its ready
banner. Phase 1 (25% of ``--seconds``): closed-loop saturation burst on
2 keep-alive connections. Phase 2 (40%): open loop at a fixed offered
rate on 2 connections. Phase 3 (35%): the same open loop while the
writer ingests one arrival every ``arrival_every_s`` seconds. Latencies
come from phase 2, freshness from phase 3. Afterwards every ``ok`` answer is
checked against in-process engines loaded from each published
generation; with tracing, those replays also give the query-path ledger.
"""

from __future__ import annotations

import gc
import shutil
import time

from repro import IMGRNEngine, load_engine_sharded

from . import ledger, serving
from .calibrate import SpeedProbe, at_reference, bracketed
from .common import dir_bytes, median, peak_rss_mb, percentile
from .inprocess import engine_config, query_layers, replay
from .workloads import KINDS, QueryStream, Workload, arrivals

#: Shares of ``--seconds`` of the saturation, quiet and publish phases.
PHASE_SHARES = (0.25, 0.40, 0.35)


def run_live(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root,
    workdir,
) -> dict:
    database = workload.database()
    pool = QueryStream(workload, database, seed).take(workload.pool)
    first_new = max(m.source_id for m in database) + 1
    arrived = arrivals(workload, seed, first_new, workload.arrivals)
    config = engine_config(workload, trace)

    probe = SpeedProbe()
    setups, readings = [], []
    daemon = None
    try:
        for rep in range(1 if trace else workload.setup_reps):
            if daemon is not None:
                daemon.stop()
                shutil.rmtree(workdir / f"setup-{rep - 1}")
            engine = None
            gc.collect()
            readings.append(probe.reading())
            started = time.perf_counter()
            engine = IMGRNEngine(database, config)
            with engine.obs.tracer.span("bench.build"):
                engine.build()
            publisher = serving.Publisher(workdir / f"setup-{rep}")
            publisher.publish(engine)
            daemon = serving.DaemonProcess(root, publisher.serve_dir)
            daemon.start()
            setups.append(time.perf_counter() - started)
        readings.append(probe.reading())
        publisher.keep(engine)
        build_spans = list(engine.obs.tracer.spans)
        engine.obs.tracer.reset()
        session = serving.serve_session(
            daemon,
            engine,
            publisher,
            pool,
            arrived,
            phases=tuple(share * seconds for share in PHASE_SHARES),
            rate=workload.offered_qps,
            interval=workload.arrival_every_s,
            probe=probe,
        )
    finally:
        if daemon is not None:
            daemon.stop()
    rss = peak_rss_mb()

    replayer = replay(trace)
    settled = serving.settle(session, publisher.generations, pool, replayer)
    final = publisher.serve_dir
    started = time.perf_counter()
    load_engine_sharded(final, mmap_index=True)
    load_s = time.perf_counter() - started

    ok_open = [o for o in session.quiet if o.cause is None]
    ok_closed = [o for o in session.closed if o.cause is None]
    latency_ms = [(o.recv - o.due) * 1e3 for o in ok_open]
    lag = [o.sent - o.due for o in session.quiet + session.publish]
    beside_ms = [(o.recv - o.due) * 1e3 for o in session.publish if o.cause is None]
    raw = {
        "setup_s": median(setups),
        "query_p50_ms": percentile(latency_ms, 50.0),
        "throughput_qps": len(ok_closed) / session.closed_wall,
        "freshness_s": median(session.writer.freshness),
    }
    for kind in KINDS:
        kind_ms = [(o.recv - o.due) * 1e3 for o in ok_open if o.kind == kind]
        raw[f"{kind}_p50_ms"] = percentile(kind_ms, 50.0)
    # Each metric at reference host speed, by the readings at the edges
    # of the phase it was measured in.
    closed, quiet, publish = bracketed(session.readings)
    values = {name: value / quiet for name, value in raw.items()}
    values.update(
        setup_s=median(at_reference(setups, readings)),
        throughput_qps=raw["throughput_qps"] * closed,
        freshness_s=raw["freshness_s"] / publish,
        peak_rss_mb=rss,
        stored_bytes_per_input_byte=dir_bytes(final)
        / sum(m.values.nbytes for m in engine.database),
    )
    samples = {
        "setup_s": len(setups),
        "query_p50_ms": len(latency_ms),
        "throughput_qps": len(ok_closed),
        "freshness_s": len(session.writer.freshness),
        "peak_rss_mb": 1,
        "stored_bytes_per_input_byte": 1,
    }
    for kind in KINDS:
        samples[f"{kind}_p50_ms"] = sum(1 for o in ok_open if o.kind == kind)

    lag_p95_ms = percentile(lag, 95.0) * 1e3
    result = {
        "e2e": values,
        "raw": raw,
        "samples": samples,
        "attempted": settled["attempted"],
        "failures": settled["failures"],
        "wrong": settled["wrong"],
        "extra": {
            "offered_qps": workload.offered_qps,
            "loadgen.lag_p95_ms": lag_p95_ms,
            # Phase-3 read latency, beside the republishes (raw).
            "publish_read_p50_ms": percentile(beside_ms, 50.0),
            # Behind schedule: the 95th-percentile send was late by more
            # than one inter-arrival gap.
            "generator_behind": lag_p95_ms > 1e3 / workload.offered_qps,
            "arrivals_ingested": len(session.writer.events),
        },
        "layers": None,
    }
    if not trace:
        return result

    records, spans, hits, misses = [], [], 0.0, 0.0
    for kept_records, kept_spans, stats in replayer.kept:
        records += kept_records
        spans += kept_spans
        hits += stats["cache_hits"]
        misses += stats["cache_misses"]
    layers = query_layers(records, spans, hits, misses)
    # The served p95 (phase 2), not the in-process replay's.
    layers["query.p95_ms"] = percentile(latency_ms, 95.0)
    layers.update(ledger.build_ledger(build_spans))
    layers.update(serving.serving_layers(session))
    layers["build.pages"] = float(engine.array_index.num_nodes)
    layers["persist.load_ms"] = load_s * 1e3
    result["layers"] = layers
    result["table"] = ledger.time_table(layers)
    return result
