"""CI smoke benchmark: small fig06 + fig13 + serve runs, machine-readable.

Runs laptop-second-scale versions of the two headline experiments --
IM-GRN vs Baseline querying (Fig. 6) and forced-serial vs derived-width index
construction (Fig. 13, now including an mmap round-trip check of the
array-backed index) -- plus a QueryServer 1-vs-8-thread throughput
round, a network-daemon burst (forked mmap workers, p99 + clean-drain
gates), a workload-matrix smoke (containment / topk / similarity
through engine and daemon, with the index-aware-top-k pruning ratio),
a streaming-ingest round (add_matrix + incremental republish + daemon
hot reload), and a vectorized-vs-scalar traversal microbench, and
writes the per-key median of ``--repeats`` runs (default 3) to
``BENCH_CI.json``.
The CI ``bench-smoke`` job compares that file against the committed
``benchmarks/baseline.json`` with :mod:`check_regression` and fails the
build on a regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_ci_smoke.py --out BENCH_CI.json
    PYTHONPATH=src python benchmarks/bench_ci_smoke.py --write-baseline

Counters in the output are deterministic (fixed seeds); ``*_seconds`` keys
are wall-clock and only gate on slowdowns beyond the tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.config import BuildConfig, EngineConfig, ObservabilityConfig, SyntheticConfig
from repro.core import parallel_build
from repro.core.baseline import BaselineEngine
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.pruning import (
    index_pair_prunable,
    index_pairs_prunable,
    markov_edge_upper_bounds,
)
from repro.core.query import IMGRNEngine
from repro.core.standardize import standardize_matrix
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.index.arraystore import min_dist_many

SEED = 7
GAMMA = ALPHA = 0.5

#: Flags shared by every engine: private registries keep the bench's
#: counters isolated from anything else in the process.
_OBS = ObservabilityConfig(shared_registry=False)


def bench_fig06_small() -> dict[str, float]:
    """IM-GRN vs Baseline on a 20-matrix Uni database, 3 queries."""
    database = generate_database(
        SyntheticConfig(weights="uni", genes_range=(20, 40), seed=SEED), 20
    )
    queries = generate_query_workload(database, n_q=4, count=3, rng=SEED)

    engine = IMGRNEngine(database, EngineConfig(seed=SEED, observability=_OBS))
    imgrn_build_seconds = engine.build()
    started = time.perf_counter()
    imgrn_results = [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries]
    imgrn_query_seconds = time.perf_counter() - started

    baseline = BaselineEngine(database, EngineConfig(seed=SEED, observability=_OBS))
    baseline_build_seconds = baseline.build()
    started = time.perf_counter()
    baseline_results = [baseline.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries]
    baseline_query_seconds = time.perf_counter() - started

    imgrn_answers = sum(len(r.answers) for r in imgrn_results)
    baseline_answers = sum(len(r.answers) for r in baseline_results)
    assert imgrn_answers == baseline_answers, "engines disagree on answers"
    return {
        "imgrn_build_seconds": imgrn_build_seconds,
        "imgrn_query_seconds": imgrn_query_seconds,
        "imgrn_candidates": float(sum(r.stats.candidates for r in imgrn_results)),
        "imgrn_io_accesses": float(sum(r.stats.io_accesses for r in imgrn_results)),
        "imgrn_answers": float(imgrn_answers),
        "baseline_build_seconds": baseline_build_seconds,
        "baseline_query_seconds": baseline_query_seconds,
        "baseline_answers": float(baseline_answers),
    }


def bench_fig13_small() -> dict[str, float]:
    """Forced-serial vs derived-width sharded build on 24 matrices.

    The serial reference fakes the CPU probe to one CPU; the second build
    takes the width :func:`~repro.core.parallel_build.build_width` derives
    (``min(usable CPUs, 8 shards)``). The ``workers4`` key names are kept
    for the committed baseline.
    """
    database = generate_database(
        SyntheticConfig(weights="uni", genes_range=(30, 60), seed=SEED), 24
    )
    config = EngineConfig(
        seed=SEED, build=BuildConfig(shard_size=3), observability=_OBS
    )
    serial = IMGRNEngine(database, config)
    with mock.patch.object(parallel_build, "usable_cpus", lambda: 1):
        serial_seconds = serial.build()
    parallel = IMGRNEngine(database, config)
    parallel_seconds = parallel.build()

    # The fanned-out build must agree with the serial reference bit-for-bit.
    for sid in serial._entries:
        a = serial._entries[sid].embedded
        b = parallel._entries[sid].embedded
        assert a.x.tobytes() == b.x.tobytes(), f"embedding x diverged: {sid}"
        assert a.y.tobytes() == b.y.tobytes(), f"embedding y diverged: {sid}"
    assert (
        serial.array_index.fingerprint() == parallel.array_index.fingerprint()
    ), "index arrays diverged"

    # mmap round trip: the zero-copy array index reloaded via np.memmap
    # must answer queries bit-identically to the in-process engine.
    queries = generate_query_workload(database, n_q=3, count=3, rng=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        save_engine_sharded(serial, Path(tmp))
        load_started = time.perf_counter()
        mapped = load_engine_sharded(Path(tmp), mmap_index=True)
        mmap_load_seconds = time.perf_counter() - load_started
        mmap_answers = 0
        for q in queries:
            ref = serial.query(q, gamma=GAMMA, alpha=ALPHA)
            got = mapped.query(q, gamma=GAMMA, alpha=ALPHA)
            ref_pairs = [(a.source_id, a.probability) for a in ref.answers]
            got_pairs = [(a.source_id, a.probability) for a in got.answers]
            assert ref_pairs == got_pairs, "mmap engine answers diverged"
            ref_counters = {
                k: v for k, v in ref.metrics.items() if "seconds" not in k
            }
            got_counters = {
                k: v for k, v in got.metrics.items() if "seconds" not in k
            }
            assert ref_counters == got_counters, "mmap engine counters diverged"
            mmap_answers += len(got_pairs)
    return {
        "serial_build_seconds": serial_seconds,
        "workers4_build_seconds": parallel_seconds,
        "speedup_workers4": serial_seconds / parallel_seconds
        if parallel_seconds > 0
        else 0.0,
        "index_pages": float(serial.pages.num_pages),
        "total_points": float(serial.database.total_genes()),
        "mmap_load_seconds": mmap_load_seconds,
        "mmap_answers": float(mmap_answers),
    }


def _scalar_min_dist(low: np.ndarray, high: np.ndarray, point: np.ndarray) -> float:
    """MinDist from ``point`` into one box: the per-child scalar call."""
    clamped = np.clip(point, low, high)
    delta = clamped - point
    return float(np.sqrt(delta @ delta))


def _leaf_markov_reference(engine, columns, rows_s, rows_t) -> np.ndarray:
    """The leaf Markov bound one source at a time: per source, one
    contiguous difference row and one dot per pair, the statistics read
    from ``columns`` (``{source: (std, squares, means)}``)."""
    store = engine.array_index
    limit = 1_000_000  # the engine's payload key: source * limit + column
    sources = store.entry_source_ids[rows_t]
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    anchor_cols = store.entry_payloads[rows_s[order]] % limit
    cols = store.entry_payloads[rows_t[order]] % limit
    starts = np.flatnonzero(np.diff(sources, prepend=-1))
    stops = np.append(starts[1:], sources.shape[0])
    distance: list[float] = []
    squares_t, means_t, anchors = [], [], []
    for source, s, start, stop in zip(
        sources[starts].tolist(),
        anchor_cols[starts].tolist(),
        starts.tolist(),
        stops.tolist(),
    ):
        std, squares, means = columns[source]
        t = cols[start:stop]
        rows = np.subtract(std.T[s], std.T[t], order="C")
        distance += [math.sqrt(row @ row) for row in rows]
        squares_t.append(squares[t])
        means_t.append(means[t])
        anchors.append((squares[s], means[s], std.shape[0]))
    squares_s, means_s, length = np.repeat(anchors, stops - starts, axis=0).T
    value = np.concatenate(squares_t) + squares_s - (
        2.0 * length * np.concatenate(means_t) * means_s
    )
    markov = np.empty(sources.shape[0])
    markov[order] = markov_edge_upper_bounds(
        distance, np.sqrt(np.where(value > 0.0, value, 0.0))
    )
    return markov


def _leaf_bench(rounds: int) -> dict[str, float]:
    """The leaf Markov bound: per-source reference vs the column table's
    batched kernel over the same joined pairs (each source's column 0
    against its next eight columns), byte-identical outputs."""
    database = generate_database(
        SyntheticConfig(
            weights="uni", genes_range=(10, 12), samples_range=(12, 24), seed=SEED
        ),
        8,
    )
    engine = IMGRNEngine(database, EngineConfig(seed=SEED, observability=_OBS))
    engine.build()
    columns = {}
    for matrix in database:
        std = standardize_matrix(matrix.values)
        cols = [std[:, c] for c in range(std.shape[1])]
        columns[matrix.source_id] = (
            std,
            np.array([float(x @ x) for x in cols]),
            np.array([float(x.mean()) for x in cols]),
        )
    table = engine._table
    row_of = {int(p): r for r, p in enumerate(table.store.entry_payloads)}
    pairs = [
        (row_of[m.source_id * 1_000_000], row_of[m.source_id * 1_000_000 + c])
        for m in database
        for c in range(1, 9)
    ]
    rows_s, rows_t = (np.array(side, dtype=np.int64) for side in zip(*pairs))

    started = time.perf_counter()
    for _ in range(rounds):
        reference = _leaf_markov_reference(engine, columns, rows_s, rows_t)
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(rounds):
        batched = table.markov_bounds(rows_s, rows_t)
    table_seconds = time.perf_counter() - started
    assert batched.tobytes() == reference.tobytes(), "leaf Markov bounds diverged"
    return {
        "leaf_pairs": float(len(pairs)),
        "leaf_reference_seconds": reference_seconds,
        "leaf_table_seconds": table_seconds,
        "leaf_table_over_reference": reference_seconds / table_seconds
        if table_seconds > 0
        else 0.0,
    }


def bench_traversal_micro() -> dict[str, float]:
    """Vectorized vs scalar traversal hot path (MinDist, Lemma 6, and the
    leaf Markov bound).

    Times per-child / per-pair scalar calls against the single NumPy
    calls the array store makes, on the same synthetic inputs, and
    asserts the outputs are identical; then times the leaf Markov bound
    one source at a time against the column table's batched kernel
    (:func:`_leaf_bench`, reported under its own ``leaf_*`` keys).
    """
    rng = np.random.default_rng(SEED)
    n_boxes, dim = 192, 8
    lows = rng.uniform(0.0, 10.0, size=(n_boxes, dim))
    highs = lows + rng.uniform(0.0, 5.0, size=(n_boxes, dim))
    boxes = list(zip(lows, highs))
    point = rng.uniform(0.0, 15.0, size=dim)

    n_s, n_t, d = 32, 32, 6
    gamma = 0.5
    ea_x_max = rng.uniform(0.0, 1.0, size=(n_s, d))
    eb_x_min = rng.uniform(0.0, 1.0, size=(n_t, d))
    eb_y_max = rng.uniform(0.0, 1.0, size=(n_t, d))

    rounds = 40
    started = time.perf_counter()
    for _ in range(rounds):
        scalar_dists = [_scalar_min_dist(low, high, point) for low, high in boxes]
        scalar_prunable = [
            [
                index_pair_prunable(ea_x_max[i], eb_x_min[j], eb_y_max[j], gamma)
                for j in range(n_t)
            ]
            for i in range(n_s)
        ]
    scalar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        vec_dists = min_dist_many(lows, highs, point)
        # The walk gathers a node pair's child cross product row-major.
        vec_prunable = index_pairs_prunable(
            np.repeat(ea_x_max, n_t, axis=0),
            np.tile(eb_x_min, (n_s, 1)),
            np.tile(eb_y_max, (n_s, 1)),
            gamma,
        ).reshape(n_s, n_t)
    vectorized_seconds = time.perf_counter() - started

    # The scalar reference uses a BLAS dot while the batch path uses an
    # einsum, so the last ulp may differ.
    assert np.allclose(vec_dists, scalar_dists, rtol=1e-12, atol=0.0), (
        "MinDist diverged"
    )
    assert vec_prunable.tolist() == scalar_prunable, "Lemma-6 verdicts diverged"
    return {
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vectorized_seconds,
        "vectorized_over_scalar": scalar_seconds / vectorized_seconds
        if vectorized_seconds > 0
        else 0.0,
        "minidist_boxes": float(n_boxes),
        "lemma6_pairs": float(n_s * n_t),
        **_leaf_bench(rounds),
    }


def bench_refine_smoke() -> dict[str, float]:
    """Batched candidate refinement vs a per-pair replay, same answers.

    A dense-overlap database (small gene pool, so every source survives
    the gene-containment check) queried at low ``gamma`` with a generous
    similarity edge budget: the dense query graph survives refinement
    nearly everywhere, so refinement must estimate essentially every
    query edge of every candidate. That is the regime batching targets --
    one permutation block per distinct target column via
    ``pair_block_probabilities`` instead of one block per edge. The
    denominator replays the per-pair loop in the bench: one scalar
    ``pair_probability`` call per query edge of every source holding all
    query genes (at ``alpha = 0`` and a budget above the anchor's degree
    that is exactly the engine's candidate set). The edge-probability
    cache is disabled so both sides do the same arithmetic each round and
    the ratio measures batching alone.
    """
    from repro.config import InferenceConfig
    from repro.core.spec import QuerySpec

    gamma, alpha, budget = 0.05, 0.0, 10
    database = generate_database(
        SyntheticConfig(
            weights="uni",
            genes_range=(22, 26),
            samples_range=(36, 48),
            gene_pool=28,
            seed=SEED,
        ),
        12,
    )
    queries = generate_query_workload(database, n_q=10, count=4, rng=SEED)
    engine = IMGRNEngine(
        database,
        EngineConfig(
            seed=SEED,
            observability=_OBS,
            inference=InferenceConfig(cache=False),
        ),
    )
    engine.build()

    def batched() -> tuple[float, list]:
        total = 0.0
        results = []
        for query in queries:
            result = engine.execute(
                QuerySpec(
                    query, gamma, alpha, kind="similarity", edge_budget=budget
                )
            )
            total += result.stats.refine_seconds
            results.append(result)
        return total, results

    def perpair(query_graph) -> tuple[float, list]:
        """The per-pair decision loop, one scalar estimate per edge."""
        started = time.perf_counter()
        found = []
        for matrix in database:
            if any(gene not in matrix for gene in query_graph.gene_ids):
                continue
            probability, missing = 1.0, 0
            for (u, v), _p in query_graph.edges():
                p = engine._inference.pair_probability(
                    matrix.column(u), matrix.column(v)
                )
                if p <= gamma:
                    missing += 1
                    if missing > budget:
                        break
                    continue
                probability *= p
                if probability <= alpha:
                    break
            else:
                found.append((matrix.source_id, probability))
        return time.perf_counter() - started, found

    # Interleave the two sides so clock drift lands on both evenly.
    rounds = 3
    batched_seconds = perpair_seconds = 0.0
    answers = 0.0
    for _ in range(rounds):
        seconds, results = batched()
        batched_seconds += seconds
        for result in results:
            seconds, replayed = perpair(result.query_graph)
            perpair_seconds += seconds
            assert sorted(replayed) == sorted(
                (a.source_id, a.probability) for a in result.answers
            ), "per-pair replay diverged from batched refinement"
        answers = sum(len(result.answers) for result in results)
    return {
        "perpair_seconds": perpair_seconds,
        "batched_seconds": batched_seconds,
        "batched_over_perpair": perpair_seconds / batched_seconds
        if batched_seconds > 0
        else 0.0,
        "answers": float(answers),
    }


def bench_workloads_smoke() -> dict[str, float]:
    """Workload matrix: containment / topk / similarity, engine + daemon.

    Gates of the QuerySpec PR, kept hot in CI:

    * all three kinds agree between the indexed engine and the
      exhaustive baseline (similarity soundness for edge budgets 0-2);
    * index-aware top-k refines *fewer* candidates than the post-hoc
      ``alpha=0`` sort while returning the identical answers -- the
      ``topk_indexed_over_posthoc`` ratio (post-hoc refinements over
      index-aware refinements) must stay >= 1.0, and this seeded
      database makes the k-th-probability bound actually fire (> 1);
    * one query of each kind round-trips through a live daemon
      bit-identical to in-process ``execute()`` (``daemon_kinds_ok``).
    """
    from repro.core.spec import QuerySpec
    from repro.data.database import GeneFeatureDatabase
    from repro.data.matrix import GeneFeatureMatrix
    from repro.serve.client import DaemonClient
    from repro.serve.daemon import DaemonConfig, QueryDaemon, serve_in_background

    database = generate_database(
        SyntheticConfig(weights="uni", genes_range=(12, 18), seed=SEED), 16
    )
    queries = generate_query_workload(database, n_q=3, count=3, rng=SEED)
    engine = IMGRNEngine(database, EngineConfig(seed=SEED, observability=_OBS))
    engine.build()
    baseline = BaselineEngine(
        database, EngineConfig(seed=SEED, observability=_OBS)
    )
    baseline.build()

    def answers(result):
        return [(a.source_id, a.probability) for a in result.answers]

    kind_answers = {"containment": 0, "topk": 0, "similarity": 0}
    for query in queries:
        specs = [
            QuerySpec(query, GAMMA, ALPHA),
            QuerySpec(query, GAMMA, kind="topk", k=3),
            *(
                QuerySpec(
                    query, GAMMA, ALPHA, kind="similarity", edge_budget=b
                )
                for b in (0, 1, 2)
            ),
        ]
        for spec in specs:
            indexed = engine.execute(spec)
            brute = baseline.execute(spec)
            assert answers(indexed) == answers(brute), (
                f"{spec.kind} diverged from the baseline"
            )
            kind_answers[spec.kind] += len(indexed.answers)

    # One near-duplicate source among weak ones: the running k-th bound
    # must actually prune (deterministic on this seed).
    rng = np.random.default_rng(SEED)
    genes = [0, 1, 2, 3]
    crafted = [
        GeneFeatureMatrix(rng.normal(size=(12, 4)), genes, sid)
        for sid in range(8)
    ]
    pruner = IMGRNEngine(
        GeneFeatureDatabase(crafted), EngineConfig(seed=SEED, observability=_OBS)
    )
    pruner.build()
    probe = crafted[0].submatrix([0, 1, 2])
    kth_key = 'query.pruned_pairs{engine="imgrn",stage="topk_kth_bound"}'
    started = time.perf_counter()
    posthoc = pruner.execute(QuerySpec(probe, 0.4, 0.0))
    posthoc_seconds = time.perf_counter() - started
    started = time.perf_counter()
    topk = pruner.execute(QuerySpec(probe, 0.4, kind="topk", k=1))
    topk_seconds = time.perf_counter() - started
    reference = sorted(answers(posthoc), key=lambda sp: (-sp[1], sp[0]))
    assert answers(topk) == reference[:1], "index-aware top-1 diverged"
    kth_pruned = topk.metrics.get(kth_key, 0.0)
    topk_refined = topk.stats.candidates - kth_pruned
    ratio = posthoc.stats.candidates / topk_refined if topk_refined else 0.0

    # Daemon round trip: one query of each kind, bit-identical answers.
    daemon = QueryDaemon(
        engine=engine, config=DaemonConfig(backend="thread", workers=2)
    )
    daemon_kinds_ok = 1.0
    with serve_in_background(daemon) as handle:
        client = DaemonClient("127.0.0.1", handle.port)
        try:
            for spec in (
                QuerySpec(queries[0], GAMMA, ALPHA),
                QuerySpec(queries[0], GAMMA, kind="topk", k=3),
                QuerySpec(
                    queries[0], GAMMA, ALPHA, kind="similarity", edge_budget=1
                ),
            ):
                out = client.query(
                    spec.matrix,
                    gamma=spec.gamma,
                    alpha=spec.alpha,
                    kind=spec.kind,
                    k=spec.k,
                    edge_budget=spec.edge_budget,
                )
                served = [
                    (a["source_id"], a["probability"]) for a in out["answers"]
                ]
                if out["status"] != "ok" or served != answers(
                    engine.execute(spec)
                ):
                    daemon_kinds_ok = 0.0
        finally:
            client.close()
    assert daemon_kinds_ok == 1.0, "a kind diverged over the wire"

    return {
        "containment_answers": float(kind_answers["containment"]),
        "topk_answers": float(kind_answers["topk"]),
        "similarity_answers": float(kind_answers["similarity"]),
        "topk_kth_pruned": float(kth_pruned),
        "topk_indexed_over_posthoc": float(ratio),
        "posthoc_query_seconds": posthoc_seconds,
        "topk_query_seconds": topk_seconds,
        "daemon_kinds_ok": daemon_kinds_ok,
    }


def bench_streaming_smoke() -> dict[str, float]:
    """Streaming ingest while serving: add_matrix -> republish -> reload.

    Delegates to :func:`bench_streaming_ingest.smoke`, which keeps a
    process-backend daemon answering all three workload kinds while the
    builder engine ingests arrivals and hot-swaps the sharded save.
    """
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from bench_streaming_ingest import smoke
    finally:
        sys.path.pop(0)
    return smoke()


def bench_serve_smoke() -> dict[str, float]:
    """QueryServer throughput, 1 vs 8 worker threads, one fixed workload.

    Delegates to :func:`bench_serve_throughput.smoke`, which also asserts
    that the concurrent round is bit-identical to the serial one.
    """
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from bench_serve_throughput import smoke
    finally:
        sys.path.pop(0)
    return smoke()


def bench_daemon_smoke() -> dict[str, float]:
    """Network daemon burst: forked mmap workers behind HTTP admission.

    Delegates to :func:`bench_serve_daemon.smoke`, which starts a real
    :class:`repro.serve.QueryDaemon` on an ephemeral port, fires a
    concurrent multi-client burst, and asserts bit-identity with the
    in-process engine, recorded p99 latency, and a clean drain.
    """
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from bench_serve_daemon import smoke
    finally:
        sys.path.pop(0)
    return smoke()


#: Floors written into the baseline: keys that must stay >= the floor value.
#: ``speedup*`` floors are only enforced on multi-core runners (see
#: check_regression.py) -- a 1-CPU box cannot show a parallel speedup --
#: while ``*_over_*`` ratio floors hold on any machine: the vectorized
#: traversal beats the scalar loop even single-threaded, the daemon's
#: indicator keys are 0/1, and its requests/sec ratio clears 10 on any
#: hardware that can run the suite at all.
FLOORS = {
    "fig13_small.speedup_workers4": 1.0,
    "serve_smoke.speedup_threads8": 3.0,
    "traversal_micro.vectorized_over_scalar": 1.5,
    "daemon_smoke.p99_recorded": 1.0,
    "daemon_smoke.drained_clean": 1.0,
    "daemon_smoke.rps_over_unit": 10.0,
    "workloads_smoke.topk_indexed_over_posthoc": 1.0,
    "workloads_smoke.daemon_kinds_ok": 1.0,
    "refine_smoke.batched_over_perpair": 1.5,
    "streaming_smoke.streamed_visible": 1.0,
    "streaming_smoke.reloads_ok": 4.0,
}


def run(repeats: int = 3, label: str = "CI") -> dict[str, object]:
    """Run every bench ``repeats`` times; emit the trajectory schema.

    Sample collection rides on the experiment harness
    (:func:`repro.eval.harness.trajectory.bench_payload`): ``benches``
    still carries the per-key median -- counters are identical across
    repeats (fixed seeds), so the median only smooths the wall-clock and
    ratio keys against scheduler noise, and the legacy
    ``check_regression.py --baseline`` gate reads the file unchanged --
    while ``samples`` preserves every repeat so ``compare-trajectory``
    can run real statistics over the archived per-PR history.
    """
    from repro.eval.harness.trajectory import bench_payload

    samples: dict[str, dict[str, list[float]]] = {}
    for name, fn in (
        ("fig06_small", bench_fig06_small),
        ("fig13_small", bench_fig13_small),
        ("serve_smoke", bench_serve_smoke),
        ("daemon_smoke", bench_daemon_smoke),
        ("workloads_smoke", bench_workloads_smoke),
        ("refine_smoke", bench_refine_smoke),
        ("streaming_smoke", bench_streaming_smoke),
        ("traversal_micro", bench_traversal_micro),
    ):
        per_key: dict[str, list[float]] = {}
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            sample = fn()
            sample["wall_seconds"] = time.perf_counter() - started
            for key, value in sample.items():
                per_key.setdefault(key, []).append(float(value))
        samples[name] = per_key
        medians = {
            key: statistics.median(values) for key, values in per_key.items()
        }
        print(f"{name}: {json.dumps(medians, indent=2, sort_keys=True)}")
    return bench_payload(
        samples, label=label, meta={"seed": SEED, "repeats": repeats}
    )


def main() -> int:
    from _paths import resolve_out

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_CI.json in $IMGRN_BENCH_OUT "
        "or benchmarks/out/)",
    )
    parser.add_argument(
        "--label",
        default="CI",
        help="trajectory label stamped into the payload (e.g. a PR number)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repeat every bench this many times and keep the per-key median",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="also refresh benchmarks/baseline.json (with floors) from this run",
    )
    args = parser.parse_args()

    payload = run(repeats=args.repeats, label=args.label)
    out = resolve_out(args.out, "BENCH_CI.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}")
    if args.write_baseline:
        baseline_path = Path(__file__).parent / "baseline.json"
        # The baseline stays the compact legacy shape: medians + floors.
        baseline = {
            "meta": payload["meta"],
            "benches": payload["benches"],
            "floors": FLOORS,
        }
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {baseline_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
