"""Streaming ingest: keep serving while new data sources arrive.

Run with::

    python examples/streaming_ingest.py

The prototype-system scenario from the paper's conclusion: gene feature
matrices keep arriving from institutions, and the system must index them
without taking the query service down. One process (here: one loop
iteration) plays the *builder* -- it owns the live engine, ingests each
arrival with ``add_matrix()`` (embeds only the new matrix, then
repacks the index), and republishes the index with the sharded
incremental save, which rewrites only the shard the new matrix landed
in. A network daemon serves the published index from mmap-backed
workers the whole time; after each republish one ``/reload`` hot-swaps
the new index in without dropping admitted requests. Queries of every workload kind
(containment, top-k by Pr{G}, edge-budget similarity) are answered
throughout, and the freshly streamed source is queryable immediately
after its reload.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    DaemonClient,
    DaemonConfig,
    EngineConfig,
    GeneFeatureDatabase,
    IMGRNEngine,
    QueryDaemon,
    QuerySpec,
    SyntheticConfig,
    generate_database,
    save_engine_sharded,
    serve_in_background,
)
from repro.config import BuildConfig
from repro.data.queries import extract_query

GAMMA, ALPHA = 0.5, 0.3


def show(client: DaemonClient, engine: IMGRNEngine, query) -> None:
    """Serve one query of each workload kind and print the answers."""
    for spec in (
        QuerySpec(query, GAMMA, ALPHA),
        QuerySpec(query, GAMMA, kind="topk", k=3),
        QuerySpec(query, GAMMA, ALPHA, kind="similarity", edge_budget=1),
    ):
        out = client.query(
            spec.matrix,
            gamma=spec.gamma,
            alpha=spec.alpha,
            kind=spec.kind,
            k=spec.k,
            edge_budget=spec.edge_budget,
        )
        # The wire answers are bit-identical to in-process execute().
        reference = engine.execute(spec)
        assert out["sources"] == reference.answer_sources()
        print(f"    {spec.kind:<12} -> sources {out['sources']}")


def main() -> None:
    # 1. Sixteen sources exist today; four more will arrive while serving.
    config = SyntheticConfig(
        weights="uni", genes_range=(12, 20), samples_range=(10, 16), seed=42
    )
    matrices = list(generate_database(config, 20))
    backlog, arrivals = matrices[:16], matrices[16:]

    # Small shards so each arrival dirties exactly one shard file.
    engine = IMGRNEngine(
        GeneFeatureDatabase(backlog),
        EngineConfig(seed=42, build=BuildConfig(shard_size=4)),
    )
    engine.build()
    print(f"builder: indexed {len(backlog)} sources")

    with tempfile.TemporaryDirectory() as tmp:
        published = Path(tmp) / "published"
        save_engine_sharded(engine, published)

        # 2. The daemon serves the published index from forked mmap
        #    workers -- a separate process tree from the builder.
        daemon = QueryDaemon(
            index_dir=published,
            config=DaemonConfig(workers=2, backend="process"),
        )
        with serve_in_background(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                print(f"daemon: listening on 127.0.0.1:{handle.port}")
                probe = extract_query(backlog[0], n_q=3, rng=42)
                print("  steady state, all three kinds:")
                show(client, engine, probe)

                # 3. Stream the arrivals: ingest, republish, hot reload.
                for matrix in arrivals:
                    engine.add_matrix(matrix)
                    report = save_engine_sharded(engine, published)
                    reloaded = client.reload()
                    print(
                        f"  source {matrix.source_id} ingested: "
                        f"{len(report['written'])} shard(s) rewritten, "
                        f"{len(report['skipped'])} untouched, "
                        f"reload={reloaded['status']}"
                    )
                    # The new source answers its own query immediately.
                    probe = extract_query(matrix, n_q=3, rng=42)
                    out = client.query(probe, gamma=GAMMA, alpha=0.0)
                    assert matrix.source_id in out["sources"]
                    show(client, engine, probe)
            finally:
                client.close()
    print("done: served every kind across "
          f"{len(arrivals)} live reloads without downtime")


if __name__ == "__main__":
    main()
