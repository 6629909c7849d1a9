"""The paper's envisioned prototype system, end to end.

The conclusion sketches "a real prototype system [that] organizes gene
feature data from various data sources ... and provides users with an
interface to conduct ad-hoc IM-GRN queries". This script walks that
lifecycle with the engine's maintenance API:

1. stand up an index over an initial corpus,
2. persist it to disk and restore it (process restart),
3. a new institution contributes a matrix  -> ``add_matrix``,
4. a study is retracted                    -> ``remove_matrix``,
5. analysts issue ranked queries           -> ``query_topk``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import EngineConfig, IMGRNEngine, SyntheticConfig
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.data.queries import extract_query
from repro.data.synthetic import generate_database, generate_matrix


def main() -> None:
    # --- 1. initial corpus ------------------------------------------------
    synth = SyntheticConfig(
        genes_range=(15, 30), samples_range=(10, 18), gene_pool=120, seed=51
    )
    database = generate_database(synth, n_matrices=40)
    engine = IMGRNEngine(database, EngineConfig(seed=51))
    build_seconds = engine.build()
    print(
        f"[1] indexed {len(database)} sources "
        f"({database.total_genes()} gene vectors) in {build_seconds:.2f}s"
    )

    # --- 2. persist + restore --------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "imgrn_engine"
        save_engine_sharded(engine, directory)
        size_kib = sum(
            f.stat().st_size for f in directory.rglob("*") if f.is_file()
        ) / 1024
        engine = load_engine_sharded(directory)
        print(
            f"[2] saved engine ({size_kib:.0f} KiB), restored in "
            f"{engine.build_seconds:.2f}s (embeddings reused, no sampling)"
        )

    # --- 3. a new institution contributes a matrix ------------------------
    new_matrix = generate_matrix(
        synth, source_id=1000, rng=np.random.default_rng((51, 1000))
    )
    engine.add_matrix(new_matrix)
    print(
        f"[3] added source 1000 ({new_matrix.num_genes} genes); "
        f"index now holds {len(engine.array_index)} points"
    )

    # --- 4. a retraction --------------------------------------------------
    engine.remove_matrix(7)
    print(f"[4] removed retracted source 7; index holds {len(engine.array_index)} points")

    # --- 5. ranked ad-hoc queries ------------------------------------------
    query = extract_query(new_matrix, n_q=4, rng=51, threshold=0.6)
    result = engine.query_topk(query, gamma=0.6, k=5)
    print(
        f"[5] top-{len(result.answers)} matches for a 4-gene query "
        f"(gamma=0.6), query graph has {result.query_graph.num_edges} edges:"
    )
    for rank, answer in enumerate(result.answers, start=1):
        print(
            f"    #{rank}  source {answer.source_id:4d}  "
            f"Pr{{G}} = {answer.probability:.3f}"
        )
    assert 1000 in result.answer_sources()  # the contributing source matches
    assert 7 not in result.answer_sources()  # the retracted one never does
    stats = result.stats
    print(
        f"    cost: {stats.cpu_seconds * 1e3:.1f} ms CPU, "
        f"{stats.io_accesses} page accesses, {stats.candidates} candidates"
    )


if __name__ == "__main__":
    main()
