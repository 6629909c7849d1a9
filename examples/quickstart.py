"""Quickstart: build a gene feature database, index it, run an IM-GRN query.

Run with::

    python examples/quickstart.py

Walks the full public API surface in one minute: generate a synthetic
database (the paper's Section-6.1 linear model), build the pivot/STR
index, cut a connected query matrix out of one source, and answer the
ad-hoc inference-and-matching query at a user-chosen (gamma, alpha).
"""

from __future__ import annotations

from repro import EngineConfig, IMGRNEngine, SyntheticConfig
from repro.data.queries import extract_query
from repro.data.synthetic import generate_database


def main() -> None:
    # 1. A database of 60 data sources, each an l_i x n_i feature matrix
    #    (random sizes, overlapping gene sets from a shared gene pool).
    config = SyntheticConfig(
        weights="uni",
        genes_range=(20, 40),
        samples_range=(10, 20),
        gene_pool=150,
        seed=42,
    )
    database = generate_database(config, n_matrices=60)
    print("database:", database.describe())

    # 2. Build the IM-GRN engine: per-matrix pivot selection (Fig. 3),
    #    2d+1-dimensional embedding, one STR-packed index + inverted file.
    engine = IMGRNEngine(database, EngineConfig(num_pivots=2, seed=42))
    seconds = engine.build()
    print(
        f"index built in {seconds:.2f}s: "
        f"{len(engine.array_index)} points, {engine.pages.num_pages} pages, "
        f"height {engine.array_index.height}"
    )

    # 3. A query matrix M_Q: 4 genes cut from a random source such that the
    #    inferred query GRN is connected at gamma = 0.7.
    source = database.get(7)
    query = extract_query(source, n_q=4, rng=42, threshold=0.7)
    print(f"query: {query.num_genes} genes {query.gene_ids} "
          f"from source {query.source_id}")

    # 4. Answer the IM-GRN query: find matrices whose inferred GRN contains
    #    the query GRN with appearance probability above alpha.
    gamma, alpha = 0.7, 0.2
    result = engine.query(query, gamma=gamma, alpha=alpha)
    print(f"\nquery GRN at gamma={gamma}: {result.query_graph.num_edges} edges")
    for (u, v), p in result.query_graph.edges():
        print(f"  edge {u}-{v}  p={p:.3f}")

    print(f"\nanswers (alpha={alpha}):")
    for answer in result.answers:
        print(
            f"  source {answer.source_id:3d}  "
            f"Pr{{G}} = {answer.probability:.3f}"
        )
    stats = result.stats
    print(
        f"\ncost: {stats.cpu_seconds * 1e3:.1f} ms CPU, "
        f"{stats.io_accesses} page accesses, "
        f"{stats.candidates} candidates after pruning, "
        f"{stats.pruned_pairs} pairs pruned"
    )


if __name__ == "__main__":
    main()
