"""Property-based end-to-end test: the engine equals brute force.

Hypothesis drives the whole stack: random tiny databases (random shapes,
random gene overlaps), random query cut-outs and random thresholds — the
indexed engine's answer set must always equal a direct evaluation of
Definition 4 over every matrix. This is the single strongest guarantee in
the suite: it exercises inference, embedding, pivot selection, the packed
index, bit vectors, all four pruning lemmas and refinement together.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, GeneFeatureDatabase, GeneFeatureMatrix, IMGRNEngine
from repro.core.inference import EdgeProbabilityEstimator

from conftest import assert_store_invariants

CONFIG = EngineConfig(mc_samples=32, seed=3)
ESTIMATOR = EdgeProbabilityEstimator(n_samples=32, seed=3)


def build_case(seed: int, n_matrices: int, gene_pool: int):
    """A random small database plus a query cut from one of its matrices."""
    rng = np.random.default_rng(seed)
    matrices = []
    for source_id in range(n_matrices):
        n_genes = int(rng.integers(4, min(10, gene_pool) + 1))
        n_samples = int(rng.integers(6, 14))
        gene_ids = sorted(
            int(g) for g in rng.choice(gene_pool, size=n_genes, replace=False)
        )
        values = rng.normal(size=(n_samples, n_genes))
        # Inject some co-expression so edges exist.
        for _ in range(n_genes // 2):
            a, b = rng.choice(n_genes, size=2, replace=False)
            values[:, b] = 0.7 * values[:, a] + 0.4 * rng.normal(size=n_samples)
        matrices.append(GeneFeatureMatrix(values, gene_ids, source_id))
    database = GeneFeatureDatabase(matrices)
    query_source = matrices[int(rng.integers(n_matrices))]
    n_q = int(rng.integers(2, min(4, query_source.num_genes) + 1))
    query_genes = sorted(
        int(g)
        for g in rng.choice(query_source.gene_ids, size=n_q, replace=False)
    )
    return database, query_source.submatrix(query_genes)


@st.composite
def database_and_query(draw):
    seed = draw(st.integers(0, 10_000))
    n_matrices = draw(st.integers(2, 6))
    gene_pool = draw(st.integers(8, 20))
    database, query = build_case(seed, n_matrices, gene_pool)
    gamma = draw(st.sampled_from([0.2, 0.5, 0.8]))
    alpha = draw(st.sampled_from([0.0, 0.3, 0.6]))
    return database, query, gamma, alpha


def brute_force(database, query_graph, gamma, alpha):
    answers = []
    query_edges = [key for key, _p in query_graph.edges()]
    for matrix in database:
        if any(g not in matrix for g in query_graph.gene_ids):
            continue
        probability = 1.0
        ok = True
        for u, v in query_edges:
            p = ESTIMATOR.pair_probability(matrix.column(u), matrix.column(v))
            if p <= gamma:
                ok = False
                break
            probability *= p
        if ok and probability > alpha:
            answers.append(matrix.source_id)
    return sorted(answers)


@given(database_and_query())
@settings(max_examples=20, deadline=None)
def test_engine_equals_brute_force(case):
    database, query, gamma, alpha = case
    engine = IMGRNEngine(database, CONFIG)
    engine.build()
    result = engine.query(query, gamma=gamma, alpha=alpha)
    assert result.answer_sources() == brute_force(
        database, result.query_graph, gamma, alpha
    )
    assert_store_invariants(engine.array_index, engine.config.rstar_max_entries)


@given(database_and_query())
# Genes (1, 4, 7) cut from source 4 (6 samples): gene 7's permutation
# block holds the identity permutation, an exact tie that must count
# alike in the engine's batched estimates and the scalar brute force.
@example((*build_case(2353, 5, 11), 0.2, 0.3))
@settings(max_examples=10, deadline=None)
def test_remove_then_query_consistency(case):
    """After removing a random source the engine still equals brute force
    over the remaining matrices."""
    database, query, gamma, alpha = case
    engine = IMGRNEngine(database, CONFIG)
    engine.build()
    victim = database.source_ids[0]
    engine.remove_matrix(victim)
    result = engine.query(query, gamma=gamma, alpha=alpha)
    remaining = GeneFeatureDatabase(
        m for m in database if m.source_id != victim
    )
    assert result.answer_sources() == brute_force(
        remaining, result.query_graph, gamma, alpha
    )
