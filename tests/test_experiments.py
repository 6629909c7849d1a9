"""The figure experiments at tiny scale: runner sweeps and the other drivers.

Every query sweep of Section 6 runs on ``ExperimentRunner``; the
equivalence test pins a primed runner's per-query means to a plain
``engine.query`` loop. The non-sweep drivers (the Real data set, the ROC
curves, the inference timing) and the figure table run end-to-end here;
the benchmark harness runs them at reporting scale.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig, SyntheticConfig
from repro.core.query import IMGRNEngine
from repro.data.organisms import build_real_database
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.errors import ValidationError
from repro.eval.counters import aggregate_stats
from repro.eval.harness import ExperimentConfig, ScaleSpec
from repro.eval.harness.report import per_query_means, text_table
from repro.eval.harness.runner import primed_rows
from repro.eval.roc import format_roc_summary, inference_time, roc_curves


class TestDatasets:
    def test_build_real_database(self):
        db = build_real_database(
            n_matrices=6, genes_range=(8, 12), samples_range=(6, 10), seed=13
        )
        assert len(db) == 6
        # At least some matrices inherit gold-standard edges.
        assert any(m.truth_edges for m in db)
        # Sub-matrices from the same organism share gene IDs.
        shared = [g for g in db.gene_ids() if len(db.sources_containing(g)) >= 2]
        assert shared


class TestRunnerEquivalence:
    def test_primed_runner_matches_query_loop(self):
        """A primed runner's per-query means of the cost counters equal
        ``aggregate_stats`` over ``engine.query`` on the same engine and
        queries -- the figure tables read the same numbers either way."""
        database = generate_database(
            SyntheticConfig(weights="gau", genes_range=(8, 12), seed=13), 10
        )
        engine = IMGRNEngine(database, EngineConfig(num_pivots=3, seed=13))
        engine.build()
        queries = generate_query_workload(database, n_q=3, count=3, rng=(13, 3))
        config = ExperimentConfig(
            name="equivalence",
            engines=("imgrn",),
            baseline_engine="imgrn",
            weights=("gau",),
            scales=(ScaleSpec(10, (8, 12)),),
            gammas=(0.3, 0.8),
            alphas=(0.2,),
            num_queries=3,
            repeats=1,
            seed=13,
        )
        rows = primed_rows(config, engine, queries, d=3)
        points = per_query_means(rows, "gamma", "d")
        assert [(p["gamma"], p["d"]) for p in points] == [(0.3, 3), (0.8, 3)]
        for point in points:
            expected = aggregate_stats(
                [
                    engine.query(q, gamma=point["gamma"], alpha=0.2).stats
                    for q in queries
                ]
            )
            for column in ("io_accesses", "candidates", "answers"):
                assert point[column] == expected[column], (point, column)
        assert any(p["io_accesses"] > 0 for p in points)

    def test_primed_rows_needs_one_cell(self):
        config = ExperimentConfig(name="two", weights=("uni", "gau"))
        with pytest.raises(ValidationError):
            primed_rows(config, engine=None, queries=[])


class TestRocDrivers:
    def test_roc_inference_curve_set(self):
        curves = roc_curves(organism="ecoli", genes=30, mc_samples=60, seed=13)
        assert set(curves) == {
            "imgrn",
            "correlation",
            "imgrn_noise",
            "correlation_noise",
        }
        for curve in curves.values():
            assert 0.0 <= curve.auc() <= 1.0
        summary = format_roc_summary(curves)
        assert "imgrn" in summary

    def test_roc_pcorr_curve_set(self):
        curves = roc_curves(
            organism="saureus", genes=30, mc_samples=60, seed=13, comparator="pcorr"
        )
        assert set(curves) == {"imgrn", "pcorr", "imgrn_noise", "pcorr_noise"}

    def test_unknown_organism(self):
        with pytest.raises(ValidationError):
            roc_curves(organism="tardigrade")


class TestEfficiencyDrivers:
    def test_inference_time_rows(self):
        rows = inference_time(sizes=(20, 30), seed=13)
        assert [row["n_i"] for row in rows] == [20.0, 30.0]
        for row in rows:
            assert row["imgrn_seconds"] > row["correlation_seconds"]


class TestReporting:
    def test_format_table_alignment(self):
        table = text_table("demo", [{"x": 1.0, "y": 0.5}, {"x": 2.0, "y": 0.25}])
        lines = table.splitlines()
        assert lines[0] == "== demo =="
        assert "x" in lines[1] and "y" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in text_table("demo", [])
