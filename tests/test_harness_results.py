"""Tests for the harness analysis layer: results, stats, report rendering."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.eval.harness import ExperimentResults, bootstrap_ci, mann_whitney_u
from repro.eval.harness.frame import TidyFrame, pandas_available
from repro.eval.harness.report import render_html, render_markdown
from repro.eval.harness.results import cell_label, lazy_property

GOLDEN = Path(__file__).parent / "golden" / "experiment_report.md"


def make_rows(
    engines=(("baseline", (0.4, 0.5, 0.6)), ("imgrn", (0.1, 0.2, 0.3))),
    cell=None,
):
    """Hand-built tidy rows: one cell, known medians, fixed counters."""
    cell = cell or {
        "kind": "containment",
        "weights": "uni",
        "scale": "N16g12-18",
        "gamma": 0.5,
        "alpha": 0.5,
    }
    rows = []
    for engine, series in engines:
        for repeat, seconds in enumerate(series):
            rows.append(
                {
                    "engine": engine,
                    **cell,
                    "repeat": repeat,
                    "seconds": seconds,
                    "num_queries": 3,
                    "io_accesses": 10.0,
                    "candidates": 5.0,
                    "answers": 2.0,
                }
            )
    return rows


def make_results(**kwargs):
    defaults = {
        "name": "unit",
        "baseline_engine": "baseline",
        "config": {"seed": 7},
        "meta": {"git_hash": "deadbee", "host": "test-host", "cpu_count": 4},
    }
    defaults.update(kwargs)
    return ExperimentResults(make_rows(), **defaults)


class TestLazyProperty:
    def test_computed_exactly_once(self):
        results = make_results()
        for _ in range(3):
            results.speedup_matrix
            results.median_seconds
            results.bootstrap_cis
        assert results.compute_counts["speedup_matrix"] == 1
        assert results.compute_counts["median_seconds"] == 1
        assert results.compute_counts["bootstrap_cis"] == 1

    def test_cache_is_per_instance(self):
        first, second = make_results(), make_results()
        first.median_seconds
        assert "median_seconds" not in second.compute_counts

    def test_descriptor_accessible_on_class(self):
        assert isinstance(ExperimentResults.median_seconds, lazy_property)


class TestSpeedupMatrix:
    def test_median_ratio_vs_baseline(self):
        results = make_results()
        cell = cell_label(results.rows[0])
        # median(baseline)=0.5, median(imgrn)=0.2 -> 2.5x
        assert results.speedup_matrix["imgrn"][cell] == pytest.approx(2.5)
        assert results.speedup_matrix["baseline"][cell] == pytest.approx(1.0)

    def test_missing_baseline_cell_is_none(self):
        rows = make_rows()
        extra_cell = {
            "kind": "topk",
            "weights": "uni",
            "scale": "N16g12-18",
            "gamma": 0.5,
            "alpha": None,
        }
        rows += make_rows(engines=(("imgrn", (0.1, 0.2)),), cell=extra_cell)
        results = ExperimentResults(rows, config={"seed": 7})
        topk_cell = cell_label(rows[-1])
        assert results.speedup_matrix["imgrn"][topk_cell] is None

    def test_baseline_listed_first(self):
        assert make_results().engines[0] == "baseline"

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentResults([])


class TestStats:
    def test_bootstrap_ci_reproducible_under_fixed_seed(self):
        values = [0.11, 0.13, 0.12, 0.15, 0.10, 0.14]
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)

    def test_bootstrap_ci_brackets_the_median(self):
        values = [0.11, 0.13, 0.12, 0.15, 0.10, 0.14]
        low, high = bootstrap_ci(values, seed=3)
        assert low <= 0.125 <= high

    def test_bootstrap_ci_single_sample_is_zero_width(self):
        assert bootstrap_ci([0.5]) == (0.5, 0.5)

    def test_mann_whitney_identical_samples(self):
        _, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(1.0, abs=0.05)

    def test_mann_whitney_separated_samples(self):
        a = [1.0, 1.1, 1.2, 1.3, 1.4]
        b = [2.0, 2.1, 2.2, 2.3, 2.4]
        _, p = mann_whitney_u(a, b)
        assert p < 0.05

    def test_pvalue_none_for_baseline_and_thin_samples(self):
        results = make_results(
            config={"seed": 7},
        )
        cell = cell_label(results.rows[0])
        assert results.pvalues[("baseline", cell)] is None
        thin = ExperimentResults(
            make_rows(engines=(("baseline", (0.4,)), ("imgrn", (0.1,)))),
            config={"seed": 7},
        )
        assert thin.pvalues[("imgrn", cell)] is None

    def test_pvalue_small_for_clear_separation(self):
        results = ExperimentResults(
            make_rows(
                engines=(
                    ("baseline", (0.50, 0.51, 0.52, 0.53, 0.54)),
                    ("imgrn", (0.10, 0.11, 0.12, 0.13, 0.14)),
                )
            ),
            config={"seed": 7},
        )
        cell = cell_label(results.rows[0])
        assert results.pvalues[("imgrn", cell)] < 0.05


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        results = make_results()
        path = results.save(tmp_path / "results.json")
        loaded = ExperimentResults.load(path)
        assert loaded.rows == results.rows
        assert loaded.baseline_engine == results.baseline_engine
        assert loaded.summary_records == results.summary_records

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "rows": []}', encoding="utf-8")
        with pytest.raises(ValidationError):
            ExperimentResults.load(path)

    def test_samples_accessor(self):
        results = make_results()
        cell = cell_label(results.rows[0])
        assert results.samples("imgrn", cell) == [0.1, 0.2, 0.3]
        with pytest.raises(ValidationError):
            results.samples("imgrn", "no/such/cell")


class TestFrame:
    def test_filter_and_unique(self):
        frame = TidyFrame(make_rows())
        assert sorted(frame.unique("engine")) == ["baseline", "imgrn"]
        assert len(frame.filter(engine="imgrn")) == 3

    def test_csv_has_header_and_rows(self):
        text = TidyFrame(make_rows()).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("engine,")
        assert len(lines) == 1 + 6

    def test_to_pandas_gated(self):
        frame = TidyFrame(make_rows())
        if pandas_available():
            assert len(frame.to_pandas()) == 6
        else:
            with pytest.raises(ValidationError):
                frame.to_pandas()


class TestReport:
    def test_markdown_matches_golden(self):
        markdown = render_markdown(make_results())
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_markdown_carries_speedup_and_ci(self):
        markdown = render_markdown(make_results())
        assert "2.50x" in markdown
        assert "95% CI" in markdown
        assert "baseline engine: `baseline`" in markdown

    def test_html_mirrors_markdown_sections(self):
        results = make_results()
        page = render_html(results)
        assert "<table>" in page
        assert "Speedup matrix" in page
        assert "Experiment report: unit" in page

    def test_series_table_reads_the_summary_median(self):
        """With an even number of repeats the median is the mean of the
        two middle values; the Series table and the Summary table of one
        report print the same median for the same cell."""
        results = ExperimentResults(
            make_rows(engines=(("baseline", (0.1, 0.3)),)),
            config={"seed": 7},
        )
        markdown = render_markdown(results)
        series = markdown[markdown.index("## Series: kind=containment") :]
        assert "| baseline | N16g12-18 | 0.5 | 0.5 | 0.2000 | 10 | 5 |" in series
        summary = markdown[: markdown.index("## Speedup matrix")]
        assert "| 0.2000 |" in summary

    def test_trend_section_rendered_when_trajectory_given(self):
        history = [
            {
                "label": "seed",
                "meta": {},
                "benches": {"imgrn:cell": {"seconds": 0.2}},
                "samples": {},
            }
        ]
        markdown = render_markdown(make_results(), trajectory=history)
        assert "## Trajectory" in markdown
        assert "imgrn:cell.seconds" in markdown
