"""Unit tests for the reporting layer (figure tables + ASCII ROC plots)."""

from __future__ import annotations

from repro.eval.harness.report import text_table
from repro.eval.roc import (
    ROCCurve,
    ROCPoint,
    format_roc_summary,
    render_roc_ascii,
)


def toy_curves() -> dict[str, ROCCurve]:
    good = ROCCurve(
        "good",
        tuple(
            ROCPoint(threshold=t, fpr=max(0.0, t - 0.5) * 2, tpr=min(1.0, t * 2))
            for t in (0.1, 0.3, 0.5, 0.7, 0.9)
        ),
    )
    bad = ROCCurve(
        "bad",
        tuple(ROCPoint(threshold=t, fpr=t, tpr=t) for t in (0.1, 0.5, 0.9)),
    )
    return {"good": good, "bad": bad}


class TestAsciiPlot:
    def test_dimensions(self):
        plot = render_roc_ascii(toy_curves(), width=41, height=11)
        lines = plot.splitlines()
        body = [ln for ln in lines if ln.startswith(("1.0 |", "0.0 |", "    |"))]
        assert len(body) == 11
        assert all(len(ln) == 5 + 41 for ln in body)

    def test_legend_lists_curves_with_auc(self):
        plot = render_roc_ascii(toy_curves())
        assert "good  (AUC" in plot
        assert "bad  (AUC" in plot

    def test_diagonal_reference_present(self):
        plot = render_roc_ascii({}, width=21, height=11)
        assert "." in plot

    def test_curve_glyphs_plotted(self):
        plot = render_roc_ascii(toy_curves())
        assert "*" in plot  # first (sorted) curve glyph
        assert "o" in plot  # second curve glyph


class TestFormatting:
    def test_roc_summary_contains_all_curves(self):
        summary = format_roc_summary(toy_curves())
        assert "good" in summary and "bad" in summary
        assert "AUC" in summary

    def test_table_mixed_types(self):
        table = text_table("mix", [{"name": "alpha", "value": 0.25, "count": 3.0}])
        assert "alpha" in table
        assert "0.25" in table
        assert "3" in table  # integral float rendered as int

    def test_table_scientific_notation_for_tiny_values(self):
        assert "e-07" in text_table("tiny", [{"v": 1.23e-7}])
