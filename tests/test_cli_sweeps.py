"""CLI integration coverage: every figure subcommand at micro scale.

Complements ``test_cli.py`` (which runs ``gamma``): each driver
subcommand is executed through ``main()`` with the smallest workable
configuration, asserting it prints the figure's table header and exits
cleanly.
"""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["alpha", "--n-matrices", "8", "--queries", "1", "--seed", "3"],
         "fig8_alpha"),
        (["query-size", "--n-matrices", "8", "--queries", "1", "--seed", "3"],
         "fig10_query_size"),
        (["database-size", "--queries", "1", "--seed", "3"],
         "fig12_database_size"),
        (["pivots", "--n-matrices", "8", "--queries", "1", "--seed", "3"],
         "fig9_pivots"),
        (["matrix-size", "--n-matrices", "6", "--queries", "1", "--seed", "3"],
         "fig11_matrix_size"),
        (["vs-baseline", "--n-matrices", "6", "--queries", "1",
          "--linear-scan", "--seed", "3"],
         "fig6_vs_baseline"),
    ],
)
def test_sweep_subcommands(argv, expected, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert expected in out
    assert "cpu_seconds" in out


def test_vs_baseline_rows_per_dataset_and_engine(capsys):
    code = main(
        ["vs-baseline", "--n-matrices", "6", "--queries", "1", "--linear-scan",
         "--seed", "3"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    body = [line.split()[:2] for line in lines[3:]]
    assert body == [
        [dataset, engine]
        for dataset in ("real", "uni", "gau")
        for engine in ("imgrn", "baseline", "linear-scan")
    ]


def test_index_build_subcommand(capsys):
    code = main(["index-build", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fig13_index_build" in out
    assert "build_seconds" in out and "index_pages" in out
    assert "range[50,100]" in out and "N=200" in out


def test_pcorr_subcommand(capsys):
    code = main(["pcorr", "--genes", "24", "--mc-samples", "40", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pcorr" in out


def test_plot_flag(capsys):
    code = main(
        ["roc", "--genes", "24", "--mc-samples", "40", "--seed", "3", "--plot"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "TPR" in out and "FPR" in out
