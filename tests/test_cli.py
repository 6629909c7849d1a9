"""Unit tests for the ``imgrn`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_roc_defaults(self):
        args = build_parser().parse_args(["roc"])
        assert args.experiment == "roc"
        assert args.organism == "ecoli"

    def test_unknown_organism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["roc", "--organism", "yeti"])

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["gamma", "--n-matrices", "30", "--queries", "4"]
        )
        assert args.n_matrices == 30
        assert args.queries == 4

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in (
            "roc",
            "pcorr",
            "inference-time",
            "vs-baseline",
            "gamma",
            "alpha",
            "pivots",
            "query-size",
            "matrix-size",
            "database-size",
            "index-build",
        ):
            assert parser.parse_args([name]).experiment == name


class TestMain:
    def test_roc_prints_summary(self, capsys):
        code = main(["roc", "--genes", "24", "--mc-samples", "40", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "imgrn" in out
        assert "AUC" in out

    def test_inference_time_prints_table(self, capsys):
        code = main(["inference-time", "--sizes", "16", "20", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig5b_inference_time" in out
        assert "imgrn_seconds" in out

    def test_gamma_sweep_small(self, capsys):
        code = main(["gamma", "--n-matrices", "8", "--queries", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig7_gamma" in out


class TestReport:
    def test_report_collates_outputs(self, tmp_path, capsys):
        (tmp_path / "fig_demo.txt").write_text("== demo ==\nrow 1\n")
        code = main(["report", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "### fig_demo" in out
        assert "row 1" in out

    def test_report_missing_dir(self, tmp_path, capsys):
        code = main(["report", "--out-dir", str(tmp_path / "nope")])
        assert code == 1
        assert "no bench outputs" in capsys.readouterr().out


class TestServeBatch:
    def test_serve_batch_matches_engine_execute(self, capsys):
        """``imgrn serve-batch`` serves every query ``ok`` on each round,
        and its answers equal ``engine.execute`` on the same specs."""
        from repro import (
            EngineConfig,
            IMGRNEngine,
            QuerySpec,
            SyntheticConfig,
            generate_database,
            generate_query_workload,
        )

        seed, n_matrices, queries = 5, 10, 6
        gamma, alpha = 0.3, 0.2
        code = main(
            [
                "serve-batch",
                "--n-matrices",
                str(n_matrices),
                "--genes-range",
                "12",
                "16",
                "--queries",
                str(queries),
                "--gamma",
                str(gamma),
                "--alpha",
                str(alpha),
                "--seed",
                str(seed),
                "--serve-workers",
                "2",
                "--timeout",
                "30",
                "--repeat",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"round 0: {queries} ok in" in out
        assert f"round 1: {queries} ok in" in out
        served = {}
        for line in out.splitlines():
            if line.startswith("  query "):
                head, _, answers = line.partition("answers=")
                index = int(head.split()[1].rstrip(":"))
                assert head.split()[2] == "ok,"
                served[index] = answers
        assert sorted(served) == list(range(queries))

        database = generate_database(
            SyntheticConfig(genes_range=(12, 16), seed=seed), n_matrices
        )
        engine = IMGRNEngine(database, config=EngineConfig(seed=seed))
        engine.build()
        workload = generate_query_workload(database, 4, count=queries, rng=seed)
        expected = [
            engine.execute(QuerySpec(m, gamma, alpha)).answer_sources()
            for m in workload
        ]
        assert any(expected)  # the comparison is not vacuous
        assert [served[i] for i in range(queries)] == [
            str(sources) for sources in expected
        ]
