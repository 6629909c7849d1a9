"""Tests for experiment configs, the runner, and the experiment CLI."""

from __future__ import annotations

import json

import pytest

from repro import EngineConfig, MeasureScanEngine, ObservabilityConfig, QuerySpec
from repro.cli import main
from repro.errors import ValidationError
from repro.eval.harness import (
    ENGINE_REGISTRY,
    ExperimentConfig,
    ExperimentRunner,
    ScaleSpec,
    load_config,
)

TOML_TEXT = """
[experiment]
name = "tiny"
seed = 3
repeats = 2
baseline_engine = "baseline"
engines = ["imgrn", "baseline"]

[workload]
kinds = ["containment"]
weights = ["uni"]
gammas = [0.5]
alphas = [0.5]
n_q = 3
num_queries = 2

[[scale]]
n_matrices = 6
genes_range = [8, 10]
"""


def tiny_config(**overrides):
    defaults = {
        "name": "tiny",
        "engines": ("imgrn", "baseline"),
        "baseline_engine": "baseline",
        "kinds": ("containment",),
        "weights": ("uni",),
        "scales": (ScaleSpec(6, (8, 10)),),
        "gammas": (0.5,),
        "alphas": (0.5,),
        "n_q": 3,
        "num_queries": 2,
        "repeats": 2,
        "seed": 3,
    }
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_results():
    return ExperimentRunner(tiny_config()).run()


class TestConfig:
    def test_toml_parses(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(TOML_TEXT, encoding="utf-8")
        config = load_config(path)
        assert config == tiny_config()

    def test_json_parses_roundtrip_shape(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_config().to_dict()), encoding="utf-8")
        assert load_config(path) == tiny_config()

    def test_unknown_experiment_key_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            TOML_TEXT.replace('seed = 3', 'seed = 3\ntypo_key = 1'),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="typo_key"):
            load_config(path)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            tiny_config(engines=("imgrn", "warp-drive"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            tiny_config(kinds=("teleport",))

    def test_out_of_range_gamma_rejected(self):
        with pytest.raises(ValidationError, match="gamma"):
            tiny_config(gammas=(1.5,))

    def test_scales_required(self):
        with pytest.raises(ValidationError, match="scale"):
            tiny_config(scales=())

    def test_missing_name_rejected(self):
        with pytest.raises(ValidationError, match="name"):
            ExperimentConfig.from_dict({"experiment": {"seed": 1}})

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("name: tiny", encoding="utf-8")
        with pytest.raises(ValidationError, match="suffix"):
            load_config(path)

    def test_scale_label_stable(self):
        assert ScaleSpec(16, (12, 18)).label == "N16g12-18"

    def test_registry_covers_config_engines(self):
        for name in tiny_config().engines:
            assert name in ENGINE_REGISTRY


class TestRunner:
    def test_row_count_is_full_cross_product(self, tiny_results):
        # 2 engines x 1 kind x 1 gamma x 1 alpha x 1 scale x 2 repeats
        assert len(tiny_results.rows) == 4

    def test_rows_carry_axes_and_provenance(self, tiny_results):
        row = tiny_results.rows[0]
        for column in (
            "engine",
            "kind",
            "weights",
            "scale",
            "gamma",
            "alpha",
            "repeat",
            "seconds",
            "io_accesses",
            "candidates",
            "answers",
            "build_seconds",
            "git_hash",
            "cpu_count",
        ):
            assert column in row

    def test_counters_deterministic_across_repeats(self, tiny_results):
        frame = tiny_results.frame
        for engine in ("imgrn", "baseline"):
            rows = frame.filter(engine=engine).records()
            assert len(rows) == 2
            assert rows[0]["io_accesses"] == rows[1]["io_accesses"]
            assert rows[0]["answers"] == rows[1]["answers"]

    def test_engines_agree_on_answers(self, tiny_results):
        frame = tiny_results.frame
        imgrn = frame.filter(engine="imgrn").records()[0]
        base = frame.filter(engine="baseline").records()[0]
        assert imgrn["answers"] == base["answers"]

    def test_prime_skips_rebuild(self):
        config = tiny_config(engines=("imgrn",), baseline_engine="imgrn")
        primed = ExperimentRunner(config)
        source = ExperimentRunner(config)
        scale = config.scales[0]
        engine = source._engine("imgrn", "uni", scale)
        queries = source._workload("uni", scale)
        primed.prime("imgrn", "uni", scale, engine, queries)
        results = primed.run()
        assert primed._engines[("imgrn", "uni", scale.label)] is engine
        assert all(row["build_seconds"] == 0.0 for row in results.rows)

    def test_measure_scan_runs_with_its_default_measure(self):
        """The registry's engines take ``config`` by keyword: passed
        positionally it would land in MeasureScanEngine's ``measure``."""
        config = tiny_config(
            engines=("imgrn", "measure-scan"), baseline_engine="imgrn", repeats=1
        )
        runner = ExperimentRunner(config)
        results = runner.run()
        scale = config.scales[0]
        database = runner._database("uni", scale)
        reference = MeasureScanEngine(
            database,
            config=EngineConfig(
                seed=config.seed,
                observability=ObservabilityConfig(shared_registry=False),
            ),
        )
        reference.build()
        expected = [
            reference.execute(QuerySpec(q, 0.5, 0.5))
            for q in runner._workload("uni", scale)
        ]
        engine = runner._engines[("measure-scan", "uni", scale.label)]
        got = [
            engine.execute(QuerySpec(q, 0.5, 0.5))
            for q in runner._workload("uni", scale)
        ]
        assert [
            [(a.source_id, a.probability) for a in r.answers] for r in got
        ] == [[(a.source_id, a.probability) for a in r.answers] for r in expected]
        (row,) = results.frame.filter(engine="measure-scan").records()
        assert row["answers"] == sum(len(r.answers) for r in expected)
        assert row["candidates"] == sum(r.stats.candidates for r in expected)

    def test_topk_axis_has_no_alpha(self):
        config = tiny_config(kinds=("topk",), repeats=1)
        results = ExperimentRunner(config).run()
        assert all(row["alpha"] is None for row in results.rows)
        assert all(row["k"] == config.k for row in results.rows)


class TestExperimentCLI:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(TOML_TEXT, encoding="utf-8")
        return path

    def test_run_report_compare_archive_cycle(
        self, config_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "exp"
        assert (
            main(
                [
                    "experiment",
                    "run",
                    "--config",
                    str(config_path),
                    "--out-dir",
                    str(out_dir),
                    "--label",
                    "T1",
                    "--csv",
                ]
            )
            == 0
        )
        assert (out_dir / "results.json").is_file()
        assert (out_dir / "BENCH_T1.json").is_file()
        assert (out_dir / "results.csv").is_file()

        html = out_dir / "report.html"
        assert (
            main(
                [
                    "experiment",
                    "report",
                    "--results",
                    str(out_dir / "results.json"),
                    "--html",
                    str(html),
                ]
            )
            == 0
        )
        markdown = (out_dir / "report.md").read_text(encoding="utf-8")
        assert "Speedup matrix" in markdown
        assert "95% CI" in markdown
        assert html.read_text(encoding="utf-8").startswith("<!doctype html>")

        archive = tmp_path / "trajectory"
        archive.mkdir()
        assert (
            main(
                [
                    "experiment",
                    "compare",
                    "--new",
                    str(out_dir / "BENCH_T1.json"),
                    "--history",
                    str(archive),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "experiment",
                    "archive",
                    "--bench",
                    str(out_dir / "BENCH_T1.json"),
                    "--dir",
                    str(archive),
                    "--keep",
                    "5",
                    "--label",
                    "gh1",
                ]
            )
            == 0
        )
        assert (archive / "BENCH_gh1.json").is_file()
        # Self-comparison against the archived entry still passes.
        assert (
            main(
                [
                    "experiment",
                    "compare",
                    "--new",
                    str(out_dir / "BENCH_T1.json"),
                    "--history",
                    str(archive),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trajectory gate passed" in out

    def test_compare_fails_on_regression(self, tmp_path):
        from repro.eval.harness.trajectory import bench_payload, write_bench

        archive = tmp_path / "trajectory"
        meta = {"host": "pin", "timestamp": 0.0}
        write_bench(
            bench_payload(
                {"smoke": {"seconds": [0.10, 0.11, 0.10, 0.11, 0.10]}},
                label="old",
                meta=meta,
            ),
            archive / "BENCH_old.json",
        )
        slow = tmp_path / "BENCH_slow.json"
        write_bench(
            bench_payload(
                {"smoke": {"seconds": [0.30, 0.31, 0.30, 0.31, 0.30]}},
                label="slow",
                meta={"host": "pin", "timestamp": 1.0},
            ),
            slow,
        )
        assert (
            main(
                [
                    "experiment",
                    "compare",
                    "--new",
                    str(slow),
                    "--history",
                    str(archive),
                ]
            )
            == 1
        )
