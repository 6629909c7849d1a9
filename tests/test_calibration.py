"""Tests for the calibration study of the probabilistic measure."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.eval.calibration import (
    NULL_DISTRIBUTIONS,
    calibration_table,
    false_edge_rate,
    null_measure_samples,
    uniformity_report,
)
from repro.errors import ValidationError


class TestNullSamples:
    @pytest.mark.parametrize("distribution", sorted(NULL_DISTRIBUTIONS))
    def test_null_measure_is_calibrated(self, distribution):
        """The headline claim: uniform null for ANY sample distribution."""
        values = null_measure_samples(
            distribution, n_pairs=150, length=18, mc_samples=150, rng=5
        )
        report = uniformity_report(values)
        assert 0.42 < report["mean"] < 0.58
        assert report["ks_statistic"] < 0.12

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValidationError):
            null_measure_samples("bimodal")

    def test_values_in_unit_interval(self):
        values = null_measure_samples("gaussian", n_pairs=30, rng=1)
        assert np.all((values >= 0.0) & (values <= 1.0))


class TestFalseEdgeRate:
    def test_empirical_tracks_nominal(self):
        values = null_measure_samples(
            "gaussian", n_pairs=400, length=18, mc_samples=200, rng=9
        )
        for row in false_edge_rate(values):
            assert row["empirical_fpr"] == pytest.approx(
                row["nominal_fpr"], abs=0.07
            )

    def test_gamma_domain(self):
        with pytest.raises(ValidationError):
            false_edge_rate(np.array([0.5, 0.6]), gammas=(1.0,))


class TestUniformityReport:
    def test_uniform_input_scores_well(self, rng):
        report = uniformity_report(rng.uniform(size=500))
        assert report["ks_statistic"] < 0.07
        assert report["ks_pvalue"] > 0.01

    def test_point_mass_scores_poorly(self):
        report = uniformity_report(np.full(100, 0.9))
        assert report["ks_statistic"] > 0.5

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            uniformity_report(np.array([0.5]))


class TestCalibrationTable:
    def test_permutation_beats_parametric_off_gaussian(self):
        result = calibration_table(n_pairs=80, length=16, mc_samples=120, seed=3)
        rows = {row["distribution"]: row for row in result.rows}
        assert set(rows) == set(NULL_DISTRIBUTIONS)
        # Permutation stays near-uniform everywhere.
        for row in rows.values():
            assert 0.38 < row["perm_mean"] < 0.62
        # On heavy-tailed data the parametric measure is farther from
        # uniform than the permutation measure.
        heavy = rows["heavy_tailed"]
        assert heavy["param_ks"] > heavy["perm_ks"]

    def test_table_independent_of_hash_seed(self):
        """The parametric stream must not depend on ``hash(name)``, which
        is salted per process: two interpreters with different
        ``PYTHONHASHSEED`` values build the identical table."""
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import json\n"
            "from repro.eval.calibration import calibration_table\n"
            "result = calibration_table(n_pairs=80, length=16, "
            "mc_samples=120, seed=3)\n"
            "print(json.dumps(result.rows))\n"
        )
        tables = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            tables.append(json.loads(completed.stdout))
        assert tables[0] == tables[1]
