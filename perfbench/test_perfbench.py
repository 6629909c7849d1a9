"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

They are not part of the repository's tier-1 suite (``testpaths`` is
``tests``); each tiny run takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, serving  # noqa: E402
from perfbench.common import FAILURE_CAUSES  # noqa: E402
from perfbench.inprocess import Executor, engine_config, oracle_mismatches  # noqa: E402
from perfbench.workloads import WORKLOADS, QueryStream  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
    )


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    # live runs on demand but is not gated (see README.md).
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["atlas", "panel"]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_completes(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--tiny",
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(summary["metrics"]) == set(expected)


def _tiny_records():
    workload = WORKLOADS["panel"].tiny()
    database = workload.database()
    from repro import IMGRNEngine

    engine = IMGRNEngine(database, engine_config(workload, False))
    engine.build()
    executor = Executor(engine, False)
    executor.run(QueryStream(workload, database, 5).take(6))
    return database, executor.records


def test_oracle_accepts_true_answers_and_rejects_a_tampered_one():
    database, records = _tiny_records()
    config = engine_config(WORKLOADS["panel"], False)
    assert oracle_mismatches(database, records, config) == []
    victim = next(i for i, r in enumerate(records) if r.answers)
    source, probability = records[victim].answers[0]
    records[victim].answers[0] = (source, probability * 0.5)
    assert oracle_mismatches(database, records, config) == [victim]


def test_served_answer_check_counts_a_tampered_response():
    reference = [[(3, 0.75)], [(5, 0.5)]]
    good = serving.Outcome(0, "topk", 0.0, 0.0, 1.0,
                           {"status": "ok", "answers": [{"source_id": 3, "probability": 0.75}]})
    tampered = serving.Outcome(1, "topk", 0.0, 0.0, 1.0,
                               {"status": "ok", "answers": [{"source_id": 5, "probability": 0.4}]})
    died = serving.Outcome(1, "topk", 0.0, 0.0, 1.0,
                           {"status": "error", "error": "worker died: EOFError"})
    retired = serving.Outcome(
        1, "topk", 0.0, 0.0, 1.0,
        {"status": "error", "error": "ReproError: process pool has no idle worker"},
    )
    failures: dict = {}
    wrong = serving.check_outcomes(
        [good, tampered, died, retired], [reference], [], failures
    )
    assert wrong == 1
    assert failures == {"wrong_answer": 1, "worker_died": 1, "pool_retired": 1}


def test_answer_from_either_side_of_a_republish_is_accepted():
    # Generation 1 published at t=2, reloaded at t=3; a request in flight
    # across it may be answered by either generation.
    events = [(2.0, 3.0)]
    across = serving.Outcome(0, "containment", 1.5, 1.5, 2.5, None)
    after = serving.Outcome(0, "containment", 3.5, 3.5, 4.0, None)
    assert list(serving.generation_bounds(across, events)) == [0, 1]
    assert list(serving.generation_bounds(after, events)) == [1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "atlas", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _session_members(sid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                found.append(int(entry.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_no_process_outlives_a_run(trace):
    # Runs in a session of its own: whatever is left in that session
    # once the run has exited is a process the benchmark did not stop.
    done = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "atlas", "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert done.wait(timeout=175) == 0
    assert _session_members(done.pid) == []


def test_live_failure_tally_adds_up():
    # Republishing over the served directory can race the workers'
    # mapped files, so failures may occur; the run must still finish,
    # its causes must add up to ``failed``, and a wrong answer must be
    # what makes it exit 1.
    done = _run(
        "--workload", "live", "--seed", "3", "--seconds", "2",
        "--trace", "0", "--tiny",
    )
    assert done.returncode in (0, 1), done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    tally = next(line for line in done.stdout.splitlines() if "causes=" in line)
    causes = json.loads(tally.split("causes=", 1)[1])
    assert set(causes) == set(FAILURE_CAUSES)
    assert sum(causes.values()) == summary["failed"] <= summary["attempted"]
    assert summary["correct"] == (causes["wrong_answer"] == 0)
    assert done.returncode == (0 if summary["correct"] else 1)
