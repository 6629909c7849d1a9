"""Concurrent query-serving layer: correctness under threads.

The stress test is the PR's acceptance gate: an N-thread
:class:`~repro.serve.QueryServer` batch must return answers and
per-query count stats bit-identical to the serial engine. CI runs this
file with ``PYTHONFAULTHANDLER=1`` and ``IMGRN_STRESS_THREADS=8``.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import (
    IMGRNResult,
    QueryServer,
    QuerySpec,
    ServeConfig,
    ValidationError,
)
from repro.core.query import IMGRNEngine
from repro.eval.counters import QueryStats
from repro.obs import names as _names

STRESS_THREADS = int(os.environ.get("IMGRN_STRESS_THREADS", "8"))

#: Count fields of QueryStats that must be exact under concurrency
#: (timing fields are wall-clock and legitimately vary).
COUNT_FIELDS = ("io_accesses", "candidates", "answers", "pruned_pairs")


def make_specs(query_workload, gammas=(0.3, 0.5, 0.7)):
    return [
        QuerySpec(matrix, gamma, 0.2)
        for matrix in query_workload
        for gamma in gammas
    ]


class TestStressBitIdentity:
    def test_concurrent_batch_matches_serial(
        self, built_engine: IMGRNEngine, query_workload
    ):
        """N threads x full workload: answers + count stats bit-identical."""
        specs = make_specs(query_workload)
        serial = [
            built_engine.query(s.matrix, gamma=s.gamma, alpha=s.alpha)
            for s in specs
        ]
        with QueryServer(
            built_engine,
            ServeConfig(max_workers=STRESS_THREADS),
        ) as server:
            outcomes = server.batch(specs)
        assert [o.index for o in outcomes] == list(range(len(specs)))
        for outcome, reference in zip(outcomes, serial):
            assert outcome.status == "ok"
            result = outcome.result
            assert result.answer_sources() == reference.answer_sources()
            assert [a.probability for a in result.answers] == [
                a.probability for a in reference.answers
            ]
            assert sorted(result.query_graph.edges()) == sorted(
                reference.query_graph.edges()
            )
            for field in COUNT_FIELDS:
                assert getattr(result.stats, field) == getattr(
                    reference.stats, field
                ), field

    def test_stats_exact_under_repeated_concurrency(
        self, built_engine: IMGRNEngine, query_workload
    ):
        """Per-query metrics deltas stay exact across repeated rounds.

        Every non-timing entry of each concurrent delta (keys, order and
        values) equals the serial one, and the shared registry grows by
        exactly the sum of the deltas. The serial reference runs on a
        warmed estimator cache, so cache-dependent refinement counters
        cannot differ between the serial and the concurrent rounds.
        """
        specs = make_specs(query_workload, gammas=(0.5,))
        for spec in specs:
            built_engine.execute(spec)
        reference = [
            built_engine.query(s.matrix, gamma=s.gamma, alpha=s.alpha)
            for s in specs
        ]
        registry = built_engine.obs.metrics
        mark = registry.mark()
        summed: dict[str, float] = {}
        with QueryServer(
            built_engine,
            ServeConfig(max_workers=STRESS_THREADS),
        ) as server:
            for _round in range(3):
                for outcome, ref in zip(server.batch(specs), reference):
                    metrics = outcome.result.metrics
                    stats = QueryStats.from_metrics(metrics)
                    for field in COUNT_FIELDS:
                        assert getattr(stats, field) == getattr(
                            ref.stats, field
                        )
                    assert _untimed(metrics) == _untimed(ref.metrics)
                    for key, value in metrics.items():
                        summed[key] = summed.get(key, 0.0) + value
        grown = registry.since(mark)
        folded = [
            key
            for key in summed
            if key.startswith(
                (_names.QUERY_COUNT, _names.QUERY_PRUNED, "refine.")
            )
        ]
        assert any(k.startswith(_names.QUERY_PRUNED) for k in folded)
        assert any(k.startswith("refine.") for k in folded)
        assert {k: grown[k] for k in folded} == {k: summed[k] for k in folded}


def _untimed(metrics: dict[str, float]) -> list[tuple[str, float]]:
    """A delta's entries in order, without the wall-clock stage sums."""
    return [
        (key, value)
        for key, value in metrics.items()
        if not (key.startswith(_names.STAGE_SECONDS) and key.endswith("_sum"))
    ]


class _SleepyEngine:
    """Stub engine: sleeps, then fails N times before passing."""

    def __init__(self, sleep_seconds=0.0, fail_times=0):
        self.sleep_seconds = sleep_seconds
        self.fail_times = fail_times
        self.calls = 0
        self._lock = threading.Lock()

    is_built = True

    def build(self) -> float:
        return 0.0

    def query(self, matrix, *, gamma, alpha) -> IMGRNResult:
        with self._lock:
            self.calls += 1
            remaining = self.fail_times
            if remaining > 0:
                self.fail_times -= 1
        if self.sleep_seconds:
            time.sleep(self.sleep_seconds)
        if remaining > 0:
            raise RuntimeError("flaky backend")
        return IMGRNResult(None, [], QueryStats(answers=0))

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        return self.query(spec.matrix, gamma=spec.gamma, alpha=spec.alpha)


class TestDegradation:
    def test_timeout_yields_structured_outcome(self, query_workload):
        engine = _SleepyEngine(sleep_seconds=0.5)
        config = ServeConfig(max_workers=2, timeout_seconds=0.05)
        with QueryServer(engine, config) as server:
            outcome = server.query(query_workload[0], gamma=0.5, alpha=0.2)
        assert outcome.status == "timeout"
        assert not outcome.ok
        assert outcome.result is None
        assert "deadline" in outcome.error
        assert outcome.seconds >= 0.05
        assert outcome.answer_sources() == []

    def test_timeout_does_not_poison_batch(self, built_engine, query_workload):
        """A stuck query degrades alone; real queries still serve."""
        sleepy = _SleepyEngine(sleep_seconds=0.5)

        class _Hybrid:
            obs = built_engine.obs

            def execute(self, spec):
                if spec.gamma > 0.8:  # the poisoned spec
                    return sleepy.execute(spec)
                return built_engine.execute(spec)

        specs = [
            QuerySpec(query_workload[0], 0.5, 0.2),
            QuerySpec(query_workload[1], 0.9, 0.2),
            QuerySpec(query_workload[2], 0.5, 0.2),
        ]
        config = ServeConfig(max_workers=3, timeout_seconds=0.2)
        with QueryServer(_Hybrid(), config) as server:
            outcomes = server.batch(specs)
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]

    def test_engine_error_fails_fast(self, query_workload):
        """An engine exception degrades to one ``error`` outcome: the
        engine is called once and the batch does not raise."""
        engine = _SleepyEngine(fail_times=5)
        with QueryServer(engine, ServeConfig(max_workers=1)) as server:
            outcome = server.query(query_workload[0], gamma=0.5, alpha=0.2)
        assert outcome.status == "error"
        assert outcome.error == "RuntimeError: flaky backend"
        assert engine.calls == 1


class TestValidation:
    def test_invalid_thresholds_rejected_at_spec_construction(
        self, query_workload
    ):
        """A QuerySpec validates eagerly: bad thresholds can never reach
        a server, an engine, or the daemon."""
        with pytest.raises(ValidationError, match="gamma"):
            QuerySpec(query_workload[0], 1.5, 0.2)
        with pytest.raises(ValidationError, match="alpha"):
            QuerySpec(query_workload[0], 0.5, -0.1)
        with pytest.raises(ValidationError, match="k"):
            QuerySpec(query_workload[0], 0.5, kind="topk", k=0)
        with pytest.raises(ValidationError, match="edge_budget"):
            QuerySpec(
                query_workload[0], 0.5, 0.2, kind="similarity", edge_budget=-1
            )
        with pytest.raises(ValidationError, match="kind"):
            QuerySpec(query_workload[0], 0.5, 0.2, kind="regex")

    def test_one_bad_item_fails_whole_batch_upfront(
        self, built_engine, query_workload
    ):
        """Non-spec items are rejected before anything is dispatched."""
        specs = [
            QuerySpec(query_workload[0], 0.5, 0.2),
            query_workload[1],  # a raw matrix, not a QuerySpec
        ]
        with QueryServer(built_engine, ServeConfig(max_workers=1)) as server:
            mark = built_engine.obs.metrics.mark()
            with pytest.raises(ValidationError, match="QuerySpec"):
                server.batch(specs)
            # Nothing was served: the serve.queries counters never moved.
            delta = built_engine.obs.metrics.since(mark)
            assert not any(
                key.startswith(_names.SERVE_QUERIES) and value
                for key, value in delta.items()
            )

    def test_closed_server_rejects_batches(self, built_engine, query_workload):
        server = QueryServer(built_engine, ServeConfig(max_workers=1))
        server.close()
        with pytest.raises(ValidationError, match="closed"):
            server.batch([QuerySpec(query_workload[0], 0.5, 0.2)])

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            ServeConfig(max_workers=0)
        with pytest.raises(ValidationError):
            ServeConfig(timeout_seconds=0.0)
        with pytest.raises(ValidationError):
            ServeConfig(timeout_seconds=-1.0)
        assert ServeConfig(timeout_seconds=None).timeout_seconds is None


class TestEngineValidation:
    """Satellite 1: gamma domain enforced uniformly across engines."""

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
    def test_imgrn_rejects_out_of_range_gamma(
        self, built_engine, query_workload, gamma
    ):
        with pytest.raises(ValidationError, match="gamma"):
            built_engine.query(query_workload[0], gamma=gamma, alpha=0.2)

    @pytest.mark.parametrize("engine_name", ["baseline", "linear", "measure"])
    def test_scan_engines_reject_out_of_range_gamma(
        self, small_database, query_workload, engine_name
    ):
        from repro import (
            BaselineEngine,
            EngineConfig,
            LinearScanEngine,
            MeasureScanEngine,
        )

        cls = {
            "baseline": BaselineEngine,
            "linear": LinearScanEngine,
            "measure": MeasureScanEngine,
        }[engine_name]
        engine = cls(small_database, config=EngineConfig(mc_samples=16, seed=11))
        engine.build()
        with pytest.raises(ValidationError, match="gamma"):
            engine.query(query_workload[0], gamma=1.2, alpha=0.2)


class TestTopkWrapper:
    def test_positional_topk_raises(self, built_engine, query_workload):
        """The PR-3 deprecation shim completed its cycle: positional
        thresholds now raise instead of warning."""
        with pytest.raises(TypeError, match="positional"):
            built_engine.query_topk(query_workload[0], 0.5, 2)
        with pytest.raises(TypeError):
            built_engine.query_topk(query_workload[0])

    def test_keyword_topk_matches_spec_execute(
        self, built_engine, query_workload
    ):
        query = query_workload[0]
        keyword = built_engine.query_topk(query, gamma=0.5, k=2)
        via_spec = built_engine.execute(
            QuerySpec(query, 0.5, kind="topk", k=2)
        )
        assert keyword.answer_sources() == via_spec.answer_sources()

    def test_topk_gamma_validated(self, built_engine, query_workload):
        with pytest.raises(ValidationError, match="gamma"):
            built_engine.query_topk(query_workload[0], gamma=1.5, k=2)


class TestServeMetrics:
    def test_serve_series_recorded(self, built_engine, query_workload):
        specs = make_specs(query_workload, gammas=(0.4,))
        mark = built_engine.obs.metrics.mark()
        with QueryServer(built_engine, ServeConfig(max_workers=2)) as server:
            server.batch(specs)
            server.batch(specs)
        delta = built_engine.obs.metrics.since(mark)
        label = 'engine="imgrn"'
        ok_key = f'{_names.SERVE_QUERIES}{{{label},status="ok"}}'
        assert delta[ok_key] == 2 * len(specs)
        assert (
            delta[f"{_names.SERVE_QUERY_SECONDS}{{{label}}}_count"]
            == 2 * len(specs)
        )
        assert delta[f"{_names.SERVE_BATCH_SECONDS}{{{label}}}_count"] == 2

    def test_stream_yields_in_input_order(self, built_engine, query_workload):
        specs = make_specs(query_workload, gammas=(0.6,))
        with QueryServer(built_engine, ServeConfig(max_workers=4)) as server:
            indices = [o.index for o in server.stream(specs)]
        assert indices == list(range(len(specs)))


class TestServeCorrectnessFixes:
    """Regression tests for the daemon PR's serve-layer bugfixes."""

    def test_stream_submits_eagerly_without_consumption(self, query_workload):
        """stream() must dispatch the whole batch before any next().

        Regression: the old generator-bodied stream() submitted nothing
        until first iteration, so a caller that pipelined work before
        consuming outcomes got zero concurrency.
        """
        engine = _SleepyEngine()
        specs = [QuerySpec(m, 0.5, 0.5) for m in query_workload]
        with QueryServer(engine, ServeConfig(max_workers=len(specs))) as server:
            iterator = server.stream(specs)
            deadline = time.time() + 5.0
            while engine.calls < len(specs) and time.time() < deadline:
                time.sleep(0.01)
            # All queries executed although the iterator was never consumed.
            assert engine.calls == len(specs)
            outcomes = list(iterator)
        assert [o.index for o in outcomes] == list(range(len(specs)))
        assert all(o.status == "ok" for o in outcomes)

    def test_late_completion_recorded(self, query_workload):
        """A worker finishing after its reported timeout is counted under
        ``serve.late_completions`` with its own status."""
        engine = _SleepyEngine(sleep_seconds=0.4)
        server = QueryServer(
            engine, ServeConfig(max_workers=1, timeout_seconds=0.05)
        )
        mark = server.obs.metrics.mark()
        spec = QuerySpec(query_workload[0], 0.5, 0.5)
        with server:
            (first,) = server.batch([spec])
            assert first.status == "timeout"
            deadline = time.time() + 5.0
            label = f'engine="{server.engine_label}"'
            late_key = (
                f'{_names.SERVE_LATE_COMPLETIONS}{{{label},status="ok"}}'
            )
            while (
                server.obs.metrics.since(mark).get(late_key, 0.0) < 1
                and time.time() < deadline
            ):
                time.sleep(0.02)
            assert server.obs.metrics.since(mark)[late_key] == 1
        assert engine.calls == 1
