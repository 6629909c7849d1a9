"""Network serving daemon: admission, drain, reload, bit-identity.

End-to-end tests run a real :class:`repro.serve.QueryDaemon` on an
ephemeral port (in-thread via :func:`repro.serve.serve_in_background`,
or as a subprocess for the SIGTERM path) and talk to it through
:class:`repro.serve.DaemonClient`. The acceptance gates of the daemon
PR live here: process-backend answers bit-identical to the in-process
:class:`~repro.serve.QueryServer`, shedding at the queue bound,
per-client rate limiting, graceful drain finishing in-flight work, and
hot reload swapping fingerprints without dropping admitted requests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import (
    DaemonClient,
    DaemonConfig,
    EngineConfig,
    IMGRNResult,
    QueryDaemon,
    QueryServer,
    QuerySpec,
    ServeConfig,
    SyntheticConfig,
    ValidationError,
    generate_database,
    save_engine_sharded,
    serve_in_background,
)
from repro.core.query import IMGRNEngine
from repro.eval.counters import QueryStats
from repro.obs import names as _names
from repro.serve.daemon import _TokenBucketLimiter

COUNT_FIELDS = ("io_accesses", "candidates", "answers", "pruned_pairs")


class _SlowEngine:
    """Stub engine whose queries sleep; keeps workers busy on demand."""

    is_built = True

    def __init__(self, sleep_seconds: float = 0.0):
        self.sleep_seconds = sleep_seconds
        self.calls = 0
        self._lock = threading.Lock()

    def query(self, matrix, *, gamma, alpha) -> IMGRNResult:
        with self._lock:
            self.calls += 1
        if self.sleep_seconds:
            time.sleep(self.sleep_seconds)
        return IMGRNResult(None, [], QueryStats(answers=0))

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        return self.query(spec.matrix, gamma=spec.gamma, alpha=spec.alpha)


@pytest.fixture(scope="module")
def sharded_dir(built_engine, tmp_path_factory) -> Path:
    """The session engine, persisted as a sharded save."""
    directory = tmp_path_factory.mktemp("daemon_save")
    save_engine_sharded(built_engine, directory)
    return directory


def _serve(daemon: QueryDaemon):
    return serve_in_background(daemon)


# ----------------------------------------------------------------------
# Construction / config
# ----------------------------------------------------------------------
class TestConstruction:
    def test_requires_exactly_one_source(self, sharded_dir):
        with pytest.raises(ValidationError):
            QueryDaemon()
        with pytest.raises(ValidationError):
            QueryDaemon(index_dir=sharded_dir, engine=_SlowEngine())

    def test_engine_forces_thread_backend(self):
        daemon = QueryDaemon(
            engine=_SlowEngine(), config=DaemonConfig(backend="process")
        )
        assert daemon.config.backend == "thread"

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DaemonConfig(workers=0)
        with pytest.raises(ValidationError):
            DaemonConfig(backend="coroutine")
        with pytest.raises(ValidationError):
            DaemonConfig(queue_size=0)
        with pytest.raises(ValidationError):
            DaemonConfig(rate_limit_qps=-1.0)
        with pytest.raises(ValidationError):
            DaemonConfig(timeout_seconds=0.0)
        with pytest.raises(ValidationError):
            DaemonConfig(port=70000)
        assert DaemonConfig(timeout_seconds=None).timeout_seconds is None


class TestTokenBucket:
    def test_burst_then_refill(self):
        limiter = _TokenBucketLimiter(qps=1.0, burst=2)
        assert limiter.allow("a", now=0.0)
        assert limiter.allow("a", now=0.0)
        assert not limiter.allow("a", now=0.0)  # burst exhausted
        assert limiter.allow("a", now=1.0)  # one token refilled
        assert not limiter.allow("a", now=1.0)

    def test_clients_are_independent(self):
        limiter = _TokenBucketLimiter(qps=1.0, burst=1)
        assert limiter.allow("a", now=0.0)
        assert limiter.allow("b", now=0.0)
        assert not limiter.allow("a", now=0.0)

    def test_disabled_when_qps_zero(self):
        limiter = _TokenBucketLimiter(qps=0.0, burst=1)
        assert all(limiter.allow("a", now=0.0) for _ in range(100))


# ----------------------------------------------------------------------
# Bit-identity: network daemon vs in-process QueryServer
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_process_backend_matches_query_server(
        self, built_engine: IMGRNEngine, sharded_dir, query_workload
    ):
        """Forked mmap workers answer exactly like the in-process server."""
        specs = [
            QuerySpec(matrix, gamma, 0.2)
            for matrix in query_workload
            for gamma in (0.3, 0.6)
        ]
        with QueryServer(
            built_engine, ServeConfig(max_workers=2)
        ) as server:
            reference = server.batch(specs)

        daemon = QueryDaemon(
            index_dir=sharded_dir,
            config=DaemonConfig(workers=2, backend="process"),
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                for spec, ref in zip(specs, reference):
                    out = client.query(
                        spec.matrix, gamma=spec.gamma, alpha=spec.alpha
                    )
                    assert out["status"] == "ok", out
                    assert out["sources"] == ref.result.answer_sources()
                    got_probs = [a["probability"] for a in out["answers"]]
                    ref_probs = [a.probability for a in ref.result.answers]
                    assert got_probs == ref_probs  # bit-identical floats
                    for field_name in COUNT_FIELDS:
                        assert out["stats"][field_name] == getattr(
                            ref.result.stats, field_name
                        ), field_name
            finally:
                client.close()

    def test_all_kinds_roundtrip_bit_identical(
        self, built_engine: IMGRNEngine, sharded_dir, query_workload
    ):
        """Each workload kind through the wire == in-process execute()."""
        matrix = query_workload[0]
        specs = [
            QuerySpec(matrix, 0.5, 0.2),
            QuerySpec(matrix, 0.5, kind="topk", k=3),
            QuerySpec(matrix, 0.5, 0.2, kind="similarity", edge_budget=1),
        ]
        reference = [built_engine.execute(spec) for spec in specs]
        daemon = QueryDaemon(
            index_dir=sharded_dir,
            config=DaemonConfig(workers=2, backend="process"),
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                for spec, ref in zip(specs, reference):
                    out = client.query(
                        spec.matrix,
                        gamma=spec.gamma,
                        alpha=spec.alpha,
                        kind=spec.kind,
                        k=spec.k,
                        edge_budget=spec.edge_budget,
                    )
                    assert out["status"] == "ok", out
                    assert out["schema"] == 2
                    assert out["kind"] == spec.kind
                    assert out["sources"] == ref.answer_sources()
                    got = [
                        (a["source_id"], a["probability"])
                        for a in out["answers"]
                    ]
                    assert got == [
                        (a.source_id, a.probability) for a in ref.answers
                    ]
            finally:
                client.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_shed_under_queue_pressure(self):
        """Queue bound reached -> immediate structured shed, not a hang."""
        engine = _SlowEngine(sleep_seconds=0.4)
        daemon = QueryDaemon(
            engine=engine,
            config=DaemonConfig(
                backend="thread", workers=1, queue_size=1, timeout_seconds=None
            ),
        )
        from repro.data.synthetic import generate_matrix

        matrix = generate_matrix(SyntheticConfig(seed=3), source_id=0, rng=3)
        statuses: list[str] = []
        lock = threading.Lock()

        def fire():
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                out = client.query(matrix, gamma=0.5, alpha=0.5)
                with lock:
                    statuses.append(out["status"])
            finally:
                client.close()

        with _serve(daemon) as handle:
            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        assert len(statuses) == 6
        assert set(statuses) <= {"ok", "shed"}
        assert statuses.count("shed") >= 1  # load shedding engaged
        assert statuses.count("ok") >= 1  # admitted work still finished
        snapshot = daemon.obs.metrics.snapshot()
        shed_key = f'{_names.SERVE_SHED}{{reason="queue_full"}}'
        assert snapshot[shed_key] == statuses.count("shed")

    def test_rate_limit_rejection(self):
        """Per-client token bucket: burst passes, the rest bounce with 429."""
        daemon = QueryDaemon(
            engine=_SlowEngine(),
            config=DaemonConfig(
                backend="thread",
                workers=1,
                rate_limit_qps=0.001,  # effectively no refill mid-test
                rate_limit_burst=2,
            ),
        )
        from repro.data.synthetic import generate_matrix

        matrix = generate_matrix(SyntheticConfig(seed=3), source_id=0, rng=3)
        with _serve(daemon) as handle:
            client = DaemonClient(
                "127.0.0.1", handle.port, client_id="tester"
            )
            try:
                statuses = [
                    client.query(matrix, gamma=0.5, alpha=0.5)["status"]
                    for _ in range(5)
                ]
                # A different client identity has its own bucket.
                other = DaemonClient(
                    "127.0.0.1", handle.port, client_id="someone-else"
                )
                try:
                    fresh = other.query(matrix, gamma=0.5, alpha=0.5)
                finally:
                    other.close()
            finally:
                client.close()
        assert statuses == ["ok", "ok"] + ["rate_limited"] * 3
        assert fresh["status"] == "ok"
        snapshot = daemon.obs.metrics.snapshot()
        assert snapshot[f'{_names.SERVE_SHED}{{reason="rate_limit"}}'] == 3.0

    def test_bad_requests_rejected(self, sharded_dir):
        daemon = QueryDaemon(
            index_dir=sharded_dir,
            config=DaemonConfig(backend="thread", workers=1),
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                code, payload = client._request(
                    "POST", "/query", {"gamma": 0.5}
                )
                assert code == 400
                assert payload["status"] == "error"
                assert "missing field" in payload["error"]
                code, payload = client._request(
                    "POST",
                    "/query",
                    {
                        "values": [[1.0]],
                        "gene_ids": [0],
                        "gamma": 1.5,  # out of [0, 1)
                        "alpha": 0.5,
                    },
                )
                assert code == 400
                code, payload = client._request(
                    "POST",
                    "/query",
                    {
                        "values": [[1.0]],
                        "gene_ids": [0],
                        "gamma": 0.5,
                        "kind": "regex",  # unknown workload kind
                    },
                )
                assert code == 400
                assert "kind" in payload["error"]
                code, payload = client._request(
                    "POST",
                    "/query",
                    {
                        "values": [[1.0]],
                        "gene_ids": [0],
                        "gamma": 0.5,
                        "kind": "topk",  # k is required for topk
                    },
                )
                assert code == 400
                assert "missing field 'k'" in payload["error"]
                code, _payload = client._request("GET", "/nope")
                assert code == 404
                code, _payload = client._request("GET", "/query")
                assert code == 405
            finally:
                client.close()


# ----------------------------------------------------------------------
# Lifecycle: drain and reload
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_drain_completes_inflight_queries(self):
        """Shutdown mid-query: the admitted query still gets its answer."""
        engine = _SlowEngine(sleep_seconds=0.5)
        daemon = QueryDaemon(
            engine=engine,
            config=DaemonConfig(
                backend="thread", workers=1, timeout_seconds=None,
                drain_seconds=10.0,
            ),
        )
        from repro.data.synthetic import generate_matrix

        matrix = generate_matrix(SyntheticConfig(seed=3), source_id=0, rng=3)
        outcome: dict = {}

        def fire():
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                outcome.update(client.query(matrix, gamma=0.5, alpha=0.5))
            finally:
                client.close()

        handle = _serve(daemon)
        worker = threading.Thread(target=fire)
        worker.start()
        deadline = time.time() + 5.0
        while engine.calls == 0 and time.time() < deadline:
            time.sleep(0.01)  # wait until the query is in flight
        handle.stop()  # graceful drain, joins the serving thread
        worker.join(timeout=10.0)
        assert outcome.get("status") == "ok"

    def test_hot_reload_swaps_fingerprint(self, tmp_path):
        """Republish -> /reload serves the new index, old one retired."""
        config = EngineConfig(mc_samples=32, seed=5)
        db_a = generate_database(
            SyntheticConfig(genes_range=(8, 10), seed=21), 8
        )
        db_b = generate_database(
            SyntheticConfig(genes_range=(8, 10), seed=22), 8
        )
        engine_a = IMGRNEngine(db_a, config)
        engine_a.build()
        engine_b = IMGRNEngine(db_b, config)
        engine_b.build()
        save_dir = tmp_path / "published"
        save_engine_sharded(engine_a, save_dir)

        from repro.data.queries import generate_query_workload

        query_a = generate_query_workload(db_a, n_q=3, count=1, rng=4)[0]
        query_b = generate_query_workload(db_b, n_q=3, count=1, rng=4)[0]
        ref_a = engine_a.query(query_a, gamma=0.3, alpha=0.3)
        ref_b = engine_b.query(query_b, gamma=0.3, alpha=0.3)

        daemon = QueryDaemon(
            index_dir=save_dir,
            config=DaemonConfig(workers=1, backend="process"),
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                first_fp = client.health()["fingerprint"]
                out = client.query(query_a, gamma=0.3, alpha=0.3)
                assert out["sources"] == ref_a.answer_sources()

                unchanged = client.reload()
                assert unchanged["status"] == "unchanged"

                save_engine_sharded(engine_b, save_dir)  # republish
                reloaded = client.reload()
                assert reloaded["status"] == "reloaded"
                assert reloaded["fingerprint"] != first_fp
                assert client.health()["fingerprint"] == (
                    reloaded["fingerprint"]
                )

                out = client.query(query_b, gamma=0.3, alpha=0.3)
                assert out["status"] == "ok"
                assert out["sources"] == ref_b.answer_sources()
            finally:
                client.close()

    def test_reload_unsupported_for_in_memory_engine(self):
        daemon = QueryDaemon(
            engine=_SlowEngine(), config=DaemonConfig(workers=1)
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                assert client.reload()["status"] == "unsupported"
            finally:
                client.close()

    def test_sigterm_drains_cleanly(self, sharded_dir, query_workload):
        """`imgrn serve` under SIGTERM: in-flight work finishes, exit 0."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main())",
                "serve",
                str(sharded_dir),
                "--backend",
                "process",
                "--daemon-workers",
                "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
            client = DaemonClient("127.0.0.1", port, timeout=60.0)
            try:
                out = client.query(query_workload[0], gamma=0.4, alpha=0.3)
                assert out["status"] == "ok"
            finally:
                client.close()
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained cleanly" in stdout


# ----------------------------------------------------------------------
# Observability endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_metrics_stats_and_health(self, sharded_dir, query_workload):
        daemon = QueryDaemon(
            index_dir=sharded_dir,
            config=DaemonConfig(backend="thread", workers=1),
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                for matrix in query_workload[:3]:
                    assert (
                        client.query(matrix, gamma=0.4, alpha=0.3)["status"]
                        == "ok"
                    )
                health = client.health()
                assert health["status"] == "serving"
                assert health["fingerprint"] == daemon.fingerprint
                stats = client.stats()
                assert stats["requests"]["ok"] == 3.0
                latency = stats["latency_seconds"]
                assert latency["count"] == 3
                assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
                text = client.metrics_text()
                assert "imgrn_serve_queries_total" in text
                assert "imgrn_serve_request_seconds_bucket" in text
            finally:
                client.close()


# ----------------------------------------------------------------------
# One never-raise executor behind every serving path
# ----------------------------------------------------------------------
class _FailingEngine:
    """Stub engine whose every ``execute`` raises."""

    is_built = True

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        raise RuntimeError(f"index shard missing for gamma={spec.gamma}")


class TestSharedExecutor:
    def test_error_text_matches_query_server(self, query_workload):
        """An engine failure reads the same through QueryServer.batch and
        the thread-backend daemon's ``POST /query``."""
        engine = _FailingEngine()
        matrix = query_workload[0]
        with QueryServer(engine, ServeConfig(max_workers=1)) as server:
            (outcome,) = server.batch([QuerySpec(matrix, 0.5, 0.2)])
        assert outcome.status == "error"
        assert outcome.error == "RuntimeError: index shard missing for gamma=0.5"

        daemon = QueryDaemon(
            engine=engine, config=DaemonConfig(backend="thread", workers=1)
        )
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                out = client.query(matrix, gamma=0.5, alpha=0.2)
            finally:
                client.close()
        assert out["status"] == outcome.status
        assert out["error"] == outcome.error

    def test_queue_wait_observed_per_query(self, query_workload):
        """Every admitted request observes ``serve.queue_wait_seconds``
        once, when a pump takes it off the admission queue."""
        daemon = QueryDaemon(
            engine=_SlowEngine(),
            config=DaemonConfig(backend="thread", workers=2),
        )
        queries = query_workload[:4]
        with _serve(daemon) as handle:
            client = DaemonClient("127.0.0.1", handle.port)
            try:
                for matrix in queries:
                    out = client.query(matrix, gamma=0.5, alpha=0.2)
                    assert out["status"] == "ok"
            finally:
                client.close()
        snapshot = daemon.obs.metrics.snapshot()
        key = f"{_names.SERVE_QUEUE_WAIT_SECONDS}_count"
        assert snapshot[key] == len(queries)
        assert snapshot[f"{_names.SERVE_QUEUE_WAIT_SECONDS}_sum"] >= 0.0
