"""Network serving daemon: ``imgrn serve`` (see ``docs/daemon.md``).

:class:`QueryDaemon` puts a built index on the network with zero new
dependencies: a minimal asyncio HTTP/1.1 front end (JSON request and
response bodies over TCP, keep-alive supported) dispatching to a pool
of worker processes that each ``load_engine_sharded(...,
mmap_index=True)`` -- so N workers share one page-cache copy of the
index arrays and answer queries bit-identically to an in-process
:class:`repro.serve.QueryServer` over the same engine.

The serving pipeline, front to back:

* **admission control** -- a bounded :class:`asyncio.Queue`; when it is
  full the request is *shed* immediately with HTTP 503 and a structured
  ``{"status": "shed"}`` body instead of queueing unboundedly
  (``serve.shed{reason="queue_full"}``);
* **per-client rate limiting** -- a token bucket keyed on the
  ``X-Client-Id`` header (falling back to the peer address); over-limit
  requests get HTTP 429 / ``{"status": "rate_limited"}``
  (``serve.shed{reason="rate_limit"}``);
* **worker pool** -- ``workers`` pump tasks pull admitted requests and
  execute them on forked mmap workers (``backend="process"``) or on an
  in-process engine shared by threads (``backend="thread"``); a worker
  that misses its deadline or dies is respawned and the request reports
  ``timeout`` / ``error``;
* **observability** -- every terminal status is counted in
  ``serve.queries`` and timed into the ``serve.request_seconds``
  histogram; queue depth and in-flight gauges track saturation; the
  ``/metrics`` endpoint renders the registry in Prometheus text format
  and ``/stats`` reports p50/p95/p99 estimated from the histogram;
* **lifecycle** -- SIGTERM (or :meth:`QueryDaemon.shutdown`) triggers a
  graceful drain: the listener closes, queued and in-flight requests
  finish (bounded by ``drain_seconds``), then workers exit; SIGHUP or
  ``POST /reload`` re-checks the sharded save's
  :func:`~repro.core.persistence.sharded_save_fingerprint` and, when a
  republish changed it, swaps in a fresh worker pool without dropping
  requests already admitted against the old one.

The wire protocol is deliberately small (see ``docs/daemon.md``):
``POST /query`` with a JSON body carrying ``values`` / ``gene_ids`` /
``gamma`` plus the workload fields of its ``kind`` -- ``alpha``
(containment / similarity), ``k`` (topk), ``edge_budget`` (similarity);
``kind`` defaults to ``containment`` so schema-1 clients keep working.
Responses carry ``"schema": 2`` and echo the ``kind``. ``GET
/healthz``, ``GET /stats``, ``GET /metrics``; ``POST /reload``.
:class:`repro.serve.client`'s ``DaemonClient`` wraps it with stdlib
``http.client``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import multiprocessing
import os
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..config import DaemonConfig
from ..core.persistence import load_engine_sharded, sharded_save_fingerprint
from ..core.spec import QuerySpec, validate_query_params
from ..data.matrix import GeneFeatureMatrix
from ..errors import ReproError, ValidationError
from ..obs import Observability
from ..obs import names as _names
from ..obs.exporters import metrics_to_prometheus
from ..obs.metrics import Histogram, MetricsRegistry
from .server import _engine_label, run_query

__all__ = [
    "QueryDaemon",
    "DaemonHandle",
    "serve_in_background",
]

#: HTTP status line text for the codes the daemon emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Terminal query status -> HTTP response code.
_STATUS_CODES = {
    "ok": 200,
    "error": 500,
    "timeout": 504,
    "shed": 503,
    "rate_limited": 429,
}


# ----------------------------------------------------------------------
# Worker side: runs in a forked process (or an executor thread)
# ----------------------------------------------------------------------
def _spec_from_request(request: dict) -> QuerySpec:
    """Build the typed :class:`QuerySpec` a ``/query`` body describes.

    ``kind`` defaults to ``containment`` (the schema-1 wire format),
    and the per-kind parameter rules are enforced by the spec's own
    eager validation -- the daemon never re-states them.
    """
    matrix = GeneFeatureMatrix(
        np.asarray(request["values"], dtype=np.float64),
        [int(g) for g in request["gene_ids"]],
        source_id=int(request.get("source_id", 0)),
    )
    return QuerySpec(
        matrix,
        request["gamma"],
        alpha=request.get("alpha"),
        kind=str(request.get("kind", "containment")),
        k=request.get("k"),
        edge_budget=request.get("edge_budget"),
    )


def _answer(engine: Any, request: dict) -> dict:
    """Answer one query request against ``engine``; never raises.

    Shared by both backends: the forked worker's recv/send loop and the
    thread backend's executor call both funnel through here. The query
    itself runs in :func:`~repro.serve.server.run_query`, the executor
    :class:`~repro.serve.QueryServer` uses too, so all three paths time
    queries and format engine errors identically; this function only
    turns the outcome into the wire dict.
    """
    try:
        spec = _spec_from_request(request)
    except Exception as exc:  # a malformed matrix, not a dead worker
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    outcome = run_query(engine, spec)
    if not outcome.ok:
        return {
            "status": outcome.status,
            "error": outcome.error,
            "seconds": outcome.seconds,
        }
    result = outcome.result
    stats = result.stats
    return {
        "status": "ok",
        "schema": 2,
        "kind": spec.kind,
        "sources": result.answer_sources(),
        "answers": [
            {"source_id": a.source_id, "probability": a.probability}
            for a in result.answers
        ],
        "stats": {
            "cpu_seconds": stats.cpu_seconds,
            "refine_seconds": stats.refine_seconds,
            "inference_seconds": stats.inference_seconds,
            "io_accesses": stats.io_accesses,
            "candidates": stats.candidates,
            "answers": stats.answers,
            "pruned_pairs": stats.pruned_pairs,
        },
        "seconds": outcome.seconds,
    }


def _worker_main(conn: Any, index_dir: str) -> None:
    """Body of one forked worker: load the mmap'd engine, then serve.

    Protocol over the pipe: one ready/err handshake dict, then a
    recv(request dict) -> send(response dict) loop until EOF or a
    ``None`` sentinel.
    """
    try:
        engine = load_engine_sharded(index_dir, mmap_index=True)
    except BaseException as exc:  # report load failures to the parent
        with contextlib.suppress(OSError, ValueError):
            conn.send({"status": "error", "error": f"{type(exc).__name__}: {exc}"})
        return
    try:
        conn.send({"status": "ready", "pid": os.getpid()})
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            if request is None:
                break
            conn.send(_answer(engine, request))
    except (BrokenPipeError, OSError, KeyboardInterrupt):
        pass
    finally:
        with contextlib.suppress(OSError):
            conn.close()


class _WorkerTimeout(ReproError):
    """A worker missed its response deadline (coordinator-side)."""


class _ProcessWorker:
    """One forked worker process plus its request/response pipe."""

    def __init__(self, ctx: Any, index_dir: str, startup_timeout: float = 120.0):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, index_dir), daemon=True
        )
        self.process.start()
        child.close()
        if not self.conn.poll(startup_timeout):
            self.stop(kill=True)
            raise ReproError("daemon worker did not become ready")
        ready = self.conn.recv()
        if ready.get("status") != "ready":
            self.stop(kill=True)
            raise ReproError(
                f"daemon worker failed to start: {ready.get('error', 'unknown')}"
            )
        self.pid = ready["pid"]

    def roundtrip(self, request: dict, timeout: float | None) -> dict:
        self.conn.send(request)
        if timeout is not None and not self.conn.poll(timeout):
            raise _WorkerTimeout(f"worker missed the {timeout:g}s deadline")
        return self.conn.recv()

    def stop(self, kill: bool = False) -> None:
        with contextlib.suppress(OSError, ValueError):
            if not kill:
                self.conn.send(None)  # polite sentinel
        with contextlib.suppress(OSError):
            self.conn.close()
        if kill and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        with contextlib.suppress(ValueError):
            self.process.close()


class _ProcessPool:
    """Fixed-size pool of forked mmap workers with respawn-on-failure.

    ``execute`` runs on coordinator executor threads; the daemon runs at
    most ``size`` of them concurrently against one pool, so a free
    worker is always available when ``execute`` is entered. Timeouts are
    enforced worker-side (``poll``), so ``coordinator_timeout`` is
    False. A timed-out or dead worker is killed and respawned -- its
    abandoned pipe can never deliver a stale answer to a later request.
    """

    coordinator_timeout = False

    def __init__(self, index_dir: str | Path, size: int):
        self.index_dir = str(index_dir)
        self.engine_label = "imgrn"  # sharded saves hold IMGRNEngines
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._retired = False
        self._inflight = 0
        workers = []
        try:
            for _ in range(size):
                workers.append(_ProcessWorker(self._ctx, self.index_dir))
        except BaseException:
            for worker in workers:
                worker.stop(kill=True)
            raise
        self._idle: collections.deque[_ProcessWorker] = collections.deque(workers)

    def execute(self, request: dict, timeout: float | None) -> dict:
        with self._lock:
            if not self._idle:  # over-dispatch would be a daemon bug
                raise ReproError("process pool has no idle worker")
            worker = self._idle.popleft()
            self._inflight += 1
        try:
            try:
                return worker.roundtrip(request, timeout)
            except _WorkerTimeout as exc:
                worker = self._replace(worker)
                return {"status": "timeout", "error": str(exc)}
            except (EOFError, OSError, BrokenPipeError) as exc:
                worker = self._replace(worker)
                return {
                    "status": "error",
                    "error": f"worker died: {type(exc).__name__}: {exc}",
                }
        finally:
            with self._lock:
                self._idle.append(worker)
                self._inflight -= 1
                close_now = self._retired and self._inflight == 0
            if close_now:
                self.close()

    def _replace(self, worker: _ProcessWorker) -> _ProcessWorker:
        worker.stop(kill=True)
        return _ProcessWorker(self._ctx, self.index_dir)

    def retire(self) -> None:
        """Close once the last in-flight request returns (hot reload)."""
        with self._lock:
            self._retired = True
            close_now = self._inflight == 0
        if close_now:
            self.close()

    def close(self) -> None:
        with self._lock:
            workers = list(self._idle)
            self._idle.clear()
        for worker in workers:
            worker.stop()


class _ThreadPool:
    """In-process backend: executor threads share one reentrant engine.

    The engines' read paths are reentrant (see ``serve/server.py``), so
    no exclusivity is needed. A thread cannot be killed, so deadlines
    are enforced coordinator-side (``asyncio.wait_for``) and a timed-out
    query keeps running to completion on its executor thread -- the same
    late-completion semantics :class:`repro.serve.QueryServer` has.
    """

    coordinator_timeout = True

    def __init__(self, engine: Any):
        self.engine = engine
        self.engine_label = _engine_label(engine)

    def execute(self, request: dict, timeout: float | None) -> dict:
        return _answer(self.engine, request)

    def retire(self) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _TokenBucketLimiter:
    """Per-client token buckets: ``burst`` capacity refilled at ``qps``.

    ``qps <= 0`` disables limiting. Stale clients are pruned whenever
    the table grows past a bound, so a rotating client population cannot
    leak memory.
    """

    _MAX_CLIENTS = 4096

    def __init__(self, qps: float, burst: int):
        self.qps = float(qps)
        self.burst = float(burst)
        self._buckets: dict[str, tuple[float, float]] = {}  # client -> (tokens, t)
        self._lock = threading.Lock()

    def allow(self, client: str, now: float | None = None) -> bool:
        if self.qps <= 0.0:
            return True
        if now is None:
            now = time.monotonic()
        with self._lock:
            tokens, stamp = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - stamp) * self.qps)
            allowed = tokens >= 1.0
            if allowed:
                tokens -= 1.0
            self._buckets[client] = (tokens, now)
            if len(self._buckets) > self._MAX_CLIENTS:
                self._prune(now)
            return allowed

    def _prune(self, now: float) -> None:
        refill = (self.burst - 1.0) / self.qps  # time to refill to full
        self._buckets = {
            client: state
            for client, state in self._buckets.items()
            if now - state[1] < refill
        }


@dataclass
class _Admitted:
    """One admitted request waiting in the queue for a pump task."""

    request: dict
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = field(default_factory=time.perf_counter)


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class QueryDaemon:
    """Asyncio network front end over a pool of mmap query workers.

    Construct with exactly one of

    * ``index_dir`` -- a :func:`~repro.core.persistence.save_engine_sharded`
      directory; the production path. ``backend="process"`` (default)
      forks ``workers`` processes that each map the index read-only;
      ``backend="thread"`` loads the engine once in-process.
    * ``engine`` -- an already-built engine served in-process on
      executor threads (forces the thread backend; hot reload is
      unavailable). Mainly for tests and embedding.

    Then either ``await start()`` inside a running loop (tests), call
    :meth:`run` to own the loop (the CLI does this), or use
    :func:`serve_in_background` to run it on a daemon thread.
    """

    def __init__(
        self,
        index_dir: str | Path | None = None,
        engine: Any = None,
        config: DaemonConfig | None = None,
        obs: Observability | None = None,
    ):
        if (index_dir is None) == (engine is None):
            raise ValidationError(
                "provide exactly one of index_dir (sharded save) or engine"
            )
        self.config = config or DaemonConfig()
        if engine is not None and self.config.backend != "thread":
            self.config = self.config.with_(backend="thread")
        self.obs = obs if obs is not None else Observability.disabled()
        self.index_dir = None if index_dir is None else Path(index_dir)
        self._engine = engine
        self.fingerprint = (
            None if self.index_dir is None
            else sharded_save_fingerprint(self.index_dir)
        )
        self._pool = self._build_pool()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="imgrn-serve"
        )
        self._limiter = _TokenBucketLimiter(
            self.config.rate_limit_qps, self.config.rate_limit_burst
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_Admitted] | None = None
        self._pumps: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._shutdown_event: asyncio.Event | None = None
        self._reload_lock: asyncio.Lock | None = None
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._started_at = 0.0
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Pool construction / hot reload
    # ------------------------------------------------------------------
    def _build_pool(self) -> Any:
        if self._engine is not None:
            return _ThreadPool(self._engine)
        if self.config.backend == "process":
            return _ProcessPool(self.index_dir, self.config.workers)
        return _ThreadPool(load_engine_sharded(self.index_dir, mmap_index=True))

    async def reload(self, force: bool = False) -> dict:
        """Swap in fresh workers when the sharded save was republished.

        Compares the save's current fingerprint with the one served; on
        change (or ``force``) a new pool is built *first*, then swapped
        in atomically, and the old pool is retired -- it closes after
        its last in-flight request returns, so no admitted request is
        dropped. Triggered by SIGHUP or ``POST /reload``.
        """
        if self.index_dir is None:
            return {
                "status": "unsupported",
                "error": "daemon serves an in-memory engine; nothing to reload",
            }
        assert self._reload_lock is not None and self._loop is not None
        async with self._reload_lock:
            fingerprint = await self._loop.run_in_executor(
                None, sharded_save_fingerprint, self.index_dir
            )
            if fingerprint == self.fingerprint and not force:
                return {"status": "unchanged", "fingerprint": fingerprint}
            new_pool = await self._loop.run_in_executor(None, self._build_pool)
            previous = self.fingerprint
            old_pool = self._pool
            self._pool = new_pool
            self.fingerprint = fingerprint
            old_pool.retire()
            return {
                "status": "reloaded",
                "fingerprint": fingerprint,
                "previous": previous,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the pump tasks."""
        if self._server is not None:
            raise ReproError("daemon already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._shutdown_event = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._pumps = [
            loop.create_task(self._pump(), name=f"imgrn-pump-{i}")
            for i in range(self.config.workers)
        ]
        self._install_signal_handlers(loop)

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        # Only possible on the main thread of the main interpreter; the
        # in-thread runner (serve_in_background) silently goes without.
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, self.shutdown)
            loop.add_signal_handler(signal.SIGINT, self.shutdown)
            loop.add_signal_handler(
                signal.SIGHUP, lambda: loop.create_task(self.reload())
            )

    def shutdown(self) -> None:
        """Request a graceful drain (signal handlers land here)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def shutdown_threadsafe(self) -> None:
        """Like :meth:`shutdown` but callable from any thread."""
        if self._loop is not None and self._shutdown_event is not None:
            self._loop.call_soon_threadsafe(self._shutdown_event.set)

    async def run(self, ready: Callable[["QueryDaemon"], None] | None = None) -> None:
        """Serve until :meth:`shutdown`, then drain. Owns the lifecycle."""
        await self.start()
        if ready is not None:
            ready(self)
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish admitted work, stop workers.

        New connections are refused immediately; requests already in the
        queue or in flight get up to ``drain_seconds`` to finish, then
        pumps are cancelled and worker processes shut down.
        """
        if self._closed:
            return
        self._draining = True
        deadline = time.monotonic() + self.config.drain_seconds
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_seconds
                )
        if self._conn_tasks:  # let handlers write their final responses
            await asyncio.wait(
                list(self._conn_tasks),
                timeout=max(0.0, deadline - time.monotonic()) + 1.0,
            )
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._closed = True
        pool = self._pool
        assert self._loop is not None
        await self._loop.run_in_executor(None, pool.close)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Pump tasks: queue -> worker pool
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        assert self._queue is not None and self._loop is not None
        timeout = self.config.timeout_seconds
        while True:
            item = await self._queue.get()
            self.obs.metrics.histogram(
                _names.SERVE_QUEUE_WAIT_SECONDS,
                help="seconds an admitted request waited for a pump",
            ).observe(time.perf_counter() - item.enqueued_at)
            self._gauge(_names.SERVE_QUEUE_DEPTH, self._queue.qsize())
            pool = self._pool  # snapshot: survives a hot-reload swap
            self._inflight += 1
            self._gauge(_names.SERVE_INFLIGHT, self._inflight)
            try:
                call = self._loop.run_in_executor(
                    self._executor, pool.execute, item.request, timeout
                )
                if timeout is not None and pool.coordinator_timeout:
                    response = await asyncio.wait_for(call, timeout)
                else:
                    response = await call
            except asyncio.TimeoutError:
                response = {
                    "status": "timeout",
                    "error": f"deadline of {timeout:g}s expired",
                }
            except Exception as exc:  # keep the pump alive no matter what
                response = {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            finally:
                self._inflight -= 1
                self._gauge(_names.SERVE_INFLIGHT, self._inflight)
                self._queue.task_done()
            if not item.future.done():
                item.future.set_result(response)

    # ------------------------------------------------------------------
    # Connection handling: minimal HTTP/1.1
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            peer = writer.get_extra_info("peername")
            peer_host = str(peer[0]) if isinstance(peer, tuple) else "unknown"
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                if isinstance(parsed, int):  # parse failure -> error code
                    await self._write_response(
                        writer, parsed,
                        {"status": "error", "error": _REASONS[parsed]},
                        close=True,
                    )
                    break
                method, path, headers, body = parsed
                code, payload, content_type = await self._dispatch(
                    method, path, headers, body, peer_host
                )
                keep_alive = (
                    not self._draining
                    and headers.get("connection", "").lower() != "close"
                )
                await self._write_response(
                    writer, code, payload,
                    close=not keep_alive, content_type=content_type,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes] | int | None:
        """Parse one request; ``None`` on clean EOF, an int error code
        on malformed input."""
        try:
            line = await reader.readline()
        except (ConnectionError, ValueError):
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError:
            return 400
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                return 400
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400
        if length > self.config.max_request_bytes:
            return 413
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: dict | str,
        close: bool = False,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + body)
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: dict, body: bytes, peer: str
    ) -> tuple[int, dict | str, str]:
        if path == "/query":
            if method != "POST":
                return 405, {"status": "error", "error": "POST required"}, (
                    "application/json"
                )
            return await self._handle_query(headers, body, peer)
        if path == "/metrics" and method == "GET":
            text = metrics_to_prometheus(self.obs.metrics)
            return 200, text, "text/plain; version=0.0.4"
        if path == "/healthz" and method == "GET":
            return 200, self._health(), "application/json"
        if path == "/stats" and method == "GET":
            return 200, self._stats(), "application/json"
        if path == "/reload" and method == "POST":
            result = await self.reload()
            code = 200 if result["status"] in ("reloaded", "unchanged") else 400
            return code, result, "application/json"
        return 404, {"status": "error", "error": f"no route {method} {path}"}, (
            "application/json"
        )

    async def _handle_query(
        self, headers: dict, body: bytes, peer: str
    ) -> tuple[int, dict, str]:
        started = time.perf_counter()
        client = headers.get("x-client-id") or peer
        if not self._limiter.allow(client):
            self._count_shed("rate_limit")
            payload = self._finish(
                {"status": "rate_limited", "error": "client over rate limit"},
                started,
            )
            return 429, payload, "application/json"
        try:
            request = json.loads(body)
            if not isinstance(request, dict):
                raise ValidationError("request body must be a JSON object")
            kind = str(request.get("kind", "containment"))
            required = ["values", "gene_ids", "gamma"]
            if kind in ("containment", "similarity"):
                required.append("alpha")
            if kind == "topk":
                required.append("k")
            if kind == "similarity":
                required.append("edge_budget")
            for key in required:
                if key not in request:
                    raise ValidationError(f"missing field {key!r}")
            validate_query_params(
                kind,
                request["gamma"],
                alpha=request.get("alpha"),
                k=request.get("k"),
                edge_budget=request.get("edge_budget"),
            )
        except (ValueError, TypeError, ValidationError) as exc:
            payload = self._finish(
                {"status": "error", "error": f"bad request: {exc}"}, started
            )
            return 400, payload, "application/json"
        if self._draining:
            self._count_shed("draining")
            payload = self._finish(
                {"status": "shed", "error": "daemon is draining"}, started
            )
            return 503, payload, "application/json"
        assert self._queue is not None and self._loop is not None
        item = _Admitted(request=request, future=self._loop.create_future())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._count_shed("queue_full")
            payload = self._finish(
                {"status": "shed", "error": "admission queue is full"}, started
            )
            return 503, payload, "application/json"
        self._gauge(_names.SERVE_QUEUE_DEPTH, self._queue.qsize())
        response = await item.future
        payload = self._finish(response, started)
        return _STATUS_CODES.get(payload["status"], 500), payload, "application/json"

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _finish(self, payload: dict, started: float) -> dict:
        """Stamp total latency and record the terminal status."""
        elapsed = time.perf_counter() - started
        payload["daemon_seconds"] = elapsed
        status = payload.get("status", "error")
        metrics = self.obs.metrics
        metrics.counter(
            _names.SERVE_QUERIES,
            help="queries finished by the serving layer",
            engine=self._pool.engine_label,
            status=status,
        ).inc()
        metrics.histogram(
            _names.SERVE_REQUEST_SECONDS,
            help="daemon request wall-clock, accept to response",
            status=status,
        ).observe(elapsed)
        return payload

    def _count_shed(self, reason: str) -> None:
        self.obs.metrics.counter(
            _names.SERVE_SHED,
            help="requests refused at admission",
            reason=reason,
        ).inc()

    def _gauge(self, name: str, value: float) -> None:
        self.obs.metrics.gauge(name, help="daemon saturation gauge").set(value)

    def _health(self) -> dict:
        queue_depth = 0 if self._queue is None else self._queue.qsize()
        return {
            "status": "draining" if self._draining else "serving",
            "backend": self._pool.__class__.__name__.lstrip("_").lower(),
            "workers": self.config.workers,
            "queue_depth": queue_depth,
            "inflight": self._inflight,
            "fingerprint": self.fingerprint,
            "uptime_seconds": max(0.0, time.monotonic() - self._started_at),
        }

    def _stats(self) -> dict:
        """JSON stats: request counts per status plus latency quantiles."""
        counts: dict[str, float] = {}
        merged: Histogram | None = None
        for metric in self.obs.metrics.collect():
            if metric.name == _names.SERVE_QUERIES:
                status = metric.labels.get("status", "unknown")
                counts[status] = counts.get(status, 0.0) + metric.value
            elif (
                metric.name == _names.SERVE_REQUEST_SECONDS
                and isinstance(metric, Histogram)
            ):
                if merged is None:
                    merged = Histogram(
                        metric.name, {}, buckets=metric.buckets
                    )
                for i, count in enumerate(metric.counts):
                    merged.counts[i] += count
                merged.sum += metric.sum
                merged.count += metric.count
        latency = {}
        if merged is not None and merged.count:
            latency = {
                "p50": merged.quantile(0.50),
                "p95": merged.quantile(0.95),
                "p99": merged.quantile(0.99),
                "count": merged.count,
                "sum": merged.sum,
            }
        return {"requests": counts, "latency_seconds": latency, **self._health()}


# ----------------------------------------------------------------------
# In-thread runner (tests, benchmarks, embedding)
# ----------------------------------------------------------------------
class DaemonHandle:
    """A daemon running on a background thread; stop with :meth:`stop`."""

    def __init__(self, daemon: QueryDaemon, thread: threading.Thread):
        self.daemon = daemon
        self._thread = thread

    @property
    def port(self) -> int:
        assert self.daemon.port is not None
        return self.daemon.port

    @property
    def host(self) -> str:
        return self.daemon.config.host

    def stop(self, timeout: float = 30.0) -> None:
        """Request a graceful drain and join the serving thread."""
        self.daemon.shutdown_threadsafe()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - drain hung
            raise ReproError("daemon thread did not drain in time")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    daemon: QueryDaemon, startup_timeout: float = 120.0
) -> DaemonHandle:
    """Run ``daemon`` on a dedicated thread with its own event loop.

    Blocks until the listener is bound (so ``handle.port`` is valid),
    then returns a :class:`DaemonHandle`. Signal handlers are skipped
    off the main thread; use ``handle.stop()`` to drain.
    """
    started = threading.Event()
    failure: list[BaseException] = []

    def _runner() -> None:
        try:
            asyncio.run(daemon.run(ready=lambda _d: started.set()))
        except BaseException as exc:  # surface startup errors to caller
            failure.append(exc)
            started.set()

    thread = threading.Thread(target=_runner, name="imgrn-daemon", daemon=True)
    thread.start()
    if not started.wait(timeout=startup_timeout):
        raise ReproError("daemon did not start in time")
    if failure:
        raise failure[0]
    return DaemonHandle(daemon, thread)
