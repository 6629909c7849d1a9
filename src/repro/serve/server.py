"""Concurrent query serving over any :class:`repro.core.QueryEngine`.

:class:`QueryServer` turns a built engine into a small query-serving
layer: batches (or lazy streams) of IM-GRN queries execute concurrently
on a ``ThreadPoolExecutor``, each with

* a **per-query deadline** measured from submission (queue wait counts),
  and
* **graceful degradation**: a timed-out or failed query yields a
  structured :class:`QueryOutcome` carrying its status and elapsed
  seconds instead of poisoning the rest of the batch.

Each worker runs its query through :func:`run_query`, the never-raise
executor the network daemon's backends share.

Sharing one engine across worker threads is sound because the engines'
read paths are reentrant (per-query metrics registries and page
counters, a locked edge-probability cache) and deterministic (estimator
randomness is content-keyed), so concurrent answers are bit-identical
to serial ones. The server records the ``serve.*`` metric and span
taxonomy documented in ``docs/observability.md``; all shared-registry
updates happen under the server's own lock.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from ..core.query import IMGRNResult
from ..core.spec import QuerySpec
from ..data.matrix import GeneFeatureMatrix
from ..errors import ValidationError
from ..obs import Observability
from ..obs import names as _names

__all__ = [
    "QueryOutcome",
    "QueryServer",
    "QuerySpec",
    "ServeConfig",
    "run_query",
]

#: Engine-class -> metric label, matching each engine's own series.
_ENGINE_LABELS = {
    "IMGRNEngine": "imgrn",
    "BaselineEngine": "baseline",
    "LinearScanEngine": "linear_scan",
    "MeasureScanEngine": "measure_scan",
}


def _engine_label(engine: object) -> str:
    name = type(engine).__name__
    return _ENGINE_LABELS.get(name, name.lower())


def _reject_spec(obj: object) -> QuerySpec:
    raise ValidationError(
        f"expected a QuerySpec, got {type(obj).__name__}"
    )


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of :class:`QueryServer`.

    Attributes
    ----------
    max_workers:
        Worker threads of the pool (the batch concurrency level).
    timeout_seconds:
        Per-query deadline measured from submission; ``None`` disables
        timeouts. Overridable per :meth:`QueryServer.batch` call.
    """

    max_workers: int = 4
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )


@dataclass
class QueryOutcome:
    """What happened to one served query -- always returned, never raised.

    ``status`` is one of ``ok`` (computed), ``timeout`` (deadline
    expired; the batch continues) and ``error`` (the engine raised).
    Degraded outcomes keep their partial accounting -- ``seconds`` and
    the error text -- so a batch report stays complete.
    """

    index: int
    spec: QuerySpec = field(repr=False)
    status: str
    result: IMGRNResult | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def answer_sources(self) -> list[int]:
        """Sorted matching source IDs (empty for degraded outcomes)."""
        return self.result.answer_sources() if self.result else []


def run_query(engine, spec: QuerySpec, *, index: int = 0) -> QueryOutcome:
    """Execute ``spec`` on ``engine`` and time it; never raises.

    The one executor of the serving stack: :class:`QueryServer`'s worker
    threads, the daemon's thread backend and its forked workers all call
    it, so every path times a query and formats an engine failure
    (``"<ExceptionType>: <message>"``, status ``error``) the same way.
    """
    started = time.perf_counter()
    try:
        result = engine.execute(spec)
    except Exception as exc:  # noqa: BLE001 - degrade, don't poison
        return QueryOutcome(
            index=index,
            spec=spec,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - started,
        )
    return QueryOutcome(
        index=index,
        spec=spec,
        status="ok",
        result=result,
        seconds=time.perf_counter() - started,
    )


class QueryServer:
    """Serve batches / streams of IM-GRN queries over one built engine.

    Parameters
    ----------
    engine:
        Any :class:`repro.core.QueryEngine`; must be built before
        queries are served (an unbuilt engine fails every query with
        its usual :class:`~repro.errors.IndexNotBuiltError`).
    config:
        :class:`ServeConfig`; defaults serve 4-way with no deadline.
    obs:
        Observability sink for the ``serve.*`` series; defaults to the
        engine's own, so server and engine metrics land in one registry.

    Use as a context manager (or call :meth:`close`) to release the
    worker pool.
    """

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
        obs: Observability | None = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self.obs = obs if obs is not None else getattr(
            engine, "obs", None
        ) or Observability.disabled()
        self.engine_label = _engine_label(engine)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="imgrn-serve",
        )
        self._closed = False
        # One lock serializes every shared-registry update the server
        # makes; worker threads never touch the shared registry directly
        # (engine-internal merges take the registry's own lock).
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(
        self,
        matrix: GeneFeatureMatrix,
        *,
        gamma: float,
        alpha: float,
        timeout: float | None = None,
    ) -> QueryOutcome:
        """Serve one containment query through the deadline path."""
        outcomes = self.batch(
            [QuerySpec(matrix, gamma, alpha)], timeout=timeout
        )
        return outcomes[0]

    def batch(
        self,
        specs: Sequence[QuerySpec],
        *,
        timeout: float | None = None,
    ) -> list[QueryOutcome]:
        """Serve a batch concurrently; outcomes come back in input order.

        Every spec is validated *before* anything is dispatched, so a
        malformed query raises :class:`~repro.errors.ValidationError`
        immediately instead of surfacing as one degraded outcome among
        many. Degradations that depend on runtime behavior (timeouts,
        engine failures) never raise -- they yield their outcome.
        """
        return list(self.stream(specs, timeout=timeout))

    def stream(
        self,
        specs: Iterable[QuerySpec],
        *,
        timeout: float | None = None,
    ) -> Iterator[QueryOutcome]:
        """Lazy :meth:`batch`: yield outcomes in input order as they land.

        The whole batch is submitted *here*, before the iterator is
        returned -- not lazily at the first ``next()`` -- so the pool
        starts working at full concurrency the moment ``stream()``
        returns, and a caller can pipeline post-processing against
        in-flight queries. Consuming the iterator only drains outcomes,
        one at a time, in input order.
        """
        if self._closed:
            raise ValidationError("QueryServer is closed")
        # Specs validate eagerly at construction (QuerySpec.__post_init__),
        # so materializing the iterable is all the pre-dispatch checking a
        # malformed query needs to surface before anything is submitted.
        specs = [
            spec if isinstance(spec, QuerySpec) else _reject_spec(spec)
            for spec in specs
        ]
        deadline = (
            self.config.timeout_seconds if timeout is None else float(timeout)
        )
        if deadline is not None and deadline <= 0:
            raise ValidationError(f"timeout must be > 0, got {deadline}")
        # Submit eagerly: a generator body would not run (and therefore
        # not submit anything) until the first next(), silently costing a
        # non-consuming caller all pipelining.
        batch_started = time.perf_counter()
        submitted: list[tuple[Future, float]] = []
        for index, spec in enumerate(specs):
            submit_time = time.perf_counter()
            submitted.append(
                (self._pool.submit(self._execute, index, spec), submit_time)
            )
        return self._drain(specs, submitted, deadline, batch_started)

    def _drain(
        self,
        specs: list[QuerySpec],
        submitted: list[tuple[Future, float]],
        deadline: float | None,
        batch_started: float,
    ) -> Iterator[QueryOutcome]:
        tracer = self.obs.tracer
        with tracer.span(
            "serve.batch",
            engine=self.engine_label,
            queries=len(specs),
            workers=self.config.max_workers,
        ) as batch_span:
            completed = 0
            for index, (future, submit_time) in enumerate(submitted):
                spec = specs[index]
                remaining: float | None = None
                if deadline is not None:
                    remaining = deadline - (time.perf_counter() - submit_time)
                try:
                    outcome = future.result(
                        timeout=None if remaining is None else max(0.0, remaining)
                    )
                except FutureTimeoutError:
                    if not future.cancel():  # drop it if it never started
                        # Still running: the worker will finish after this
                        # timeout was reported; record that late
                        # completion when it lands.
                        future.add_done_callback(self._record_late_completion)
                    outcome = QueryOutcome(
                        index=index,
                        spec=spec,
                        status="timeout",
                        error=f"deadline of {deadline}s expired",
                        seconds=time.perf_counter() - submit_time,
                    )
                self._record(outcome)
                completed += 1 if outcome.ok else 0
                yield outcome
            batch_span.set(completed=completed)
        with self._metrics_lock:
            self.obs.metrics.histogram(
                _names.SERVE_BATCH_SECONDS,
                help="whole-batch serve seconds",
                engine=self.engine_label,
            ).observe(time.perf_counter() - batch_started)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _execute(self, index: int, spec: QuerySpec) -> QueryOutcome:
        """Run one query on a worker thread (never raises)."""
        with self.obs.tracer.span(
            "serve.query", engine=self.engine_label, query=index
        ):
            return run_query(self.engine, spec, index=index)

    # ------------------------------------------------------------------
    # Accounting (coordinator side only)
    # ------------------------------------------------------------------
    def _record(self, outcome: QueryOutcome) -> None:
        metrics = self.obs.metrics
        with self._metrics_lock:
            metrics.counter(
                _names.SERVE_QUERIES,
                help="queries finished by the serving layer",
                engine=self.engine_label,
                status=outcome.status,
            ).inc()
            metrics.histogram(
                _names.SERVE_QUERY_SECONDS,
                help="per-served-query seconds (queue wait included)",
                engine=self.engine_label,
            ).observe(outcome.seconds)

    def _record_late_completion(self, future: Future) -> None:
        """Account a worker that finished after its timeout was reported.

        The coordinator has already yielded a ``timeout`` outcome for this
        query; the worker kept running to completion (a thread cannot be
        killed). This counter makes those otherwise invisible late
        completions observable under ``serve.late_completions`` with the
        worker outcome's status.
        """
        if future.cancelled():
            return
        outcome = future.result()  # _execute never raises
        with self._metrics_lock:
            self.obs.metrics.counter(
                _names.SERVE_LATE_COMPLETIONS,
                help="workers that completed after their timeout was "
                "reported",
                engine=self.engine_label,
                status=outcome.status,
            ).inc()
