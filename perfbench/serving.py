"""Serving path: daemon subprocess, republishing writer and load generator.

The daemon is ``python -m repro serve`` over a published sharded save.
The client side is one process: two keep-alive :class:`DaemonClient`
connections send queries, a writer thread ingests arrivals
(``add_matrix`` -> ``save_engine_sharded`` -> ``POST /reload``), and an
admin connection probes freshness. Every ``ok`` answer is later checked
against an in-process engine loaded from the generation that served it.
"""

from __future__ import annotations

import itertools
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro import load_engine_sharded, save_engine_sharded
from repro.serve import DaemonClient, DaemonError

from .common import answer_list, classify, median, percentile

_BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


class DaemonProcess:
    """``python -m repro serve`` as a child process with 2 workers."""

    def __init__(self, root: Path, index_dir: Path, workers: int = 2):
        self.root = Path(root)
        self.index_dir = Path(index_dir)
        self.workers = workers
        self.port: int | None = None
        self.proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        self._tail: deque = deque(maxlen=40)
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> None:
        """Launch and block until the ready banner names the port."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(self.index_dir),
                "--port",
                "0",
                "--daemon-workers",
                str(self.workers),
                "--timeout",
                "30",
            ],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("daemon did not print its ready banner") from None
            if line is None:
                raise RuntimeError("daemon exited early:\n" + "".join(self._tail))
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(2))
                return

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._tail.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def client(self, name: str) -> DaemonClient:
        assert self.port is not None
        return DaemonClient("127.0.0.1", self.port, timeout=30.0, client_id=name)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


class Publisher:
    """Publishes index generations the way the program does today.

    :meth:`publish` runs ``save_engine_sharded`` over the one served
    directory, while the daemon's workers may have its files mapped;
    the republish race this can cause is measured, not avoided.
    :meth:`keep` saves the same engine afresh into its own ``gen-NNN``
    directory, the reference the answer check loads for that generation.
    """

    def __init__(self, workdir: Path):
        self.root = Path(workdir) / "index"
        self.root.mkdir(parents=True, exist_ok=True)
        self.serve_dir = self.root / "served"
        self.generations: list[Path] = []

    def publish(self, engine) -> dict:
        """Save ``engine`` over the served directory; returns save figures."""
        started = time.perf_counter()
        report = save_engine_sharded(engine, self.serve_dir)
        return {
            "save_s": time.perf_counter() - started,
            "written": len(report["written"]),
            "skipped": len(report["skipped"]),
        }

    def keep(self, engine) -> None:
        """Save ``engine`` as the reference of the generation it serves."""
        target = self.root / f"gen-{len(self.generations):03d}"
        save_engine_sharded(engine, target)
        self.generations.append(target)


@dataclass
class Outcome:
    """One request: which pool query, when it was due, sent, answered."""

    index: int
    kind: str
    due: float
    sent: float
    recv: float
    response: dict | None
    error: str | None = None

    @property
    def cause(self) -> str | None:
        return classify(self.response, self.error)


def _send(client: DaemonClient, spec) -> tuple[dict | None, str | None]:
    try:
        response = client.query(
            spec.matrix,
            spec.gamma,
            spec.alpha,
            kind=spec.kind,
            k=spec.k,
            edge_budget=spec.edge_budget,
        )
    except DaemonError as exc:
        return None, str(exc)
    if not isinstance(response, dict):
        return None, f"non-JSON response: {str(response)[:80]}"
    return response, None


def closed_loop(daemon: DaemonProcess, pool, seconds: float, connections: int = 2):
    """Each connection sends its next request as soon as one returns."""
    counter = itertools.count()
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    end = start + seconds

    def connection(name: str) -> None:
        with daemon.client(name) as client:
            while True:
                with lock:
                    i = next(counter)
                sent = time.perf_counter()
                if sent >= end:
                    return
                spec = pool[i % len(pool)]
                response, error = _send(client, spec)
                outcomes.append(
                    Outcome(i % len(pool), spec.kind, sent, sent,
                            time.perf_counter(), response, error)
                )

    _run_threads([lambda n=f"closed-{c}": connection(n) for c in range(connections)])
    wall = max((o.recv for o in outcomes), default=end) - start
    return outcomes, wall


def open_loop(
    daemon: DaemonProcess,
    pool,
    seconds: float,
    rate: float,
    writer=None,
    connections: int = 2,
):
    """Requests fall due at ``rate`` per second whether or not earlier
    ones returned; at most ``connections`` are in flight, so a stall
    delays later sends, which latency from the due time accounts for."""
    counter = itertools.count()
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    start = time.perf_counter() + 0.05
    end = start + seconds

    def connection(name: str) -> None:
        with daemon.client(name) as client:
            while True:
                with lock:
                    i = next(counter)
                due = start + i / rate
                if due >= end:
                    return
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                spec = pool[i % len(pool)]
                sent = time.perf_counter()
                response, error = _send(client, spec)
                outcomes.append(
                    Outcome(i % len(pool), spec.kind, due, sent,
                            time.perf_counter(), response, error)
                )

    tasks = [lambda n=f"open-{c}": connection(n) for c in range(connections)]
    if writer is not None:
        tasks.append(lambda: writer.run(start, end))
    _run_threads(tasks)
    return outcomes


def _run_threads(tasks) -> None:
    errors: list[BaseException] = []

    def guarded(task) -> None:
        try:
            task()
        except BaseException as exc:  # re-raised below in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in tasks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


class Writer:
    """Ingests arrivals during the open loop and measures freshness.

    Per arrival: ``add_matrix`` on the in-process engine, save it over
    the served directory, ``POST /reload``, then probe over the wire
    until the new source is answered.
    """

    def __init__(self, daemon, engine, publisher, arrivals, interval: float):
        self.daemon = daemon
        self.engine = engine
        self.publisher = publisher
        self.arrivals = list(arrivals)
        self.interval = interval
        #: (published_at, reloaded_at) per generation after the first.
        self.events: list[tuple[float, float]] = []
        self.freshness: list[float] = []
        self.add_s: list[float] = []
        self.reload_s: list[float] = []
        self.saves: list[dict] = []
        self.failures: list[str] = []

    def run(self, start: float, end: float) -> None:
        with self.daemon.client("writer") as admin:
            for j, (matrix, probe) in enumerate(self.arrivals):
                at = start + (j + 1) * self.interval
                if at >= end:
                    return
                pause = at - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self.ingest(admin, matrix, probe)

    def ingest(self, admin: DaemonClient, matrix, probe) -> None:
        started = time.perf_counter()
        self.engine.add_matrix(matrix)
        added = time.perf_counter()
        self.saves.append(self.publisher.publish(self.engine))
        published = time.perf_counter()
        self.add_s.append(added - started)
        self._await_fresh(admin, matrix, probe, started, published)
        # Saved once freshness is measured, so its cost stays out of it.
        self.publisher.keep(self.engine)

    def _await_fresh(self, admin, matrix, probe, started, published) -> None:
        """Reload, then probe until the new source is answered."""
        try:
            reload = admin.reload()
        except DaemonError as exc:
            reload = {"status": "error", "error": str(exc)}
        reloaded = time.perf_counter()
        self.events.append((published, reloaded))
        self.reload_s.append(reloaded - published)
        if not isinstance(reload, dict) or reload.get("status") != "reloaded":
            self.failures.append("error")
            return
        while True:
            response, error = _send(admin, probe)
            cause = classify(response, error)
            if cause is None and matrix.source_id in response["sources"]:
                self.freshness.append(time.perf_counter() - started)
                return
            if cause is None:
                cause = "wrong_answer"  # served, but the new source is missing
            if time.perf_counter() - started > 20.0:
                self.failures.append(cause)
                return
            time.sleep(0.005)


def generation_bounds(outcome: Outcome, events) -> range:
    """Generations that may have answered ``outcome``.

    Generation ``g >= 1`` was published at ``events[g-1][0]`` and
    certainly serving once its reload returned at ``events[g-1][1]``;
    requests in flight across a reload finish on the old pool.
    """
    low = sum(1 for _published, reloaded in events if reloaded <= outcome.sent)
    high = sum(1 for published, _reloaded in events if published <= outcome.recv)
    return range(low, high + 1)


def reference_answers(generations, pool, replay) -> list[list]:
    """Per generation, the in-process answers to every pool query.

    ``replay(engine, specs)`` executes the specs and returns answer
    lists; the engines are cold ``mmap_index=True`` loads of each saved
    generation, the same load the daemon's workers do.
    """
    refs = []
    for directory in generations:
        engine = load_engine_sharded(directory, mmap_index=True)
        refs.append(replay(engine, pool))
        del engine
    return refs


def check_outcomes(outcomes, refs, events, failures: dict) -> int:
    """Tally failure causes into ``failures``; returns wrong answers."""
    wrong = 0
    for outcome in outcomes:
        cause = outcome.cause
        if cause is None:
            got = answer_list(outcome.response["answers"])
            allowed = generation_bounds(outcome, events)
            if not any(got == refs[g][outcome.index] for g in allowed):
                cause = "wrong_answer"
                wrong += 1
        if cause is not None:
            failures[cause] = failures.get(cause, 0) + 1
    return wrong


def scrape(daemon: DaemonProcess) -> dict:
    """Server-side figures: ``/stats`` latency p50 and ``/metrics`` sheds."""
    with daemon.client("scrape") as client:
        stats = client.stats()
        text = client.metrics_text()
    shed = 0.0
    for line in str(text).splitlines():
        if line.startswith("imgrn_serve_shed"):
            shed += float(line.rsplit(" ", 1)[1])
    latency = stats.get("latency_seconds", {}) if isinstance(stats, dict) else {}
    return {
        "server_p50_ms": float(latency.get("p50", 0.0)) * 1e3,
        "shed": shed,
    }


@dataclass
class Session:
    """Everything one serving session measured, before answer checks."""

    closed: list
    closed_wall: float
    quiet: list
    publish: list
    writer: Writer
    server: dict
    #: Host-speed readings at the phase boundaries (with a probe).
    readings: list

    @property
    def outcomes(self) -> list:
        return self.closed + self.quiet + self.publish


def serve_session(
    daemon: DaemonProcess,
    engine,
    publisher: Publisher,
    pool,
    arrivals,
    phases: tuple[float, float, float],
    rate: float,
    interval: float,
    probe=None,
    beside_reads: bool = True,
) -> Session:
    """Three phases of ``phases`` seconds each. 1: closed-loop saturation
    burst. 2: open loop at ``rate`` with no writes. 3: the same open loop
    while the writer ingests one arrival every ``interval``; with
    ``beside_reads`` off, the writer runs alone, no read in flight.

    Reloads make phase 3's latency swing with the host's speed far more
    than phase 2's, so the gated latencies come from phase 2 and phase 3
    reports reads beside writes separately.

    ``probe`` (a :class:`~perfbench.calibrate.SpeedProbe`) reads host
    speed at the four phase boundaries, while no request is in flight,
    so the kernel never competes with the daemon's workers.
    """
    closed_s, quiet_s, publish_s = phases
    readings: list[float] = []

    def sample() -> None:
        if probe is not None:
            readings.append(probe.reading())

    sample()
    closed, closed_wall = closed_loop(daemon, pool, closed_s)
    sample()
    quiet = open_loop(daemon, pool, quiet_s, rate)
    sample()
    writer = Writer(daemon, engine, publisher, arrivals, interval)
    if beside_reads:
        during = open_loop(daemon, pool, publish_s, rate, writer=writer)
    else:
        start = time.perf_counter()
        writer.run(start, start + publish_s)
        during = []
    sample()
    return Session(
        closed, closed_wall, quiet, during, writer, scrape(daemon), readings
    )


def settle(session: Session, generations, pool, replay) -> dict:
    """Check every served answer; returns failure counts and attempts.

    ``generations`` starts with the one served when the session began.
    """
    refs = reference_answers(generations, pool, replay)
    failures: dict[str, int] = {}
    events = session.writer.events
    check_outcomes(session.outcomes, refs, events, failures)
    for cause in session.writer.failures:
        failures[cause] = failures.get(cause, 0) + 1
    attempted = len(session.outcomes) + len(events)
    return {
        "failures": failures,
        "wrong": failures.get("wrong_answer", 0),
        "attempted": attempted,
    }


def serving_layers(session: Session) -> dict[str, float]:
    """Daemon, load-generator, publish and ingest figures of a session."""
    ok = [o for o in session.quiet if o.cause is None]
    worker = [o.response["seconds"] for o in ok]
    overhead = [(o.recv - o.sent) - o.response["seconds"] for o in ok]
    lag = [o.sent - o.due for o in session.quiet + session.publish]
    saves = session.writer.saves
    n_saves = max(1, len(saves))
    return {
        "daemon.worker_ms": median(worker) * 1e3,
        "daemon.overhead_ms": median(overhead) * 1e3,
        "daemon.server_p50_ms": session.server["server_p50_ms"],
        "daemon.reload_ms": median(session.writer.reload_s) * 1e3,
        "daemon.shed": session.server["shed"],
        "loadgen.lag_p95_ms": percentile(lag, 95.0) * 1e3,
        "build.add_matrix_ms": median(session.writer.add_s) * 1e3,
        "persist.save_ms": median([s["save_s"] for s in saves]) * 1e3,
        "persist.shards_written": sum(s["written"] for s in saves) / n_saves,
        "persist.shards_skipped": sum(s["skipped"] for s in saves) / n_saves,
    }
