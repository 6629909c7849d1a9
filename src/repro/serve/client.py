"""Stdlib client for the serving daemon (``repro.serve.daemon``).

:class:`DaemonClient` wraps the daemon's small HTTP/1.1 JSON protocol
with ``http.client`` -- no new dependencies, one persistent keep-alive
connection per client instance, safe to use from one thread at a time
(create one client per thread for concurrent load; they are cheap).

>>> with DaemonClient("127.0.0.1", 8080) as client:
...     outcome = client.query(matrix, gamma=0.5, alpha=0.4)
...     outcome["status"], outcome["sources"]
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ..data.matrix import GeneFeatureMatrix
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - types only
    import http.client

__all__ = ["DaemonClient", "DaemonError"]


class DaemonError(ReproError):
    """Transport-level failure talking to the daemon (not a query error:
    shed / rate-limited / timeout responses are structured payloads)."""


class DaemonClient:
    """One keep-alive connection to a :class:`~repro.serve.QueryDaemon`.

    ``client_id`` is sent as ``X-Client-Id`` so the daemon's per-client
    token buckets can tell callers apart behind one address.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        client_id: str | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.client_id = client_id
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            # Imported on first use: http.client loads ssl and email,
            # about 6 MB of RSS that an importer of repro never needs.
            from http.client import HTTPConnection

            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, Any]:
        from http.client import HTTPException

        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        for attempt in (0, 1):  # one reconnect after a stale keep-alive
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, HTTPException, OSError) as exc:
                self.close()
                if attempt:
                    raise DaemonError(
                        f"daemon unreachable at {self.host}:{self.port}: {exc}"
                    ) from exc
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            try:
                return response.status, json.loads(raw)
            except ValueError as exc:
                raise DaemonError(f"malformed daemon response: {exc}") from exc
        return response.status, raw.decode("utf-8", errors="replace")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def query(
        self,
        matrix: GeneFeatureMatrix,
        gamma: float,
        alpha: float | None = None,
        *,
        kind: str = "containment",
        k: int | None = None,
        edge_budget: int | None = None,
    ) -> dict:
        """Run one IM-GRN query; returns the structured outcome dict.

        The workload ``kind`` mirrors :class:`repro.core.QuerySpec`:
        ``containment`` (the default) takes ``alpha``; ``topk`` takes
        ``k`` (and no ``alpha``); ``similarity`` takes ``alpha`` and
        ``edge_budget``. Only the parameters the kind uses are sent, so
        the daemon's single-source validation decides what is legal.

        ``status`` is one of ``ok`` / ``error`` / ``timeout`` / ``shed``
        / ``rate_limited``; ``ok`` outcomes carry the echoed ``kind``,
        ``sources``, ``answers`` and per-query ``stats``. Degraded
        outcomes come back as payloads (with the matching HTTP code),
        not exceptions, so load-test loops can tally them without
        try/except.
        """
        payload = {
            "values": matrix.values.tolist(),
            "gene_ids": list(matrix.gene_ids),
            "source_id": matrix.source_id,
            "gamma": float(gamma),
        }
        if kind != "containment":
            payload["kind"] = kind
        if alpha is not None:
            payload["alpha"] = float(alpha)
        if k is not None:
            payload["k"] = int(k)
        if edge_budget is not None:
            payload["edge_budget"] = int(edge_budget)
        _code, outcome = self._request("POST", "/query", payload)
        return outcome

    def health(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def stats(self) -> dict:
        return self._request("GET", "/stats")[1]

    def metrics_text(self) -> str:
        """The ``/metrics`` endpoint's Prometheus text exposition."""
        return self._request("GET", "/metrics")[1]

    def reload(self) -> dict:
        """Ask the daemon to re-check the save fingerprint (hot reload)."""
        return self._request("POST", "/reload")[1]
