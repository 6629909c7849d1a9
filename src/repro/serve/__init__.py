"""Concurrent query-serving layer (see ``docs/serving.md``).

:class:`QueryServer` wraps any built :class:`repro.core.QueryEngine`
and serves batches or streams of IM-GRN queries concurrently, with
per-query deadlines. :func:`run_query` is the one never-raise executor
behind it and behind both daemon backends: it runs a spec on an engine
and returns a timed :class:`QueryOutcome` (``ok`` or ``error``).

:class:`QueryDaemon` (``imgrn serve``, see ``docs/daemon.md``) puts a
sharded save on the network: an asyncio HTTP/1.1 front end with
admission control and per-client rate limits over a pool of forked
workers that mmap the index read-only. :class:`DaemonClient` is its
stdlib client.
"""

from .client import DaemonClient, DaemonError
from .daemon import DaemonHandle, QueryDaemon, serve_in_background
from .server import (
    QueryOutcome,
    QueryServer,
    QuerySpec,
    ServeConfig,
    run_query,
)

__all__ = [
    "DaemonClient",
    "DaemonError",
    "DaemonHandle",
    "QueryDaemon",
    "QueryOutcome",
    "QueryServer",
    "QuerySpec",
    "ServeConfig",
    "run_query",
    "serve_in_background",
]
