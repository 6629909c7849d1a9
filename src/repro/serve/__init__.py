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

from typing import TYPE_CHECKING

from .client import DaemonClient, DaemonError
from .server import (
    QueryOutcome,
    QueryServer,
    QuerySpec,
    ServeConfig,
    run_query,
)

if TYPE_CHECKING:  # pragma: no cover - the static view of the lazy exports
    from .daemon import DaemonHandle, QueryDaemon, serve_in_background

#: Exported on first access: the daemon module loads ``asyncio`` and the
#: process-pool machinery, which a client or an in-process caller never
#: needs.
_DAEMON_EXPORTS = frozenset({"DaemonHandle", "QueryDaemon", "serve_in_background"})


def __getattr__(name: str):
    if name in _DAEMON_EXPORTS:
        from . import daemon

        return getattr(daemon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
