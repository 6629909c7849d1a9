"""Page-access (I/O) accounting for the in-memory R*-tree.

The paper reports I/O cost as the *number of page accesses* during query
processing, with one tree node per page. This module reproduces that metric
without an actual disk: every node registers a page, and the engine charges
one access whenever it reads a node's contents. A no-buffer model is used
(every access counts), matching how the paper's numbers scale with the
traversal rather than with a cache policy.

Accounting is per *query*, not per manager: each query obtains its own
:class:`PageCounter` handle via :meth:`PageManager.counter` and charges
accesses against it, so concurrent queries over one shared index never
corrupt each other's I/O counts. The manager keeps a legacy global
counter (used by the tree's ``search``/``nearest`` oracle paths), but the
query engines no longer call :meth:`PageManager.reset`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["PageCounter", "PageManager"]


class PageCounter:
    """One query's page-access tally against a shared :class:`PageManager`.

    Owned by exactly one query execution (one thread); ``access`` is a
    bounds check plus an integer add, with no shared mutable state, so
    any number of counters may charge against the same manager
    concurrently and each still counts exactly its own traversal.
    """

    __slots__ = ("_manager", "accesses")

    def __init__(self, manager: "PageManager"):
        self._manager = manager
        self.accesses = 0

    def access(self, page_id: int) -> None:
        """Record one read of ``page_id`` on this counter."""
        self._manager.check_allocated(page_id)
        self.accesses += 1

    def access_many(self, page_ids: np.ndarray) -> None:
        """Record one read of every page in ``page_ids`` on this counter.

        One vectorized bounds check for the whole batch; an unallocated
        ID raises the same :class:`ValidationError` as :meth:`access`.
        """
        ids = np.asarray(page_ids)
        unallocated = (ids < 0) | (ids >= self._manager.num_pages)
        if unallocated.any():
            self._manager.check_allocated(int(ids[np.argmax(unallocated)]))
        self.accesses += int(ids.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageCounter(accesses={self.accesses})"


class PageManager:
    """Allocates page IDs and counts accesses.

    Attributes
    ----------
    page_size:
        Nominal page capacity in bytes; informational only (used by the
        reporting layer to estimate index size).
    """

    def __init__(self, page_size: int = 4096):
        if page_size < 64:
            raise ValidationError(f"page_size must be >= 64, got {page_size}")
        self.page_size = page_size
        self._next_page = 0
        self._accesses = 0
        self._counting = True

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a new page and return its ID."""
        page_id = self._next_page
        self._next_page += 1
        return page_id

    @property
    def num_pages(self) -> int:
        """Total pages allocated (== number of tree nodes)."""
        return self._next_page

    def reserve(self, count: int) -> None:
        """Mark page IDs ``0..count-1`` as allocated.

        Used when an index is restored from an array-store snapshot: the
        snapshot carries the original page IDs, so the fresh manager must
        accept accesses against them without re-running allocation.
        """
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        self._next_page = max(self._next_page, count)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def check_allocated(self, page_id: int) -> None:
        """Raise unless ``page_id`` was allocated by this manager."""
        if not 0 <= page_id < self._next_page:
            raise ValidationError(
                f"page {page_id} was never allocated (have {self._next_page})"
            )

    def counter(self) -> PageCounter:
        """A fresh per-query access counter charging against this manager."""
        return PageCounter(self)

    def access(self, page_id: int) -> None:
        """Record one read of ``page_id`` on the legacy global counter."""
        self.check_allocated(page_id)
        if self._counting:
            self._accesses += 1

    @property
    def accesses(self) -> int:
        """Page reads recorded since the last :meth:`reset`."""
        return self._accesses

    def reset(self) -> None:
        """Zero the access counter (called at the start of each query)."""
        self._accesses = 0

    def pause(self) -> None:
        """Stop counting (used while building the index)."""
        self._counting = False

    def resume(self) -> None:
        """Resume counting after :meth:`pause`."""
        self._counting = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageManager(pages={self._next_page}, accesses={self._accesses})"
        )
