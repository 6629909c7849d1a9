"""Host-speed calibration: a fixed kernel timed between measured steps.

On a shared host the CPU's speed drifts by ±30% over seconds to
minutes, and by up to 1.8x between hours; a deterministic index build
alone varied 25% between runs. That drift, not the program, dominated
every timing's run-to-run spread.
The benchmark therefore times a fixed kernel that does not touch the
program between the measured steps. Its compute part is a Python
heap/dict loop, small NumPy filters like the traversal's and small
matrix products like the estimator's. Its memory part gathers from a
16 MB array and walks a list in random order, because the atlas index
outgrows the caches and slows more than compute under contention.

A reading is taken before the first measured step and after each one,
and each step's time is divided by the slowdown of the readings around
it, so drift within a run is tracked step by step: a set-up, an arrival,
or a stretch of 32 queries. The raw values are printed next to the
normalized ones. On the 2-vCPU Xeon (2.0 GHz) host the benchmark was
built on, with contention coming in bursts, this cut the spread of
3-s windows of atlas query latency from 15% to 6%; one correction over
the whole run left it at 15%. Over ten 20-s panel runs on a noisy
afternoon, the quartile spread of query p50 was 16% raw and 3% corrected.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from .common import median

#: Kernel part times (seconds) at reference speed: about their medians
#: on the host above. Any constants would do; they fix the unit of
#: normalized times.
REFERENCE_SECONDS = {"compute": 0.0080, "memory": 0.0090}

_RNG = np.random.default_rng(0)
_LOWS = _RNG.random((16, 5)) * 10
_HIGHS = _RNG.random((16, 5)) * 10
_SORTED = np.sort(_RNG.random(8) * 10)
_BLOCK = _RNG.random((200, 24))
_COLS = _RNG.random((24, 8))
_MEMORY: dict = {}


def _compute() -> None:
    heap: list = []
    table: dict = {}
    for i in range(3000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[i % 97] = i
    while heap:
        heapq.heappop(heap)
    for _ in range(300):
        alive = (_LOWS[:, 2] <= 5.0) & (_HIGHS[:, 2] >= 3.0)
        np.searchsorted(_SORTED, _LOWS[:, 2])
        int((alive[:, None] & alive[None, :]).sum())
    for _ in range(30):
        _BLOCK @ _COLS


def _memory() -> None:
    if not _MEMORY:  # allocated on first use, never at import
        _MEMORY["array"] = _RNG.random(2_000_000)
        _MEMORY["rows"] = _RNG.integers(0, 2_000_000, 20_000)
        _MEMORY["list"] = list(range(200_000))
        _MEMORY["order"] = _RNG.permutation(200_000)[:20_000].tolist()
    array, rows = _MEMORY["array"], _MEMORY["rows"]
    for _ in range(10):
        array[rows].sum()
    items = _MEMORY["list"]
    total = 0
    for i in _MEMORY["order"]:
        total += items[i]


def kernel() -> dict[str, float]:
    """Run both kernel parts once; returns each part's wall seconds."""
    out = {}
    for part, work in (("compute", _compute), ("memory", _memory)):
        started = time.perf_counter()
        work()
        out[part] = time.perf_counter() - started
    return out


class SpeedProbe:
    """Readings of host speed, taken between measured steps."""

    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        kernel()  # the first run allocates the memory part's buffers

    def reading(self) -> float:
        """Host slowdown now, relative to reference speed.

        The kernel runs ``repeats`` times; each part's median time over
        its reference time is that part's slowdown, and the reading is
        the geometric mean of the parts' slowdowns. The median keeps one
        interrupted kernel run from skewing the reading.
        """
        runs = [kernel() for _ in range(self.repeats)]
        slowdowns = [
            median([run[part] for run in runs]) / reference
            for part, reference in REFERENCE_SECONDS.items()
        ]
        return float(np.prod(slowdowns) ** (1.0 / len(slowdowns)))


def bracketed(readings: list[float]) -> list[float]:
    """Slowdown of each step between consecutive ``readings``: the
    geometric mean of the readings just before and just after it."""
    return [math.sqrt(a * b) for a, b in zip(readings, readings[1:])]


def at_reference(seconds: list[float], readings: list[float]) -> list[float]:
    """Step times at reference host speed. ``readings`` holds one reading
    before the first step and one after each step."""
    return [s / f for s, f in zip(seconds, bracketed(readings))]
