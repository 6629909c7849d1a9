"""Small helpers shared by the workload runners."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

import numpy as np

#: Failure causes counted on every workload (see README.md).
FAILURE_CAUSES = (
    "page_unallocated",
    "worker_died",
    "pool_retired",
    "timeout",
    "shed",
    "wrong_answer",
    "error",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def answer_list(answers) -> list[tuple[int, float]]:
    """``(source_id, probability)`` pairs of a result or a wire payload."""
    out = []
    for answer in answers:
        if isinstance(answer, dict):
            out.append((int(answer["source_id"]), float(answer["probability"])))
        else:
            out.append((int(answer.source_id), float(answer.probability)))
    return out


def classify(response: dict | None, error: str | None = None) -> str | None:
    """Failure cause of one daemon response; ``None`` for a served answer."""
    if error is not None:
        return "error"
    status = response.get("status")
    if status == "ok":
        return None
    if status in ("shed", "rate_limited"):
        return "shed"
    if status == "timeout":
        return "timeout"
    message = str(response.get("error", ""))
    if "never allocated" in message:
        return "page_unallocated"
    if "worker died" in message:
        return "worker_died"
    if "no idle worker" in message:
        # Dispatched to a pool that a hot reload retired and closed.
        return "pool_retired"
    return "error"


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def provenance(root: Path, workload: str, seed: int) -> dict:
    """Where and on what a run was measured."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": commit,
        "platform": platform.platform(),
    }
