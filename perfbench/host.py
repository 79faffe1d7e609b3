"""Host-side helpers: CPU pinning, calibration, memory, fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

REPO = Path(__file__).resolve().parent.parent


@contextmanager
def one_cpu() -> Iterator[None]:
    """Run the block on the lowest CPU this process may use.

    The stdlib thread-baton fibers hand off between two threads per
    event; when those land on different cores a handoff costs ~3.5x (see
    README), so single-process simulations run on exactly one CPU.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


#: The calibration loop takes this long on the quiet 2.1 GHz container the
#: benchmark was written on; calibrated seconds are seconds on such a host.
CALIB_NOMINAL_S = 0.016


def calib_slices(count: int = 2) -> list[float]:
    """Seconds of *count* runs of a fixed pure-Python loop.

    It moves with the host, never with the repository.  Timed next to
    every repeat, it is what the gated timings are divided by: when a
    neighbour slows this core down for minutes, the loop slows with the
    workload and most of the slowdown cancels (README, "Host calibration").
    """
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        out.append(time.perf_counter() - t0)
    return out


def calibrated(seconds: float, slices: list[float]) -> float:
    """*seconds* as they would read were the loop at its nominal speed."""
    return seconds * CALIB_NOMINAL_S * len(slices) / sum(slices)


def peak_rss_mb() -> float:
    """Peak resident MiB of this process plus its largest reaped child.

    ``ru_maxrss`` is KiB on Linux; for children it is the maximum over
    every descendant that has been waited for, i.e. the largest pool or
    fleet worker (0 when the workload started none).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int, quick: bool) -> dict[str, Any]:
    """What a reader needs to judge whether two outputs are comparable."""
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "quick": quick,
    }
