"""Streamed campaign memory does not grow with campaign size.

``run_campaign(..., stream=True)`` holds a bounded window of jobs and
results however many seeds the campaign samples (``docs/performance.md``).
Peak RSS is monotone within a process, so the only honest check runs
two streamed campaigns 10x apart in size, *each in a fresh child
process*, and compares their peak RSS.  A materialized campaign fails
this immediately: its job and run lists grow linearly.

Slow (minutes): ``pytest -m slow tests/test_campaign_scale.py``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMALL, LARGE = 10_000, 100_000
#: Max peak-RSS growth allowed across the 10x size step.
RSS_RATIO_CEILING = 1.15


def child(runs: int) -> None:
    """Run one streamed campaign; print its summary and peak RSS as JSON."""
    from repro.faults import run_campaign
    from repro.parallel import RingScenario, StandardRingInvariants

    summary = run_campaign(
        RingScenario(nprocs=4, iters=3),
        seeds=range(runs),
        horizon=2e-5,
        invariants=StandardRingInvariants(3, 4),
        stream=True,
    ).summary()
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))


def run_child(runs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"from tests.test_campaign_scale import child; child({runs})"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.slow
def test_streamed_peak_rss_is_flat_across_a_10x_size_step():
    small, large = run_child(SMALL), run_child(LARGE)
    assert (small["runs"], large["runs"]) == (SMALL, LARGE)
    ratio = large["peak_rss_kb"] / small["peak_rss_kb"]
    assert ratio <= RSS_RATIO_CEILING, (small, large)
