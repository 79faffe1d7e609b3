"""Campaign memory does not grow with campaign size.

``repro campaign`` prints only its report, so it folds every run into
a ``stream=True`` report: a bounded window of jobs and results in
flight, O(failures) kept, however many seeds the campaign samples
(``docs/performance.md``).  Peak RSS is monotone within a process, so
the only honest check runs two campaigns 10x apart in size, *each in a
fresh child process*, and compares their peak RSS.  A campaign that
kept its runs would fail this immediately: its run list grows linearly.

Slow (minutes): ``pytest -m slow tests/test_campaign_scale.py``.
"""

from __future__ import annotations

import contextlib
import io
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
    """Run one CLI campaign; print its report and peak RSS as JSON."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["campaign", "--nprocs", "4", "--iters", "3",
              "--runs", str(runs), "--horizon", "2e-5"])
    print(json.dumps({
        "report": out.getvalue(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


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
    for runs, got in ((SMALL, small), (LARGE, large)):
        assert got["report"].startswith(f"campaign: {runs} runs,"), got
    ratio = large["peak_rss_kb"] / small["peak_rss_kb"]
    assert ratio <= RSS_RATIO_CEILING, (small, large)
