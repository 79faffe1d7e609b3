"""EXP-REMOTE — distributed dispatch overhead vs the in-process pool.

The distributed transport's promise is that moving sweep chunks over a
socket instead of a ``ProcessPoolExecutor`` pipe costs, at worst, a
modest constant factor — the simulations dominate and the wire carries
only compressed job/outcome pickles.  Two series pin that on loopback:

* ``bench_campaign_pool`` — a one-worker in-process pool (the fairest
  local analogue of a one-worker fleet: same chunking, same
  submission-order merge, one process executing);
* ``bench_campaign_remote_loopback`` — the same campaign through a
  ``repro worker serve`` subprocess on 127.0.0.1; the bench asserts the
  reports are byte-identical and tabulates loopback dispatch against
  the pool (it is usually *cheaper*: the worker is already warm, while
  the pool forks fresh processes per sweep).

Both series land in ``BENCH_simperf.json``.  The two wall-clock ratio
ceilings over this code (``OVERHEAD_CEILING``,
``SPANS_DISABLED_CEILING``) are asserted by the ``*_ceiling`` functions
at the bottom, marked ``perf``: tier-1 deselects them (a ratio of two
wall times is not something a shared machine can promise),
``pytest -m perf`` runs them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import ascii_table
from repro.faults import run_campaign
from repro.obs.spans import SpanRecorder, recording
from repro.parallel import (
    ProcessPoolRunner,
    RemoteRunner,
    RingScenario,
    StandardRingInvariants,
)
from conftest import _PERF, emit, timed

N = 4
ITERS = 3
RUNS = 80
SCENARIO = RingScenario(nprocs=N, iters=ITERS)
INVARIANTS = StandardRingInvariants(ITERS, N)
#: Loopback socket dispatch may not cost more than this over the pool.
OVERHEAD_CEILING = 1.5
#: With no recorder installed the span hooks must be free: the spans-off
#: campaign may not cost more than this over the plain loopback series.
SPANS_DISABLED_CEILING = 1.05

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def worker_addr():
    """One warm ``repro worker serve`` subprocess on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "serve",
         "--bind", "127.0.0.1:0"],
        cwd=REPO_ROOT,
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    assert "listening on" in line, f"worker failed to start: {line!r}"
    hostport = line.split("listening on ")[1].split()[0]
    host, port = hostport.rsplit(":", 1)
    yield (host, int(port))
    proc.terminate()
    proc.stderr.close()
    proc.wait(timeout=10)


def _campaign(runner):
    return run_campaign(
        SCENARIO,
        seeds=range(RUNS),
        horizon=2e-5,
        invariants=INVARIANTS,
        runner=runner,
    )


def bench_campaign_pool(benchmark):
    reports = []
    timed(
        benchmark,
        lambda: reports.append(_campaign(ProcessPoolRunner(workers=1))),
    )
    s = reports[-1].summary()
    emit(
        f"campaign via one-worker pool ({RUNS} runs, fig2 ring n={N})",
        ascii_table(
            ["runs", "ok", "hangs", "violations", "aborts"],
            [[s["runs"], s["ok"], s["hangs"], s["violations"], s["aborts"]]],
        ),
    )
    assert s["runs"] == RUNS


def bench_campaign_remote_loopback(benchmark, worker_addr):
    reports = []
    runners = []

    def once():
        runner = RemoteRunner(addresses=[worker_addr])
        runners.append(runner)
        reports.append(_campaign(runner))

    timed(benchmark, once)
    remote = reports[-1]
    assert remote.format() == _campaign(ProcessPoolRunner(workers=1)).format()

    remote_s = min(_PERF["bench_campaign_remote_loopback"])
    stats = runners[-1].worker_stats()[0]
    rows = [["remote (loopback)", f"{remote_s:.4f}", "-"]]
    pool_series = _PERF.get("bench_campaign_pool")
    if pool_series:
        pool_s = min(pool_series)
        ratio = remote_s / pool_s if pool_s > 0 else float("inf")
        rows.insert(0, ["pool (1 worker)", f"{pool_s:.4f}", "-"])
        rows[-1][-1] = f"{ratio:.2f}x"
    emit(
        "campaign, remote loopback (same runs over the socket transport)",
        ascii_table(["mode", "min wall s", "overhead"], rows),
    )
    emit(
        "remote transport wire profile (one sweep)",
        ascii_table(
            ["chunks", "jobs", "wire bytes", "compression"],
            [[
                stats["chunks"],
                stats["jobs"],
                stats["bytes_out"] + stats["bytes_in"],
                f"{stats['compression']}x",
            ]],
        ),
    )


def _spans_round(worker_addr, walls: dict[str, list[float]]) -> None:
    """One interleaved round of the span-overhead comparison: a plain
    reference campaign, the spans-*off* path (hooks compiled in, no
    recorder installed) and the spans-*on* path, each appending its
    wall time to *walls*."""
    for label in ("plain", "off", "on"):
        runner = RemoteRunner(addresses=[worker_addr])
        t0 = time.perf_counter()
        if label == "on":
            recorder = SpanRecorder(kind="campaign")
            with recording(recorder):
                report = _campaign(runner)
            wall = time.perf_counter() - t0
            jobs = sum(
                1 for s in recorder.export_raw() if s.get("cat") == "job"
            )
            assert jobs == RUNS
        else:
            report = _campaign(runner)
            wall = time.perf_counter() - t0
        walls[label].append(wall)
        assert report.summary()["runs"] == RUNS


def bench_campaign_remote_spans(benchmark, worker_addr):
    """The same loopback campaign with span recording off vs on.

    Each round interleaves three passes — a plain reference campaign,
    the spans-*off* path (hooks compiled in, no recorder installed),
    and the spans-*on* path (a :class:`SpanRecorder` active, worker
    spans shipped back in every done frame).  Interleaving keeps the
    comparison warmth-matched: cross-bench mins drift far more than the
    hooks cost.  The spans-off and spans-on wall times land as their
    own ``BENCH_simperf.json`` series (so the *trajectory* of the
    disabled path is pinned across commits); that the disabled path
    stays within ``SPANS_DISABLED_CEILING`` of the reference pass —
    tracing must be opt-in and free when off — is asserted by
    ``bench_campaign_remote_spans_ceiling``.
    """
    walls: dict[str, list[float]] = {"plain": [], "off": [], "on": []}
    timed(benchmark, lambda: _spans_round(worker_addr, walls))
    plain_s = min(walls["plain"])
    off_s, on_s = min(walls["off"]), min(walls["on"])
    _PERF.setdefault("bench_campaign_remote_spans_off", []).extend(
        walls["off"]
    )
    _PERF.setdefault("bench_campaign_remote_spans_on", []).extend(
        walls["on"]
    )
    disabled = off_s / plain_s if plain_s > 0 else float("inf")
    enabled = on_s / off_s if off_s > 0 else float("inf")
    emit(
        "campaign, remote loopback: span recording overhead",
        ascii_table(
            ["mode", "min wall s", "vs reference"],
            [
                ["reference (no recorder)", f"{plain_s:.4f}", "-"],
                ["spans off", f"{off_s:.4f}", f"{disabled:.2f}x"],
                ["spans on", f"{on_s:.4f}", f"{enabled:.2f}x vs off"],
            ],
        ),
    )


@pytest.mark.perf
def bench_campaign_remote_loopback_ceiling(worker_addr):
    # Interleaved best-of-3, pool and loopback passes back to back.
    best = {"pool": float("inf"), "remote": float("inf")}
    for _ in range(3):
        for label in best:
            runner = (
                ProcessPoolRunner(workers=1) if label == "pool"
                else RemoteRunner(addresses=[worker_addr])
            )
            t0 = time.perf_counter()
            _campaign(runner)
            best[label] = min(best[label], time.perf_counter() - t0)
    ratio = best["remote"] / best["pool"]
    assert ratio <= OVERHEAD_CEILING, (
        f"loopback dispatch cost {ratio:.2f}x the in-process pool "
        f"(ceiling: {OVERHEAD_CEILING}x)"
    )


@pytest.mark.perf
def bench_campaign_remote_spans_ceiling(worker_addr):
    walls: dict[str, list[float]] = {"plain": [], "off": [], "on": []}
    for _ in range(4):
        _spans_round(worker_addr, walls)
    disabled = min(walls["off"]) / min(walls["plain"])
    assert disabled <= SPANS_DISABLED_CEILING, (
        f"spans-off campaign cost {disabled:.2f}x the interleaved "
        f"reference pass (ceiling: {SPANS_DISABLED_CEILING}x) — the "
        f"disabled span path is supposed to be free"
    )
