"""One fresh process per measurement: ``python child.py '<json spec>'``.

``run.py`` starts this for every (round, workload) so that no workload
sees another's heap, import cache or warmed pools.  The spec names a
``mode``:

* ``time`` — the untraced pass: set up, one untimed warm-up repeat, then
  timed repeats until ``seconds`` have been measured; ``expect`` hands a
  later round the reference the first round made;
* ``trace`` — the traced pass of one workload: plain and instrumented
  repeats interleaved, with the benchmark's span recorder on;
* ``probes`` — the per-layer probe suite (``layers.py``).

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import ExitStack
from typing import Any

import host

#: Host speed as this process starts, before the program is imported; with
#: the slices after the warm-up it calibrates ``setup_s``.
FIRST_SLICES = host.calib_slices()

import adapter  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import OFF, Recorder, seconds  # noqa: E402


def _start(spec: dict[str, Any], stack: ExitStack, rec: Recorder) -> Any:
    """Pin if the workload is single-process, then build it (set-up)."""
    cls = workloads.WORKLOADS[spec["workload"]]
    if cls.pinned:
        stack.enter_context(host.one_cpu())
    work = cls(spec["seed"], spec["quick"], rec, spec.get("expect"))
    stack.callback(work.close)
    return work


def timed_round(spec: dict[str, Any]) -> dict[str, Any]:
    """Set-up, warm-up, then checked repeats timed until ``seconds``."""
    with ExitStack() as stack:
        work = _start(spec, stack, OFF)
        failed = work.repeat()  # warm-up, and the reference where in-process
        attempted = work.sims
        # The serial reference is the benchmark's own check, not set-up.
        setup_s = time.monotonic() - spec["spawned_at"] - work.reference_s
        around = host.calib_slices()
        setup_slices = FIRST_SLICES + around
        walls: list[float] = []
        slices: list[list[float]] = []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < spec["seconds"]:
            t0 = time.perf_counter()
            bad = work.repeat()
            walls.append(time.perf_counter() - t0)
            before, around = around, host.calib_slices()
            slices.append(before + around)
            attempted += work.sims
            failed += bad
        affinity = sorted(os.sched_getaffinity(0))
        result = {
            "walls": walls,
            "slices": slices,
            "setup_s": setup_s,
            "setup_slices": setup_slices,
            "sims": work.sims,
            "attempted": attempted,
            "failed": failed,
            "expect": work.expect,
            "affinity": affinity,
            "fibers": adapter.fiber_backend(),
            "inputs": work.inputs(),
        }
    # After close(): fleet workers are reaped, so their memory counts.
    result["peak_rss_mb"] = host.peak_rss_mb()
    return result


def traced_round(spec: dict[str, Any]) -> dict[str, Any]:
    """``obs.*``: the workload with the program's opt-in instruments on
    against itself with them off, interleaved, best of each."""
    rec = Recorder(spec["workload"])
    reason = None
    with ExitStack() as stack:
        with rec.span("workload.setup"):
            work = _start(spec, stack, rec)
            failed = work.repeat()
        attempted = work.sims
        plain: list[float] = []
        traced: list[float] = []
        recorded = telemetry_bytes = 0
        for _ in range(1 if spec["quick"] else 2):
            rec.enabled = False
            t0 = time.perf_counter()
            failed += work.repeat()
            plain.append(time.perf_counter() - t0)
            rec.enabled = True
            before = len(rec.spans)
            try:
                with rec.span("workload.repeat") as span:
                    failed += work.repeat(instrumented=True)
            except adapter.Missing as exc:
                reason = str(exc)
                break
            traced.append(seconds(span))
            attempted += 2 * work.sims
            recorded = (
                len(rec.spans) - before + len(work.last.get("program_spans", ()))
            )
            telemetry_bytes = work.last.get("telemetry_bytes", 0)
        calib = min(host.calib_slices(5)) * 1e3
    q1, median, q3 = host.quartiles(plain)
    metrics = {
        "obs.trace_overhead_ratio": min(traced) / min(plain) if traced else None,
        "obs.spans_recorded": recorded if traced else None,
        "obs.telemetry_bytes": telemetry_bytes if traced else None,
        "host.calib_ms": calib,
        "host.wall_best_s": min(plain),
        "host.wall_median_s": median,
        "host.wall_iqr_s": q3 - q1,
        "host.repeats": len(plain),
    }
    reasons = {name: reason for name, value in metrics.items() if value is None}
    return {
        "metrics": metrics,
        "reasons": reasons,
        "attempted": attempted,
        "failed": failed,
        "spans": rec.spans,
    }


def probe_suite(spec: dict[str, Any]) -> dict[str, Any]:
    rec = Recorder("probes")
    metrics, reasons = layers.run_probes(
        layers.Context(spec["seed"], spec["quick"], rec)
    )
    return {"metrics": metrics, "reasons": reasons, "spans": rec.spans}


MODES = {"time": timed_round, "trace": traced_round, "probes": probe_suite}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = MODES[spec["mode"]](spec)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
