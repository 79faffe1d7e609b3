"""The one module of the benchmark that imports ``repro``.

Everything else in ``perfbench/`` sees plain dicts, so churn in the
program lands here and nowhere else.  Two tiers:

* the **workload entry points**, imported at module load and used by the
  end-to-end pass: ``Simulation`` + ``make_ring_main``, ``RingScenario``,
  ``run_campaign``, ``run_compare_protocols``, ``make_runner``,
  ``RunCache``, ``python -m repro worker serve`` and the
  ``repro.perf.SESSION`` / ``CACHE`` counters;
* the **probe entry points**, looked up on use by :func:`need`; a probe
  whose entry point is gone raises :class:`Missing` and the traced pass
  reports ``null`` with that reason — no end-to-end number depends on one.

Each call into a layer's public function is wrapped in a span of the
recorder it is given (``spans.OFF`` in the untraced pass).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from host import REPO
from spans import Recorder, seconds

SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"perfbench: no program to measure at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

from repro import perf  # noqa: E402
from repro.cache import RunCache  # noqa: E402
from repro.core import RingConfig, RingVariant, Termination, make_ring_main  # noqa: E402
from repro.faults import run_campaign  # noqa: E402
from repro.parallel import RingScenario, StandardRingInvariants, make_runner  # noqa: E402
from repro.protocols import run_compare_protocols  # noqa: E402
from repro.simmpi import Simulation  # noqa: E402

#: The logical ring every sweep workload samples: 8 ranks, 6 iterations,
#: the paper's final design (marker + validate_all), kills within the
#: run's ~8e-5 s of virtual time.
SWEEP_NPROCS = 8
SWEEP_ITERS = 6
SWEEP_HORIZON = 8e-5
SWEEP_KILLS = 2


class Missing(Exception):
    """A probe's entry point is not in this version of the program."""


def need(module: str, *names: str) -> Any:
    """Import *module* and return the named attributes (or the module)."""
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise Missing(f"cannot import {module}: {exc}") from exc
    try:
        found = [getattr(mod, name) for name in names]
    except AttributeError as exc:
        raise Missing(f"{module} has no {exc.name}") from exc
    if not names:
        return mod
    return found[0] if len(found) == 1 else found


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fiber_backend() -> str:
    """Backend the simulations of this process ran on (after one ran)."""
    return perf.SESSION.fibers or "unknown"


# ----------------------------------------------------------------------
# Single simulations
# ----------------------------------------------------------------------


def _kernel_counters(result: Any) -> dict[str, Any]:
    p = result.perf
    return {
        "messages": p.messages_sent,
        "events": p.events_executed,
        "handoffs": p.handoffs,
        "messages_unexpected": p.messages_unexpected,
        "kernel_wall_s": p.wall_s,
    }


def run_ring(
    rec: Recorder,
    *,
    nprocs: int,
    iters: int,
    termination: str,
    kills: Sequence[tuple[int, float]] = (),
    instrumented: bool = False,
) -> dict[str, Any]:
    """One ``ft_marker`` ring, kernel trace off; checked before returning.

    ``instrumented`` switches on the program's own opt-in kernel metrics
    (``metrics=True``) and adds what ``run_report`` derives from them.
    """
    with rec.span("simmpi.Simulation"):
        sim = Simulation(
            nprocs=nprocs, trace_enabled=False, metrics=instrumented
        )
        for rank, at in kills:
            sim.kill(rank, at)
        main = make_ring_main(
            RingConfig(
                max_iter=iters,
                variant=RingVariant.FT_MARKER,
                termination=Termination(termination),
            )
        )
    with rec.span("simmpi.Simulation.run"):
        result = sim.run(main, on_deadlock="return")
    with rec.span("analysis.invariants"):
        problems = [
            msg
            for inv in StandardRingInvariants(iters, nprocs)()
            if (msg := inv(result)) is not None
        ]
    if result.aborted is not None:
        problems.append(f"aborted: {result.aborted}")
    completions = (
        sorted(result.value(0)["root_completions"]) if not problems else []
    )
    if not problems and len(completions) != iters:
        problems.append(f"{len(completions)} of {iters} completions at root")
    out = _kernel_counters(result)
    out.update(
        final_time=result.final_time,
        problems=problems,
        failed_ranks=sorted(result.failed_ranks),
        text=f"{completions} failed={sorted(result.failed_ranks)} "
        f"t={result.final_time!r} msgs={result.perf.messages_sent}",
    )
    if instrumented:
        with rec.span("obs.run_report"):
            report = need("repro.obs.metrics", "run_report")(result, nprocs)
        out["consensus"] = [
            {"duration": dur, "rounds": rounds}
            for _rank, _start, dur, rounds, _how in report.consensus
        ]
    reports = [v for v in result.values().values() if isinstance(v, dict)]
    out["ring"] = {
        key: sum(r.get(key, 0) for r in reports)
        for key in ("forwards", "resends", "duplicates_discarded")
    }
    return out


def run_empty_sim(nprocs: int) -> float:
    """Host seconds of a simulation whose main returns at once."""
    sim = Simulation(nprocs=nprocs, trace_enabled=False)
    t0 = time.perf_counter()
    sim.run(lambda mpi: None)
    return time.perf_counter() - t0


def run_agree(nprocs: int) -> int:
    """Messages of one ``comm_agree`` among *nprocs* live ranks."""
    comm_agree = need("repro.ft", "comm_agree")
    sim = Simulation(nprocs=nprocs, trace_enabled=False)
    result = sim.run(lambda mpi: comm_agree(mpi.comm_world, mpi.rank))
    agreed = set(result.values().values())
    if agreed != {0}:
        raise RuntimeError(f"comm_agree(min) over ranks decided {agreed}")
    return result.perf.messages_sent


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def sweep_seeds(seed: int, count: int) -> range:
    """The campaign seeds a benchmark ``--seed`` stands for."""
    return range(seed * 100_000, seed * 100_000 + count)


def _program_spans(program: Any) -> list[dict[str, Any]]:
    return [
        {"name": s.name, "cat": s.cat, "dur": s.dur,
         "status": s.attrs.get("status")}
        for s in program.spans
    ]


def campaign(
    rec: Recorder,
    seeds: Iterable[int],
    *,
    runner: Any = None,
    cache: Any = None,
    keep_results: bool = False,
    instrumented: bool = False,
) -> dict[str, Any]:
    """The kill campaign every sweep workload runs, as a plain dict.

    ``keep_results`` (serial reference runs only) keeps each simulation's
    result so its virtual completion time can be summed.  ``instrumented``
    switches on the program's own opt-in pipeline instruments — span
    recording and a telemetry file — and returns what they captured.
    """
    seeds = list(seeds)
    if instrumented:
        SpanRecorder, recording = need(
            "repro.obs.spans", "SpanRecorder", "recording"
        )
        with tempfile.TemporaryDirectory(prefix="perfbench-obs-") as tmp:
            path = os.path.join(tmp, "telemetry.jsonl")
            with recording(SpanRecorder(kind="campaign")) as program:
                out = _campaign(rec, seeds, runner, cache, keep_results, path)
            out["telemetry_bytes"] = os.path.getsize(path)
        out["program_spans"] = _program_spans(program)
    else:
        out = _campaign(rec, seeds, runner, cache, keep_results, None)
    stats = getattr(runner, "worker_stats", None)
    out["worker_stats"] = stats() if callable(stats) else []
    return out


def _campaign(
    rec: Recorder,
    seeds: list[int],
    runner: Any,
    cache: Any,
    keep_results: bool,
    telemetry: str | None,
) -> dict[str, Any]:
    session = perf.SESSION.snapshot()
    counters = perf.CACHE.snapshot()
    t0 = time.perf_counter()
    with rec.span("faults.run_campaign"):
        report = run_campaign(
            RingScenario(
                nprocs=SWEEP_NPROCS,
                iters=SWEEP_ITERS,
                variant="ft_marker",
                termination="validate_all",
            ),
            seeds=seeds,
            horizon=SWEEP_HORIZON,
            kills_per_run=SWEEP_KILLS,
            invariants=StandardRingInvariants(SWEEP_ITERS, SWEEP_NPROCS),
            keep_results=keep_results,
            runner=runner,
            cache=cache,
            telemetry=telemetry,
        )
    wall = time.perf_counter() - t0
    summary = report.summary()
    out = {
        "wall_s": wall,
        "text": report.format(),
        "runs": summary["runs"],
        "bad": summary["runs"] - summary["ok"],
        "kills": sum(len(r.kills) for r in report.runs),
        "cache": perf.CACHE.delta(counters),
        "session": perf.SESSION.delta(session),
    }
    if keep_results:
        out["sim_time"] = sum(r.result.final_time for r in report.runs)
    return out


def compare_protocols(
    rec: Recorder,
    seeds: Iterable[int],
    *,
    protocols: Sequence[str] | None = None,
    instrumented: bool = False,
) -> dict[str, Any]:
    """``run_compare_protocols`` on the sweep ring, serial runner."""
    kwargs = {} if protocols is None else {"protocols": tuple(protocols)}
    program = None
    with contextlib.ExitStack() as stack:
        if instrumented:
            SpanRecorder, recording = need(
                "repro.obs.spans", "SpanRecorder", "recording"
            )
            program = stack.enter_context(recording(SpanRecorder(kind="compare")))
        t0 = time.perf_counter()
        with rec.span("protocols.run_compare_protocols"):
            report = run_compare_protocols(
                nprocs=SWEEP_NPROCS,
                iters=SWEEP_ITERS,
                seeds=list(seeds),
                horizon=SWEEP_HORIZON,
                kills_per_run=SWEEP_KILLS,
                **kwargs,
            )
        wall = time.perf_counter() - t0
    summary = report.summary()
    return {
        "wall_s": wall,
        "program_spans": _program_spans(program) if program else [],
        "text": report.format(),
        "runs": len(report.records),
        "bad": sum(r.outcome in ("hang", "violation") for r in report.records),
        "messages": sum(r.messages_sent for r in report.records),
        "sim_time": sum(r.final_time for r in report.records),
        "families": {
            name: {
                "mean_msgs": row["mean_msgs"],
                "rec_p90": row["recovery_latency"]["p90"],
            }
            for name, row in summary.items()
        },
    }


def pool_runner(rec: Recorder, workers: int) -> Any:
    with rec.span("parallel.make_runner"):
        return make_runner(workers=workers)


def remote_runner(rec: Recorder, addresses: Sequence[tuple[str, int]]) -> Any:
    with rec.span("parallel.make_runner"):
        return make_runner(addresses=list(addresses))


def sqlite_cache(directory: str) -> Any:
    return RunCache(Path(directory), backend="sqlite")


class Fleet:
    """Loopback ``python -m repro worker serve`` subprocesses, one per CPU.

    A context manager: the workers are terminated and waited for on
    every exit path.
    """

    def __init__(self, rec: Recorder, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        cpus = sorted(os.sched_getaffinity(0))
        self.procs: list[subprocess.Popen[str]] = []
        self.addresses: list[tuple[str, int]] = []
        try:
            with rec.span("parallel.fleet_start"):
                for index in range(workers):
                    proc = subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker", "serve",
                         "--bind", "127.0.0.1:0"],
                        env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                    self.procs.append(proc)
                    # One worker per CPU, as a fleet host would run them:
                    # a worker whose fiber threads straddle two cores pays
                    # ~3.5x per handoff (README, "Why pinning").
                    os.sched_setaffinity(proc.pid, {cpus[index % len(cpus)]})
                for proc in self.procs:
                    assert proc.stderr is not None
                    line = proc.stderr.readline()
                    if "listening on" not in line:
                        raise RuntimeError(f"worker did not start: {line!r}")
                    hostport = line.split("listening on ")[1].split()[0]
                    host, port = hostport.rsplit(":", 1)
                    self.addresses.append((host, int(port)))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stderr is not None:
                proc.stderr.close()
        self.procs = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Layer probes that need program objects (traced pass only)
# ----------------------------------------------------------------------


def cache_ops(rec: Recorder, seeds: Iterable[int], directory: str) -> dict[str, Any]:
    """Time the cache layer's public operations one by one.

    Fills one SQLite store through ``run_campaign`` (the cold path), then
    keys the same jobs, reads them back with ``get_many`` and writes them
    to a second store with ``put_many``.
    """
    CampaignJob = need("repro.faults.campaign", "CampaignJob")
    job_key = need("repro.cache", "job_key")
    seeds = list(seeds)
    jobs = [
        CampaignJob(
            factory=RingScenario(
                nprocs=SWEEP_NPROCS,
                iters=SWEEP_ITERS,
                variant="ft_marker",
                termination="validate_all",
            ),
            seed=seed,
            horizon=SWEEP_HORIZON,
            kills_per_run=SWEEP_KILLS,
            invariants=StandardRingInvariants(SWEEP_ITERS, SWEEP_NPROCS),
        )
        for seed in seeds
    ]
    with rec.span("cache.job_key") as keyed:
        keys = [job_key(job) for job in jobs]
    source = sqlite_cache(os.path.join(directory, "source"))
    filled = campaign(rec, seeds, cache=source)
    with rec.span("cache.get_many") as read:
        got = source.get_many(keys)
    if [status for status, _ in got] != ["hit"] * len(jobs):
        raise RuntimeError("keys derived outside the sweep missed its store")
    dest = sqlite_cache(os.path.join(directory, "dest"))
    with rec.span("cache.put_many") as written:
        dest.put_many(
            [(key, payload, job) for key, (_, payload), job in zip(keys, got, jobs)]
        )
    return {
        "jobs": len(jobs),
        "text": filled["text"],
        "cache": filled["cache"],
        "key_s": seconds(keyed),
        "cold_s": filled["wall_s"],
        "get_many_s": seconds(read),
        "put_many_s": seconds(written),
        "db_bytes": sum(
            f.stat().st_size for f in Path(source.root).rglob("*") if f.is_file()
        ),
        "store": source,
    }


def analysis_ops(rec: Recorder, calls: int = 20) -> dict[str, float]:
    """Seconds per call of the invariant battery and the result digest on
    one traced run of the sweep ring."""
    check_invariants = need("repro.parallel", "check_invariants")
    result_digest = need("repro.analysis", "result_digest")
    sim, main = RingScenario(nprocs=SWEEP_NPROCS, iters=SWEEP_ITERS)()
    sim.kill(3, SWEEP_HORIZON / 2)
    result = sim.run(main, on_deadlock="return")
    battery = StandardRingInvariants(SWEEP_ITERS, SWEEP_NPROCS)
    with rec.span("analysis.check_invariants") as inv:
        for _ in range(calls):
            if check_invariants(battery, result):
                raise RuntimeError("the sweep ring violated an invariant")
    with rec.span("analysis.result_digest") as dig:
        for _ in range(calls):
            result_digest(result)
    return {
        "invariants_s": seconds(inv) / calls,
        "digest_s": seconds(dig) / calls,
    }


def import_seconds() -> float:
    """Best-of-2 seconds for a fresh interpreter to ``import repro.cli``
    (what every ``repro`` command and every fleet worker pays)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
        best = min(best, time.perf_counter() - t0)
    return best
