"""Command-line interface: run paper scenarios without writing Python.

Subcommands
-----------

``ring``
    Run the fault-tolerant ring (any design variant / termination), with
    optional fail-stop injections, and print the per-rank reports plus an
    optional space-time diagram.

``explore``
    Exhaustively sweep a fail-stop through every reachable failure window
    of the ring (paper §III-E) and print the coverage map.  ``--workers``
    fans the per-window re-runs across a process pool.

``campaign``
    Randomized fault-injection campaign: sample many seeds, kill random
    ranks at random virtual times, check the invariant battery.
    ``--workers`` fans the runs across a process pool; the report is
    identical to a serial run.

``compare-protocols``
    Differential study of the recovery protocol families
    (``rts`` / ``shrink_repair`` / ``replication`` / ``partial_restart``)
    on identical fault schedules: per-protocol outcome classes, recovery
    latency percentiles, message overhead, and hang windows.

``heat`` / ``farm`` / ``abft``
    Run the bundled domain applications under optional failures.

``fuzz``
    Seeded schedule-space fuzzing: sample N configurations (scheduling
    policy × timing jitter × fault schedule) from one master seed, run
    them (``--workers`` fans out), classify with the invariant battery,
    shrink every failure, and optionally save ``.repro.json``
    reproducers.  The same seed always produces the same report.

``replay``
    Re-run saved ``.repro.json`` reproducers and verify each reproduces
    its recorded violations and trace digest byte-for-byte.

``trace``
    Run a named scenario preset (``fig2``/``fig6``/… mirror the paper's
    figures) and export its trace: Chrome Trace Event JSON for
    https://ui.perfetto.dev, a stable JSONL stream that loads back into
    a :class:`~repro.simmpi.trace.Trace`, or the ASCII space-time view.

``report``
    Aggregate a ``--telemetry`` JSONL stream offline: outcome histogram,
    wall-time percentiles, slowest jobs, worker utilization, cache hit
    rate.  ``--canon`` prints the canonical lines CI diffs between
    serial and pooled runs.

``spans`` / ``metrics`` / ``top``
    Pipeline observability: the sweep subcommands take ``--spans FILE``
    to record orchestration spans (rounds, chunks, wire frames,
    worker-side execution, cache batches) which ``spans`` validates,
    canonicalizes, or converts to Perfetto tracks; ``metrics serve``
    exposes Prometheus-style ``/metrics`` + ``/healthz`` over stdlib
    HTTP; ``top --telemetry FILE --follow`` is the live campaign
    console (progress, throughput, outcome histogram, per-worker
    chunks/rtt/bytes columns).

``cache``
    Inspect and maintain the content-addressed run cache
    (``stats`` / ``gc`` / ``verify``).  The sweep subcommands
    (``explore``, ``campaign``, ``fuzz``) take ``--cache`` to reuse
    classified outcomes across invocations; reports stay byte-identical
    (a ``[cache] hits=…`` accounting line goes to stderr).  Entries live
    in one SQLite WAL database, ``cache.sqlite`` under ``--cache-dir``.

The sweep subcommands also take ``--stream``: jobs flow through the
bounded-window streaming pipeline and are folded into running counts,
so a million-run campaign needs O(failures) memory while printing the
identical report.  ``fuzz --coverage`` switches to coverage-guided
fuzzing (novel-cell corpus + mutation; see ``docs/testing.md``).

Examples::

    python -m repro ring --nprocs 8 --iters 6 --kill-probe 3:post_recv:2
    python -m repro ring --variant naive --kill-probe 2:post_recv:2
    python -m repro explore --variant ft_marker --pairs --workers 4
    python -m repro campaign --nprocs 16 --runs 200 --workers 4
    python -m repro compare-protocols --runs 25 --workers 4
    python -m repro abft --kill-probe 2:computed:3
    python -m repro fuzz --runs 200 --seed 1 --max-kills 2 --out-dir repros
    python -m repro replay repros/fuzz-1-0007.repro.json
    python -m repro explore --cache --cache-dir .repro-cache --progress
    python -m repro cache verify --sample 10
    python -m repro trace fig6 --format perfetto -o fig6.json --validate
    python -m repro campaign --runs 200 --telemetry tel.jsonl
    python -m repro report tel.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .analysis import (
    dict_table,
    render_spacetime,
    ring_summary,
)
from .core import (
    RingConfig,
    RingVariant,
    Termination,
    make_ring_main,
    make_rootft_main,
)
from .faults import FailureSchedule, explore, run_campaign
from .parallel import RingScenario, StandardRingInvariants
from .simmpi import Simulation


def _add_kill_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kill-time", action="append", default=[], metavar="RANK:TIME",
        help="fail-stop RANK at virtual TIME (repeatable)",
    )
    p.add_argument(
        "--kill-probe", action="append", default=[], metavar="RANK:PROBE:HIT",
        help="fail-stop RANK at the HIT-th occurrence of PROBE (repeatable)",
    )


def _schedule_from(args: argparse.Namespace) -> FailureSchedule:
    sched = FailureSchedule()
    for spec in args.kill_time:
        rank, time = spec.split(":")
        sched.at_time(int(rank), float(time))
    for spec in args.kill_probe:
        rank, probe, hit = spec.split(":")
        sched.at_probe(int(rank), probe, int(hit))
    return sched


def _add_fibers_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fibers", default=None, choices=["auto", "thread", "greenlet"],
        help="fiber backend for the kernel: 'greenlet' (single-threaded, "
             "zero-lock handoffs; pip install repro[fast]) or 'thread' "
             "(pure-stdlib baton fallback); 'auto' picks greenlet when "
             "importable (default: $REPRO_FIBERS, else auto)",
    )


def _apply_fibers(args: argparse.Namespace) -> None:
    """Publish ``--fibers`` as ``$REPRO_FIBERS`` for this process.

    Every :class:`~repro.simmpi.runtime.Runtime` reads the variable at
    construction, and pooled sweep workers inherit the environment, so
    one assignment covers serial runs and ``--workers`` fan-out alike.
    Traces are byte-identical across backends, so this only changes wall
    time, never a report.  An unavailable backend (greenlet without the
    package) fails here, once and cleanly, instead of deep in a run.
    """
    if getattr(args, "fibers", None):
        from .simmpi import resolve_backend

        try:
            resolve_backend(args.fibers)
        except (RuntimeError, ValueError) as exc:
            raise SystemExit(f"--fibers: {exc}")
        os.environ["REPRO_FIBERS"] = args.fibers


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1 (``--workers``,
    ``--stream-window``): a clear parse-time error instead of a
    traceback from the runner constructor."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {n})")
    return n


def _positive_float(value: str) -> float:
    """argparse type for durations that must be finite and > 0
    (``--heartbeat-interval``, ``--connect-timeout``): a clear
    parse-time error instead of a hang or a traceback mid-sweep."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not (x > 0) or x != x or x == float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0 (got {value})"
        )
    return x


def _worker_addrs(value: str):
    """argparse type for ``--workers-addr HOST:PORT[,HOST:PORT...]``."""
    from .parallel.remote import parse_worker_addrs

    try:
        return parse_worker_addrs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _worker_addr(value: str):
    """argparse type for a single ``HOST:PORT``."""
    addrs = _worker_addrs(value)
    if len(addrs) != 1:
        raise argparse.ArgumentTypeError("expected exactly one HOST:PORT")
    return addrs[0]


def _bind_addr(value: str):
    """argparse type for ``worker serve --bind``: like :func:`_worker_addr`
    but port ``0`` is allowed — it asks the OS for an ephemeral port
    (the bound port is printed in the readiness line)."""
    host, sep, port_s = value.rpartition(":")
    if sep and host and port_s == "0":
        return (host, 0)
    return _worker_addr(value)


def _add_workers_arg(p: argparse.ArgumentParser, what: str = "runs") -> None:
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help=f"fan the {what} over N worker processes "
             "(default: serial; the report is identical)",
    )


def _add_transport_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--transport", default="local", choices=["local", "remote"],
        help="where sweep jobs execute: 'local' (in-process, or the "
             "--workers process pool) or 'remote' (a socket worker fleet "
             "named by --workers-addr; start workers with `repro worker "
             "serve`) — the report is byte-identical either way",
    )
    p.add_argument(
        "--workers-addr", type=_worker_addrs, default=None,
        metavar="HOST:PORT,...",
        help="comma-separated worker addresses for --transport remote",
    )
    p.add_argument(
        "--heartbeat-interval", type=_positive_float, default=2.0,
        metavar="SECONDS",
        help="how long a remote worker may stay silent before the parent "
             "probes it with a ping (default: 2.0; --transport remote only)",
    )
    p.add_argument(
        "--connect-timeout", type=_positive_float, default=5.0,
        metavar="SECONDS",
        help="socket connect budget per remote worker (default: 5.0; "
             "--transport remote only)",
    )


def _add_stream_window_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--stream-window", type=_positive_int, default=None, metavar="N",
        help="max jobs in flight for --stream (default: the runner's "
             "window, 1024 serial; any window yields submission-order "
             "results)",
    )


def _sweep_runner(args: argparse.Namespace):
    """The runner selected by --transport/--workers-addr, or ``None``
    to let the entry point build its local runner from ``--workers``."""
    addrs = getattr(args, "workers_addr", None)
    if getattr(args, "transport", "local") == "remote":
        if not addrs:
            raise SystemExit(
                "--transport remote requires --workers-addr HOST:PORT[,...]"
            )
        from .parallel.remote import RemoteRunner

        return RemoteRunner(
            addresses=addrs,
            heartbeat=getattr(args, "heartbeat_interval", 2.0),
            connect_timeout=getattr(args, "connect_timeout", 5.0),
        )
    if addrs:
        raise SystemExit("--workers-addr requires --transport remote")
    return None


def _report_remote(runner) -> None:
    """Per-worker transport telemetry on **stderr** (stdout carries the
    report and must stay byte-identical to a serial run)."""
    if runner is None:
        return
    for s in runner.worker_stats():
        wire = s["bytes_out"] + s["bytes_in"]
        ratio = s.get("compression")
        print(
            f"[remote] {s['worker']} pid={s['pid']} chunks={s['chunks']} "
            f"jobs={s['jobs']} rtt={s['rtt_s'] * 1e3:.1f}ms wire={wire}B"
            + (f" ratio={ratio}x" if ratio else "")
            + f" disconnects={s['disconnects']}",
            file=sys.stderr,
        )


def _add_spans_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--spans", default=None, metavar="FILE",
        help="record orchestration spans (rounds, chunks, wire frames, "
             "worker-side execution, cache batches) to FILE as "
             "repro.spans/1 JSONL; inspect with `repro spans FILE`",
    )


def _spans_scope(args: argparse.Namespace):
    """Context manager installing a span recorder for the sweep when
    ``--spans FILE`` was given (a no-op otherwise).  The file is written
    on exit; the announcement goes to stderr so stdout stays
    byte-identical to a spans-off run."""
    from contextlib import contextmanager, nullcontext

    path = getattr(args, "spans", None)
    if not path:
        return nullcontext()
    from .obs.spans import SpanRecorder, recording, write_spans

    @contextmanager
    def scope():
        recorder = SpanRecorder(kind=args.command)
        try:
            with recording(recorder):
                yield recorder
        finally:
            write_spans(path, recorder)
            print(f"[spans] wrote {path}", file=sys.stderr)

    return scope()


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="reuse classified outcomes from the content-addressed run "
             "cache (the report is byte-identical; only wall time changes)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR, else "
             "~/.cache/repro/runs)",
    )


def _cache_arg(args: argparse.Namespace):
    """What the sweep entry points expect: ``None`` (off), a directory,
    or ``True`` (the default directory)."""
    if not args.cache:
        return None
    return args.cache_dir if args.cache_dir is not None else True


def _cache_counters_snapshot(args: argparse.Namespace):
    if not args.cache:
        return None
    from . import perf

    return perf.CACHE.snapshot()


def _report_cache(args: argparse.Namespace, before) -> None:
    """One ``[cache] hits=…`` line on **stderr** — stdout carries the
    report and must stay byte-identical with the cache on or off (CI
    diffs it)."""
    if before is None:
        return
    from . import perf

    d = perf.CACHE.delta(before)
    print(
        f"[cache] hits={d['hits']} misses={d['misses']} "
        f"stale={d['stale']} stores={d['stores']}",
        file=sys.stderr,
    )


def _common_sim(args: argparse.Namespace, nprocs: int) -> Simulation:
    sim = Simulation(
        nprocs=nprocs,
        seed=args.seed,
        detection_latency=args.detection_latency,
        trace_cap=getattr(args, "trace_cap", None),
    )
    sched = _schedule_from(args)
    if len(sched):
        sim.add_injector(sched.injector())
    return sim


def _add_trace_args(
    p: argparse.ArgumentParser, *, spacetime: bool = True
) -> None:
    """Post-run trace views shared by the scenario subcommands."""
    if spacetime:
        p.add_argument("--spacetime", action="store_true",
                       help="print a space-time diagram of the run")
    p.add_argument("--failure-story", action="store_true",
                   help="print only the failure-relevant events "
                        "(injections, detections, errors, validation)")
    p.add_argument("--trace-cap", type=int, default=None, metavar="N",
                   help="keep only the last N trace events (ring buffer); "
                        "bounds memory on long runs")


def _print_trace_views(
    args: argparse.Namespace, result, nprocs: int
) -> None:
    """Render the views requested via :func:`_add_trace_args`."""
    if getattr(args, "spacetime", False):
        print()
        print(render_spacetime(result.trace, nprocs))
    if getattr(args, "failure_story", False):
        from .analysis import failure_story

        print()
        print(failure_story(result.trace, nprocs))


def cmd_ring(args: argparse.Namespace) -> int:
    cfg = RingConfig(
        max_iter=args.iters,
        variant=RingVariant(args.variant),
        termination=Termination(args.termination),
        work_per_iter=args.work,
    )
    main = make_rootft_main(cfg) if args.rootft else make_ring_main(cfg)
    sim = _common_sim(args, args.nprocs)
    result = sim.run(main, on_deadlock="return")

    s = ring_summary(result)
    print(f"outcome: {'HANG' if s['hung'] else 'aborted' if s['aborted'] else 'ran through'}")
    print(f"failed ranks: {s['failed_ranks']}  survivors: {s['survivors']}")
    print(f"completions (marker, value): {s['completions']}")
    print(f"resends: {s['resends']}  duplicates discarded: "
          f"{s['duplicates_discarded']}")
    reports = [result.value(i) for i in result.completed_ranks]
    if reports:
        print()
        print(dict_table(
            reports,
            columns=["rank", "role", "left", "right", "forwards", "resends",
                     "duplicates_discarded"],
        ))
    if result.hung:
        print("\nblocked processes:")
        for rank, why in result.deadlock.blocked:
            print(f"  rank {rank}: {why}")
    _print_trace_views(args, result, args.nprocs)
    return 2 if s["hung"] else 0


def _ring_scenario(args: argparse.Namespace) -> RingScenario:
    """Picklable ring factory from CLI arguments (crosses pool boundaries)."""
    return RingScenario(
        nprocs=args.nprocs,
        iters=args.iters,
        variant=args.variant,
        termination=args.termination,
        rootft=args.rootft,
        seed=args.seed,
        detection_latency=args.detection_latency,
    )


def cmd_explore(args: argparse.Namespace) -> int:
    _apply_fibers(args)
    ranks = None if args.rootft else list(range(1, args.nprocs))
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"[explore] {done}/{total} scenarios", file=sys.stderr)
    before = _cache_counters_snapshot(args)
    runner = _sweep_runner(args)
    with _spans_scope(args):
        rep = explore(
            _ring_scenario(args),
            invariants=StandardRingInvariants(
                args.iters, args.nprocs, allow_root_loss=args.rootft
            ),
            ranks=ranks,
            pairs=args.pairs,
            max_windows=args.limit,
            workers=args.workers,
            runner=runner,
            cache=_cache_arg(args),
            progress=progress,
            telemetry=args.telemetry,
            stream=args.stream,
            stream_window=args.stream_window,
        )
    print(rep.format())
    _report_cache(args, before)
    _report_remote(runner)
    return 1 if rep.failures else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    _apply_fibers(args)
    eligible = None
    if args.rootft:
        eligible = list(range(args.nprocs))  # the root may die too
    before = _cache_counters_snapshot(args)
    runner = _sweep_runner(args)
    with _spans_scope(args):
        rep = run_campaign(
            _ring_scenario(args),
            seeds=range(args.first_seed, args.first_seed + args.runs),
            horizon=args.horizon,
            kills_per_run=args.kills,
            eligible_ranks=eligible,
            invariants=StandardRingInvariants(
                args.iters, args.nprocs, allow_root_loss=args.rootft
            ),
            workers=args.workers,
            runner=runner,
            cache=_cache_arg(args),
            telemetry=args.telemetry,
            stream=args.stream,
            stream_window=args.stream_window,
        )
    print(rep.format())
    _report_cache(args, before)
    _report_remote(runner)
    return 1 if rep.failures else 0


def cmd_compare_protocols(args: argparse.Namespace) -> int:
    from .protocols import PROTOCOLS, run_compare_protocols

    _apply_fibers(args)
    protocols = tuple(args.protocols) if args.protocols else PROTOCOLS
    before = _cache_counters_snapshot(args)
    runner = _sweep_runner(args)
    rep = run_compare_protocols(
        nprocs=args.nprocs,
        iters=args.iters,
        seeds=range(args.first_seed, args.first_seed + args.runs),
        horizon=args.horizon,
        kills_per_run=args.kills,
        protocols=protocols,
        spares=args.spares,
        sim_seed=args.seed,
        detection_latency=args.detection_latency,
        workers=args.workers,
        runner=runner,
        cache=_cache_arg(args),
    )
    print(rep.format())
    _report_cache(args, before)
    _report_remote(runner)
    s = rep.summary()
    bad = sum(s[p]["hangs"] + s[p]["violations"] for p in protocols)
    return 1 if bad else 0


def cmd_heat(args: argparse.Namespace) -> int:
    # repro.apps needs numpy: imported by the commands that run an app,
    # so every other command starts without it.
    from .apps import HeatConfig, make_heat_main

    cfg = HeatConfig(cells_per_rank=args.cells, steps=args.steps)
    sim = _common_sim(args, args.nprocs)
    result = sim.run(make_heat_main(cfg), on_deadlock="return")
    print(f"outcome: {'HANG' if result.hung else 'ran through'}")
    print(f"failed ranks: {sorted(result.failed_ranks)}")
    for i in result.completed_ranks:
        rep = result.value(i)
        print(f"rank {i}: total heat {rep['total_heat']:.4f}, "
              f"halo retries {rep['halo_retries']}")
    _print_trace_views(args, result, args.nprocs)
    return 2 if result.hung else 0


def cmd_farm(args: argparse.Namespace) -> int:
    from .apps import FarmConfig, expected_results, make_farm_mains

    cfg = FarmConfig(num_tasks=args.tasks, work_per_task=1e-6)
    sim = _common_sim(args, args.nprocs)
    result = sim.run(make_farm_mains(cfg, args.nprocs), on_deadlock="return")
    if result.hung:
        print("HANG")
        _print_trace_views(args, result, args.nprocs)
        return 2
    if result.aborted is not None:
        print(f"aborted: {result.aborted}")
        _print_trace_views(args, result, args.nprocs)
        return 3
    rep = result.value(0)
    ok = rep["results"] == expected_results(cfg)
    print(f"tasks complete & correct: {ok}")
    print(f"dead workers: {rep['dead_workers']}  "
          f"reassignments: {rep['reassignments']}")
    _print_trace_views(args, result, args.nprocs)
    return 0 if ok else 1


def cmd_perf(args: argparse.Namespace) -> int:
    """Run one scenario and print the kernel's performance counters."""
    _apply_fibers(args)
    sim = _common_sim(args, args.nprocs)
    if not args.trace:
        sim.runtime.trace.enabled = False
    if args.scenario == "ring":
        cfg = RingConfig(
            max_iter=args.iters,
            variant=RingVariant(args.variant),
            termination=Termination(args.termination),
        )
        main = make_rootft_main(cfg) if args.rootft else make_ring_main(cfg)
    elif args.scenario == "heat":
        from .apps import HeatConfig, make_heat_main

        main = make_heat_main(HeatConfig())
    elif args.scenario == "farm":
        from .apps import FarmConfig, make_farm_mains

        main = make_farm_mains(FarmConfig(), args.nprocs)
    else:  # abft
        from .apps import AbftConfig, make_abft_main

        main = make_abft_main(AbftConfig())
    result = sim.run(main, on_deadlock="return")
    outcome = ("HANG" if result.hung
               else "aborted" if result.aborted is not None
               else "ran through")
    print(f"scenario: {args.scenario} (nprocs={args.nprocs}, "
          f"seed={args.seed}, trace={'on' if args.trace else 'off'}, "
          f"fibers={sim.runtime.fiber_backend})")
    print(f"outcome: {outcome}  virtual time: {result.final_time:.9f}")
    print()
    assert result.perf is not None
    print(result.perf.format())
    return 2 if result.hung else 0


def _fuzz_scenario(args: argparse.Namespace):
    """Build the picklable scenario spec the fuzz subcommand targets."""
    if args.scenario == "ring":
        return RingScenario(
            nprocs=args.nprocs,
            iters=args.iters,
            variant=args.variant,
            termination=args.termination,
            rootft=args.rootft,
            detection_latency=args.detection_latency,
        )
    from .parallel import AppScenario

    return AppScenario(
        app=args.scenario,
        nprocs=args.nprocs,
        size=args.size,
        steps=args.steps,
        detection_latency=args.detection_latency,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    _apply_fibers(args)
    from pathlib import Path

    from .fuzz import fuzz, write_repro
    from .parallel import make_runner

    if args.coverage:
        from .fuzz import coverage_fuzz

        rep = coverage_fuzz(
            _fuzz_scenario(args),
            budget=args.runs,
            seed=args.fuzz_seed,
            runner=_sweep_runner(args) or make_runner(args.workers),
            guided=not args.coverage_uniform,
            max_jitter=args.max_jitter,
            min_kills=args.min_kills,
            max_kills=args.max_kills,
            horizon=args.horizon,
        )
        print(rep.format())
        if args.coverage_out:
            print(f"wrote {rep.write(args.coverage_out)}", file=sys.stderr)
        return 1 if rep.failures else 0

    before = _cache_counters_snapshot(args)
    runner = _sweep_runner(args)
    with _spans_scope(args):
        report = fuzz(
            _fuzz_scenario(args),
            runs=args.runs,
            seed=args.fuzz_seed,
            runner=runner or make_runner(args.workers),
            cache=_cache_arg(args),
            shrink_failures=not args.no_shrink,
            max_jitter=args.max_jitter,
            min_kills=args.min_kills,
            max_kills=args.max_kills,
            horizon=args.horizon,
            telemetry=args.telemetry,
            stream=args.stream,
            stream_window=args.stream_window,
        )
    print(report.format(verbose=args.verbose)
          if not args.stream else report.format())
    _report_cache(args, before)
    _report_remote(runner)
    if args.out_dir and report.failures:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # Persist the *shrunk* config when available — that is the
        # reproducer a human wants to stare at.
        minimized = {
            o.index: sr.config
            for o, sr in zip(report.failures, report.shrunk)
        }
        for outcome in report.failures:
            config = minimized.get(outcome.index, outcome.config)
            path = out / f"fuzz-{args.fuzz_seed}-{outcome.index:04d}.repro.json"
            write_repro(config, path)
            print(f"wrote {path}")
    return 1 if report.failures else 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .parallel import remote

    if args.worker_cmd == "serve":
        _apply_fibers(args)
        remote.serve(args.bind)
        return 0
    # ping
    host, port = args.addr
    # --heartbeat-interval probes with the same budget a sweep's
    # liveness check would use; --timeout is the general budget.
    timeout = (args.heartbeat_interval
               if args.heartbeat_interval is not None else args.timeout)
    try:
        info = remote.ping(args.addr, timeout=timeout)
    except OSError as exc:
        print(f"[worker] {host}:{port} unreachable: {exc}", file=sys.stderr)
        return 1
    print(f"[worker] {host}:{port} pid={info['pid']} busy={info['busy']}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .fuzz import replay

    worst = 0
    for path in args.files:
        rep = replay(path)
        print(f"== {path}")
        print(rep.format())
        if args.perf:
            width = max(len(k) for k in rep.outcome.perf) if rep.outcome.perf else 0
            for name, value in sorted(rep.outcome.perf.items()):
                print(f"  {name:<{width}}  {value}")
        if not rep.ok:
            worst = 1
    return worst


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the content-addressed run cache."""
    from .cache import RunCache

    cache = RunCache.at(args.cache_dir)
    if args.cache_cmd == "stats":
        s = cache.stats()
        print(f"root:     {s['root']}")
        print(f"format:   {s['format']}")
        print(f"entries:  {s['entries']}")
        print(f"size:     {s['total_bytes']} bytes")
        return 0
    if args.cache_cmd == "gc":
        max_age = args.max_age_days * 86400.0 if args.max_age_days else None
        counts = cache.gc(max_age_s=max_age)
        legacy = cache.drop_legacy_files()
        print(f"removed {counts['removed_stale']} stale-format and "
              f"{counts['removed_old']} expired entr(ies), "
              f"{legacy} legacy file(s)")
        return 0
    # verify: re-execute (a sample of) entries and diff field by field.
    results = cache.verify(sample=args.sample, seed=args.seed)
    for r in results:
        print(r.format())
    bad = sum(not r.ok for r in results)
    print(f"verified {len(results)} entr(ies): "
          f"{len(results) - bad} ok, {bad} failing")
    return 1 if bad else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a named scenario and export its trace for offline viewing."""
    from .obs import (
        dumps_perfetto,
        jsonl_errors,
        make_scenario,
        perfetto_errors,
        run_report,
        trace_to_jsonl,
        trace_to_perfetto,
    )

    sim, main, nprocs = make_scenario(
        args.preset, metrics=True, trace_cap=args.trace_cap
    )
    result = sim.run(main, on_deadlock="return", raise_app_errors=False)

    if args.format == "spacetime":
        text = render_spacetime(result.trace, nprocs)
    elif args.format == "jsonl":
        text = trace_to_jsonl(result.trace, nprocs)
        if args.validate:
            errors = jsonl_errors(text)
            if errors:
                for e in errors:
                    print(f"[trace] INVALID: {e}", file=sys.stderr)
                return 1
            print("[trace] jsonl export valid", file=sys.stderr)
    else:  # perfetto
        doc = trace_to_perfetto(result.trace, nprocs, metrics=result.metrics)
        text = dumps_perfetto(doc)
        if args.validate:
            errors = perfetto_errors(doc)
            if errors:
                for e in errors:
                    print(f"[trace] INVALID: {e}", file=sys.stderr)
                return 1
            print(
                f"[trace] perfetto export valid "
                f"({len(doc['traceEvents'])} events)",
                file=sys.stderr,
            )

    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.summary:
        print(run_report(result, nprocs=nprocs).format(), file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Aggregate a sweep telemetry file without re-running anything."""
    import json

    from .obs import (
        canonical_lines,
        read_telemetry,
        summarize,
        summary_dict,
        telemetry_errors,
    )

    worst = 0
    for path in args.files:
        errors = telemetry_errors(path)
        if errors:
            print(f"== {path}: INVALID", file=sys.stderr)
            for e in errors:
                print(f"  - {e}", file=sys.stderr)
            worst = 1
            continue
        if args.canon:
            # Determinism view: volatile fields dropped, lines sorted —
            # byte-diffable between serial and pooled runs of one sweep.
            for line in canonical_lines(path):
                print(line)
            continue
        summary = summarize(read_telemetry(path), top=args.top)
        if args.format == "json":
            # One compact object per file: dashboards and CI consume
            # this instead of scraping the text layout.
            print(json.dumps(summary_dict(summary), sort_keys=True,
                             separators=(",", ":")))
            continue
        if len(args.files) > 1:
            print(f"== {path}")
        print(summary.format())
    return worst


def cmd_spans(args: argparse.Namespace) -> int:
    """Validate, canonicalize, or convert a ``repro.spans/1`` stream."""
    from pathlib import Path

    from .obs import (
        canonical_spans,
        dumps_perfetto,
        perfetto_errors,
        read_spans,
        span_errors,
        spans_to_perfetto,
    )

    worst = 0
    for path in args.files:
        errors = span_errors(path)
        if errors:
            print(f"== {path}: INVALID", file=sys.stderr)
            for e in errors:
                print(f"  - {e}", file=sys.stderr)
            worst = 1
            continue
        if args.validate:
            records = read_spans(path)
            print(f"[spans] {path} valid ({len(records) - 1} span(s))",
                  file=sys.stderr)
        if args.canon:
            # Placement-independent view: volatile fields (times, ids,
            # tracks) dropped — byte-diffable serial vs pooled vs remote.
            text = "\n".join(canonical_spans(path)) + "\n"
        elif args.format == "perfetto":
            doc = spans_to_perfetto(path)
            errors = perfetto_errors(doc)
            if errors:
                for e in errors:
                    print(f"[spans] INVALID perfetto: {e}", file=sys.stderr)
                worst = 1
                continue
            text = dumps_perfetto(doc)
        elif args.validate:
            continue  # --validate alone: no re-emission
        else:
            text = Path(path).read_text()
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text, end="" if text.endswith("\n") else "\n")
    return worst


def cmd_metrics(args: argparse.Namespace) -> int:
    """Serve /metrics + /healthz over stdlib HTTP until interrupted."""
    from .obs.registry import MetricsServer

    server = MetricsServer(args.bind, telemetry=args.telemetry)
    host, port = server.address
    print(
        f"[metrics] serving on http://{host}:{port}/metrics pid={os.getpid()}",
        file=sys.stderr, flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live campaign console over a telemetry stream."""
    from .obs.console import top

    return top(
        args.telemetry,
        follow=args.follow,
        interval=args.interval,
        top_n=args.top,
    )


def cmd_abft(args: argparse.Namespace) -> int:
    from .apps import AbftConfig, make_abft_main

    cfg = AbftConfig(iterations=args.iters)
    sim = _common_sim(args, args.nprocs)
    result = sim.run(make_abft_main(cfg), on_deadlock="return")
    if result.hung:
        print("HANG")
        _print_trace_views(args, result, args.nprocs)
        return 2
    rep = result.value(min(result.completed_ranks))
    print(f"failed ranks: {sorted(result.failed_ranks)}")
    print(f"parity recoveries: {rep['recoveries']}  degraded: "
          f"{rep['degraded']}")
    for rec in rep["results"]:
        print(f"iteration {rec['iteration']}: blocks "
              f"{sorted(rec['blocks'])} recovered {rec['recovered']}")
    _print_trace_views(args, result, args.nprocs)
    return 1 if rep["degraded"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant MPI ring reproduction "
                    "(Hursey & Graham 2011) on a simulated MPI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, nprocs_default: int) -> None:
        p.add_argument("--nprocs", type=int, default=nprocs_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--detection-latency", type=float, default=0.0)
        _add_kill_args(p)

    ring = sub.add_parser("ring", help="run the fault-tolerant ring")
    common(ring, 8)
    ring.add_argument("--iters", type=int, default=6)
    ring.add_argument("--work", type=float, default=0.0,
                      help="virtual compute seconds per iteration")
    ring.add_argument("--variant", default="ft_marker",
                      choices=[v.value for v in RingVariant])
    ring.add_argument("--termination", default="validate_all",
                      choices=[t.value for t in Termination])
    ring.add_argument("--rootft", action="store_true",
                      help="use the §III-D root-failure-tolerant driver")
    _add_trace_args(ring)
    ring.set_defaults(fn=cmd_ring)

    ex = sub.add_parser("explore", help="exhaustive failure-window sweep")
    common(ex, 4)
    ex.add_argument("--iters", type=int, default=3)
    ex.add_argument("--variant", default="ft_marker",
                    choices=[v.value for v in RingVariant])
    ex.add_argument("--termination", default="validate_all",
                    choices=[t.value for t in Termination])
    ex.add_argument("--rootft", action="store_true")
    ex.add_argument("--pairs", action="store_true",
                    help="also sweep every pair of windows")
    ex.add_argument("--limit", type=int, default=None, metavar="N",
                    help="cap the enumeration at the first N windows "
                         "(the report names what was considered)")
    _add_workers_arg(ex, "re-runs")
    _add_transport_args(ex)
    ex.add_argument("--progress", action="store_true",
                    help="report sweep liveness on stderr as batches "
                         "complete")
    _add_fibers_arg(ex)
    ex.add_argument("--telemetry", default=None, metavar="FILE",
                    help="stream per-job telemetry (JSONL) to FILE; "
                         "aggregate later with `repro report FILE`")
    ex.add_argument("--stream", action="store_true",
                    help="pipe windows through the streaming pipeline "
                         "(O(failures) memory; same report text)")
    _add_stream_window_arg(ex)
    _add_spans_arg(ex)
    _add_cache_args(ex)
    ex.set_defaults(fn=cmd_explore)

    camp = sub.add_parser(
        "campaign", help="randomized fault-injection campaign"
    )
    common(camp, 8)
    camp.add_argument("--iters", type=int, default=6)
    camp.add_argument("--variant", default="ft_marker",
                      choices=[v.value for v in RingVariant])
    camp.add_argument("--termination", default="validate_all",
                      choices=[t.value for t in Termination])
    camp.add_argument("--rootft", action="store_true",
                      help="use the §III-D driver and let the root die too")
    camp.add_argument("--runs", type=int, default=100,
                      help="number of sampled runs (one seed each)")
    camp.add_argument("--first-seed", type=int, default=0,
                      help="first campaign seed (seeds are consecutive)")
    camp.add_argument("--horizon", type=float, default=2e-5,
                      help="kill times are sampled uniformly in [0, horizon)")
    camp.add_argument("--kills", type=int, default=1,
                      help="fail-stops injected per run")
    _add_workers_arg(camp)
    _add_transport_args(camp)
    _add_fibers_arg(camp)
    camp.add_argument("--telemetry", default=None, metavar="FILE",
                      help="stream per-job telemetry (JSONL) to FILE; "
                           "aggregate later with `repro report FILE`")
    camp.add_argument("--stream", action="store_true",
                      help="pipe runs through the streaming pipeline — "
                           "memory stays O(failures) however large --runs "
                           "gets; the report text is identical")
    _add_stream_window_arg(camp)
    _add_spans_arg(camp)
    _add_cache_args(camp)
    camp.set_defaults(fn=cmd_campaign)

    cp = sub.add_parser(
        "compare-protocols",
        help="differential study of the recovery protocol families "
             "(rts / shrink_repair / replication / partial_restart) on "
             "identical fault schedules",
    )
    cp.add_argument("--nprocs", type=int, default=6,
                    help="logical ring size (replication runs 2x physical "
                         "ranks, partial restart nprocs+spares)")
    cp.add_argument("--iters", type=int, default=6)
    cp.add_argument("--seed", type=int, default=0,
                    help="simulation seed shared by every run")
    cp.add_argument("--detection-latency", type=float, default=0.0)
    cp.add_argument("--protocols", nargs="+", default=None,
                    metavar="PROTO",
                    choices=["rts", "shrink_repair", "replication",
                             "partial_restart"],
                    help="subset of protocol families (default: all four)")
    cp.add_argument("--runs", type=int, default=25,
                    help="fault schedules per protocol (one seed each)")
    cp.add_argument("--first-seed", type=int, default=0,
                    help="first schedule seed (seeds are consecutive)")
    cp.add_argument("--horizon", type=float, default=4e-5,
                    help="kill times are sampled uniformly in [0, horizon)")
    cp.add_argument("--kills", type=int, default=1,
                    help="fail-stops injected per run")
    cp.add_argument("--spares", type=int, default=2,
                    help="spare ranks for partial_restart")
    _add_workers_arg(cp)
    _add_transport_args(cp)
    _add_fibers_arg(cp)
    _add_cache_args(cp)
    cp.set_defaults(fn=cmd_compare_protocols)

    heat = sub.add_parser("heat", help="fault-tolerant heat diffusion")
    common(heat, 6)
    heat.add_argument("--cells", type=int, default=8)
    heat.add_argument("--steps", type=int, default=20)
    _add_trace_args(heat)
    heat.set_defaults(fn=cmd_heat)

    farm = sub.add_parser("farm", help="manager/worker task farm")
    common(farm, 5)
    farm.add_argument("--tasks", type=int, default=20)
    _add_trace_args(farm)
    farm.set_defaults(fn=cmd_farm)

    abft = sub.add_parser("abft", help="ABFT parity-recovered matvec")
    common(abft, 5)
    abft.add_argument("--iters", type=int, default=5)
    _add_trace_args(abft)
    abft.set_defaults(fn=cmd_abft)

    perf = sub.add_parser(
        "perf", help="run a scenario and print kernel perf counters"
    )
    perf.add_argument("scenario", choices=["ring", "heat", "farm", "abft"],
                      help="which bundled scenario to run")
    common(perf, 8)
    perf.add_argument("--iters", type=int, default=6)
    perf.add_argument("--variant", default="ft_marker",
                      choices=[v.value for v in RingVariant])
    perf.add_argument("--termination", default="validate_all",
                      choices=[t.value for t in Termination])
    perf.add_argument("--rootft", action="store_true")
    _add_fibers_arg(perf)
    perf.add_argument("--trace", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="--no-trace measures the zero-cost disabled-"
                           "trace path")
    perf.set_defaults(fn=cmd_perf)

    fz = sub.add_parser(
        "fuzz",
        help="seeded schedule-space fuzzing with shrinking reproducers",
    )
    # No common(): for this subcommand --seed is the *fuzz* master seed
    # (policy seeds, jitter, and kills are all sampled; the simulator's
    # own base seed is irrelevant once a policy seed is configured).
    fz.add_argument("--nprocs", type=int, default=4)
    fz.add_argument("--seed", dest="fuzz_seed", type=int, default=0,
                    help="master seed: determines the whole corpus")
    fz.add_argument("--detection-latency", type=float, default=0.0)
    fz.add_argument("--scenario", default="ring",
                    choices=["ring", "heat1d", "ring_allreduce",
                             "abft_matvec", "manager_worker"],
                    help="workload to fuzz (default: the paper's ring)")
    fz.add_argument("--iters", type=int, default=3,
                    help="ring iterations (ring scenario only)")
    fz.add_argument("--variant", default="ft_marker",
                    choices=[v.value for v in RingVariant])
    fz.add_argument("--termination", default="validate_all",
                    choices=[t.value for t in Termination])
    fz.add_argument("--rootft", action="store_true")
    fz.add_argument("--size", type=int, default=8,
                    help="app size knob (cells/vector/rows/tasks)")
    fz.add_argument("--steps", type=int, default=5,
                    help="app steps knob (steps/rounds/iterations)")
    fz.add_argument("--runs", type=int, default=100,
                    help="number of sampled configurations")
    fz.add_argument("--max-jitter", type=float, default=0.3,
                    help="largest relative timing-jitter amplitude")
    fz.add_argument("--min-kills", type=int, default=0)
    fz.add_argument("--max-kills", type=int, default=2,
                    help="fail-stops injected per run (sampled range)")
    fz.add_argument("--horizon", type=float, default=None,
                    help="kill-time upper bound (default: measured from "
                         "an unperturbed run)")
    _add_workers_arg(fz)
    _add_transport_args(fz)
    fz.add_argument("--no-shrink", action="store_true",
                    help="skip delta-debugging of failures")
    fz.add_argument("--out-dir", default=None, metavar="DIR",
                    help="write a .repro.json per failure into DIR")
    fz.add_argument("--verbose", action="store_true",
                    help="list every outcome, not just failures")
    _add_fibers_arg(fz)
    fz.add_argument("--telemetry", default=None, metavar="FILE",
                    help="stream per-job telemetry (JSONL) to FILE; "
                         "aggregate later with `repro report FILE`")
    fz.add_argument("--stream", action="store_true",
                    help="pipe configs through the streaming pipeline "
                         "(O(failures) memory; --verbose unavailable)")
    _add_stream_window_arg(fz)
    _add_spans_arg(fz)
    fz.add_argument("--coverage", action="store_true",
                    help="coverage-guided mode: keep configs that hit "
                         "novel coverage cells and mutate them (--runs "
                         "becomes the total run budget)")
    fz.add_argument("--coverage-uniform", action="store_true",
                    help="disable the feedback loop (uniform baseline "
                         "for guided-vs-uniform comparisons)")
    fz.add_argument("--coverage-out", default=None, metavar="FILE",
                    help="write the coverage report (cells, outcome "
                         "histogram, failing configs) as JSON to FILE")
    _add_cache_args(fz)
    fz.set_defaults(fn=cmd_fuzz)

    ca = sub.add_parser(
        "cache", help="inspect and maintain the content-addressed run cache"
    )
    ca.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="cache directory (default: $REPRO_CACHE_DIR, "
                         "else ~/.cache/repro/runs)")
    casub = ca.add_subparsers(dest="cache_cmd", required=True)
    cast = casub.add_parser("stats", help="entry count and disk footprint")
    cast.set_defaults(fn=cmd_cache)
    cagc = casub.add_parser(
        "gc", help="drop stale-format (and optionally old) entries"
    )
    cagc.add_argument("--max-age-days", type=float, default=None,
                      help="also drop entries older than this many days")
    cagc.set_defaults(fn=cmd_cache)
    cave = casub.add_parser(
        "verify",
        help="re-execute stored entries and diff payloads field by field",
    )
    cave.add_argument("--sample", type=int, default=None, metavar="N",
                      help="verify a seeded random sample of N entries "
                           "(default: all)")
    cave.add_argument("--seed", type=int, default=0,
                      help="sampling seed (default: 0)")
    cave.set_defaults(fn=cmd_cache)

    tr = sub.add_parser(
        "trace",
        help="run a named scenario and export its trace "
             "(Perfetto JSON / JSONL / spacetime)",
    )
    from .obs.scenarios import SCENARIOS

    tr.add_argument("preset", choices=list(SCENARIOS),
                    help="scenario preset (fig* presets mirror the paper's "
                         "figures)")
    tr.add_argument("--format", default="perfetto",
                    choices=["perfetto", "jsonl", "spacetime"],
                    help="export format (default: perfetto — open the file "
                         "at https://ui.perfetto.dev)")
    tr.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    tr.add_argument("--trace-cap", type=int, default=None, metavar="N",
                    help="keep only the last N trace events (ring buffer)")
    tr.add_argument("--validate", action="store_true",
                    help="schema-validate the export before writing "
                         "(non-zero exit on any violation)")
    tr.add_argument("--summary", action="store_true",
                    help="also print the per-rank run report on stderr")
    tr.set_defaults(fn=cmd_trace)

    rep = sub.add_parser(
        "report", help="aggregate sweep telemetry JSONL (no re-running)"
    )
    rep.add_argument("files", nargs="+", metavar="TELEMETRY",
                     help="telemetry JSONL file(s) written via --telemetry")
    rep.add_argument("--top", type=int, default=5,
                     help="how many slowest jobs to list (default: 5)")
    rep.add_argument("--canon", action="store_true",
                     help="print the canonical (volatile-free, sorted) "
                          "lines instead of a summary — byte-diffable "
                          "between serial and pooled runs")
    rep.add_argument("--format", default="text", choices=["text", "json"],
                     help="summary output format: 'text' (human layout) or "
                          "'json' (one repro.report/1 object per file for "
                          "dashboards and CI)")
    rep.set_defaults(fn=cmd_report)

    sp = sub.add_parser(
        "spans",
        help="validate, canonicalize, or convert repro.spans/1 pipeline "
             "span streams (written via --spans)",
    )
    sp.add_argument("files", nargs="+", metavar="SPANS",
                    help="span JSONL file(s) written via --spans")
    sp.add_argument("--format", default="jsonl",
                    choices=["jsonl", "perfetto"],
                    help="re-emit as-is (jsonl) or as a Chrome Trace Event "
                         "document with one track per worker (perfetto — "
                         "open at https://ui.perfetto.dev)")
    sp.add_argument("--canon", action="store_true",
                    help="print the canonical (volatile-free, sorted) span "
                         "lines — byte-diffable serial vs pooled vs remote")
    sp.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    sp.add_argument("--validate", action="store_true",
                    help="schema-validate the stream (non-zero exit on any "
                         "violation); alone, emits nothing")
    sp.set_defaults(fn=cmd_spans)

    mx = sub.add_parser(
        "metrics",
        help="Prometheus-style metrics endpoints over the sweep pipeline",
    )
    mxsub = mx.add_subparsers(dest="metrics_cmd", required=True)
    mxserve = mxsub.add_parser(
        "serve",
        help="serve /metrics (text exposition) and /healthz over stdlib "
             "HTTP until interrupted",
    )
    mxserve.add_argument("--bind", type=_bind_addr,
                         default=("127.0.0.1", 0), metavar="HOST:PORT",
                         help="listen address; port 0 picks a free port "
                              "(default: 127.0.0.1:0; the bound port is in "
                              "the readiness line)")
    mxserve.add_argument("--telemetry", default=None, metavar="FILE",
                         help="rebuild the registry from this telemetry "
                              "JSONL on every scrape (live campaign "
                              "dashboards); default: this process's own "
                              "in-process counters")
    mxserve.set_defaults(fn=cmd_metrics)

    tp = sub.add_parser(
        "top",
        help="live campaign console over a --telemetry stream "
             "(progress, throughput, outcomes, per-worker table)",
    )
    tp.add_argument("--telemetry", required=True, metavar="FILE",
                    help="telemetry JSONL a sweep is writing (or wrote)")
    tp.add_argument("--follow", action="store_true",
                    help="repaint every --interval seconds until the "
                         "declared run count has landed")
    tp.add_argument("--interval", type=_positive_float, default=2.0,
                    help="repaint interval in seconds (default: 2)")
    tp.add_argument("--top", type=_positive_int, default=3,
                    help="how many slowest jobs to list (default: 3)")
    tp.set_defaults(fn=cmd_top)

    wk = sub.add_parser(
        "worker",
        help="distributed sweep workers (the --transport remote backend)",
    )
    wksub = wk.add_subparsers(dest="worker_cmd", required=True)
    wkserve = wksub.add_parser(
        "serve",
        help="execute sweep chunks over a socket until interrupted "
             "(prints '[worker] ... listening on HOST:PORT' on stderr "
             "when ready)",
    )
    wkserve.add_argument("--bind", type=_bind_addr, default=("127.0.0.1", 0),
                         metavar="HOST:PORT",
                         help="listen address; port 0 picks a free port "
                              "(default: 127.0.0.1:0 — frames are pickles, "
                              "bind to loopback or a trusted network only)")
    _add_fibers_arg(wkserve)
    wkserve.set_defaults(fn=cmd_worker)
    wkping = wksub.add_parser(
        "ping", help="liveness-check one worker (exit 0 if it answers)"
    )
    wkping.add_argument("addr", type=_worker_addr, metavar="HOST:PORT")
    wkping.add_argument("--timeout", type=float, default=2.0,
                        help="connect/reply budget in seconds (default: 2)")
    wkping.add_argument("--heartbeat-interval", type=_positive_float,
                        default=None, metavar="SECONDS",
                        help="probe with the budget a sweep's liveness "
                             "heartbeat would use (overrides --timeout)")
    wkping.set_defaults(fn=cmd_worker)

    rp = sub.add_parser(
        "replay", help="re-run saved .repro.json reproducers and verify"
    )
    rp.add_argument("files", nargs="+", metavar="FILE",
                    help=".repro.json reproducer file(s)")
    rp.add_argument("--perf", action="store_true",
                    help="also print the replayed run's perf counters")
    rp.set_defaults(fn=cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro`` / the ``repro`` console script)."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
