"""The per-layer probe suite of the traced pass.

Each probe measures one layer (``repro.<module>``) from outside: it times
calls into public functions through the benchmark's span recorder and
reads counters the public results already carry.  The suite does not
depend on which workload is being traced — it runs the workloads' own
configurations at the run's seed — so ``simmpi.events`` is always the
event count of ``ring_validate_n48``, ``parallel.net_s`` always comes
from the loopback fleet, and so on (README has the table).

A probe whose entry point is missing (:class:`adapter.Missing`) yields
``None`` for each of its metrics plus the reason; any other exception is
a failed check and fails the run.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Callable, NamedTuple

import adapter
import host
import workloads
from spans import Recorder, seconds

Metrics = dict[str, Any]

Probe = Callable[["Context"], Metrics]

PROBES: list[tuple[tuple[str, ...], Probe]] = []


class Context(NamedTuple):
    seed: int
    quick: bool
    rec: Recorder


def probe(*names: str) -> Callable[[Probe], Probe]:
    """Register a probe under the per-layer metric names it yields."""

    def register(fn: Probe) -> Probe:
        PROBES.append((names, fn))
        return fn

    return register


def run_probes(ctx: Context) -> tuple[Metrics, dict[str, str]]:
    """Every probe's metrics, and the reason for each ``None``."""
    metrics: Metrics = {}
    reasons: dict[str, str] = {}
    for names, fn in PROBES:
        try:
            with ctx.rec.span(f"probe.{fn.__name__}"):
                got = fn(ctx)
        except adapter.Missing as exc:
            got = dict.fromkeys(names)
            reasons.update(dict.fromkeys(names, str(exc)))
        if set(got) != set(names):
            raise RuntimeError(f"probe {fn.__name__} yielded {sorted(got)}")
        metrics.update(got)
    return metrics, reasons


def _ring(ctx: Context, cls: type, **kwargs: Any) -> dict[str, Any]:
    """One checked run of a ring workload's configuration."""
    ring = cls(ctx.seed, ctx.quick, ctx.rec)
    if ring.repeat(**kwargs):
        raise RuntimeError(f"{cls.__name__}: {ring.last['problems']}")
    return ring.last


class _RingP2pHalf(workloads.RingP2pN256):
    """``ring_p2p_n256`` at half the ranks, for the scaling ratio."""

    size = (128, 64)
    quick_size = (16, 10)


@probe(
    "simmpi.events", "simmpi.messages_unexpected", "simmpi.kernel_wall_s",
    "simmpi.event_us",
)
def kernel_events(ctx: Context) -> Metrics:
    out = _ring(ctx, workloads.RingValidateN48)
    return {
        "simmpi.events": out["events"],
        "simmpi.messages_unexpected": out["messages_unexpected"],
        "simmpi.kernel_wall_s": out["kernel_wall_s"],
        "simmpi.event_us": out["kernel_wall_s"] / out["events"] * 1e6,
    }


@probe(
    "simmpi.handoffs", "simmpi.handoff_us", "simmpi.wall_growth_n128_n256",
    "core.forwards", "core.resends", "core.duplicates_discarded",
    "core.ring_msgs_per_iter",
)
def kernel_handoffs(ctx: Context) -> Metrics:
    full = _ring(ctx, workloads.RingP2pN256)
    half = _ring(ctx, _RingP2pHalf)
    iters = (workloads.RingP2pN256.quick_size if ctx.quick
             else workloads.RingP2pN256.size)[1]
    return {
        "simmpi.handoffs": full["handoffs"],
        "simmpi.handoff_us": full["kernel_wall_s"] / full["handoffs"] * 1e6,
        "simmpi.wall_growth_n128_n256": full["kernel_wall_s"] / half["kernel_wall_s"],
        "core.forwards": full["ring"]["forwards"],
        "core.resends": full["ring"]["resends"],
        "core.duplicates_discarded": full["ring"]["duplicates_discarded"],
        "core.ring_msgs_per_iter": full["messages"] / iters,
    }


@probe("simmpi.sim_fixed_ms")
def kernel_fixed_cost(ctx: Context) -> Metrics:
    best = min(adapter.run_empty_sim(adapter.SWEEP_NPROCS) for _ in range(20))
    return {"simmpi.sim_fixed_ms": best * 1e3}


@probe("ft.validate_msgs", "ft.validate_msgs_growth", "ft.self_wall_share")
def ft_validate_cost(ctx: Context) -> Metrics:
    """What ``validate_all`` termination adds to a fault-free ring, at the
    size of ``ring_validate_n48`` and at half of it."""
    nprocs, iters = (workloads.RingValidateN48.quick_size if ctx.quick
                     else workloads.RingValidateN48.size)

    def added(n: int) -> tuple[int, float, float]:
        runs = {
            term: adapter.run_ring(
                ctx.rec, nprocs=n, iters=iters, termination=term
            )
            for term in ("validate_all", "none")
        }
        for term, out in runs.items():
            if out["problems"]:
                raise RuntimeError(f"fault-free {term} ring: {out['problems']}")
        return (
            runs["validate_all"]["messages"] - runs["none"]["messages"],
            runs["validate_all"]["kernel_wall_s"],
            runs["none"]["kernel_wall_s"],
        )

    msgs, wall_validate, wall_none = added(nprocs)
    msgs_half, _, _ = added(nprocs // 2)
    return {
        "ft.validate_msgs": msgs,
        "ft.validate_msgs_growth": msgs / msgs_half,
        "ft.self_wall_share": 1.0 - wall_none / wall_validate,
    }


@probe("ft.consensus_decisions", "ft.consensus_rounds_max", "ft.validate_virtual_us")
def ft_consensus(ctx: Context) -> Metrics:
    out = _ring(ctx, workloads.RingValidateN48, instrumented=True)
    decided = out["consensus"]
    return {
        "ft.consensus_decisions": len(decided),
        "ft.consensus_rounds_max": max(d["rounds"] for d in decided),
        "ft.validate_virtual_us": max(d["duration"] for d in decided) * 1e6,
    }


@probe("ft.agree_msgs_n16")
def ft_agree(ctx: Context) -> Metrics:
    return {"ft.agree_msgs_n16": adapter.run_agree(16)}


FAMILIES = ("rts", "shrink_repair", "replication", "partial_restart")


@probe(*(
    f"protocols.{family}.{what}"
    for family in FAMILIES
    for what in ("wall_s", "mean_msgs", "rec_p90_us")
))
def protocol_families(ctx: Context) -> Metrics:
    seeds = workloads.seeds_for(workloads.ProtocolsCompare, ctx.seed, ctx.quick)
    metrics: Metrics = {}
    for family in FAMILIES:
        out = adapter.compare_protocols(ctx.rec, seeds, protocols=[family])
        if out["bad"]:
            raise RuntimeError(f"{family}: {out['bad']} hangs or violations")
        row = out["families"][family]
        metrics[f"protocols.{family}.wall_s"] = out["wall_s"]
        metrics[f"protocols.{family}.mean_msgs"] = row["mean_msgs"]
        metrics[f"protocols.{family}.rec_p90_us"] = row["rec_p90"] * 1e6
    return metrics


def _span_total(out: dict[str, Any], cat: str) -> float:
    return sum(s["dur"] for s in out["program_spans"] if s["cat"] == cat)


@probe(
    "faults.kills_injected", "faults.serial_sims_per_s",
    "parallel.dispatch_s", "parallel.exec_s", "parallel.merge_s",
    "parallel.chunks", "parallel.chunk_retries", "parallel.efficiency",
    "parallel.speedup_vs_serial", "parallel.net_s", "parallel.wire_bytes",
    "parallel.frames", "parallel.rtt_ms", "parallel.job_pickle_bytes",
    "parallel.fleet_start_s",
)
def sweep_transports(ctx: Context) -> Metrics:
    """The campaign of ``campaign_pool``/``campaign_remote``: serial (the
    baseline), through the pool instrumented, and through the fleet plain
    (its wire counters must not include shipped spans) and instrumented."""
    rec = ctx.rec
    seeds = workloads.seeds_for(workloads.CampaignPool, ctx.seed, ctx.quick)

    def checked(**kwargs: Any) -> dict[str, Any]:
        out = adapter.campaign(rec, seeds, **kwargs)
        if out["text"] != serial["text"] or out["bad"]:
            raise RuntimeError(f"campaign {sorted(kwargs)} differs from serial")
        return out

    with host.one_cpu():
        serial = adapter.campaign(rec, seeds)
    if serial["bad"]:
        raise RuntimeError(f"serial campaign: {serial['bad']} bad runs")

    pool = checked(
        runner=adapter.pool_runner(rec, workloads.WORKERS), instrumented=True
    )
    chunks = [s for s in pool["program_spans"] if s["cat"] == "chunk"]

    t0 = time.perf_counter()
    with adapter.Fleet(rec, workloads.WORKERS) as fleet:
        started = time.perf_counter() - t0
        plain = checked(runner=adapter.remote_runner(rec, fleet.addresses))
        remote = checked(
            runner=adapter.remote_runner(rec, fleet.addresses),
            instrumented=True,
        )
    stats = plain["worker_stats"]
    sent_chunks = sum(w["chunks"] for w in stats)
    return {
        "faults.kills_injected": serial["kills"],
        "faults.serial_sims_per_s": len(seeds) / serial["wall_s"],
        "parallel.dispatch_s": _span_total(pool, "chunk"),
        "parallel.exec_s": _span_total(pool, "exec"),
        "parallel.merge_s": _span_total(pool, "merge"),
        "parallel.chunks": len(chunks),
        "parallel.chunk_retries": sum(s["status"] != "done" for s in chunks),
        "parallel.efficiency": _span_total(pool, "exec")
        / (workloads.WORKERS * pool["wall_s"]),
        "parallel.speedup_vs_serial": serial["wall_s"] / pool["wall_s"],
        "parallel.net_s": _span_total(remote, "chunk") - _span_total(remote, "exec"),
        "parallel.wire_bytes": sum(w["bytes_out"] + w["bytes_in"] for w in stats),
        "parallel.frames": sum(s["cat"] == "net" for s in remote["program_spans"]),
        "parallel.rtt_ms": sum(w["rtt_s"] for w in stats) / sent_chunks * 1e3,
        "parallel.job_pickle_bytes": sum(w["raw_out"] for w in stats)
        / sum(w["jobs"] for w in stats),
        "parallel.fleet_start_s": started,
    }


@probe(
    "cache.hits", "cache.misses", "cache.stores", "cache.stale",
    "cache.key_us", "cache.put_many_ms", "cache.get_many_ms",
    "cache.lookup_us", "cache.db_bytes", "cache.cold_overhead_ratio",
)
def cache_layer(ctx: Context) -> Metrics:
    """One cold fill and ``REPLAYS`` warm replays of the ``cache_*``
    campaign, against the same campaign uncached."""
    rec = ctx.rec
    seeds = workloads.seeds_for(workloads.CacheCold, ctx.seed, ctx.quick)
    replays = 5 if ctx.quick else 20
    with host.one_cpu(), tempfile.TemporaryDirectory(prefix="perfbench-probe-") as tmp:
        plain = adapter.campaign(rec, seeds)
        ops = adapter.cache_ops(rec, seeds, tmp)
        total = dict(ops["cache"])
        with rec.span("cache.warm_replays") as warm:
            for _ in range(replays):
                out = adapter.campaign(rec, seeds, cache=ops["store"])
                if out["text"] != plain["text"]:
                    raise RuntimeError("warm replay differs from uncached")
                for key, value in out["cache"].items():
                    total[key] += value
    jobs = ops["jobs"]
    expected = {"hits": jobs * replays, "misses": jobs, "stores": jobs, "stale": 0}
    if ops["text"] != plain["text"] or total != expected:
        raise RuntimeError(f"cache accounting {total}, expected {expected}")
    return {
        "cache.hits": total["hits"],
        "cache.misses": total["misses"],
        "cache.stores": total["stores"],
        "cache.stale": total["stale"],
        "cache.key_us": ops["key_s"] / jobs * 1e6,
        "cache.put_many_ms": ops["put_many_s"] * 1e3,
        "cache.get_many_ms": ops["get_many_s"] * 1e3,
        "cache.lookup_us": seconds(warm) / total["hits"] * 1e6,
        "cache.db_bytes": ops["db_bytes"],
        "cache.cold_overhead_ratio": ops["cold_s"] / plain["wall_s"],
    }


@probe("analysis.invariants_us", "analysis.digest_us")
def analysis_layer(ctx: Context) -> Metrics:
    ops = adapter.analysis_ops(ctx.rec)
    return {
        "analysis.invariants_us": ops["invariants_s"] * 1e6,
        "analysis.digest_us": ops["digest_s"] * 1e6,
    }


@probe("cli.import_s")
def cli_import(ctx: Context) -> Metrics:
    return {"cli.import_s": adapter.import_seconds()}
