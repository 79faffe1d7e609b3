"""The agreement engine under fail-stop at every message boundary.

``repro.ft.agreement`` serves ``comm_validate_all`` and, on a context that
revocation spares, ``comm_agree`` / ``comm_shrink``.  Its default
coordinator algorithm is exercised here by a *kill matrix*: a victim dies
on attempting its k-th protocol send, so exactly k of its messages leave
— before it contributes, between its contribution and the ``DECIDE``,
part-way through a ``DECIDE`` fan-out, in the middle of a takeover — for
every k, every victim subset of size <= 2 (the coordinator and its
successor included), under detectors that report a death before, while
and after the victim's last messages are still on the wire.

Checked for every schedule: *termination* (no hang, every survivor
returns), *agreement* (one decision among survivors) and *validity*
(the decision contains every survivor's proposal and nothing that had
not happened by the time it was taken).
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro.cli import main as cli_main
from repro.core import RingConfig, Termination, make_ring_main
from repro.ft import comm_agree, comm_shrink, icomm_agree, icomm_validate_all
from repro.ft.agreement import CTX_AGREE
from repro.simmpi import ErrorHandler, Simulation, wait
from repro.simmpi.fibers import FiberState
from repro.simmpi.trace import TraceKind

#: Detection delay (observer, failed) -> seconds.  A protocol message is
#: in flight for 1.2 us: the detector beats it, ties with it, trails it,
#: or reports to each observer at a different moment.
DETECTORS = {
    "instant": 0.0,
    "racing": 1.2e-6,
    "trailing": 3e-6,
    "staggered": lambda observer, failed: 4e-7 * (1 + (observer + failed) % 4),
}


def kill_at_send(sim: Simulation, budgets: dict[int, int]) -> None:
    """Fail-stop each rank in *budgets* as it attempts protocol send number
    ``budgets[rank]`` (0-based): that send and all later ones never leave."""
    rt = sim.runtime
    deliver = rt.send_am
    attempts: Counter[int] = Counter()

    def send_am(src, dst, context, payload):
        proc = rt.procs[src]
        if src in budgets and proc.alive():
            if attempts[src] == budgets[src]:
                if proc.fiber.state is FiberState.RUNNING:
                    rt.kill_now(proc)  # inside its own call: unwinds it
                else:
                    rt._kill_event(src, rt.clock.now)  # from the progress engine
            attempts[src] += 1
        deliver(src, dst, context, payload)

    rt.send_am = send_am


# -- the three collectives, each returning (proposal, decision) ------------


async def validate_main(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    await mpi.compute(2e-7 * comm.rank)
    proposal = frozenset(comm.known_failed_comm_ranks())
    req = icomm_validate_all(comm)
    await wait(req)
    assert comm.validated == req.data == comm.recognized
    await mpi.compute(1e-4)  # stay killable while others still need answers
    return proposal, req.data


async def _revoked_world(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    if comm.rank == comm.size - 1:
        comm.revoke()
    await mpi.compute(3e-6)  # the revocation has reached everyone
    assert comm.is_revoked
    await mpi.compute(2e-7 * comm.rank)
    return comm


async def agree_main(mpi):
    comm = await _revoked_world(mpi)
    proposal = frozenset({(comm.rank, 10 * comm.rank)})
    req = icomm_agree(comm, 10 * comm.rank)
    await wait(req)
    await mpi.compute(1e-4)
    return proposal, req.data


async def shrink_main(mpi):
    comm = await _revoked_world(mpi)
    proposal = frozenset(comm.known_failed_comm_ranks())
    shrunk = await comm_shrink(comm)
    await mpi.compute(1e-4)
    return proposal, frozenset(range(comm.size)) - frozenset(shrunk.group)


MAINS = {"validate": validate_main, "agree": agree_main, "shrink": shrink_main}


def check(r, n: int, api: str) -> str | None:
    """The three properties, or a description of the one that broke."""
    if r.hung:
        return f"hang: {r.deadlock}"
    survivors = [rank for rank in range(n) if rank not in r.failed_ranks]
    if sorted(r.completed_ranks) != survivors:
        return f"survivors {survivors} but completed {r.completed_ranks}"
    decisions = {r.value(rank)[1] for rank in survivors}
    if len(decisions) != 1:
        return f"disagreement: {sorted(map(sorted, decisions))}"
    (decision,) = decisions
    for rank in survivors:
        if not r.value(rank)[0] <= decision:
            return f"rank {rank}'s proposal {set(r.value(rank)[0])} not in {set(decision)}"
    if api == "agree":
        extra = {rv for rv in decision if rv != (rv[0], 10 * rv[0])}
    else:
        died = {ev.rank: ev.time for ev in r.trace.filter(kind=TraceKind.FAILURE)}
        decided_at = min(
            ev.time for ev in r.trace.filter(kind=TraceKind.VALIDATE)
            if ev.detail["op"].endswith("_decide") and ev.rank in survivors
        )
        extra = {f for f in decision if died.get(f, float("inf")) > decided_at}
    if extra:
        return f"decision holds {extra}, which nobody proposed truthfully"
    return None


def run_schedule(api: str, n: int, detector: str, budgets: dict[int, int]):
    sim = Simulation(nprocs=n, detection_latency=DETECTORS[detector])
    kill_at_send(sim, budgets)
    return sim.run(MAINS[api], on_deadlock="return")


def run_matrix(api: str, n: int, detector: str) -> None:
    """Every victim subset of size <= 2 x every send budget of each.

    Budgets rise until the victim outlives the run: it never attempted
    that many sends, so a larger budget replays the same schedule.
    """
    broken: list[str] = []
    kills: Counter[int] = Counter()

    def killed(budgets: dict[int, int]) -> frozenset[int]:
        r = run_schedule(api, n, detector, budgets)
        kills[len(r.failed_ranks)] += 1
        problem = check(r, n, api)
        if problem:
            broken.append(f"{budgets}: {problem}")
        return r.failed_ranks

    for a in range(n):
        for ka in itertools.count():
            if a not in killed({a: ka}):
                break
        for b in range(a + 1, n):
            for ka in itertools.count():
                a_died = False
                for kb in itertools.count():
                    dead = killed({a: ka, b: kb})
                    a_died |= a in dead
                    if b not in dead:
                        break
                if not a_died:
                    break
    assert not broken, f"{len(broken)} schedule(s), first: {broken[0]}"
    # Single and double kills both land inside the protocol, many times.
    assert kills[1] >= 2 * n and kills[2] >= n * (n - 1), kills


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_validate_all_kill_matrix(n, detector):
    run_matrix("validate", n, detector)


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("api", ["agree", "shrink"])
def test_agree_and_shrink_on_revoked_comm_kill_matrix(api, n, detector):
    run_matrix(api, n, detector)


def test_stale_decide_from_dead_coordinator_is_ignored():
    """Coordinator 0 decides {0, 1, 2}, gets one ``DECIDE`` out (to rank 1)
    and dies.  Rank 1 learns of the death while that message is still on
    the wire, takes over term 1 and, with rank 2, must decide {1, 2}: had
    it adopted the late term-0 ``DECIDE`` it would hold a decision rank 2
    never sees (this is the disagreement the protocol's term check stops).
    """
    r = run_schedule("agree", 3, "racing", {0: 1})
    assert r.failed_ranks == {0}
    world_agree = CTX_AGREE  # world is cid 0
    detect = next(ev.time for ev in r.trace.filter(kind=TraceKind.DETECT, rank=1))
    stale = [
        ev.time for ev in r.trace.filter(kind=TraceKind.DELIVER, rank=1)
        if ev.detail["src"] == 0 and ev.detail["ctx"] == world_agree
    ]
    assert len(stale) == 1 and stale[0] > detect  # it did arrive, late
    decides = {
        ev.rank: ev.detail for ev in r.trace.filter(kind=TraceKind.VALIDATE)
        if ev.detail["op"] == "agree_decide"
    }
    assert decides[0]["contributors"] == [0, 1, 2]
    for rank in (1, 2):
        assert decides[rank]["contributors"] == [1, 2]
        assert decides[rank]["how"] == "coordinator:1"
        assert decides[rank]["round"] == 4  # contribute, takeover, decide
        assert r.value(rank)[1] == {(1, 10), (2, 20)}


def test_coordinator_dead_before_the_call_with_uneven_knowledge():
    """Rank 0 died long before; some members know, some still report to it
    and re-report when their detector catches up."""

    async def main(mpi):
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        if comm.rank == 0:
            await mpi.compute(1.0)
        await mpi.compute(1e-5)
        req = icomm_validate_all(comm)
        await wait(req)
        return sorted(req.data)

    late = {2: 2e-5, 4: 1.3e-5}  # observer -> delay; the rest know at once
    sim = Simulation(nprocs=5, detection_latency=lambda o, f: late.get(o, 0.0))
    sim.kill(0, at_time=1e-6)
    r = sim.run(main)
    assert all(r.value(rank) == [0] for rank in range(1, 5))
    # 3 contributions to rank 1, 2 wasted on rank 0, 3 DECIDEs.
    assert r.perf.messages_sent == 8 and r.perf.messages_dropped == 2


def test_next_instance_must_wait_for_the_previous_one():
    async def main(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            await mpi.compute(1e-5)  # nobody can decide before rank 0 joins
        first = icomm_validate_all(comm)
        if comm.rank == 1:
            with pytest.raises(RuntimeError, match="run in order"):
                icomm_validate_all(comm)
        await wait(first)
        return "ok"

    r = Simulation(nprocs=3).run(main)
    assert set(r.values().values()) == {"ok"}


# -- exact message counts: the O(n) claim, gated without a clock -----------


@pytest.mark.parametrize("n", [8, 16, 32, 64, 256])
def test_fault_free_validate_all_adds_two_messages_per_member(n):
    def ring_messages(termination: Termination) -> int:
        cfg = RingConfig(max_iter=5, termination=termination)
        sim = Simulation(nprocs=n, trace_enabled=False)
        return sim.run(make_ring_main(cfg)).perf.messages_sent

    added = ring_messages(Termination.VALIDATE_ALL) - ring_messages(Termination.NONE)
    assert added == 2 * (n - 1)  # n-1 contributions, n-1 DECIDEs


def test_comm_agree_among_16_ranks_sends_30():
    sim = Simulation(nprocs=16, trace_enabled=False)
    r = sim.run(lambda mpi: comm_agree(mpi.comm_world, mpi.rank))
    assert set(r.values().values()) == {0}
    assert r.perf.messages_sent == 30


def test_floodset_oracle_keeps_its_cubic_cost():
    async def main(mpi):
        await wait(icomm_validate_all(mpi.comm_world, mode="full"))

    r = Simulation(nprocs=8, trace_enabled=False).run(main)
    assert r.perf.messages_sent == 8 * 8 * 7  # n rounds x n(n-1)


def test_perf_ring_256_ranks_validate_all_completes(capsys):
    rc = cli_main(["perf", "ring", "--nprocs", "256", "--iters", "5",
                   "--termination", "validate_all", "--no-trace"])
    out = capsys.readouterr().out
    assert rc == 0 and "ran through" in out
    assert f"messages_sent        {256 * 5 + 2 * 255}" in out
