"""Fault-tolerant 1-D heat diffusion (paper §IV's "other domains").

The paper's related work cites heat-transfer ABFT (Ltaief et al.) and
*natural fault tolerance* (Engelmann & Geist): algorithms that survive
process loss with an approximately-correct answer.  This app shows the
ring paper's communication-level lessons transplanted to a stencil code:

* the domain is block-partitioned across ranks; each step is a Jacobi
  update of the explicit heat equation needing one halo cell per side;
* halo exchange resolves neighbors through the validate API like the
  ring's Fig. 4 (but without wraparound: the outermost alive ranks apply
  the fixed boundary condition);
* when a neighbor dies mid-exchange, the survivor recognizes the failure
  (``comm_validate_clear``), re-resolves its neighbor, and redoes the
  exchange — run-through stabilization.  The gap left by dead ranks
  becomes an insulated (zero-flux) edge, degrading the answer gracefully
  instead of killing the job (natural fault tolerance);
* every halo message carries its **step number** — the stencil analogue
  of the ring's iteration marker (§III-B).  This matters beyond mere
  dedup: after a repair, the two ranks flanking a dead gap may be *one
  step apart* (one of them completed the torn step, the other had to redo
  it).  A future-step halo is therefore *stashed* for the step it belongs
  to and the current step treats that side as insulated; a past-step halo
  is discarded.  Without this, the neighbors deadlock waiting for each
  other's past — a bug the repository's own property-based fault
  campaign found in an earlier version of this very file;
* a rank that finishes all its steps sends a **done marker** to its
  current neighbors so a slower neighbor never blocks on a peer that has
  exited (it treats that side as insulated from then on).

The returned report carries each survivor's subdomain so tests can check
diffusion/conservation properties against a failure-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..ft.rank_info import RankState
from ..ft.validate import comm_validate_clear, rank_state
from ..simmpi.communicator import Comm
from ..simmpi.errors import ErrorHandler, RankFailStopError
from ..simmpi.p2p import wait
from ..simmpi.process import SimProcess

#: Single tag for all halo traffic; messages carry ``(step, value)``.
TAG_HALO = 100


@dataclass(frozen=True)
class HeatConfig:
    """Parameters of one heat run."""

    cells_per_rank: int = 16
    steps: int = 20
    #: Diffusion number ``alpha * dt / dx^2`` — stable for <= 0.5.
    nu: float = 0.25
    #: Fixed (Dirichlet) temperature at the global domain edges.
    boundary: float = 0.0
    #: Virtual compute time per step (lands time-based failures in
    #: interesting windows).
    work_per_step: float = 1e-6


def _alive_left(comm: Comm, me: int) -> int | None:
    """Nearest alive rank to the left, no wraparound (``None`` = edge)."""
    n = me - 1
    while n >= 0:
        if rank_state(comm, n) is RankState.OK:
            return n
        n -= 1
    return None


def _alive_right(comm: Comm, me: int) -> int | None:
    """Nearest alive rank to the right, no wraparound (``None`` = edge)."""
    n = me + 1
    while n < comm.size:
        if rank_state(comm, n) is RankState.OK:
            return n
        n += 1
    return None


def _recognize_failures(comm: Comm) -> None:
    """Locally recognize every known failure (keeps p2p usable)."""
    unrecognized = comm.known_failed_comm_ranks() - comm.recognized
    if unrecognized:
        comm_validate_clear(comm, sorted(unrecognized))


@dataclass
class _SideState:
    """Per-side exchange bookkeeping that outlives individual steps."""

    #: Future halos received early, keyed by step.
    stash: dict[int, float] = field(default_factory=dict)
    #: The neighbor announced it finished all its steps.
    neighbor_done: bool = False


class _HaloExchanger:
    """Step-marked, repair-tolerant halo exchange for one rank."""

    def __init__(self, mpi: SimProcess, comm: Comm, steps: int) -> None:
        self.mpi = mpi
        self.comm = comm
        self.steps = steps
        self.sides = {"L": _SideState(), "R": _SideState()}
        self.retries = 0

    def _neighbor(self, side: str) -> int | None:
        me = self.comm.rank
        return _alive_left(self.comm, me) if side == "L" else _alive_right(
            self.comm, me
        )

    def _send_halo(self, side: str, step: int, value: float) -> None:
        peer = self._neighbor(side)
        if peer is None:
            return
        try:
            self.comm.send((step, value), peer, TAG_HALO)
        except RankFailStopError:
            pass  # the peer died between resolution and send; next
            # recognize/resolve pass handles it

    async def _recv_side(
        self, side: str, step: int, sent_to: int | None
    ) -> float | None:
        """Obtain this side's halo for *step*, or ``None`` => insulated."""
        state = self.sides[side]
        if step in state.stash:
            return state.stash.pop(step)
        if state.stash and max(state.stash) > step:
            # The stash proves the neighbor already completed this step
            # (halos arrive in order): it will never send a step-`step`
            # halo, so waiting would deadlock.  Insulate and catch up.
            return None
        if state.neighbor_done:
            return None
        peer = self._neighbor(side)
        if peer is None:
            return None
        if peer != sent_to:
            # The neighbor changed between our send and this receive (its
            # predecessor died while we were busy on the other side): the
            # new neighbor never got our halo — send it before waiting.
            self._send_halo(side, step, self._edge_value(side))
        while True:
            try:
                req = self.comm.irecv(source=peer, tag=TAG_HALO)
                await wait(req)
            except RankFailStopError:
                # Peer died: recognize, re-resolve, resend to the new
                # neighbor (it may still need our halo for this step),
                # and keep waiting on whoever now flanks the gap.
                self.retries += 1
                self.mpi.probe_point("halo_retry")
                _recognize_failures(self.comm)
                new_peer = self._neighbor(side)
                if new_peer is None:
                    return None
                if new_peer != peer:
                    self._send_halo(side, step, self._edge_value(side))
                peer = new_peer
                continue
            s, value = req.data
            if s == step:
                return float(value)
            if s >= self.steps:
                # Done marker: the neighbor finished every step.
                state.neighbor_done = True
                return None
            if s > step:
                # The neighbor is one step ahead (it completed the step we
                # had to redo): keep its halo for when we get there and
                # treat the torn step as insulated.
                state.stash[s] = float(value)
                return None
            # s < step: stale duplicate from a repair; ignore.

    def _edge_value(self, side: str) -> float:
        return self._edge_l if side == "L" else self._edge_r

    async def exchange(
        self, step: int, u: np.ndarray
    ) -> tuple[float | None, float | None]:
        """Exchange halos for *step*; returns (left, right) or None = edge."""
        self._edge_l = float(u[0])
        self._edge_r = float(u[-1])
        _recognize_failures(self.comm)
        sent_l = self._neighbor("L")
        sent_r = self._neighbor("R")
        self._send_halo("L", step, self._edge_l)
        self._send_halo("R", step, self._edge_r)
        self.mpi.probe_point("halos_posted")
        halo_l = await self._recv_side("L", step, sent_l)
        halo_r = await self._recv_side("R", step, sent_r)
        return halo_l, halo_r

    def finish(self) -> None:
        """Announce completion so slower ranks never block on us.

        The marker goes to *every* alive rank, not just the current
        neighbors: a later failure can re-resolve a distant survivor's
        gap onto this (already exited) rank, and it must find the done
        marker waiting.  Same linear-broadcast shape as the ring paper's
        Fig. 11 termination message.
        """
        _recognize_failures(self.comm)
        me = self.comm.rank
        for peer in range(self.comm.size):
            if peer == me or rank_state(self.comm, peer) is not RankState.OK:
                continue
            try:
                self.comm.send((self.steps, 0.0), peer, TAG_HALO)
            except RankFailStopError:
                pass


async def heat_main(mpi: SimProcess, cfg: HeatConfig) -> dict[str, Any]:
    """Per-rank main: run ``cfg.steps`` fault-tolerant Jacobi steps."""
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    me, size = comm.rank, comm.size
    n = cfg.cells_per_rank
    # Initial condition: a unit hot bump at the global center cell(s).
    u = np.zeros(n, dtype=float)
    global_cells = n * size
    for j in range(n):
        g = me * n + j
        if g in (global_cells // 2, (global_cells - 1) // 2):
            u[j] = 1.0

    exchanger = _HaloExchanger(mpi, comm, cfg.steps)
    for step in range(cfg.steps):
        if cfg.work_per_step:
            await mpi.compute(cfg.work_per_step)
        mpi.probe_point("step_top")
        halo_l, halo_r = await exchanger.exchange(step, u)
        # Edges: the true domain boundary gets the Dirichlet value; a gap
        # left by dead ranks (or a briefly out-of-step neighbor) becomes
        # insulated: mirror the edge cell => zero flux into the hole.
        if halo_l is None:
            halo_l = cfg.boundary if me == 0 else float(u[0])
        if halo_r is None:
            halo_r = cfg.boundary if me == size - 1 else float(u[-1])
        padded = np.empty(n + 2, dtype=float)
        padded[0] = halo_l
        padded[1:-1] = u
        padded[-1] = halo_r
        u = padded[1:-1] + cfg.nu * (padded[:-2] - 2 * padded[1:-1] + padded[2:])
        mpi.probe_point("step_done")
    exchanger.finish()

    return {
        "rank": me,
        "field": u.tolist(),
        "halo_retries": exchanger.retries,
        "total_heat": float(u.sum()),
        "steps": cfg.steps,
    }


def make_heat_main(cfg: HeatConfig):
    """Bind a :class:`HeatConfig` into a ``main(mpi)`` callable."""
    return lambda mpi: heat_main(mpi, cfg)
