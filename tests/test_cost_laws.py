"""The fault-free ring's costs, stated as laws in (n, iters, o, L, G).

EXPERIMENTS.md asserts literal rows at a few sizes; these tests state
what those rows are instances of, at sizes from 2 to 4,096 ranks, so a
change to the kernel's host-side cost (how many frames a hop takes)
cannot move the simulated cost (how many messages, events and handoffs
it takes, and when it ends) without failing here.

Under the LogGP model of :class:`repro.simmpi.CostModel` a message of
``s`` bytes costs its sender ``o``, travels ``L + s*G`` and costs its
receiver ``o``.  A ring hop is one send and one receive on the critical
path: ``2o + L + s*G``.  The run's end time is the global clock, the
time of its last event — a delivery, whose receive overhead the clock
never sees.

* ``termination=none``: ``n*iters`` hops, so ``n*iters`` messages, one
  delivery event each, and ``n*(iters + 1)`` handoffs (each rank's first
  slice, then one wake per message it receives).  The run ends at the
  root's last delivery: ``n*iters*(2o + L + s*G) - o``.
* ``termination=root_bcast``: the root then sends ``T_D`` to the other
  ``n - 1`` ranks, one after the other — ``n - 1`` more messages, events
  and handoffs.  The last ``T_D`` leaves after the root's final receive
  overhead and ``n - 1`` send overheads, so the run ends ``n*o + L +
  s_D*G`` later.
"""

from __future__ import annotations

import pytest

from repro.core import RingConfig, Termination, make_ring_main
from repro.simmpi import DEFAULT_COST, CostModel, Simulation
from repro.simmpi.util import ENVELOPE_BYTES

#: Wire size of a ring buffer: the envelope, a dataclass and two ints.
RING_BYTES = ENVELOPE_BYTES + 8 + 2 * 8
#: Wire size of a ``T_D`` message, whose payload is ``None``.
DONE_BYTES = ENVELOPE_BYTES
#: Wire sizes of an agreement report and announcement, ``_Msg`` of
#: ``repro.ft.agreement``: a dataclass holding its kind's name, three
#: ints, an empty frozenset and a bool.
REPORT_BYTES = ENVELOPE_BYTES + 8 + len("contrib") + 3 * 8 + 8 + 1
ANNOUNCE_BYTES = ENVELOPE_BYTES + 8 + len("decide") + 3 * 8 + 8 + 1

SIZES = [2, 3, 4, 8, 64, 512, 4096]
ITERS = 3
COSTS = {
    "default": DEFAULT_COST,
    "slow-wire": CostModel(latency=3e-6, byte_cost=2.5e-9, overhead=7e-7),
}


def law(term: Termination, n: int, iters: int, cost: CostModel):
    """``(messages, events, handoffs, matches, end time)`` of a fault-free
    ring."""
    o, L, G = cost.overhead, cost.latency, cost.byte_cost
    hops = n * iters
    messages = hops
    handoffs = n * (iters + 1)
    end = hops * (2 * o + L + RING_BYTES * G) - o
    matched = messages
    if term is Termination.ROOT_BCAST:
        messages += n - 1
        matched += n - 1
        handoffs += n - 1
        end += n * o + L + DONE_BYTES * G
    elif term is Termination.VALIDATE_ALL:
        messages += 2 * (n - 1)
        handoffs += n
        end += 2 * o + L + (REPORT_BYTES - RING_BYTES + ANNOUNCE_BYTES) * G
    return messages, messages, handoffs, matched, end


def test_validate_all_adds_the_flat_term_of_experiments_md():
    """EXP-OV's reading: ``validate_all`` adds 1.503 us under the
    default model, whatever the ring's size."""
    *_, plain = law(Termination.NONE, 8, ITERS, DEFAULT_COST)
    *_, validated = law(Termination.VALIDATE_ALL, 8, ITERS, DEFAULT_COST)
    assert validated - plain == pytest.approx(1.503e-6, rel=1e-12)


@pytest.mark.parametrize("cost", COSTS.values(), ids=COSTS.keys())
@pytest.mark.parametrize(
    "term",
    [Termination.NONE, Termination.ROOT_BCAST, Termination.VALIDATE_ALL],
    ids=lambda t: t.value,
)
@pytest.mark.parametrize("n", SIZES)
def test_fault_free_ring_follows_its_cost_law(n, term, cost):
    main = make_ring_main(RingConfig(max_iter=ITERS, termination=term))
    result = Simulation(nprocs=n, cost=cost, trace_enabled=False).run(main)
    perf = result.perf
    messages, events, handoffs, matched, end = law(term, n, ITERS, cost)
    assert (perf.messages_sent, perf.events_executed, perf.handoffs) == (
        messages, events, handoffs
    )
    assert perf.messages_matched == matched
    # The simulator sums the same terms one hop at a time, so the two
    # differ only by float rounding: a missing or extra term is off by
    # at least one overhead, many orders of magnitude more.
    assert result.final_time == pytest.approx(end, rel=1e-12, abs=0.0)
