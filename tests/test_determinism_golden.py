"""Golden-file determinism: kernel changes must not move a single byte.

The kernel hot path (fiber handoff, event queue, matching engine, trace
recording) is rewritten for speed from time to time.  These tests pin the
*exact* observable behaviour across such rewrites: for every
**scheduling policy**, a failure-heavy ring scenario must produce a
``trace.format()`` output that is byte-identical to the golden file
checked in under ``tests/golden/`` — and identical between two runs in
the same process.

Regenerate the goldens (only when an *intentional* semantic change lands)
with::

    PYTHONPATH=src python tests/test_determinism_golden.py --regen
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import RingConfig, RingVariant, Termination, make_ring_main
from repro.faults import KillAtProbe, KillAtTime
from repro.simmpi import Simulation

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: (golden file stem, policy spec, seed) — ``seed`` feeds RandomPolicy.
CASES = [
    ("trace_rr", "rr", 0),
    ("trace_lowest", "lowest", 0),
    ("trace_random_s0", "random", 0),
    ("trace_random_s1", "random", 1),
    ("trace_random_s2", "random", 2),
    ("trace_random_s3", "random", 3),
]

#: (golden file stem, protocol) — the recovery-protocol presets of
#: ``repro trace`` (fig7's shape: 4 logical ranks, 4 iterations, rank 2
#: fail-stopped mid-run) driven by each :mod:`repro.protocols` family.
PROTOCOL_CASES = [
    ("trace_shrink_repair", "shrink_repair"),
    ("trace_replication", "replication"),
    ("trace_partial_restart", "partial_restart"),
]

def _run_scenario(policy: str, seed: int) -> str:
    """A failure-heavy 5-rank ring: one probe-window kill plus one timed
    kill, with a non-zero detection latency so DETECT events land at
    distinct times.  Deadlocks are returned (recorded in the trace), not
    raised, so every policy yields a complete timeline."""
    sim = Simulation(
        nprocs=5, seed=seed, policy=policy, detection_latency=2e-6
    )
    sim.add_injector(KillAtProbe(rank=2, probe="post_recv", hit=2))
    sim.add_injector(KillAtTime(rank=3, time=1.5e-5))
    cfg = RingConfig(
        max_iter=4,
        variant=RingVariant.FT_MARKER,
        termination=Termination.VALIDATE_ALL,
    )
    result = sim.run(make_ring_main(cfg), on_deadlock="return")
    return result.trace.format() + "\n"


def _run_protocol_scenario(protocol: str) -> str:
    """The ``repro trace`` preset shape for the recovery-protocol
    families: the fig7 ring (4 logical ranks, 4 iterations) with rank 2
    fail-stopped at a fixed virtual time and a non-zero detection
    latency.  Each family turns the same kill into a different timeline
    — revoke/shrink epochs, replica failover, respawn + state transfer —
    and each timeline must be byte-stable across kernels."""
    from repro.protocols import ProtocolRingConfig, ring_mains

    nproc, main = ring_mains(protocol, ProtocolRingConfig(max_iter=4), 4)
    sim = Simulation(nprocs=nproc, seed=0, detection_latency=2e-6)
    sim.add_injector(KillAtTime(rank=2, time=1.5e-5))
    result = sim.run(main, on_deadlock="return")
    return result.trace.format() + "\n"


@pytest.mark.parametrize("stem,policy,seed", CASES)
def test_trace_matches_golden(stem: str, policy: str, seed: int) -> None:
    golden = (GOLDEN_DIR / f"{stem}.txt").read_text()
    assert _run_scenario(policy, seed) == golden


@pytest.mark.parametrize("stem,policy,seed", CASES)
def test_trace_stable_across_runs(stem: str, policy: str, seed: int) -> None:
    assert _run_scenario(policy, seed) == _run_scenario(policy, seed)


@pytest.mark.parametrize("stem,protocol", PROTOCOL_CASES)
def test_protocol_trace_matches_golden(stem: str, protocol: str) -> None:
    golden = (GOLDEN_DIR / f"{stem}.txt").read_text()
    assert _run_protocol_scenario(protocol) == golden


@pytest.mark.parametrize("stem,protocol", PROTOCOL_CASES)
def test_protocol_trace_stable_across_runs(stem: str, protocol: str) -> None:
    assert _run_protocol_scenario(protocol) == _run_protocol_scenario(protocol)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden files")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, policy, seed in CASES:
        out = _run_scenario(policy, seed)
        (GOLDEN_DIR / f"{stem}.txt").write_text(out)
        print(f"wrote {stem}.txt ({len(out.splitlines())} lines)")
    for stem, protocol in PROTOCOL_CASES:
        out = _run_protocol_scenario(protocol)
        (GOLDEN_DIR / f"{stem}.txt").write_text(out)
        print(f"wrote {stem}.txt ({len(out.splitlines())} lines)")
