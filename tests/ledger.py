"""The job ledger: what every kind of sweep job runs and stores, pinned.

:func:`jobs` is a deterministic spec of about two hundred sweep jobs:
all four kinds (campaign, window, protocol comparison, fuzz), all four
protocol families, the four bundled apps, every ring termination,
fault-free and faulted runs, and rings of 2 to 64 ranks.  Each line of
``tests/ledger.jsonl`` is one job's row:

* ``token`` — its canonical cache-key token (:mod:`repro.cache.keys`);
* ``key`` — its key under the salts the key vectors of
  ``tests/test_cache_keys.py`` were recorded with (``recorded_salts``:
  version 1.1.0, no mutation active);
* ``payload`` — a digest of the whole ``cache_payload()`` payload, keys
  and values (sorted-key compact JSON, blake2b-128);
* ``final_time`` — the run's final virtual time.

``tests/test_ledger.py`` recomputes every row.  A row that moves means a
job now keys, runs or stores differently, and a store filled before the
change would no longer replay as hits.  To list every row that moved,
and which of its fields (exit status 1 if any ``final_time`` moved: a
job then runs differently, not just keys or stores differently)::

    PYTHONPATH=src python -m tests.ledger --moved

Rewrite the file only for a deliberate change of that kind::

    PYTHONPATH=src python -m tests.ledger
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro import mutation
from repro.cache import canonical_token, job_keys, keys
from repro.faults.campaign import CampaignJob
from repro.faults.explorer import WindowJob, enumerate_windows
from repro.fuzz.driver import FuzzJob, sample_configs
from repro.parallel import (
    AppScenario,
    GenericInvariants,
    RingScenario,
    StandardRingInvariants,
)
from repro.protocols import ProtocolCompareJob

LEDGER = Path(__file__).with_name("ledger.jsonl")

#: The fields of a row, in the order a moved row names them.
FIELDS = ("token", "key", "payload", "final_time")

#: The version salt of ``tests/test_cache_keys.py``'s ``recorded_salts``.
RECORDED_VERSION = "1.1.0"

VARIANTS = ("baseline", "naive", "ft_no_marker", "ft_marker")
TERMINATIONS = ("none", "root_bcast", "validate_all", "ibarrier")
PROTOCOLS = ("rts", "shrink_repair", "replication", "partial_restart")
APPS = ("heat1d", "ring_allreduce", "abft_matvec", "manager_worker")


def _ring(nprocs: int, iters: int, **kw: Any) -> RingScenario:
    return RingScenario(nprocs=nprocs, iters=iters, **kw)


def _campaign_jobs() -> Iterator[CampaignJob]:
    # Every variant under every termination, one kill each.
    for variant in VARIANTS:
        for termination in TERMINATIONS:
            for seed in (0, 1):
                yield CampaignJob(
                    factory=_ring(4, 3, variant=variant, termination=termination),
                    seed=seed,
                    horizon=8e-6,
                    invariants=StandardRingInvariants(3, 4),
                )
    # Ring size from 2 to 64, fault-free and with two kills.
    for nprocs in (2, 3, 5, 8, 16, 32, 64):
        for termination in ("root_bcast", "validate_all"):
            for kills in (0, min(2, nprocs - 1)):
                yield CampaignJob(
                    factory=_ring(nprocs, 2, termination=termination),
                    seed=nprocs,
                    horizon=2e-6 * nprocs,
                    kills_per_run=kills,
                    invariants=StandardRingInvariants(2, nprocs),
                )
    # Two kills on an 8-rank ring with no termination protocol.
    for variant in ("naive", "ft_marker"):
        for seed in (1, 2):
            yield CampaignJob(
                factory=_ring(8, 2, variant=variant, termination="none"),
                seed=seed,
                horizon=1.6e-5,
                kills_per_run=2,
                invariants=StandardRingInvariants(2, 8),
            )
    # The root may die: the root-failure-tolerant ring, explicit ranks.
    for seed in range(4):
        yield CampaignJob(
            factory=_ring(5, 3, rootft=True),
            seed=seed,
            horizon=1e-5,
            kills_per_run=1 + seed % 2,
            eligible_ranks=(0, 1, 2, 3, 4),
            invariants=StandardRingInvariants(3, 5, allow_root_loss=True),
        )
    # No invariants, a detection latency, per-iteration work, a sim seed.
    yield CampaignJob(factory=_ring(6, 4), seed=3, horizon=2e-5)
    yield CampaignJob(
        factory=_ring(6, 4, detection_latency=1e-6, seed=7),
        seed=4,
        horizon=2e-5,
        kills_per_run=2,
        invariants=StandardRingInvariants(4, 6),
    )
    yield CampaignJob(
        factory=_ring(6, 4, work_per_iter=1e-6),
        seed=5,
        horizon=2e-5,
        eligible_ranks=(2, 4),
        invariants=StandardRingInvariants(4, 6),
    )
    # The four apps, fault-free and with one kill.
    for app in APPS:
        for nprocs in (3, 4, 6):
            for kills in (0, 1):
                yield CampaignJob(
                    factory=AppScenario(app=app, nprocs=nprocs, size=4, steps=2),
                    seed=nprocs + kills,
                    horizon=1e-5,
                    kills_per_run=kills,
                    invariants=GenericInvariants(),
                )


def _window_jobs() -> Iterator[WindowJob]:
    for scenario, invariants in (
        (_ring(4, 3, variant="naive", termination="root_bcast"),
         StandardRingInvariants(3, 4)),
        (_ring(5, 2), StandardRingInvariants(2, 5)),
        (_ring(3, 2, termination="ibarrier"), ()),
        (AppScenario(app="heat1d", nprocs=4, size=4, steps=2),
         GenericInvariants()),
        (AppScenario(app="manager_worker", nprocs=4, size=4, steps=2),
         GenericInvariants()),
    ):
        windows = enumerate_windows(scenario)[::3][:6]
        for window in windows:
            yield WindowJob(
                factory=scenario, windows=(window,), invariants=invariants
            )
        pairs = [
            (a, b) for a in windows for b in windows if a.rank < b.rank
        ][:4]
        for pair in pairs:
            yield WindowJob(factory=scenario, windows=pair, invariants=invariants)


def _compare_jobs() -> Iterator[ProtocolCompareJob]:
    for protocol in PROTOCOLS:
        for baseline, seed in ((True, 0), (False, 1), (False, 2), (False, 3)):
            yield ProtocolCompareJob(
                protocol=protocol,
                nprocs=5,
                iters=4,
                seed=seed,
                baseline=baseline,
                horizon=2e-5,
            )
        for nprocs in (2, 3, 8):
            yield ProtocolCompareJob(
                protocol=protocol, nprocs=nprocs, iters=3, seed=nprocs,
                horizon=1e-5,
            )
        yield ProtocolCompareJob(
            protocol=protocol, nprocs=6, iters=3, seed=4, horizon=2e-5,
            kills_per_run=2, spares=3, sim_seed=2,
            detection_latency=1e-6, work_per_iter=5e-7,
        )


def _fuzz_jobs() -> Iterator[FuzzJob]:
    specs = [
        (_ring(4, 3), 10, dict(min_kills=0, max_kills=2)),
        (_ring(4, 3, variant="naive", termination="root_bcast"), 6,
         dict(min_kills=1, max_kills=2)),
        (_ring(5, 3, rootft=True), 4, dict(min_kills=1, max_kills=1)),
        (_ring(4, 3, variant="ft_no_marker"), 4, dict(min_kills=1, max_kills=2)),
    ] + [
        (AppScenario(app=app, nprocs=4, size=4, steps=2), 3,
         dict(min_kills=0, max_kills=1))
        for app in APPS
    ]
    index = 0
    for scenario, runs, options in specs:
        for config in sample_configs(scenario, runs, seed=runs, **options):
            yield FuzzJob(config=config, index=index)
            index += 1
    # An explicit battery instead of the scenario's default.
    yield FuzzJob(
        config=sample_configs(_ring(4, 3), 1, seed=99, min_kills=1)[0],
        invariants=StandardRingInvariants(3, 4),
    )


def jobs() -> list[Any]:
    """The ledger's jobs, in row order."""
    return [
        *_campaign_jobs(), *_window_jobs(), *_compare_jobs(), *_fuzz_jobs()
    ]


@contextlib.contextmanager
def recorded_salts() -> Iterator[None]:
    """Derive keys under the salts the key vectors were recorded with."""
    if mutation.active_set():
        raise RuntimeError("the ledger is keyed with no mutation active")
    saved = keys.__version__
    keys.__version__ = RECORDED_VERSION
    try:
        yield
    finally:
        keys.__version__ = saved


def payload_digest(payload: dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def rows(batch: list[Any], payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One ledger row per job of *batch*, given each job's payload."""
    with recorded_salts():
        batch_keys = job_keys(batch)
    return [
        {
            "token": canonical_token(job),
            "key": key,
            "payload": payload_digest(payload),
            "final_time": payload["final_time"],
        }
        for job, key, payload in zip(batch, batch_keys, payloads)
    ]


@dataclass(frozen=True)
class PayloadOf:
    """A sweep job whose result is another job's cache payload, so a
    pooled runner can recompute payloads."""

    job: Any

    def __call__(self) -> dict[str, Any]:
        return self.job.cache_payload()[1]


def compute() -> list[dict[str, Any]]:
    """Every row, recomputed serially in this process."""
    batch = jobs()
    return rows(batch, [PayloadOf(job)() for job in batch])


def load(path: Path = LEDGER) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def moved_fields(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """The fields of *new* that differ from *old*, in :data:`FIELDS` order."""
    return [name for name in FIELDS if old[name] != new[name]]


def moved(
    recorded: list[dict[str, Any]], now: list[dict[str, Any]]
) -> tuple[list[str], bool]:
    """One line per row of *now* that differs from *recorded*, naming
    the fields that moved and ending with a count per field; and whether
    any ``final_time`` moved."""
    lines = []
    counts = dict.fromkeys(FIELDS, 0)
    for i, (old, new) in enumerate(zip(recorded, now)):
        fields_ = moved_fields(old, new)
        for name in fields_:
            counts[name] += 1
        if fields_:
            lines.append(f"row {i} (line {i + 1}): {', '.join(fields_)}")
    if len(recorded) != len(now):
        lines.append(f"{len(recorded)} rows recorded, {len(now)} jobs now")
    total = sum(1 for old, new in zip(recorded, now) if moved_fields(old, new))
    lines.append(
        f"{total} of {len(now)} rows moved ("
        + ", ".join(f"{name} {counts[name]}" for name in FIELDS) + ")"
    )
    return lines, counts["final_time"] > 0


def write(path: Path = LEDGER) -> int:
    lines = compute()
    path.write_text("".join(json.dumps(row) + "\n" for row in lines))
    return len(lines)


def main(argv: list[str]) -> int:
    if argv == ["--moved"]:
        lines, times_moved = moved(load(), compute())
        print("\n".join(lines))
        return 1 if times_moved else 0
    if argv:
        print("usage: python -m tests.ledger [--moved]", file=sys.stderr)
        return 2
    print(f"{write()} rows written to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
