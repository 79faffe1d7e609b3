"""Coverage-guided fuzzing: seek novel interleavings, not novel seeds.

Uniform sampling (:func:`repro.fuzz.driver.sample_configs`) spends most
of a large budget re-discovering the same few behaviours — the ring
either completes, aborts, or hangs in one of a handful of shapes.  This
module adds the classic coverage-feedback loop on top of the existing
seeded sampler:

* **Coverage map** — every finished run is reduced to a small *cell*:
  its outcome class (ok/hang/violation/abort), a prefix of its
  timing-free *shape digest* (per-rank event-kind sequences — jitter
  moves timestamps around without necessarily changing the shape, so
  unlike ``result_digest`` the shape does not change on every seed),
  and log-binned counts of the run (agreement decisions, blocked
  intervals, messages sent).  Two runs in the same cell exercised the
  protocol the same way.
* **Corpus** — configs that hit a *novel* cell are kept; subsequent
  batches mutate corpus members (fault-schedule and jitter-spec
  mutators on top of the existing draw) instead of sampling blind.
  What found new behaviour once tends to sit near more of it.

Everything stays deterministic: one parent-side ``random.Random(seed)``
drives sampling, corpus choice, and mutation; each batch is a barrier
through the ordinary :class:`~repro.parallel.runner.SweepRunner`, so a
pooled campaign reproduces the serial one exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from ..parallel.runner import SerialRunner, SweepRunner
from ..simmpi.runtime import SimulationResult
from ..simmpi.trace import TraceKind
from .config import FuzzConfig, default_eligible_ranks
from .driver import (
    _JITTER_LEVELS,
    _POLICY_CHOICES,
    FuzzJob,
    FuzzOutcome,
    _draw_config,
    _draw_kill,
)

__all__ = [
    "CoverageJob",
    "CoverageMap",
    "CoverageOutcome",
    "CoverageReport",
    "coverage_cell",
    "coverage_fuzz",
    "mutate_config",
    "shape_digest",
]

#: Hex chars of the shape digest that enter a coverage cell.  8 chars =
#: 32 bits — collisions are negligible next to the binning coarseness.
SHAPE_PREFIX = 8


def shape_digest(result: SimulationResult) -> str:
    """Timing-free fingerprint of a run's interleaving shape.

    Hashes each rank's *sequence of event kinds* (sends, recvs, probes,
    failures ... in per-rank order) and nothing else — no timestamps, no
    payloads.  ``result_digest`` incorporates event times, so every
    jitter seed yields a fresh digest and a digest-keyed coverage map
    would declare every run novel; the shape digest only moves when the
    *order of what each rank did* moves, which is the thing coverage
    guidance needs to notice.
    """
    kinds = [kind.value for kind, _names in result.trace.shapes]
    per_rank: dict[int, list[str]] = {}
    for row in result.trace.rows:
        per_rank.setdefault(row[2], []).append(kinds[row[1]])
    h = hashlib.blake2b(digest_size=16)
    for rank in sorted(per_rank):
        h.update(f"r{rank}:".encode())
        h.update("|".join(per_rank[rank]).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _bin(n: int) -> int:
    """Log2 bin: 0 -> 0, 1 -> 1, 2-3 -> 2, 4-7 -> 3, ...  Coarse on
    purpose — cells must separate regimes, not individual counts."""
    return int(n).bit_length() if n > 0 else 0


def coverage_cell(
    outcome: FuzzOutcome, result: SimulationResult
) -> tuple[Any, ...]:
    """Reduce one finished run to its coverage cell.

    Components: outcome class, shape-digest prefix, binned agreement
    decisions (``*_decide`` rows), binned blocked intervals, binned
    messages sent.  A rank blocks once before each handoff but its
    first, so the run has ``handoffs - nprocs`` blocked intervals.
    """
    from ..obs.telemetry import outcome_class

    decides = result.trace.columns(TraceKind.VALIDATE, "how")
    decisions = sum(1 for row in result.trace.rows if row[1] in decides)
    perf = result.perf
    blocked = sent = 0
    if perf is not None:
        blocked = perf.handoffs - len(result.outcomes)
        sent = perf.messages_sent
    return (
        outcome_class(outcome),
        shape_digest(result)[:SHAPE_PREFIX],
        _bin(decisions),
        _bin(blocked),
        _bin(sent),
    )


class CoverageMap:
    """Seen coverage cells with hit counts.

    ``add`` returns whether the cell was novel — the corpus-admission
    signal.  The map itself is tiny (cells are 5-tuples of scalars), so
    a 10^6-run campaign's map still fits in a few MB.
    """

    def __init__(self) -> None:
        self.cells: dict[tuple[Any, ...], int] = {}

    def add(self, cell: tuple[Any, ...]) -> bool:
        novel = cell not in self.cells
        self.cells[cell] = self.cells.get(cell, 0) + 1
        return novel

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: tuple[Any, ...]) -> bool:
        return cell in self.cells

    @property
    def outcome_classes(self) -> set[str]:
        """Distinct outcome classes observed (first cell component)."""
        return {cell[0] for cell in self.cells}

    def to_dict(self) -> dict[str, int]:
        """JSON-able form: ``"class/shape/rounds/blocked/sent" -> hits``."""
        return {
            "/".join(str(c) for c in cell): count
            for cell, count in sorted(
                self.cells.items(), key=lambda kv: str(kv[0])
            )
        }


@dataclass(frozen=True)
class CoverageOutcome:
    """What one :class:`CoverageJob` ships back: the ordinary fuzz
    outcome plus the run's coverage cell."""

    outcome: FuzzOutcome
    cell: tuple[Any, ...]


@dataclass(frozen=True)
class CoverageJob:
    """Picklable unit of coverage-fuzz work.

    Runs the config exactly like a :class:`~repro.fuzz.driver.FuzzJob`
    and reduces the result to its cell *in the worker*; only the small
    cell crosses the pool.

    Deliberately outside the run-cache contract: the coverage loop
    explores freshly mutated configs, so hits would be rare, and the
    plain-fuzz cache entries must not be asked to answer a job whose
    payload would need the extra cell data.
    """

    config: FuzzConfig
    index: int = 0
    invariants: Any = None

    def __call__(self) -> CoverageOutcome:
        outcome, result = FuzzJob(
            self.config, self.index, self.invariants
        )._execute()
        return CoverageOutcome(
            outcome=outcome, cell=coverage_cell(outcome, result)
        )


# ----------------------------------------------------------------------
# Mutators
# ----------------------------------------------------------------------


def _mutate_faults(
    config: FuzzConfig,
    rng: random.Random,
    *,
    horizon: float,
    max_call: int,
    eligible: tuple[int, ...],
) -> FuzzConfig:
    """Fault-schedule mutator: add, drop, or re-draw one kill."""
    faults = list(config.faults)
    moves = ["add"] if len(faults) < len(eligible) else []
    if faults:
        moves += ["drop", "redraw"]
    move = rng.choice(moves or ["add"])
    if move == "add":
        used = {k.rank for k in faults}
        free = [r for r in eligible if r not in used] or list(eligible)
        faults.append(
            _draw_kill(rng, rng.choice(free), horizon=horizon, max_call=max_call)
        )
    elif move == "drop":
        faults.pop(rng.randrange(len(faults)))
    else:  # redraw one kill's trigger on the same rank
        i = rng.randrange(len(faults))
        faults[i] = _draw_kill(
            rng, faults[i].rank, horizon=horizon, max_call=max_call
        )
    return replace(config, faults=tuple(faults))


def _mutate_jitter(
    config: FuzzConfig, rng: random.Random, *, max_jitter: float
) -> FuzzConfig:
    """Jitter-spec mutator: reseed the jitter or re-draw one amplitude."""
    j = config.jitter
    if not j.is_zero and rng.random() < 0.5:
        j = replace(j, seed=rng.randrange(2**32))
    else:
        field_name = rng.choice(("overhead", "latency", "byte_cost"))
        j = replace(
            j,
            seed=j.seed if not j.is_zero else rng.randrange(2**32),
            **{field_name: max_jitter * rng.choice(_JITTER_LEVELS)},
        )
    if j.is_zero:
        j = j.zeroed()
    return replace(config, jitter=j)


def _mutate_policy(config: FuzzConfig, rng: random.Random) -> FuzzConfig:
    """Policy mutator: reseed a random policy or switch policies."""
    policy = config.policy
    if policy == "random" and rng.random() < 0.7:
        return replace(config, policy_seed=rng.randrange(2**32))
    policy = rng.choice(_POLICY_CHOICES)
    seed = rng.randrange(2**32) if policy == "random" else 0
    return replace(config, policy=policy, policy_seed=seed)


def mutate_config(
    config: FuzzConfig,
    rng: random.Random,
    *,
    horizon: float,
    max_call: int,
    max_jitter: float,
    eligible: tuple[int, ...],
) -> FuzzConfig:
    """One mutation step on a corpus member.

    Weighted toward the fault schedule (where most distinct protocol
    behaviours live), with jitter and policy mutations keeping the
    timing/interleaving dimensions moving.
    """
    roll = rng.random()
    if roll < 0.5:
        return _mutate_faults(
            config, rng, horizon=horizon, max_call=max_call, eligible=eligible
        )
    if roll < 0.8:
        return _mutate_jitter(config, rng, max_jitter=max_jitter)
    return _mutate_policy(config, rng)


# ----------------------------------------------------------------------
# The guided campaign driver
# ----------------------------------------------------------------------


@dataclass
class CoverageReport:
    """Aggregate of one coverage-guided (or uniform-baseline) campaign."""

    scenario: Any
    seed: int
    budget: int
    guided: bool
    map: CoverageMap = field(default_factory=CoverageMap)
    runs: int = 0
    corpus_size: int = 0
    outcome_counts: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzOutcome] = field(default_factory=list)

    @property
    def distinct_cells(self) -> int:
        return len(self.map)

    @property
    def distinct_outcome_classes(self) -> int:
        return len(self.map.outcome_classes)

    def summary(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "runs": self.runs,
            "guided": self.guided,
            "cells": self.distinct_cells,
            "outcome_classes": self.distinct_outcome_classes,
            "corpus": self.corpus_size,
            "failures": len(self.failures),
        }

    def format(self) -> str:
        s = self.summary()
        mode = "guided" if self.guided else "uniform"
        lines = [
            f"coverage fuzz ({mode}) seed={s['seed']}: {s['runs']} run(s), "
            f"{s['cells']} cell(s), {s['outcome_classes']} outcome class(es), "
            f"corpus={s['corpus']}, {s['failures']} failure(s)"
        ]
        hist = ", ".join(
            f"{k}={v}" for k, v in sorted(self.outcome_counts.items())
        )
        lines.append(f"outcomes: {hist or 'none'}")
        lines.extend(o.describe() for o in self.failures)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON artifact form (written by ``repro fuzz --coverage-out``)."""
        return {
            "format": "repro.coverage/1",
            **self.summary(),
            "outcome_counts": dict(sorted(self.outcome_counts.items())),
            "cells": self.map.to_dict(),
            "failing_configs": [o.config.to_dict() for o in self.failures],
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def coverage_fuzz(
    scenario: Any,
    budget: int = 200,
    seed: int = 0,
    *,
    runner: SweepRunner | None = None,
    invariants: Any = None,
    guided: bool = True,
    mutate_ratio: float = 0.7,
    batch: int | None = None,
    max_jitter: float = 0.3,
    min_kills: int = 0,
    max_kills: int = 2,
    horizon: float | None = None,
    max_call: int = 40,
    eligible: Sequence[int] | None = None,
) -> CoverageReport:
    """Run a coverage-guided fuzz campaign of *budget* total runs.

    Each batch draws configs either by mutating a random corpus member
    (probability *mutate_ratio*, once a corpus exists) or by fresh
    uniform sampling; runs them; and admits every config that hit a novel
    coverage cell into the corpus.
    ``guided=False`` disables the feedback loop (every draw is fresh
    uniform sampling with the *same* rng discipline) — the baseline the
    seeded guided-vs-uniform test compares against at equal budget.

    Deterministic: the parent's single ``random.Random(seed)`` drives
    every draw and corpus choice, and batches are barriers, so serial
    and pooled campaigns produce identical reports.  Batches default to
    ``min(16, budget)`` runs — small enough that even a modest budget
    gets several feedback rounds (a single-batch campaign never consults
    its corpus and degenerates to uniform sampling).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not 0.0 <= mutate_ratio <= 1.0:
        raise ValueError("mutate_ratio must be in [0, 1]")
    if horizon is None:
        horizon = FuzzConfig(scenario).run().final_time
    if eligible is None:
        eligible = default_eligible_ranks(scenario)
    eligible = tuple(eligible)
    batch = min(16, budget) if batch is None else batch
    if budget and batch < 1:
        raise ValueError("batch must be >= 1")
    runner = runner or SerialRunner()
    rng = random.Random(seed)
    report = CoverageReport(
        scenario=scenario, seed=seed, budget=budget, guided=guided
    )
    corpus: list[FuzzConfig] = []
    draw_opts = dict(
        max_jitter=max_jitter,
        min_kills=min_kills,
        max_kills=max_kills,
        horizon=horizon,
        max_call=max_call,
        eligible=eligible,
    )
    index = 0
    while report.runs < budget:
        size = min(batch, budget - report.runs)
        configs: list[FuzzConfig] = []
        for _ in range(size):
            if guided and corpus and rng.random() < mutate_ratio:
                configs.append(
                    mutate_config(
                        rng.choice(corpus),
                        rng,
                        horizon=horizon,
                        max_call=max_call,
                        max_jitter=max_jitter,
                        eligible=eligible,
                    )
                )
            else:
                configs.append(_draw_config(rng, scenario, **draw_opts))
        jobs = [
            CoverageJob(config=c, index=index + i, invariants=invariants)
            for i, c in enumerate(configs)
        ]
        index += size
        for res in runner.run(jobs):
            report.runs += 1
            cls = res.cell[0]
            report.outcome_counts[cls] = report.outcome_counts.get(cls, 0) + 1
            if res.outcome.failed:
                report.failures.append(res.outcome)
            if report.map.add(res.cell):
                corpus.append(res.outcome.config)
    report.corpus_size = len(corpus)
    return report
