"""Coverage-guided fuzzing (:mod:`repro.fuzz.coverage`).

Three layers pinned here: the *cell* primitives (the timing-free shape
digest and log-binned counts that make two runs comparable),
the :class:`~repro.fuzz.CoverageMap`/corpus mechanics (novel-cell
admission, dedup), and the campaign driver — deterministic serial ==
pooled, and the PR's headline property: at equal budget the guided loop
discovers outcome classes that uniform sampling misses (the seeded
guided-vs-uniform test).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.fuzz import (
    CoverageJob,
    CoverageMap,
    CoverageReport,
    coverage_cell,
    coverage_fuzz,
    mutate_config,
    shape_digest,
)
from repro.fuzz.config import FuzzConfig, JitterSpec
from repro.fuzz.coverage import SHAPE_PREFIX, _bin
from repro.cli import main
from repro.parallel import FleetRunner, RingScenario
from repro.simmpi.trace import TraceKind

SCENARIO = RingScenario(nprocs=4, iters=3)
NAIVE = RingScenario(nprocs=4, iters=3, variant="naive")


def _config(jitter_seed=0):
    return FuzzConfig(
        SCENARIO,
        jitter=JitterSpec(seed=jitter_seed, overhead=0.1, latency=0.1),
    )


# ---------------------------------------------------------------------------
# Cell primitives
# ---------------------------------------------------------------------------


class TestShapeDigest:
    def test_deterministic(self):
        a, b = _config().run(), _config().run()
        assert shape_digest(a) == shape_digest(b)

    def test_coarser_than_result_digest(self):
        """Jitter reseeds move timestamps on every run, so the
        timing-sensitive ``result_digest`` is fresh per seed; the shape
        digest only moves when the event *order* moves — a coverage map
        keyed on it does not declare every jittered run novel."""
        from repro.analysis.digest import result_digest

        results = [_config(jitter_seed=s).run() for s in range(10)]
        full = {result_digest(r) for r in results}
        shapes = {shape_digest(r) for r in results}
        assert len(full) == 10
        assert len(shapes) < len(full)

    def test_distinguishes_fault_schedules(self):
        from repro.faults.schedule import KillSpec

        clean = FuzzConfig(NAIVE).run()
        killed = FuzzConfig(
            NAIVE,
            faults=(KillSpec(trigger="call", rank=2, call_no=3),),
        ).run()
        # A mid-run kill truncates rank 2's event sequence: new shape.
        assert shape_digest(clean) != shape_digest(killed)


class TestBinning:
    def test_log2_bins(self):
        assert [_bin(n) for n in (0, 1, 2, 3, 4, 7, 8, 1023)] == [
            0, 1, 2, 2, 3, 3, 4, 10,
        ]

    def test_cell_shape(self):
        job = CoverageJob(config=_config(), index=0)
        out = job()
        assert len(out.cell) == 5
        cls, shape, *bins = out.cell
        assert cls == "ok"
        assert len(shape) == SHAPE_PREFIX
        assert all(isinstance(b, int) and b >= 0 for b in bins)

    def test_cell_bins_decide_rows_and_handoffs(self):
        """The job runs its config as a plain fuzz run does; the cell
        bins the run's ``*_decide`` rows and its ``handoffs - nprocs``
        blocked intervals."""
        result = _config().run()
        out = CoverageJob(config=_config(), index=0)()
        assert coverage_cell(out.outcome, result) == out.cell
        decides = [
            ev for ev in result.trace.filter(kind=TraceKind.VALIDATE)
            if ev.detail["op"].endswith("_decide")
        ]
        assert decides
        assert out.cell[2] == _bin(len(decides))
        assert out.cell[3] == _bin(result.perf.handoffs - SCENARIO.nprocs)


# ---------------------------------------------------------------------------
# Map and corpus mechanics
# ---------------------------------------------------------------------------


class TestCoverageMap:
    def test_novel_cell_detection(self):
        m = CoverageMap()
        cell = ("ok", "aabbccdd", 1, 2, 3)
        assert m.add(cell) is True
        assert m.add(cell) is False
        assert m.cells[cell] == 2
        assert len(m) == 1 and cell in m

    def test_outcome_classes(self):
        m = CoverageMap()
        m.add(("ok", "x", 0, 0, 0))
        m.add(("hang", "y", 0, 0, 0))
        m.add(("hang", "z", 0, 0, 0))
        assert m.outcome_classes == {"ok", "hang"}

    def test_to_dict_round_trips_counts(self):
        m = CoverageMap()
        m.add(("ok", "x", 0, 1, 2))
        m.add(("ok", "x", 0, 1, 2))
        assert m.to_dict() == {"ok/x/0/1/2": 2}

    def test_corpus_admits_only_novel_cells(self):
        rep = coverage_fuzz(NAIVE, budget=40, seed=0)
        # One corpus member per novel cell, never more.
        assert rep.corpus_size == rep.distinct_cells
        assert sum(rep.map.cells.values()) == rep.runs == 40


class TestMutators:
    def test_deterministic_and_productive(self):
        cfg = _config()
        kw = dict(horizon=1e-4, max_call=40, max_jitter=0.3, eligible=(1, 2, 3))
        a = mutate_config(cfg, random.Random(7), **kw)
        b = mutate_config(cfg, random.Random(7), **kw)
        assert a == b
        # Over many draws, mutation must actually move the config.
        rng = random.Random(0)
        assert any(mutate_config(cfg, rng, **kw) != cfg for _ in range(10))

    def test_mutant_stays_in_bounds(self):
        cfg = _config()
        rng = random.Random(3)
        kw = dict(horizon=1e-4, max_call=40, max_jitter=0.3, eligible=(1, 2))
        for _ in range(50):
            cfg = mutate_config(cfg, rng, **kw)
            assert all(k.rank in (1, 2) for k in cfg.faults)
            assert len(cfg.faults) <= 2


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


class TestCoverageFuzz:
    def test_serial_equals_pooled(self):
        a = coverage_fuzz(NAIVE, budget=32, seed=3)
        b = coverage_fuzz(
            NAIVE, budget=32, seed=3, runner=FleetRunner(workers=2)
        )
        assert a.to_dict() == b.to_dict()

    def test_budget_respected(self):
        rep = coverage_fuzz(NAIVE, budget=17, seed=0, batch=5)
        assert rep.runs == 17

    def test_guided_beats_uniform_at_equal_budget(self):
        """The acceptance property: with feedback on, the corpus-mutation
        loop reaches outcome classes (here: the naive ring's rare abort)
        that blind sampling misses at the same budget.  Seeded and
        deterministic — this is a regression pin, not a statistics test;
        guided must also never do *worse* on any audited seed."""
        wins = 0
        for seed in range(4):
            g = coverage_fuzz(NAIVE, budget=60, seed=seed)
            u = coverage_fuzz(NAIVE, budget=60, seed=seed, guided=False)
            assert g.distinct_outcome_classes >= u.distinct_outcome_classes
            wins += g.distinct_outcome_classes > u.distinct_outcome_classes
        assert wins >= 2  # seeds 0, 2, 3 find the abort class; uniform never

    def test_uniform_baseline_matches_unguided_draws(self):
        """guided=False with an empty corpus is plain seeded sampling —
        same rng discipline, so the first batch of a guided run equals
        the uniform run's first batch (feedback only changes later
        batches)."""
        g = coverage_fuzz(NAIVE, budget=16, seed=5, batch=16)
        u = coverage_fuzz(NAIVE, budget=16, seed=5, batch=16, guided=False)
        assert g.map.to_dict() == u.map.to_dict()

    def test_report_round_trips_as_json(self, tmp_path):
        rep = coverage_fuzz(NAIVE, budget=24, seed=1)
        path = rep.write(tmp_path / "cov.json")
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.coverage/1"
        assert doc["runs"] == 24 and doc["guided"] is True
        assert doc["cells"] == rep.map.to_dict()
        assert len(doc["failing_configs"]) == len(rep.failures)

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_fuzz(NAIVE, budget=-1)
        with pytest.raises(ValueError):
            coverage_fuzz(NAIVE, budget=4, batch=0)
        with pytest.raises(ValueError):
            coverage_fuzz(NAIVE, budget=4, mutate_ratio=1.5)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCoverageCli:
    def test_coverage_flag(self, capsys, tmp_path):
        out_file = tmp_path / "cov.json"
        rc = main([
            "fuzz", "--nprocs", "4", "--iters", "3", "--variant", "naive",
            "--runs", "30", "--coverage", "--coverage-out", str(out_file),
        ])
        out = capsys.readouterr().out
        assert rc == 1  # the naive ring hangs: failures found
        assert out.startswith("coverage fuzz (guided) seed=0: 30 run(s)")
        assert json.loads(out_file.read_text())["format"] == "repro.coverage/1"

    def test_coverage_uniform_flag(self, capsys):
        rc = main([
            "fuzz", "--nprocs", "4", "--iters", "3", "--runs", "10",
            "--coverage", "--coverage-uniform",
        ])
        assert rc == 0  # ft_marker survives everything here
        assert "coverage fuzz (uniform)" in capsys.readouterr().out
