"""The schedule-space fuzzer: determinism, shrinking, replay, CLI.

The property under test everywhere here is the tentpole guarantee: one
``(seed,)`` tuple fully determines a fuzz campaign — same corpus, same
digests, same report text — no matter how (serial, pooled) or when it
runs.  On top of that: the delta-debugging shrinker must minimize real
failures, and ``.repro.json`` files must replay byte-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz import (
    FuzzConfig,
    FuzzJob,
    JitterSpec,
    fuzz,
    load_repro,
    replay,
    result_digest,
    sample_configs,
    shrink,
    write_repro,
)
from repro.parallel import AppScenario, FleetRunner, RingScenario
from repro.simmpi import DEFAULT_COST, JitteredCostModel
from tests.conftest import RING_SCENARIO

NAIVE = RingScenario(nprocs=4, iters=3, variant="naive")


# ---------------------------------------------------------------------------
# Seeded jitter hook
# ---------------------------------------------------------------------------


class TestJitteredCostModel:
    def _model(self, **kw) -> JitteredCostModel:
        base = DEFAULT_COST
        return JitteredCostModel(
            latency=base.latency, byte_cost=base.byte_cost,
            overhead=base.overhead, **kw,
        )

    def test_zero_amplitudes_match_plain_model(self):
        plain = DEFAULT_COST
        jittered = self._model(jitter_seed=123)
        for src, dst, n in [(0, 1, 8), (3, 2, 1024), (1, 1, 0)]:
            assert jittered.send_overhead(src, dst, n) == plain.send_overhead(src, dst, n)
            assert jittered.recv_overhead(dst, src, n) == plain.recv_overhead(dst, src, n)
            assert jittered.transit_time(src, dst, n) == plain.transit_time(src, dst, n)

    def test_same_seed_same_costs_across_instances(self):
        a = self._model(jitter_seed=7, latency_jitter=0.3, overhead_jitter=0.2)
        b = self._model(jitter_seed=7, latency_jitter=0.3, overhead_jitter=0.2)
        seq_a = [a.transit_time(0, 1, 64) for _ in range(5)]
        seq_b = [b.transit_time(0, 1, 64) for _ in range(5)]
        assert seq_a == seq_b

    def test_occurrences_and_seeds_perturb_costs(self):
        m = self._model(jitter_seed=7, latency_jitter=0.3)
        # Repeated messages on one edge see different perturbations...
        assert len({m.transit_time(0, 1, 64) for _ in range(4)}) > 1
        # ...and a different seed gives a different first perturbation.
        other = self._model(jitter_seed=8, latency_jitter=0.3)
        assert m.transit_time(2, 3, 64) != other.transit_time(2, 3, 64)

    def test_amplitude_bounds_validated(self):
        with pytest.raises(ValueError):
            self._model(latency_jitter=1.5)
        with pytest.raises(ValueError):
            self._model(overhead_jitter=-0.1)

    def test_jitter_spec_cost_model(self):
        assert JitterSpec().cost_model() is None
        model = JitterSpec(seed=3, latency=0.2).cost_model()
        assert isinstance(model, JitteredCostModel)
        assert model.jitter_seed == 3


# ---------------------------------------------------------------------------
# Corpus sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_same_seed_same_corpus(self):
        a = sample_configs(RING_SCENARIO, 20, seed=4)
        b = sample_configs(RING_SCENARIO, 20, seed=4)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_configs(RING_SCENARIO, 20, seed=4)
        b = sample_configs(RING_SCENARIO, 20, seed=5)
        assert a != b

    def test_kill_bounds_and_root_spared(self):
        configs = sample_configs(
            RING_SCENARIO, 30, seed=0, min_kills=1, max_kills=2
        )
        for c in configs:
            assert 1 <= len(c.faults) <= 2
            # The paper's root-survives assumption: rank 0 never killed
            # unless the scenario is explicitly root-failure tolerant.
            assert all(spec.rank != 0 for spec in c.faults)

    def test_rootft_scenario_may_kill_root(self):
        rootft = RingScenario(nprocs=4, iters=3, rootft=True)
        configs = sample_configs(rootft, 40, seed=0, min_kills=1, max_kills=1)
        assert any(spec.rank == 0 for c in configs for spec in c.faults)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            sample_configs(RING_SCENARIO, -1, seed=0)
        with pytest.raises(ValueError):
            sample_configs(RING_SCENARIO, 5, seed=0, min_kills=3, max_kills=1)


# ---------------------------------------------------------------------------
# Campaign determinism (the tentpole property)
# ---------------------------------------------------------------------------


class TestFuzzDeterminism:
    def test_same_seed_identical_report_and_digests(self):
        a = fuzz(RING_SCENARIO, runs=12, seed=3, min_kills=1, max_kills=2)
        b = fuzz(RING_SCENARIO, runs=12, seed=3, min_kills=1, max_kills=2)
        assert a.format(verbose=True) == b.format(verbose=True)
        assert [o.digest for o in a.outcomes] == [o.digest for o in b.outcomes]
        assert [o.perf for o in a.outcomes] == [o.perf for o in b.outcomes]

    def test_serial_and_pooled_batches_merge_identically(self):
        serial = fuzz(RING_SCENARIO, runs=10, seed=5, min_kills=1, max_kills=2)
        pooled = fuzz(
            RING_SCENARIO, runs=10, seed=5, min_kills=1, max_kills=2,
            runner=FleetRunner(workers=2),
        )
        assert serial.format(verbose=True) == pooled.format(verbose=True)
        assert [o.digest for o in serial.outcomes] == [
            o.digest for o in pooled.outcomes
        ]
        assert [o.perf for o in serial.outcomes] == [
            o.perf for o in pooled.outcomes
        ]

    def test_digest_excludes_wall_clock(self):
        # Two runs of the same config can differ in host wall time but
        # must share a digest; perf dicts must not carry wall_s at all.
        config = FuzzConfig(RING_SCENARIO, policy="random", policy_seed=9)
        ra, rb = config.run(), config.run()
        assert result_digest(ra) == result_digest(rb)
        outcome = FuzzJob(config)()
        assert "wall_s" not in outcome.perf
        assert outcome.perf  # counters did come along

    def test_marker_ring_survives_fuzzing(self):
        report = fuzz(RING_SCENARIO, runs=15, seed=0, min_kills=1, max_kills=2)
        assert not report.failures, report.format()

    def test_fuzz_finds_the_naive_hang(self):
        report = fuzz(NAIVE, runs=15, seed=1, min_kills=1, max_kills=2)
        assert report.failures
        assert any(o.hung for o in report.failures)
        # Every failure was shrunk, and each shrunk config still fails
        # with at most the faults it started with.
        assert len(report.shrunk) == len(report.failures)
        for outcome, sr in zip(report.failures, report.shrunk):
            assert sr.violations
            assert len(sr.config.faults) <= len(outcome.config.faults)


class TestAppFuzzing:
    @pytest.mark.parametrize(
        "app", ["heat1d", "ring_allreduce", "abft_matvec", "manager_worker"]
    )
    def test_apps_survive_a_small_fuzz(self, app):
        scenario = AppScenario(app=app, nprocs=4, size=4, steps=3)
        report = fuzz(scenario, runs=6, seed=2, max_kills=1)
        assert not report.failures, report.format()

    @pytest.mark.slow
    def test_apps_survive_a_deep_fuzz(self):
        for app in ("heat1d", "ring_allreduce", "abft_matvec",
                    "manager_worker"):
            scenario = AppScenario(app=app, nprocs=4, size=4, steps=3)
            report = fuzz(scenario, runs=40, seed=2, max_kills=2)
            assert not report.failures, report.format()


@pytest.mark.slow
class TestDeepRingFuzz:
    """The CI smoke corpus, kept green: seed 1, 100 runs, marker ring."""

    def test_smoke_corpus_passes_and_is_deterministic(self):
        a = fuzz(RING_SCENARIO, runs=100, seed=1, min_kills=0, max_kills=2)
        b = fuzz(RING_SCENARIO, runs=100, seed=1, min_kills=0, max_kills=2)
        assert not a.failures, a.format()
        assert a.format(verbose=True) == b.format(verbose=True)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


class TestShrink:
    def test_naive_failure_shrinks_to_minimal_config(self):
        report = fuzz(NAIVE, runs=20, seed=1, min_kills=1, max_kills=2,
                      shrink_failures=False)
        assert report.failures
        sr = shrink(report.failures[0].config)
        assert sr.violations
        # One fault suffices for the Fig. 6 hang, and neither a seeded
        # policy nor jitter is needed once it is pinned.
        assert len(sr.config.faults) == 1
        assert sr.config.policy == "rr"
        assert sr.config.jitter.is_zero

    def test_shrinking_a_passing_config_is_an_error(self):
        with pytest.raises(ValueError):
            shrink(FuzzConfig(RING_SCENARIO))

    def test_shrunk_config_still_replays_its_violation(self):
        report = fuzz(NAIVE, runs=20, seed=1, min_kills=1, max_kills=2)
        sr = report.shrunk[0]
        rep = replay(sr.config)
        assert rep.outcome.failed
        assert list(rep.outcome.violations) == list(sr.violations)


# ---------------------------------------------------------------------------
# Reproducer files and replay
# ---------------------------------------------------------------------------


class TestReproFiles:
    def test_config_dict_round_trip(self):
        for config in sample_configs(NAIVE, 10, seed=3, min_kills=1):
            assert FuzzConfig.from_dict(config.to_dict()) == config
        app = FuzzConfig(AppScenario(app="heat1d", nprocs=4))
        assert FuzzConfig.from_dict(app.to_dict()) == app

    def test_write_then_replay_is_byte_identical(self, tmp_path):
        report = fuzz(NAIVE, runs=20, seed=1, min_kills=1, max_kills=2)
        path = tmp_path / "fail.repro.json"
        write_repro(report.shrunk[0].config, path)
        rep = replay(path)
        assert rep.ok, rep.format()
        assert rep.expect["digest"] == rep.outcome.digest

    def test_replay_detects_divergence(self, tmp_path):
        report = fuzz(NAIVE, runs=20, seed=1, min_kills=1, max_kills=2)
        path = tmp_path / "fail.repro.json"
        write_repro(report.shrunk[0].config, path)
        doc = json.loads(path.read_text())
        doc["expect"]["digest"] = "0" * 32
        path.write_text(json.dumps(doc))
        rep = replay(path)
        assert not rep.ok
        assert any("digest" in m for m in rep.mismatches)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.repro.json"
        doc = FuzzConfig(RING_SCENARIO).to_dict()
        doc["format"] = "repro.fuzz/99"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_repro(path)

    def test_scenario_registry_rejects_unknown_kind(self):
        from repro.fuzz import scenario_from_dict, scenario_to_dict

        with pytest.raises(ValueError):
            scenario_from_dict({"kind": "nonesuch"})
        with pytest.raises(TypeError):
            scenario_to_dict(object())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_fuzz_command_is_deterministic(self, capsys):
        from repro.cli import main

        argv = ["fuzz", "--runs", "10", "--seed", "3",
                "--min-kills", "1", "--max-kills", "2"]
        rc_a = main(argv)
        out_a = capsys.readouterr().out
        rc_b = main(argv)
        out_b = capsys.readouterr().out
        assert rc_a == rc_b == 0
        assert out_a == out_b

    def test_smoke_corpus_serial_and_pooled_print_one_report(
        self, capsys, tmp_path
    ):
        """Seed 1, 100 runs, 0-2 kills: the fixed corpus passes, and
        ``--workers 2`` prints the serial report byte for byte."""
        from repro.cli import main

        argv = ["fuzz", "--runs", "100", "--seed", "1",
                "--min-kills", "0", "--max-kills", "2"]
        outs = []
        for extra, sub in (([], "serial"), (["--workers", "2"], "pooled")):
            rc = main(argv + extra + ["--out-dir", str(tmp_path / sub)])
            outs.append(capsys.readouterr().out)
            assert rc == 0
        assert outs[0] == outs[1]
        assert "100 run(s), 0 failure(s)" in outs[0]

    def test_fuzz_command_writes_and_replays_repros(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["fuzz", "--runs", "10", "--seed", "1",
                   "--variant", "naive", "--min-kills", "1",
                   "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 1
        repros = sorted(tmp_path.glob("*.repro.json"))
        assert repros
        rc = main(["replay", "--perf", str(repros[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replay matches recorded expectation" in out
        assert "handoffs" in out  # perf counters attached

    def test_fuzz_command_on_an_app(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--scenario", "heat1d", "--nprocs", "4",
                   "--size", "4", "--steps", "3", "--runs", "5",
                   "--seed", "2", "--max-kills", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failure(s)" in out
