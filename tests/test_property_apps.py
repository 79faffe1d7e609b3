"""Property-based tests for the domain apps and jittered detectors."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import (
    AbftConfig,
    HeatConfig,
    make_abft_main,
    make_heat_main,
    reference_result,
)
from repro.ft import comm_validate_all
from repro.simmpi import ErrorHandler, Simulation

COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHeatProperties:
    @given(
        victim=st.integers(1, 4),
        kill_time=st.floats(min_value=1e-7, max_value=1.4e-5,
                            allow_nan=False),
        lat=st.sampled_from([0.0, 5e-7]),
    )
    @settings(**COMMON)
    def test_survivors_finite_bounded_and_done(self, victim, kill_time, lat):
        cfg = HeatConfig(cells_per_rank=6, steps=12)
        sim = Simulation(nprocs=6, detection_latency=lat)
        sim.kill(victim, at_time=kill_time)
        r = sim.run(make_heat_main(cfg), on_deadlock="return")
        assert not r.hung
        assert set(r.completed_ranks) == set(range(6)) - r.failed_ranks
        for i in r.completed_ranks:
            f = np.array(r.value(i)["field"])
            assert np.all(np.isfinite(f))
            # Maximum principle: values stay within [boundary, initial max].
            assert np.all(f >= -1e-12) and np.all(f <= 1.0 + 1e-12)

    @given(
        victims=st.sets(st.integers(0, 5), min_size=1, max_size=3),
        data=st.data(),
        lat=st.sampled_from([0.0, 5e-7, 2e-6]),
        seed=st.integers(0, 2),
    )
    @settings(**COMMON)
    def test_multi_victim_exchange_never_hangs(self, victims, data, lat, seed):
        cfg = HeatConfig(cells_per_rank=4, steps=10)
        sim = Simulation(nprocs=6, seed=seed, policy="random",
                         detection_latency=lat)
        for v in sorted(victims):
            t = data.draw(st.floats(min_value=1e-7, max_value=1.2e-5,
                                    allow_nan=False))
            sim.kill(v, at_time=t)
        r = sim.run(make_heat_main(cfg), on_deadlock="return")
        assert not r.hung, (victims, lat, seed, r.deadlock)
        assert set(r.completed_ranks) == set(range(6)) - r.failed_ranks
        for i in r.completed_ranks:
            f = np.array(r.value(i)["field"])
            assert np.all(np.isfinite(f))

    @given(kill_time=st.floats(min_value=1e-7, max_value=1.4e-5,
                               allow_nan=False))
    @settings(**COMMON)
    def test_heat_never_increases(self, kill_time):
        # Total heat on surviving subdomains can only decrease relative to
        # the failure-free total (loss of a subdomain + diffusion out).
        cfg = HeatConfig(cells_per_rank=6, steps=12)
        clean = Simulation(nprocs=6).run(make_heat_main(cfg))
        clean_total = sum(
            clean.value(i)["total_heat"] for i in clean.completed_ranks
        )
        sim = Simulation(nprocs=6)
        sim.kill(3, at_time=kill_time)
        r = sim.run(make_heat_main(cfg), on_deadlock="return")
        total = sum(r.value(i)["total_heat"] for i in r.completed_ranks)
        assert total <= clean_total + 1e-9


class TestAbftProperties:
    @given(
        victim=st.integers(0, 3),
        hit=st.integers(1, 4),
        probe=st.sampled_from(["iter_top", "computed", "iter_done"]),
    )
    @settings(**COMMON)
    def test_single_failure_always_exact(self, victim, hit, probe):
        from repro.faults import KillAtProbe

        cfg = AbftConfig(iterations=4)
        sim = Simulation(nprocs=5)
        sim.add_injector(KillAtProbe(rank=victim, probe=probe, hit=hit))
        r = sim.run(make_abft_main(cfg), on_deadlock="return")
        assert not r.hung
        rep = r.value(min(r.completed_ranks))
        assert not rep["degraded"]
        for it in range(cfg.iterations):
            ref = reference_result(cfg, 5, it)
            got = rep["results"][it]["blocks"]
            assert all(
                k in got and np.allclose(got[k], ref[k]) for k in ref
            ), (victim, probe, hit, it)


class TestJitteredDetector:
    @given(
        jitter_seed=st.integers(0, 50),
        victims=st.sets(st.integers(1, 5), min_size=1, max_size=3),
    )
    @settings(**COMMON)
    def test_consensus_agreement_under_jitter(self, jitter_seed, victims):
        # Per-(observer, failed) pseudo-random detection latencies: the
        # detector stays accurate and complete but wildly asymmetric.
        import random

        rng = random.Random(jitter_seed)
        table: dict[tuple[int, int], float] = {}

        def lat(observer: int, failed: int) -> float:
            key = (observer, failed)
            if key not in table:
                table[key] = rng.uniform(0.0, 5e-6)
            return table[key]

        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            return await comm_validate_all(comm)

        sim = Simulation(nprocs=6, detection_latency=lat)
        for i, v in enumerate(sorted(victims)):
            sim.kill(v, at_time=1e-7 * (i + 1))
        r = sim.run(main, on_deadlock="return")
        assert not r.hung
        counts = set(r.values().values())
        assert len(counts) <= 1
