"""The pluggable fiber backend layer: selection, parity, and lifecycle.

Three groups of guarantees:

* **selection** — ``Simulation(fibers=...)`` beats ``$REPRO_FIBERS``
  beats ``auto``; unknown names fail loudly; a known-but-uninstalled
  backend (greenlet on a stdlib-only install) fails with instructions.
* **parity** — traces, digests, and sweep reports are byte-identical
  across backends and across the serial/pooled boundary with
  ``REPRO_FIBERS`` exported; the backend label itself stays out of
  digests and ``perf_dict`` (host detail, like ``wall_s``).
* **lifecycle** — kill-before-first-slice never runs user code, a kill
  mid-slice unwinds ``finally`` blocks, shutdown unwinds a blocked
  fiber, and ``release`` drops the application target; all asserted per
  importable backend through the raw fiber API.
"""

from __future__ import annotations

import inspect

import pytest

from repro.faults import run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from repro.perf import PerfCounters
from repro.simmpi import (
    FIBER_BACKENDS,
    BaseFiber,
    Simulation,
    available_backends,
    default_backend,
    greenlet_available,
    make_fiber,
    resolve_backend,
)
from repro.simmpi.errors import ProcessKilled, SimShutdown
from repro.simmpi.fibers import FiberState, _released

BACKENDS = available_backends()


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


class TestResolution:
    def test_registry_names(self):
        assert FIBER_BACKENDS == ("thread", "greenlet")
        assert "thread" in BACKENDS  # the stdlib fallback always works

    def test_auto_resolves_to_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIBERS", raising=False)
        assert resolve_backend("auto") == default_backend()
        assert resolve_backend(None) == default_backend()

    def test_env_var_consulted_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIBERS", "thread")
        assert resolve_backend(None) == "thread"
        monkeypatch.setenv("REPRO_FIBERS", "")  # empty means auto
        assert resolve_backend(None) == default_backend()

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIBERS", "bogus")  # would raise if read
        assert resolve_backend("thread") == "thread"
        sim = Simulation(nprocs=2, fibers="thread")
        assert sim.runtime.fiber_backend == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown fiber backend"):
            resolve_backend("bogus")

    def test_known_but_uninstalled_backend_rejected(self):
        if greenlet_available():
            pytest.skip("greenlet installed; the import gate cannot trip")
        with pytest.raises(RuntimeError, match="repro\\[fast\\]"):
            resolve_backend("greenlet")

    def test_simulation_records_backend_in_perf(self):
        r = Simulation(nprocs=2, fibers="thread").run(
            lambda mpi: mpi.comm_world.rank
        )
        assert r.perf is not None
        assert r.perf.fibers == "thread"

    def test_env_var_drives_simulation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIBERS", "thread")
        sim = Simulation(nprocs=2)
        assert sim.runtime.fiber_backend == "thread"

    def test_join_has_no_timeout_parameter(self):
        # Satellite: the dead `timeout` parameter is gone for good.
        assert list(inspect.signature(BaseFiber.join).parameters) == ["self"]


# ----------------------------------------------------------------------
# Parity (host details out of digests; backends interchangeable)
# ----------------------------------------------------------------------


def _ring_run(fibers: str):
    _, main = RingScenario(nprocs=4, iters=3)()
    sim = Simulation(nprocs=4, fibers=fibers)
    sim.kill(2, at_time=5e-6)  # a failure makes the trace interesting
    return sim.run(main, on_deadlock="return")


class TestParity:
    def test_perf_dict_excludes_host_details(self):
        from repro.analysis.digest import perf_dict

        r = Simulation(nprocs=2, fibers="thread").run(
            lambda mpi: mpi.comm_world.rank
        )
        d = perf_dict(r)
        assert "wall_s" not in d
        assert "fibers" not in d
        assert d["handoffs"] > 0

    @pytest.mark.parametrize("fibers", BACKENDS)
    def test_trace_and_digest_match_thread_baseline(self, fibers):
        from repro.analysis.digest import result_digest

        base = _ring_run("thread")
        other = _ring_run(fibers)
        assert other.trace.format() == base.trace.format()
        assert result_digest(other) == result_digest(base)

    def test_serial_and_pooled_campaign_reports_identical(self, monkeypatch):
        # Satellite: REPRO_FIBERS exported, report byte-identical across
        # the worker-pool boundary (workers inherit the environment).
        monkeypatch.setenv("REPRO_FIBERS", "thread")

        def campaign(workers):
            return run_campaign(
                RingScenario(nprocs=4, iters=3),
                seeds=range(8),
                horizon=8e-6,
                invariants=StandardRingInvariants(3, 4),
                workers=workers,
            ).format()

        assert campaign(None) == campaign(2)


# ----------------------------------------------------------------------
# PerfCounters backend label semantics
# ----------------------------------------------------------------------


class TestPerfLabel:
    def test_add_adopts_and_mixes(self):
        a, b = PerfCounters(), PerfCounters()
        b.fibers = "thread"
        a.add(b)
        assert a.fibers == "thread"  # "" adopts the other side
        c = PerfCounters()
        c.fibers = "greenlet"
        a.add(c)
        assert a.fibers == "mixed"  # conflicting labels collapse

    def test_delta_is_numeric_only(self):
        a, b = PerfCounters(), PerfCounters()
        a.fibers = "thread"
        a.handoffs = 5
        d = a.delta(b)
        assert "fibers" not in d
        assert d["handoffs"] == 5

    def test_format_reports_backend(self):
        a = PerfCounters()
        a.fibers = "thread"
        assert "thread" in a.format()


# ----------------------------------------------------------------------
# Lifecycle through the raw fiber API, per backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestLifecycle:
    def test_kill_before_first_slice_never_runs_user_code(self, backend):
        ran = []
        f = make_fiber(backend, name="t", index=0,
                       target=lambda: ran.append(1))
        f.start()
        f.kill_pending = True
        f.resume_and_wait()
        assert ran == []
        assert f.state is FiberState.FAILED
        f.join()
        f.release()

    def test_kill_mid_slice_unwinds_finally_blocks(self, backend):
        log = []
        f = None

        def target():
            try:
                log.append("enter")
                f.yield_to_scheduler()
                log.append("unreachable")
            finally:
                log.append("finally")

        f = make_fiber(backend, name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()  # runs to the yield
        assert log == ["enter"]
        f.kill_pending = True
        f.resume_and_wait()  # unwinds with ProcessKilled
        assert log == ["enter", "finally"]
        assert f.state is FiberState.FAILED
        assert f.error is None  # kill is not an application error
        f.join()

    def test_shutdown_unwinds_blocked_fiber(self, backend):
        f = None

        def target():
            f.yield_to_scheduler()

        f = make_fiber(backend, name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        f.shutdown_pending = True
        f.resume_and_wait()
        assert f.state is FiberState.DONE  # shutdown is a clean exit
        assert f.error is None
        f.join()

    def test_pending_exceptions_reach_the_fiber(self, backend):
        seen = []
        f = None

        def target():
            try:
                f.yield_to_scheduler()
            except ProcessKilled:
                seen.append("killed")
                raise
            except SimShutdown:  # pragma: no cover - not this test
                seen.append("shutdown")
                raise

        f = make_fiber(backend, name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        f.kill_pending = True
        f.resume_and_wait()
        assert seen == ["killed"]

    def test_release_after_finish_drops_target(self, backend):
        f = make_fiber(backend, name="t", index=0, target=lambda: None)
        f.start()
        f.resume_and_wait()
        assert f.finished()
        f.release()
        assert f._target is _released

    def test_release_while_running_is_a_safe_noop(self, backend):
        f = None

        def target():
            f.yield_to_scheduler()

        f = make_fiber(backend, name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        target_ref = f._target
        f.release()  # still blocked: must not drop the target
        assert f._target is target_ref
        f.shutdown_pending = True
        f.resume_and_wait()
        f.release()
        assert f._target is _released
