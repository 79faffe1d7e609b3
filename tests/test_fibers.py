"""The fiber: parity, the perf label, and lifecycle.

Three groups of guarantees:

* **parity** — the host-side slots stay out of digests and
  ``perf_dict`` (host detail, like ``wall_s``), and ``join`` keeps no
  dead ``timeout`` parameter.
* **perf label** — ``PerfCounters.fibers`` is the constant ``"thread"``
  (host fingerprints read it) and never enters a counter dict.
* **lifecycle** — kill-before-first-slice never runs user code, a kill
  mid-slice unwinds ``finally`` blocks, shutdown unwinds a blocked
  fiber, and ``release`` drops the application target; all asserted
  through the raw fiber API.
"""

from __future__ import annotations

import inspect

from repro.perf import SESSION, PerfCounters
from repro.simmpi import Fiber, Simulation
from repro.simmpi.errors import ProcessKilled, SimShutdown
from repro.simmpi.fibers import FiberState, _released


class TestResolution:
    def test_join_has_no_timeout_parameter(self):
        # Satellite: the dead `timeout` parameter is gone for good.
        assert list(inspect.signature(Fiber.join).parameters) == ["self"]


# ----------------------------------------------------------------------
# Parity (host details out of digests)
# ----------------------------------------------------------------------


class TestParity:
    def test_perf_dict_excludes_host_details(self):
        from repro.analysis.digest import perf_dict

        r = Simulation(nprocs=2).run(lambda mpi: mpi.comm_world.rank)
        d = perf_dict(r)
        assert "wall_s" not in d
        assert "fibers" not in d
        assert d["handoffs"] > 0


# ----------------------------------------------------------------------
# PerfCounters label semantics
# ----------------------------------------------------------------------


class TestPerfLabel:
    def test_delta_is_numeric_only(self):
        a, b = PerfCounters(), PerfCounters()
        a.handoffs = 5
        d = a.delta(b)
        assert "fibers" not in d
        assert d["handoffs"] == 5

    def test_fibers_label_is_the_constant_thread(self):
        Simulation(nprocs=2).run(lambda mpi: mpi.comm_world.rank)
        assert PerfCounters.fibers == SESSION.fibers == "thread"
        assert "fibers" not in PerfCounters().as_dict()
        assert "fibers" not in PerfCounters().format()


# ----------------------------------------------------------------------
# Lifecycle through the raw fiber API
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_kill_before_first_slice_never_runs_user_code(self):
        ran = []
        f = Fiber(name="t", index=0, target=lambda: ran.append(1))
        f.start()
        f.kill_pending = True
        f.resume_and_wait()
        assert ran == []
        assert f.state is FiberState.FAILED
        f.join()
        f.release()

    def test_kill_mid_slice_unwinds_finally_blocks(self):
        log = []
        f = None

        def target():
            try:
                log.append("enter")
                f.yield_to_scheduler()
                log.append("unreachable")
            finally:
                log.append("finally")

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()  # runs to the yield
        assert log == ["enter"]
        f.kill_pending = True
        f.resume_and_wait()  # unwinds with ProcessKilled
        assert log == ["enter", "finally"]
        assert f.state is FiberState.FAILED
        assert f.error is None  # kill is not an application error
        f.join()

    def test_shutdown_unwinds_blocked_fiber(self):
        f = None

        def target():
            f.yield_to_scheduler()

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        f.shutdown_pending = True
        f.resume_and_wait()
        assert f.state is FiberState.DONE  # shutdown is a clean exit
        assert f.error is None
        f.join()

    def test_pending_exceptions_reach_the_fiber(self):
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

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        f.kill_pending = True
        f.resume_and_wait()
        assert seen == ["killed"]

    def test_release_after_finish_drops_target(self):
        f = Fiber(name="t", index=0, target=lambda: None)
        f.start()
        f.resume_and_wait()
        assert f.finished()
        f.release()
        assert f._target is _released

    def test_release_while_running_is_a_safe_noop(self):
        f = None

        def target():
            f.yield_to_scheduler()

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f.resume_and_wait()
        target_ref = f._target
        f.release()  # still blocked: must not drop the target
        assert f._target is target_ref
        f.shutdown_pending = True
        f.resume_and_wait()
        f.release()
        assert f._target is _released
