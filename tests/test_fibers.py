"""The fiber: parity, the perf label, and lifecycle.

Three groups of guarantees:

* **parity** — the host-side slots stay out of digests and
  ``perf_dict`` (host detail, like ``wall_s``).
* **perf label** — ``PerfCounters.fibers`` is the constant
  ``"coroutine"`` (host fingerprints read it) and never enters a counter
  dict.
* **lifecycle** — kill-before-first-slice never runs user code, a kill
  mid-slice unwinds ``finally`` blocks, shutdown unwinds a blocked
  fiber, and ``release`` drops the application target and coroutine;
  all asserted through the raw fiber API, where one ``_step`` is one
  slice and ``await SUSPEND`` is a block.
"""

from __future__ import annotations

from repro.perf import SESSION, PerfCounters
from repro.simmpi import Fiber, Simulation
from repro.simmpi.errors import ProcessKilled, SimShutdown
from repro.simmpi.fibers import SUSPEND, FiberState, _released


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

    def test_fibers_label_is_the_constant_coroutine(self):
        Simulation(nprocs=2).run(lambda mpi: mpi.comm_world.rank)
        assert PerfCounters.fibers == SESSION.fibers == "coroutine"
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
        f._step()
        assert ran == []
        assert f.state is FiberState.FAILED
        f.release()

    def test_kill_mid_slice_unwinds_finally_blocks(self):
        log = []

        async def target():
            try:
                log.append("enter")
                await SUSPEND
                log.append("unreachable")
            finally:
                log.append("finally")

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f._step()  # runs to the block
        assert log == ["enter"]
        f.kill_pending = True
        f._step()  # unwinds with ProcessKilled
        assert log == ["enter", "finally"]
        assert f.state is FiberState.FAILED
        assert f.error is None  # kill is not an application error

    def test_shutdown_unwinds_blocked_fiber(self):
        async def target():
            await SUSPEND

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f._step()
        f.shutdown_pending = True
        f._step()
        assert f.state is FiberState.DONE  # shutdown is a clean exit
        assert f.error is None

    def test_pending_exceptions_reach_the_fiber(self):
        seen = []

        async def target():
            try:
                await SUSPEND
            except ProcessKilled:
                seen.append("killed")
                raise
            except SimShutdown:  # pragma: no cover - not this test
                seen.append("shutdown")
                raise

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f._step()
        f.kill_pending = True
        f._step()
        assert seen == ["killed"]

    def test_release_after_finish_drops_target(self):
        async def target():
            await SUSPEND

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f._step()
        f._step()
        assert f.finished()
        f.release()
        assert f._target is _released
        assert f._coro is None

    def test_release_while_running_is_a_safe_noop(self):
        async def target():
            await SUSPEND

        f = Fiber(name="t", index=0, target=target)
        f.start()
        f._step()
        target_ref, coro = f._target, f._coro
        f.release()  # still blocked: must not drop the target
        assert f._target is target_ref and f._coro is coro
        f.shutdown_pending = True
        f._step()
        f.release()
        assert f._target is _released and f._coro is None
