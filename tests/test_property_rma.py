"""Property-based test: random one-sided programs vs a numpy model."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simmpi import ErrorHandler, Simulation, wait
from repro.simmpi.rma import win_create

N = 4
WIN = 6

#: One random op: (origin, kind, target, offset, value).
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.sampled_from(["put", "acc_sum", "acc_max"]),
        st.integers(0, N - 1),
        st.integers(0, WIN - 1),
        st.integers(-5, 5).map(float),
    ),
    max_size=25,
)


def model(ops) -> dict[int, np.ndarray]:
    """Sequential numpy reference: windows after applying ops in order."""
    wins = {r: np.zeros(WIN) for r in range(N)}
    for _origin, kind, target, offset, value in ops:
        if kind == "put":
            wins[target][offset] = value
        elif kind == "acc_sum":
            wins[target][offset] += value
        else:
            wins[target][offset] = max(wins[target][offset], value)
    return wins


class TestRMAAgainstModel:
    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_epoch_results_match_model(self, ops):
        # Each rank issues its own ops in program order; ops of different
        # origins to different (target, offset) cells commute, so make
        # the property deterministic by keeping per-cell writers unique.
        seen_cells: dict[tuple[int, int], int] = {}
        filtered = []
        for op in ops:
            origin, kind, target, offset, _v = op
            cell = (target, offset)
            writer = seen_cells.setdefault(cell, origin)
            if writer == origin:
                filtered.append(op)
        per_rank: dict[int, list] = {r: [] for r in range(N)}
        for op in filtered:
            per_rank[op[0]].append(op)

        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            win = win_create(comm, size=WIN)
            for _origin, kind, target, offset, value in per_rank[comm.rank]:
                if kind == "put":
                    await wait(win.put([value], target=target, offset=offset))
                elif kind == "acc_sum":
                    await wait(win.accumulate([value], target=target,
                                              offset=offset, op="sum"))
                else:
                    await wait(win.accumulate([value], target=target,
                                              offset=offset, op="max"))
            await win.fence()
            return win.local.tolist()

        r = Simulation(nprocs=N).run(main)
        expected = model(filtered)
        for rank in range(N):
            assert np.allclose(r.value(rank), expected[rank]), (
                rank, filtered
            )
