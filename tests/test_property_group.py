"""Property-based tests: a communicator's group and its rank maps.

A communicator's membership is its ``group`` tuple of world ranks; these
check the maps built from it against scans of that tuple, across ``dup``,
``split``, ``comm_shrink`` and ``replace_rank``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ft import comm_shrink
from repro.simmpi import Comm, ErrorHandler, Runtime, Simulation


class TestCommRankTranslation:
    """``Comm.comm_rank_of_world`` answers from a per-group dict; the
    tuple scan it replaced is the oracle."""

    @given(
        n=st.integers(2, 6),
        colors=st.lists(st.integers(0, 1), min_size=6, max_size=6),
        keys=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        victim=st.integers(1, 5),
        patch=st.tuples(st.integers(0, 5), st.integers(0, 8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_tuple_index_across_dup_split_shrink_replace(
        self, n, colors, keys, victim, patch
    ):
        victim %= n
        probes = range(-1, 10)

        async def main(mpi):
            world = mpi.comm_world
            world.set_errhandler(ErrorHandler.ERRORS_RETURN)
            comms = [world, world.dup()]
            comms.append(
                await world.split(color=colors[world.rank], key=keys[world.rank])
            )
            if victim:
                await mpi.compute(1e-3)  # the victim dies in here, after the split
                world.revoke()
                comms.append(await comm_shrink(world))
            patched = comms[-1].dup()
            slot, new_world = patch
            slot %= patched.size
            if slot != patched.rank:
                patched.replace_rank(slot, new_world)
                comms.append(patched)
            return [
                (c.group, [c.comm_rank_of_world(w) for w in probes])
                for c in comms
            ]

        sim = Simulation(nprocs=n)
        if victim:
            sim.kill(victim, at_time=5e-4)
        result = sim.run(main)
        assert sorted(result.completed_ranks) == [
            r for r in range(n) if not victim or r != victim
        ]
        for views in result.values().values():
            for group, answers in views:
                assert answers == [
                    group.index(w) if w in group else None for w in probes
                ]


class TestKnownFailedCommRanks:
    """``Comm.known_failed_comm_ranks`` walks the observer's known failures
    through the group's rank map; the scan over every slot it replaced is
    the oracle, including groups that repeat a world rank (a raw ``Comm``
    tuple or a ``replace_rank`` patch can make one)."""

    @given(
        group=st.lists(st.integers(0, 9), max_size=12),
        at=st.integers(0, 12),
        known=st.sets(st.integers(0, 14), max_size=8),
        patch=st.tuples(st.integers(0, 12), st.integers(0, 9)),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scan(self, group, at, known, patch):
        group.insert(at % (len(group) + 1), 0)  # the observer is a member
        rt = Runtime(10)
        rt.known_by[0] = set(known)
        comm = Comm(rt.procs[0], 1, tuple(group))

        def scan():
            return {cr for cr, wr in enumerate(comm.group) if wr in known}

        assert comm.known_failed_comm_ranks() == scan()
        slot, world = patch
        slot %= comm.size
        if slot != comm.rank:
            comm.replace_rank(slot, world)
            assert comm.known_failed_comm_ranks() == scan()
