"""Property-based tests: group set-algebra laws and translation."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ft import comm_shrink
from repro.simmpi import UNDEFINED, Comm, ErrorHandler, Runtime, Simulation
from repro.simmpi.group import Group

ranks_lists = st.lists(st.integers(0, 15), unique=True, max_size=10)


class TestGroupAlgebraLaws:
    @given(a=ranks_lists, b=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_union_members(self, a, b):
        g = Group(a).union(Group(b))
        assert set(g.ranks) == set(a) | set(b)
        # Self's order first, then other's extras in other's order.
        assert list(g.ranks[: len(a)]) == a

    @given(a=ranks_lists, b=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_intersection_members_and_order(self, a, b):
        g = Group(a).intersection(Group(b))
        assert set(g.ranks) == set(a) & set(b)
        assert list(g.ranks) == [r for r in a if r in set(b)]

    @given(a=ranks_lists, b=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_difference_members_and_order(self, a, b):
        g = Group(a).difference(Group(b))
        assert set(g.ranks) == set(a) - set(b)
        assert list(g.ranks) == [r for r in a if r not in set(b)]

    @given(a=ranks_lists, b=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_partition_identity(self, a, b):
        ga, gb = Group(a), Group(b)
        inter = ga.intersection(gb)
        diff = ga.difference(gb)
        # a = (a & b) + (a - b), as sets and in total size.
        assert set(inter.ranks) | set(diff.ranks) == set(a)
        assert inter.size + diff.size == ga.size

    @given(a=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_incl_excl_inverse(self, a):
        g = Group(a)
        idx = list(range(0, len(a), 2))
        sub = g.incl(idx)
        rest = g.excl(idx)
        assert set(sub.ranks) | set(rest.ranks) == set(a)
        assert set(sub.ranks) & set(rest.ranks) == set()

    @given(a=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_translation_roundtrip(self, a):
        g = Group(a)
        for gr, wr in enumerate(a):
            assert g.world_rank(gr) == wr
            assert g.rank_of_world(wr) == gr
        assert g.rank_of_world(99) == UNDEFINED

    @given(a=ranks_lists, b=ranks_lists)
    @settings(max_examples=200, deadline=None)
    def test_translate_ranks_consistent(self, a, b):
        ga, gb = Group(a), Group(b)
        out = ga.translate_ranks(list(range(ga.size)), gb)
        for gr, tr in enumerate(out):
            wr = ga.world_rank(gr)
            if wr in gb:
                assert gb.world_rank(tr) == wr
            else:
                assert tr == UNDEFINED


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
