"""Which error a point-to-point call reports when several apply.

A call can be wrong in more than one way at once: a freed handle, a
revoked communicator, an out-of-range rank, an invalid tag, and a peer
that is ``PROC_NULL``, recognized-failed or known-failed.  The checks run
in one fixed order and the first that applies decides the outcome:

    freed > revoked > rank > tag > PROC_NULL > recognized > known-failed

``sendrecv`` posts its receive before its send, so every receive-side
check on ``source`` comes before any send-side check on ``dest``.

The table below runs ``send``, ``isend``, ``irecv``, ``recv`` and
``sendrecv`` under every condition alone and every compatible pair
(a call has one peer, so two peer conditions only pair up in
``sendrecv``, as its source and its destination), under both error
handlers, and compares what happened — exception class, ``error_class``,
``peer``, ``rank`` and message, the state of a returned request, or the
abort code — with :func:`expected`, which spells the order out.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.ft import comm_validate_clear
from repro.simmpi import (
    ANY_TAG,
    PROC_NULL,
    ErrorClass,
    ErrorHandler,
    MPIError,
    Request,
    Simulation,
)

OPS = ("send", "isend", "irecv", "recv", "sendrecv")

#: Conditions on the handle or the call, and the peer each peer condition
#: addresses (ranks 2 and 3 are dead and known dead; 2 is recognized).
FLAGS = ("freed", "revoked", "tag")
PEERS = {"rank": 9, "null": PROC_NULL, "recognized": 2, "known": 3}
ALIVE_PEER = 1
GOOD_TAG, BAD_TAG = 7, -5

CASES = (
    [(c,) for c in FLAGS + tuple(PEERS)]
    + list(combinations(FLAGS, 2))
    + [(f, p) for f in FLAGS for p in PEERS]
)

#: ``sendrecv`` with a different peer condition on each side.
SENDRECV_PAIRS = [(s, d) for s in PEERS for d in PEERS if s != d]

HANDLERS = {
    "return": ErrorHandler.ERRORS_RETURN,
    "fatal": ErrorHandler.ERRORS_ARE_FATAL,
}


def _raised(cls, error_class, peer, rank, message):
    return ("raised", cls, error_class, peer, rank, message)


def _request(source, tag, error=ErrorClass.SUCCESS, count=0):
    return ("request", source, tag, error, count)


def _received(source, tag, count=0):
    return ("received", None, source, tag, count)


def expected(op, flags, source, dest):
    """What *op* does with *flags* set and the given peer conditions
    (``None``: the alive peer).  Spells out the precedence order."""
    recv_side = op in ("irecv", "recv", "sendrecv")
    send_side = op in ("send", "isend", "sendrecv")
    if "freed" in flags:
        return _raised("InvalidArgumentError", ErrorClass.ERR_COMM, None, 0,
                       "world has been freed")
    if "revoked" in flags:
        return _raised("CommRevokedError", ErrorClass.ERR_REVOKED, None, 0,
                       "world has been revoked")
    if recv_side and source == "rank":
        return _raised("InvalidArgumentError", ErrorClass.ERR_RANK, 9, 0,
                       "invalid source rank 9")
    if "tag" in flags:
        # Both sides check the tag right after their own rank check, and
        # the receive side of sendrecv found a valid source.
        if send_side and not recv_side and dest == "rank":
            return _raised("InvalidArgumentError", ErrorClass.ERR_RANK, 9, 0,
                           "invalid destination rank 9")
        return _raised("InvalidArgumentError", ErrorClass.ERR_TAG, None, 0,
                       f"invalid tag {BAD_TAG}")
    if send_side and dest == "rank":
        return _raised("InvalidArgumentError", ErrorClass.ERR_RANK, 9, 0,
                       "invalid destination rank 9")
    if send_side and dest == "known":
        return _raised("RankFailStopError", ErrorClass.ERR_RANK_FAIL_STOP, 3, 0,
                       f"{op} to failed rank 3 on world")
    if op == "send":
        return ("returned", None)
    if op == "isend":
        return _request(PEERS[dest], GOOD_TAG)
    if source == "known":
        if op == "irecv":
            return _request(3, GOOD_TAG, ErrorClass.ERR_RANK_FAIL_STOP)
        # recv / sendrecv: the wait reports it, without the caller's rank.
        return _raised("RankFailStopError", ErrorClass.ERR_RANK_FAIL_STOP, 3,
                       None, "peer 3 failed (recv)")
    # PROC_NULL, or a recognized failure: an immediate empty completion.
    if op == "irecv":
        return _request(PROC_NULL, ANY_TAG)
    return _received(PROC_NULL, ANY_TAG)


async def _call(comm, op, source, dest, tag):
    peer = dest if op in ("send", "isend") else source
    if op == "sendrecv":
        return await comm.sendrecv("x", dest, source, sendtag=tag, recvtag=tag)
    if op == "recv":
        return await comm.recv(source=peer, tag=tag)
    if op == "irecv":
        return comm.irecv(source=peer, tag=tag)
    return getattr(comm, op)("x", peer, tag)


def _describe(out):
    if isinstance(out, Request):
        st = out.status
        return ("request", st.source, st.tag, st.error, st.count)
    if isinstance(out, tuple):  # recv / sendrecv
        data, st = out
        return ("received", data, st.source, st.tag, st.count)
    return ("returned", out)


def run_case(op, flags, source, dest, handler):
    """Run *op* at rank 0 of a 4-rank world in which ranks 2 and 3 died
    at t=0 and rank 0 has recognized rank 2; return what it saw and the
    job's abort, if any."""
    src = ALIVE_PEER if source is None else PEERS[source]
    dst = ALIVE_PEER if dest is None else PEERS[dest]
    tag = BAD_TAG if "tag" in flags else GOOD_TAG

    async def main(mpi):
        comm = mpi.comm_world
        if mpi.rank != 0:
            await mpi.compute(1e-3)  # ranks 2 and 3 die in here; 1 just idles
            return None
        comm.set_errhandler(HANDLERS[handler])
        await mpi.compute(1e-6)  # let the detector report both failures
        assert comm_validate_clear(comm, [2]) == 1  # 3 stays known only
        if "revoked" in flags:
            comm.revoke()
        if "freed" in flags:
            comm.free()
        try:
            return _describe(await _call(comm, op, src, dst, tag))
        except MPIError as exc:
            return _raised(type(exc).__name__, exc.error_class, exc.peer,
                           exc.rank, str(exc))

    sim = Simulation(nprocs=4, trace_enabled=False)
    sim.kill(2, at_time=0.0)
    sim.kill(3, at_time=0.0)
    result = sim.run(main, on_deadlock="raise")
    aborted = result.aborted
    if aborted is not None:
        return None, (aborted.code, aborted.origin_rank)
    return result.value(0), None


def _check(op, flags, source, dest, handler):
    want = expected(op, flags, source, dest)
    seen, aborted = run_case(op, flags, source, dest, handler)
    if handler == "fatal" and want[0] == "raised":
        assert (seen, aborted) == (None, (int(want[2]), 0))
    else:
        assert (seen, aborted) == (want, None)


def _split(case):
    flags = frozenset(c for c in case if c in FLAGS)
    peer = next((c for c in case if c in PEERS), None)
    return flags, peer


@pytest.mark.parametrize("handler", HANDLERS)
@pytest.mark.parametrize("case", CASES, ids="+".join)
@pytest.mark.parametrize("op", OPS)
def test_first_applicable_check_decides(op, case, handler):
    flags, peer = _split(case)
    _check(op, flags, peer, peer, handler)


@pytest.mark.parametrize("handler", HANDLERS)
@pytest.mark.parametrize("source,dest", SENDRECV_PAIRS,
                         ids=[f"src_{s}-dst_{d}" for s, d in SENDRECV_PAIRS])
def test_sendrecv_checks_its_source_before_its_destination(source, dest, handler):
    _check("sendrecv", frozenset(), source, dest, handler)


def test_the_model_reads_as_the_order_says():
    # Literal anchors, so the table does not only agree with itself.
    f = frozenset
    both_handle_flags = expected("send", f({"freed", "revoked"}), "known", "known")
    assert both_handle_flags[2] is ErrorClass.ERR_COMM
    assert expected("recv", f({"tag"}), "rank", "rank")[5] == (
        "invalid source rank 9"
    )
    assert expected("isend", f({"tag"}), "rank", "rank")[5] == (
        "invalid destination rank 9"
    )
    assert expected("sendrecv", f(), "known", "rank")[5] == (
        "invalid destination rank 9"
    )
    assert expected("isend", f(), "known", "known")[5] == (
        "isend to failed rank 3 on world"
    )
    assert expected("recv", f(), "recognized", "recognized") == (
        "received", None, PROC_NULL, ANY_TAG, 0
    )
