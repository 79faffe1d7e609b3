"""The distributed sweep transport: socket worker fleet, wire protocol,
the run cache in front of it, and dead-worker recovery.

The contract under test extends ``docs/parallel.md`` across machines: a
campaign fanned out to ``repro worker serve`` processes produces a
report **byte-identical** to serial and in-process-pool execution —
same run order, kills, violations, formatted text — while cache
lookups stay in the submitting process, so a warm replay never touches
the fleet.
"""

from __future__ import annotations

import os
import pickle
import re
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import perf
from repro.cache import RunCache
from repro.faults import run_campaign
from repro.obs.spans import SpanRecorder, recording
from repro.parallel import (
    FleetRunner,
    SerialRunner,
    SweepError,
    make_runner,
    parse_worker_addrs,
    with_cache,
)
from repro.parallel.remote import (
    REMOTE_FORMAT,
    _FrameBuffer,
    _pack,
    _recv_frame,
    ping,
)
from repro.parallel.scenarios import RingScenario
from repro.parallel.transport import Executed, MissJob
from tests.conftest import (
    RING_INVARIANTS as INVARIANTS,
    RING_SCENARIO as SCENARIO,
    campaign_fields as _campaign_fields,
    windowed_campaign,
)
from tests.test_parallel import BoomJob, SquareJob

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Workers: in-process (``worker_addr`` in tests/conftest.py — fast,
# shares the test process) and subprocess (real `repro worker serve`,
# killable — the recovery tests need a worker whose death closes its
# sockets).
# ---------------------------------------------------------------------------


def _spawn_worker() -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start a real ``repro worker serve`` subprocess on an ephemeral
    port and scrape the bound address from its readiness line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "serve",
         "--bind", "127.0.0.1:0"],
        cwd=REPO_ROOT,
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    assert "listening on" in line, f"worker failed to start: {line!r}"
    hostport = line.split("listening on ")[1].split()[0]
    host, port = hostport.rsplit(":", 1)
    return proc, (host, int(port))


@pytest.fixture
def subprocess_workers():
    procs: list[subprocess.Popen] = []
    addrs: list[tuple[str, int]] = []
    for _ in range(2):
        proc, addr = _spawn_worker()
        procs.append(proc)
        addrs.append(addr)
    yield addrs
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
        proc.stderr.close()
        proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# Fixture jobs (module level: they cross the socket by reference, so
# subprocess workers import them as ``tests.test_remote``).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoisonFactory:
    """A ring-scenario factory that crashes the *first* worker process
    to build it (``os._exit``, no cleanup — a hard failure), exactly
    once across the fleet (exclusive sentinel creation picks the one
    victim).  Everywhere else — serially, or on the retry — it behaves
    like the plain scenario, so the campaign report must come out
    byte-identical to a serial run."""

    scenario: RingScenario
    sentinel: str

    def __call__(self):
        if os.environ.get("REPRO_WORKER_SERVE"):
            try:
                with open(self.sentinel, "x"):
                    pass
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return self.scenario()


def _campaign(runner=None, workers=None, factory=SCENARIO, runs=6, **kw):
    return run_campaign(
        factory,
        seeds=range(runs),
        horizon=8e-6,
        invariants=INVARIANTS,
        runner=runner,
        workers=workers,
        **kw,
    )


# ---------------------------------------------------------------------------
# Wire protocol pieces
# ---------------------------------------------------------------------------


class TestAddresses:
    def test_parse_single_and_multi(self):
        assert parse_worker_addrs("127.0.0.1:7777") == (("127.0.0.1", 7777),)
        assert parse_worker_addrs("a:1, b:2 ,c:3,") == (
            ("a", 1), ("b", 2), ("c", 3)
        )

    @pytest.mark.parametrize(
        "spec", ["", "nonsense", ":7777", "host:", "host:abc", "host:0",
                 "host:65536",
                 # int() takes these, but they are no plain port number
                 "h:7_777", "h:+7777", "h: 7777", "h:\u0667\u0667\u0667",
                 # one worker listed twice would share one stats slot
                 "127.0.0.1:7777,127.0.0.1:7777", "h:7777,h:07777"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_worker_addrs(spec)

    @pytest.mark.parametrize("addresses", [
        "127.0.0.1:7777,127.0.0.1:7777",
        [("127.0.0.1", 7777), ("127.0.0.1", 7777)],
    ], ids=["spec", "tuples"])
    def test_fleet_refuses_a_repeated_address(self, addresses):
        with pytest.raises(ValueError, match="127.0.0.1:7777"):
            FleetRunner(addresses=addresses)


class TestFraming:
    def test_frame_buffer_reassembles_split_frames(self):
        objs = [("done", 0, list(range(50))), ("pong", {"pid": 1}), "x" * 1000]
        wire = b"".join(_pack(obj)[0] for obj in objs)
        buf = _FrameBuffer()
        got = []
        # Drip-feed one byte at a time: frames must only surface once
        # complete, in order, regardless of how recv() slices them.
        for i in range(0, len(wire), 7):
            buf.feed(wire[i : i + 7])
            got.extend(buf.frames())
        assert got == objs
        assert buf.wire_in == len(wire)

    @pytest.mark.parametrize("msg", [
        ("run", 4, [SquareJob(x) for x in range(3)], [4, 5, 6]),
        ("done", 4, [9, 16, 25]),
    ], ids=["run", "done"])
    def test_frame_cut_at_every_offset_yields_it_once(self, msg):
        frame = _pack(msg)[0]
        for cut in range(len(frame) + 1):
            buf = _FrameBuffer()
            buf.feed(frame[:cut])
            got = list(buf.frames())
            buf.feed(frame[cut:])
            got.extend(buf.frames())
            assert got == [msg], cut
            assert list(buf.frames()) == []

    def test_oversized_frame_rejected(self):
        import struct

        buf = _FrameBuffer()
        buf.feed(struct.pack(">Q", 1 << 40))
        with pytest.raises(ConnectionError):
            list(buf.frames())


# ---------------------------------------------------------------------------
# FleetRunner over served workers (in-process worker)
# ---------------------------------------------------------------------------


class TestRemoteRunner:
    def test_results_in_submission_order(self, worker_addr):
        runner = FleetRunner(addresses=[worker_addr], chunk_size=2)
        assert runner.run([SquareJob(x) for x in range(10)]) == [
            x * x for x in range(10)
        ]

    def test_empty_batch(self, worker_addr):
        assert FleetRunner(addresses=[worker_addr]).run([]) == []

    def test_application_error_propagates_and_is_not_retried(
        self, worker_addr
    ):
        runner = FleetRunner(
            addresses=[worker_addr], chunk_size=1, retries=3
        )
        with pytest.raises(ValueError, match="boom"):
            runner.run([SquareJob(1), BoomJob()])

    def test_no_reachable_workers_is_a_sweep_error(self):
        # An ephemeral port nothing listens on.
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()
        runner = FleetRunner(addresses=[dead], connect_timeout=0.5)
        with pytest.raises(SweepError, match="no reachable workers"):
            runner.run([SquareJob(1)])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FleetRunner(addresses=())
        with pytest.raises(ValueError):
            FleetRunner(addresses="not-an-address")
        with pytest.raises(ValueError):
            FleetRunner(addresses=[("h", 1)], chunk_size=0)
        with pytest.raises(ValueError):
            FleetRunner(addresses=[("h", 1)], retries=-1)
        with pytest.raises(ValueError):
            FleetRunner(workers=2, addresses=[("h", 1)])

    def test_addresses_accept_spec_string(self, worker_addr):
        runner = FleetRunner(addresses=f"{worker_addr[0]}:{worker_addr[1]}")
        assert runner.run([SquareJob(3)]) == [9]

    def test_ping(self, worker_addr):
        info = ping(worker_addr)
        assert info["pid"] == os.getpid()  # in-process server
        assert info["busy"] is False

    def test_campaign_identical_across_all_runners(self, worker_addr):
        serial = _campaign()
        pooled = _campaign(runner=FleetRunner(workers=2))
        remote = _campaign(runner=FleetRunner(addresses=[worker_addr]))
        assert _campaign_fields(serial) == _campaign_fields(remote)
        assert serial.summary() == pooled.summary() == remote.summary()
        assert serial.format() == pooled.format() == remote.format()

    def test_run_stream_window_one_keeps_submission_order(self, worker_addr):
        # The stream-window regression: even a window of 1 (fully
        # serialized in-flight) must yield submission-order results.
        jobs = [SquareJob(x) for x in range(9)]
        expected = [x * x for x in range(9)]
        remote = FleetRunner(addresses=[worker_addr], chunk_size=2)
        assert list(remote.run_stream(iter(jobs), window=1)) == expected
        pool = FleetRunner(workers=2, chunk_size=2)
        assert list(pool.run_stream(iter(jobs), window=1)) == expected
        assert list(SerialRunner().run_stream(iter(jobs), window=1)) == expected

    def test_streamed_campaign_with_window_one_matches_materialized(
        self, worker_addr
    ):
        materialized = _campaign()
        streamed = windowed_campaign(
            SCENARIO, range(6), 8e-6, window=1, invariants=INVARIANTS,
            runner=FleetRunner(addresses=[worker_addr]),
        )
        assert streamed.format() == materialized.format()


class TestLoopbackCampaign:  # 80 runs, one worker either way
    def test_one_worker_pool_counts_every_run(self):
        pooled = _campaign(runner=FleetRunner(workers=1), runs=80)
        assert pooled.summary() == {
            "runs": 80, "ok": 80, "hangs": 0, "violations": 0, "aborts": 0
        }

    def test_remote_matches_one_worker_pool(self, worker_addr):
        runner = FleetRunner(addresses=[worker_addr])
        remote = _campaign(runner=runner, runs=80)
        pooled = _campaign(runner=FleetRunner(workers=1), runs=80)
        assert remote.format() == pooled.format()
        assert runner.worker_stats()[0]["jobs"] == 80

    def test_one_job_span_per_run(self, worker_addr):
        recorder = SpanRecorder(kind="campaign")
        with recording(recorder):
            _campaign(runner=FleetRunner(addresses=[worker_addr]), runs=80)
        assert sum(s.cat == "job" for s in recorder.spans) == 80


# ---------------------------------------------------------------------------
# Handshake: the format is checked by name, in both directions
# ---------------------------------------------------------------------------


class TestHandshake:
    @pytest.mark.parametrize("old", ["repro.remote/1", "repro.remote/2"])
    def test_old_format_hello_is_rejected_naming_both(self, worker_addr, old):
        assert REMOTE_FORMAT == "repro.remote/3"
        info = {"format": old, "env": {}, "cache": None}
        with socket.create_connection(worker_addr, timeout=5) as sock:
            sock.sendall(_pack(("hello", info))[0])
            reply = _recv_frame(sock)[0]
        assert reply[0] == "reject"
        assert reply[1].startswith("format mismatch: ")
        assert old in reply[1] and REMOTE_FORMAT in reply[1]

    def test_parent_raises_the_workers_reject_text(self):
        # A worker of another version: answers every hello with reject.
        text = "format mismatch: 'repro.remote/2' != 'repro.remote/1'"
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def refuse():
                conn, _ = listener.accept()
                with conn:
                    _recv_frame(conn)
                    conn.sendall(_pack(("reject", text))[0])

            thread = threading.Thread(target=refuse, daemon=True)
            thread.start()
            runner = FleetRunner(addresses=[listener.getsockname()])
            with pytest.raises(SweepError) as exc_info:
                runner.run([SquareJob(1)])
            thread.join(timeout=5)
        assert text in str(exc_info.value)
        assert "rejected the handshake" in str(exc_info.value)

    def test_reject_after_a_good_hello_closes_every_socket(
        self, worker_addr, monkeypatch
    ):
        # The good worker's connection is open when the second peer
        # rejects the hello: the round must close it before raising.
        opened = []
        connect = FleetRunner.connect

        def spy(self, slot, inherited):
            sock, proc = connect(self, slot, inherited)
            opened.append(sock)
            return sock, proc

        monkeypatch.setattr(FleetRunner, "connect", spy)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def refuse():
                conn, _ = listener.accept()
                with conn:
                    _recv_frame(conn)
                    conn.sendall(_pack(("reject", "not today"))[0])

            thread = threading.Thread(target=refuse, daemon=True)
            thread.start()
            runner = FleetRunner(
                addresses=[worker_addr, listener.getsockname()]
            )
            with pytest.raises(SweepError, match="not today"):
                runner.run([SquareJob(1)])
            thread.join(timeout=5)
        assert len(opened) == 2
        assert [sock.fileno() for sock in opened] == [-1, -1]

    def test_undecodable_reply_is_a_dead_worker_and_its_chunk_is_retried(self):
        # A peer that completes the hello, then answers `run` with a
        # frame the parent cannot decode: the worker is dropped and its
        # chunk lost, on the first round and on the retry, so the sweep
        # ends naming the job instead of escaping a decode error.
        import struct

        def garble(listener, bad):
            for _round in range(2):
                conn, _ = listener.accept()
                with conn:
                    _recv_frame(conn)
                    hello = {"format": REMOTE_FORMAT, "pid": 0}
                    conn.sendall(_pack(("hello", hello))[0])
                    _recv_frame(conn)
                    conn.sendall(bad)
                    while conn.recv(1 << 16):  # until the parent hangs up
                        pass

        for bad in (
            struct.pack(">Q", 1 << 40),  # oversized length prefix
            struct.pack(">Q", 4) + b"\0\1\2\3",  # not a zlib body
        ):
            with socket.socket() as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                thread = threading.Thread(
                    target=garble, args=(listener, bad), daemon=True
                )
                thread.start()
                runner = FleetRunner(
                    addresses=[listener.getsockname()], retries=1
                )
                with pytest.raises(SweepError) as exc_info:
                    runner.run([SquareJob(1)])
                thread.join(timeout=5)
            assert not thread.is_alive()
            assert exc_info.value.indices == [0]
            assert runner.worker_stats()[0]["disconnects"] == 2


# ---------------------------------------------------------------------------
# A worker connection cut mid-frame: the chunk is lost, the retry
# completes (cuts placed by byte count)
# ---------------------------------------------------------------------------


def _cut_done_reply(monkeypatch, sentinel, cut):
    """Make the first forked worker to reply ``done`` send only
    ``cut(frame)`` bytes of the frame and hang up — exactly once across
    the sweep (exclusive sentinel creation picks the one victim)."""
    from repro.parallel import remote

    send = remote._send

    def cutting(sock, obj):
        if obj[0] == "done":
            try:
                with open(sentinel, "x"):
                    pass
            except FileExistsError:
                pass
            else:
                frame = _pack(obj)[0]
                sock.sendall(frame[: cut(frame)])
                sock.close()
                raise ConnectionResetError("cut mid-frame")
        send(sock, obj)

    monkeypatch.setattr(remote, "_send", cutting)


class TestCutFrames:
    @pytest.mark.parametrize("cut", [
        lambda frame: 3,  # inside the 8-byte length prefix
        lambda frame: 8 + 1,  # inside the 2-byte zlib header
        lambda frame: (8 + len(frame)) // 2,  # halfway through the body
    ], ids=["mid-header", "mid-zlib", "mid-body"])
    def test_cut_reply_is_a_lost_chunk_and_the_retry_completes(
        self, cut, monkeypatch, tmp_path
    ):
        serial = _campaign()
        _cut_done_reply(monkeypatch, tmp_path / "cut", cut)
        runner = FleetRunner(workers=2, chunk_size=2, retries=1)
        pooled = _campaign(runner=runner)
        assert (tmp_path / "cut").exists(), "no reply was cut"
        assert pooled.format() == serial.format()
        assert _campaign_fields(pooled) == _campaign_fields(serial)
        assert sorted(runner.job_retries) == [0, 0, 0, 0, 1, 1]
        assert sum(s["disconnects"] for s in runner.worker_stats()) == 1


# ---------------------------------------------------------------------------
# The run cache in front of a remote fleet (lookups stay in the parent)
# ---------------------------------------------------------------------------


def _no_round(runner):
    """Spy standing in for the round class: no round may be constructed."""
    raise AssertionError("a fully warm replay opened a scheduling round")


class TestRemoteCache:
    def test_cold_stores_and_warm_replay_never_touches_the_fleet(
        self, worker_addr, tmp_path
    ):
        cache = RunCache(tmp_path / "cache")
        serial = _campaign()

        before = perf.CACHE.snapshot()
        cold = _campaign(runner=make_runner(addresses=[worker_addr], cache=cache))
        cold_delta = perf.CACHE.delta(before)
        assert cold_delta["misses"] == cold_delta["stores"] == 6
        assert cold_delta["hits"] == 0

        before = perf.CACHE.snapshot()
        warm_runner = FleetRunner(addresses=[worker_addr])
        warm = _campaign(runner=warm_runner, cache=cache)
        warm_delta = perf.CACHE.delta(before)
        assert warm_delta["hits"] == 6
        assert warm_delta["misses"] == warm_delta["stores"] == 0

        assert serial.format() == cold.format() == warm.format()
        assert _campaign_fields(serial) == _campaign_fields(warm)

        # No connection was opened: nothing shipped, no worker pid learnt.
        (stats,) = warm_runner.worker_stats()
        assert stats["chunks"] == stats["jobs"] == 0
        assert stats["bytes_out"] + stats["bytes_in"] == 0
        assert stats["pid"] is None

    def test_fully_warm_replay_opens_no_round(
        self, worker_addr, tmp_path, monkeypatch
    ):
        cache = RunCache(tmp_path / "cache")
        cold = _campaign(runner=FleetRunner(addresses=[worker_addr]), cache=cache)
        runner = FleetRunner(addresses=[worker_addr])
        monkeypatch.setattr("repro.parallel.remote._FleetRound", _no_round)
        warm = _campaign(runner=runner, cache=cache)
        assert warm.format() == cold.format()

    def test_uncacheable_jobs_pass_through_uncounted(self, worker_addr, tmp_path):
        runner = make_runner(addresses=[worker_addr], cache=tmp_path / "cache")
        before = perf.CACHE.snapshot()
        assert runner.run([SquareJob(4), SquareJob(5)]) == [16, 25]
        assert perf.CACHE.delta(before) == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0
        }
        (stats,) = runner.worker_stats()
        assert stats["jobs"] == 2

    def test_miss_reply_is_a_picklable_envelope(self, worker_addr):
        # What a miss ships back over the wire (and the pool): the
        # outcome plus the payload the parent stores, as one value that
        # survives pickle with its type.
        job = next(iter(_campaign_jobs()))
        direct = MissJob(job)()
        assert isinstance(direct, Executed)
        assert direct == Executed(*job.cache_payload())
        (shipped,) = FleetRunner(addresses=[worker_addr]).run([MissJob(job)])
        assert isinstance(shipped, Executed)
        assert shipped == direct == pickle.loads(pickle.dumps(direct))


class TestWithCache:
    def test_callers_runner_is_never_changed(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        runner = FleetRunner(workers=2)
        cached = _campaign(runner=runner, cache=cache)
        assert runner.cache is None
        before = perf.CACHE.snapshot()
        plain = _campaign(runner=runner)
        assert perf.CACHE.delta(before) == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0
        }
        assert cached.format() == plain.format()
        assert with_cache(runner, None) is runner
        assert with_cache(runner, False) is runner

    def test_remote_copy_shares_worker_stats(self, worker_addr, tmp_path):
        runner = FleetRunner(addresses=[worker_addr])
        cached = with_cache(runner, tmp_path / "cache")
        assert cached is not runner and runner.cache is None
        _campaign(runner=cached)
        assert runner.worker_stats() == cached.worker_stats()
        assert runner.worker_stats()[0]["jobs"] == 6

    def test_job_retries_map_back_to_the_full_job_list(
        self, tmp_path, monkeypatch
    ):
        # Half-warm pooled run (even positions pre-filled), one worker,
        # one job per chunk; the miss at position 3 kills the worker
        # once.  The miss at 1 had completed, 3 was in flight and 5
        # queued behind it on the broken pool: those two chunks are
        # re-submitted, and the counts land at the misses' positions in
        # the *full* list, not in the three-job miss list.
        # (PoisonFactory arms itself where REPRO_WORKER_SERVE is set;
        # forked pool workers inherit it, and this process never builds
        # the poisoned job's scenario.)
        monkeypatch.setenv("REPRO_WORKER_SERVE", "pool")
        cache = RunCache(tmp_path / "cache")
        jobs = list(_retry_jobs(str(tmp_path / "crashed")))
        warm = [job for i, job in enumerate(jobs) if i % 2 == 0]
        with_cache(SerialRunner(), cache).run(warm)
        runner = with_cache(
            FleetRunner(workers=1, chunk_size=1, retries=2), cache
        )
        results = runner.run(jobs)
        assert [r.seed for r in results] == list(range(6))
        assert (tmp_path / "crashed").exists()
        assert runner.job_retries == [0, 0, 0, 1, 0, 1]


def _retry_jobs(sentinel):
    from repro.faults.campaign import CampaignJob

    for seed in range(6):
        factory = SCENARIO
        if seed == 3:
            factory = PoisonFactory(scenario=SCENARIO, sentinel=sentinel)
        yield CampaignJob(
            factory=factory, seed=seed, horizon=8e-6, invariants=INVARIANTS
        )


def _campaign_jobs():
    from repro.faults.campaign import CampaignJob

    yield CampaignJob(
        factory=SCENARIO, seed=0, horizon=8e-6, invariants=INVARIANTS
    )


# ---------------------------------------------------------------------------
# Dead-worker recovery (real subprocess workers)
# ---------------------------------------------------------------------------


class TestDeadWorkerRecovery:
    def test_worker_killed_mid_campaign_is_recovered(
        self, subprocess_workers, tmp_path
    ):
        # One worker of two os._exit(1)s while executing a campaign
        # chunk.  The parent sees EOF, declares the chunk lost, and the
        # retry round re-dispatches it to the survivor — the report
        # must come out byte-identical to serial, with the recovery
        # visible in job_retries and the disconnect counters.
        factory = PoisonFactory(
            scenario=SCENARIO, sentinel=str(tmp_path / "poisoned")
        )
        serial = _campaign(factory=factory)
        runner = FleetRunner(
            addresses=subprocess_workers, chunk_size=1, retries=2
        )
        remote = _campaign(runner=runner, factory=factory)
        assert (tmp_path / "poisoned").exists(), "no worker was killed"
        assert serial.format() == remote.format()
        assert _campaign_fields(serial) == _campaign_fields(remote)
        assert sum(runner.job_retries) > 0
        assert sum(s["disconnects"] for s in runner.worker_stats()) >= 1

    def test_streamed_death_keeps_telemetry_and_spans_canonical(
        self, subprocess_workers, tmp_path
    ):
        # Satellite of the observability PR: when a worker dies during
        # a *streamed* campaign, the telemetry stream must stay valid
        # (worker lines recording the disconnect included) and the span
        # stream must stay valid with the canonical job spans identical
        # to a serial run — the lost chunk's jobs land exactly once, on
        # the retry.
        from repro.obs import records
        from repro.obs.spans import (
            SPANS,
            SpanRecorder,
            recording,
            spans_to_records,
        )
        from repro.obs.telemetry import TELEMETRY

        factory = PoisonFactory(
            scenario=SCENARIO, sentinel=str(tmp_path / "poisoned")
        )
        serial_rec = SpanRecorder(kind="campaign")
        with recording(serial_rec):
            serial = _campaign(factory=factory)

        log = tmp_path / "remote.jsonl"
        runner = FleetRunner(
            addresses=subprocess_workers, chunk_size=1, retries=2
        )
        remote_rec = SpanRecorder(kind="campaign")
        with recording(remote_rec):
            remote = windowed_campaign(
                factory, range(6), 8e-6, window=2, invariants=INVARIANTS,
                runner=runner, telemetry=str(log),
            )
        assert (tmp_path / "poisoned").exists(), "no worker was killed"
        assert serial.format() == remote.format()
        # Telemetry: valid, with the retries on the job lines and
        # per-worker rows carrying the disconnect.
        assert records.errors(log, TELEMETRY) == []
        lines = records.read(log, TELEMETRY)[1]
        assert sum(r["retries"] for r in lines if r.get("kind") == "job") > 0
        workers = [r for r in lines if r.get("kind") == "worker"]
        assert len(workers) == 2
        assert sum(w["disconnects"] for w in workers) >= 1
        # Spans: valid, and canonically identical to the serial sweep.
        remote_spans = spans_to_records(remote_rec)
        serial_spans = spans_to_records(serial_rec)
        assert records.errors(remote_spans, SPANS) == []
        assert records.errors(serial_spans, SPANS) == []
        assert (records.canon(remote_spans, SPANS)
                == records.canon(serial_spans, SPANS))
        # The death is visible in the span stream itself: at least one
        # dispatch closed as lost.
        lost = [
            s for s in remote_rec.spans
            if s.cat == "chunk" and s.attrs.get("status") == "lost"
        ]
        assert lost

    def test_dead_at_connect_worker_is_skipped(self, subprocess_workers):
        # A worker that is already gone when the round opens simply
        # never joins; the survivor does all the work.
        import signal

        serial = _campaign()
        runner = FleetRunner(addresses=subprocess_workers)
        pid = ping(subprocess_workers[0])["pid"]
        os.kill(pid, signal.SIGKILL)
        remote = _campaign(runner=runner)
        assert serial.format() == remote.format()
        (dead, alive) = runner.worker_stats()
        assert dead["jobs"] == 0
        assert alive["jobs"] == 6


# ---------------------------------------------------------------------------
# Telemetry integration
# ---------------------------------------------------------------------------


class TestRemoteTelemetry:
    def test_worker_lines_recorded_and_canonical_form_matches_serial(
        self, worker_addr, tmp_path
    ):
        from repro.obs import records
        from repro.obs.telemetry import TELEMETRY

        serial_log = tmp_path / "serial.jsonl"
        remote_log = tmp_path / "remote.jsonl"
        _campaign(telemetry=str(serial_log))
        _campaign(
            runner=FleetRunner(addresses=[worker_addr]),
            telemetry=str(remote_log),
        )
        assert records.errors(remote_log, TELEMETRY) == []
        _header, body = records.read(remote_log, TELEMETRY)
        workers = [r for r in body if r.get("kind") == "worker"]
        assert len(workers) == 1
        assert workers[0]["worker"] == f"{worker_addr[0]}:{worker_addr[1]}"
        assert workers[0]["jobs"] == 6
        assert workers[0]["chunks"] >= 1
        assert workers[0]["bytes_out"] > 0 and workers[0]["bytes_in"] > 0
        # Canonical form drops transport detail: serial == remote.
        assert (records.canon(serial_log, TELEMETRY)
                == records.canon(remote_log, TELEMETRY))

    def test_report_command_summarizes_remote_workers(
        self, worker_addr, tmp_path, capsys
    ):
        from repro.cli import main

        log = tmp_path / "remote.jsonl"
        _campaign(
            runner=FleetRunner(addresses=[worker_addr]),
            telemetry=str(log),
        )
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "worker slots: 1" in out
        assert f"{worker_addr[0]}:{worker_addr[1]}" in out

    def test_report_command_titles_pooled_workers_as_slots(
        self, tmp_path, capsys
    ):
        # A --workers N sweep writes one transport row per local slot.
        from repro.cli import main

        log = tmp_path / "pool.jsonl"
        runner = FleetRunner(workers=2)
        _campaign(runner=runner, telemetry=str(log))
        assert sum(w["jobs"] for w in runner.worker_stats()) == 6
        assert sum(w["chunks"] for w in runner.worker_stats()) >= 1
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "worker slots: 2" in out
        assert "remote workers" not in out
        assert "  local:0: " in out and "  local:1: " in out


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


#: ``repro campaign`` arguments of the remote-vs-serial checks: a small
#: one, and the shape the CLI smoke used to diff on loopback.
SMALL_CAMPAIGN = ["--nprocs", "4", "--iters", "3", "--runs", "5",
                  "--horizon", "8e-6"]
CI_CAMPAIGN = ["--nprocs", "6", "--iters", "4", "--runs", "20",
               "--horizon", "1e-5"]


class TestRemoteCli:
    @pytest.mark.parametrize("args", [SMALL_CAMPAIGN, CI_CAMPAIGN],
                             ids=["small", "n6-runs20"])
    def test_remote_campaign_matches_serial(self, worker_addr, capsys, args):
        from repro.cli import main

        base = ["campaign", *args]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + [
            "--transport", "remote",
            "--workers-addr", f"{worker_addr[0]}:{worker_addr[1]}",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "[remote]" in captured.err

    def test_warm_remote_replay_never_touches_the_fleet(
        self, worker_addr, tmp_path, capsys
    ):
        # Lookups happen in the submitting process, so the warm pass
        # classifies every run from the cache and sends the fleet
        # nothing at all: no chunk, no job, not one byte.
        from repro.cli import main

        base = ["campaign", *CI_CAMPAIGN]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        remote = base + [
            "--transport", "remote",
            "--workers-addr", f"{worker_addr[0]}:{worker_addr[1]}",
            "--cache", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(remote) == 0
        cold = capsys.readouterr()
        assert main(remote) == 0
        warm = capsys.readouterr()
        assert cold.out == serial_out
        assert warm.out == serial_out
        assert re.search(r"^\[cache\] hits=20 misses=0 ", warm.err, re.M)
        assert re.search(r"^\[remote\] .* chunks=0 jobs=0 .* wire=0B ",
                         warm.err, re.M)

    def test_transport_remote_requires_workers_addr(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --workers-addr"):
            main(["campaign", "--runs", "2", "--transport", "remote"])

    def test_workers_addr_requires_transport_remote(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --transport remote"):
            main(["campaign", "--runs", "2",
                  "--workers-addr", "127.0.0.1:7777"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--runs", "2", "--workers", "0"],
            ["fuzz", "--runs", "2", "--workers", "0"],
            ["campaign", "--runs", "2", "--transport", "remote",
             "--workers-addr", "nonsense"],
        ],
    )
    def test_parse_time_validation(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()

    def test_worker_ping_command(self, worker_addr, capsys):
        from repro.cli import main

        addr = f"{worker_addr[0]}:{worker_addr[1]}"
        assert main(["worker", "ping", addr]) == 0
        assert f"[worker] {addr} pid=" in capsys.readouterr().out

    def test_worker_ping_heartbeat_interval_flag(self, worker_addr, capsys):
        from repro.cli import main

        addr = f"{worker_addr[0]}:{worker_addr[1]}"
        assert main(
            ["worker", "ping", addr, "--heartbeat-interval", "1.5"]
        ) == 0
        assert f"[worker] {addr} pid=" in capsys.readouterr().out

    def test_transport_timing_flags_reach_the_runner(self):
        from repro.cli import _sweep_runner, build_parser

        args = build_parser().parse_args([
            "campaign", "--runs", "2", "--transport", "remote",
            "--workers-addr", "127.0.0.1:7777",
            "--heartbeat-interval", "0.25", "--connect-timeout", "1.5",
        ])
        runner = _sweep_runner(args)
        assert runner.heartbeat == 0.25
        assert runner.connect_timeout == 1.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--runs", "2", "--heartbeat-interval", "0"],
            ["campaign", "--runs", "2", "--heartbeat-interval", "nan"],
            ["campaign", "--runs", "2", "--heartbeat-interval", "inf"],
            ["campaign", "--runs", "2", "--connect-timeout", "-1"],
            ["campaign", "--runs", "2", "--connect-timeout", "soon"],
            ["worker", "ping", "127.0.0.1:7777",
             "--heartbeat-interval", "0"],
        ],
    )
    def test_timing_flags_validated_at_parse_time(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert "must be a finite number > 0" in err or "is not a number" in err

    def test_worker_ping_unreachable(self, capsys):
        from repro.cli import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            host, port = s.getsockname()
        assert main(["worker", "ping", f"{host}:{port}"]) == 1
        assert "unreachable" in capsys.readouterr().err
