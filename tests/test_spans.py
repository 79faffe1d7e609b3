"""Pipeline span tracing: recorder mechanics, the ``repro.spans/1``
stream contract, canonical serial==pooled==remote identity, the
Perfetto export, and the zero-perturbation guarantee (digests, cache
keys, and report stdout are byte-identical spans-on vs spans-off).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cache import RunCache
from repro.faults import run_campaign
from repro.obs import records
from repro.obs.export import perfetto_errors
from repro.obs.spans import (
    CANONICAL_CATEGORIES,
    SPANS,
    SPANS_FORMAT,
    SPAN_VOLATILE_KEYS,
    SpanRecorder,
    active,
    recording,
    spans_to_perfetto,
    spans_to_records,
)
from repro.parallel import FleetRunner, RingScenario
from tests.conftest import (
    RING_INVARIANTS as INVARIANTS,
    RING_SCENARIO as SCENARIO,
    windowed_campaign,
)


def _campaign(runner=None, **kw):
    return run_campaign(
        SCENARIO,
        seeds=range(6),
        horizon=8e-6,
        invariants=INVARIANTS,
        runner=runner,
        **kw,
    )


def _recorded_campaign(runner=None, **kw):
    recorder = SpanRecorder(kind="campaign")
    with recording(recorder):
        report = _campaign(runner=runner, **kw)
    return report, recorder


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_begin_end_nesting_and_ids(self):
        t = [0.0]
        rec = SpanRecorder(clock=lambda: t[0])
        outer = rec.begin("outer", "sweep")
        t[0] = 1.0
        inner = rec.begin("inner", "round", parent=outer.id)
        t[0] = 3.0
        rec.end(inner)
        rec.end(outer)
        assert (outer.id, inner.id) == (1, 2)
        assert inner.parent == outer.id
        assert inner.t == 1.0 and inner.dur == 2.0
        assert outer.t == 0.0 and outer.dur == 3.0

    def test_event_has_zero_duration(self):
        rec = SpanRecorder()
        ev = rec.event("frame.send", "net", attrs={"bytes": 7})
        assert ev.dur == 0.0
        assert ev.attrs == {"bytes": 7}

    def test_span_contextmanager_closes_on_error(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("x", "sweep"):
                raise RuntimeError("boom")
        assert rec.spans[0].dur >= 0.0

    def test_chunk_lifecycle_and_flow(self):
        rec = SpanRecorder()
        dispatch = rec.chunk_begin(4, 2)
        assert dispatch.attrs == {"start": 4, "jobs": 2, "flow": 1}
        raw = [
            {"id": 1, "parent": None, "name": "chunk.exec", "cat": "exec",
             "t": 0.0, "dur": 0.5, "attrs": {"jobs": 2}},
            {"id": 2, "parent": 1, "name": "job", "cat": "job",
             "t": 0.1, "dur": 0.2, "attrs": {"index": 4, "outcome": "ok"}},
        ]
        rec.chunk_absorb(4, raw, track="worker:a")
        closed = rec.chunk_end(4, "done")
        assert closed is dispatch and dispatch.attrs["status"] == "done"
        rec.chunk_merge(dispatch)
        exec_span = next(s for s in rec.spans if s.cat == "exec")
        job_span = next(s for s in rec.spans if s.cat == "job")
        merge = next(s for s in rec.spans if s.cat == "merge")
        # Ids remapped into this recorder's sequence, parents rewired,
        # times re-anchored at the dispatch, flow id propagated.
        assert exec_span.parent == dispatch.id
        assert job_span.parent == exec_span.id
        assert exec_span.t == pytest.approx(dispatch.t)
        assert exec_span.attrs["flow"] == 1
        assert merge.attrs == {"start": 4, "flow": 1}
        assert exec_span.track == job_span.track == "worker:a"

    def test_chunk_end_without_dispatch_returns_none(self):
        assert SpanRecorder().chunk_end(0, "lost") is None

    def test_retried_chunk_gets_fresh_flow_id(self):
        rec = SpanRecorder()
        first = rec.chunk_begin(0, 1)
        rec.chunk_end(0, "lost")
        second = rec.chunk_begin(0, 1)
        assert second.attrs["flow"] != first.attrs["flow"]

    def test_active_is_thread_local(self):
        rec = SpanRecorder()
        seen = []
        with recording(rec):
            thread = threading.Thread(target=lambda: seen.append(active()))
            thread.start()
            thread.join()
            assert active() is rec
        assert seen == [None]
        assert active() is None


# ---------------------------------------------------------------------------
# repro.spans/1 stream contract
# ---------------------------------------------------------------------------


def _valid_records():
    rec = SpanRecorder(kind="campaign")
    with rec.span("sweep.run", "sweep") as root:
        rec.begin("job", "job", parent=root.id,
                  attrs={"index": 0, "outcome": "ok"})
    return spans_to_records(rec)


class TestStreamContract:
    def test_roundtrip_and_validator(self, tmp_path):
        rec = SpanRecorder(kind="campaign")
        with rec.span("sweep.run", "sweep"):
            pass
        path = tmp_path / "spans.jsonl"
        path.write_text(records.dumps(spans_to_records(rec)))
        header, body = records.read(path, SPANS)
        assert header == {
            "format": SPANS_FORMAT, "kind": "campaign", "spans": 1
        }
        assert records.errors(path, SPANS) == []
        assert records.dumps([header, *body]) == path.read_text()

    @pytest.mark.parametrize(
        "mutate, expect",
        [
            (lambda r: r[0].update(format="nope"), "format"),
            (lambda r: r[0].update(spans=99), "declares"),
            (lambda r: r[1].update(cat="mystery"), "unknown category"),
            (lambda r: r[1].update(id=r[2]["id"]), "duplicate id"),
            (lambda r: r[2].update(parent=777), "not in stream"),
            (lambda r: r[2]["attrs"].pop("index"), "attrs.index"),
            (lambda r: r[2]["attrs"].update(outcome="confused"), "outcome"),
            (lambda r: r[1].update(t=-1.0), ">= 0"),
            (lambda r: r[1].pop("track"), "missing keys"),
            (lambda r: r[1].update(bonus=1), "unknown keys"),
        ],
    )
    def test_corruptions_detected(self, mutate, expect):
        stream = _valid_records()
        assert records.errors(stream, SPANS) == []
        mutate(stream)
        assert any(expect in e for e in records.errors(stream, SPANS)), (
            expect, records.errors(stream, SPANS)
        )

    def test_canonical_keeps_only_job_spans_without_volatiles(self):
        lines = records.canon(_valid_records(), SPANS)
        assert lines == [
            '{"attrs":{"index":0,"outcome":"ok"},"cat":"job","name":"job"}'
        ]
        for line in lines:
            assert not SPAN_VOLATILE_KEYS & json.loads(line).keys()
        assert CANONICAL_CATEGORIES == {"job"}


# ---------------------------------------------------------------------------
# Canonical identity + validity across every transport
# ---------------------------------------------------------------------------


class TestTransportIdentity:
    def test_serial_pooled_remote_canonicalize_identically(self, worker_addr):
        serial, serial_rec = _recorded_campaign()
        pooled, pooled_rec = _recorded_campaign(
            runner=FleetRunner(workers=2)
        )
        remote, remote_rec = _recorded_campaign(
            runner=FleetRunner(addresses=[worker_addr])
        )
        assert serial.format() == pooled.format() == remote.format()
        for rec in (serial_rec, pooled_rec, remote_rec):
            assert records.errors(spans_to_records(rec), SPANS) == []
        canon = records.canon(spans_to_records(serial_rec), SPANS)
        assert len(canon) == 6  # exactly one job span per run
        assert records.canon(spans_to_records(pooled_rec), SPANS) == canon
        assert records.canon(spans_to_records(remote_rec), SPANS) == canon

    def test_streamed_runs_carry_global_indices(self, worker_addr):
        _, materialized = _recorded_campaign(
            runner=FleetRunner(addresses=[worker_addr], chunk_size=2)
        )
        streamed = SpanRecorder(kind="campaign")
        with recording(streamed):
            windowed_campaign(
                SCENARIO, range(6), 8e-6, window=2, invariants=INVARIANTS,
                runner=FleetRunner(addresses=[worker_addr], chunk_size=2),
            )
        assert records.errors(spans_to_records(streamed), SPANS) == []
        assert (records.canon(spans_to_records(streamed), SPANS)
                == records.canon(spans_to_records(materialized), SPANS))

    def test_remote_spans_cover_the_whole_pipeline(self, worker_addr):
        _, rec = _recorded_campaign(
            runner=FleetRunner(addresses=[worker_addr], chunk_size=2)
        )
        cats = {s.cat for s in rec.spans}
        assert {"sweep", "round", "chunk", "exec", "job", "merge",
                "net"} <= cats
        worker_tracks = {
            s.track for s in rec.spans if s.cat in ("exec", "job")
        }
        assert worker_tracks == {
            f"worker:{worker_addr[0]}:{worker_addr[1]}"
        }


# ---------------------------------------------------------------------------
# Span truth under a cache: executed jobs look exactly like an uncached
# run's, hits leave no job span — on every runner
# ---------------------------------------------------------------------------

#: The paper's naive ring: 5 of these 12 seeds hang, so a mislabelled
#: outcome or a miss-list index shows in the canonical view.
NAIVE = RingScenario(4, 3, variant="naive")


def _naive_canon(runner=None, seeds=range(12), window=None, **kw):
    recorder = SpanRecorder(kind="campaign")
    with recording(recorder):
        if window is None:
            run_campaign(
                NAIVE, seeds=seeds, horizon=2e-5, runner=runner, **kw
            )
        else:
            windowed_campaign(
                NAIVE, seeds, 2e-5, window=window, runner=runner, **kw
            )
    assert records.errors(spans_to_records(recorder), SPANS) == []
    return records.canon(spans_to_records(recorder), SPANS)


class TestCachedSpans:
    @pytest.mark.parametrize("streaming", [
        {}, {"window": 5},
    ], ids=["materialized", "window5"])
    @pytest.mark.parametrize("kind", ["serial", "pool", "remote"])
    def test_cold_halfwarm_and_warm_tell_the_uncached_story(
        self, kind, streaming, worker_addr, tmp_path
    ):
        def runner():
            if kind == "pool":
                return FleetRunner(workers=2)
            if kind == "remote":
                return FleetRunner(addresses=[worker_addr])
            return None

        uncached = _naive_canon()
        outcomes = [json.loads(line)["attrs"]["outcome"] for line in uncached]
        assert len(uncached) == 12 and outcomes.count("hang") == 5

        cold = _naive_canon(runner(), cache=tmp_path / "cold", **streaming)
        assert cold == uncached

        half = tmp_path / "half"
        run_campaign(NAIVE, seeds=range(0, 12, 2), horizon=2e-5, cache=half)
        missed = [
            line for line in uncached
            if json.loads(line)["attrs"]["index"] % 2 == 1
        ]
        assert _naive_canon(runner(), cache=half, **streaming) == missed

        # Fully warm now: nothing executes, so no job span at all.
        assert _naive_canon(runner(), cache=half, **streaming) == []


class TestOutcomeVocabulary:
    def test_protocol_job_spans_label_the_records_outcome(self):
        # Partial restart without spares aborts under three kills: the
        # job spans must say "abort" where the records do.
        from repro.protocols import run_compare_protocols

        recorder = SpanRecorder(kind="compare-protocols")
        with recording(recorder):
            report = run_compare_protocols(
                nprocs=6, iters=6, seeds=range(3), horizon=4e-5,
                kills_per_run=3, spares=0, protocols=("partial_restart",),
            )
        outcomes = [r.outcome for r in report.records]
        assert "abort" in outcomes
        jobs = sorted(
            (s for s in recorder.spans if s.cat == "job"),
            key=lambda s: s.attrs["index"],
        )
        assert [s.attrs["outcome"] for s in jobs] == outcomes
        assert records.errors(spans_to_records(recorder), SPANS) == []


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------


class TestPerfettoExport:
    def test_remote_doc_validates_with_worker_tracks_and_flows(
        self, worker_addr
    ):
        _, rec = _recorded_campaign(
            runner=FleetRunner(addresses=[worker_addr], chunk_size=2)
        )
        doc = spans_to_perfetto(spans_to_records(rec))
        assert perfetto_errors(doc) == []
        events = doc["traceEvents"]
        tracks = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "sweep" in tracks
        assert f"worker:{worker_addr[0]}:{worker_addr[1]}" in tracks
        # Complete chunk->exec->merge arrows for every completed chunk.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 3  # ceil(6 runs / 2)
        assert all(e["pid"] == 1 for e in events)

    def test_lost_dispatch_emits_no_dangling_arrows(self):
        rec = SpanRecorder()
        rec.chunk_begin(0, 1)
        rec.chunk_end(0, "lost")
        doc = spans_to_perfetto(spans_to_records(rec))
        assert perfetto_errors(doc) == []
        assert not [e for e in doc["traceEvents"] if e["ph"] in "stf"]


# ---------------------------------------------------------------------------
# Zero perturbation: spans must never change what a sweep produces
# ---------------------------------------------------------------------------


class TestNonPerturbation:
    def test_report_and_digests_identical_spans_on_vs_off(self):
        plain = _campaign()
        recorded, rec = _recorded_campaign()
        assert rec.spans  # actually recorded something
        assert plain.format() == recorded.format()
        assert [r.result for r in plain.runs] == [
            r.result for r in recorded.runs
        ]

    def test_cache_keys_unchanged_and_batches_traced(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _campaign(cache=RunCache(cache_dir))
        warm, rec = _recorded_campaign(cache=RunCache(cache_dir))
        # Same keys: the spans-on run is served entirely from the
        # spans-off run's entries.
        cache_spans = [s for s in rec.spans if s.cat == "cache"]
        gets = [s for s in cache_spans if s.name == "cache.get_many"]
        assert gets and sum(s.attrs["hits"] for s in gets) == 6
        keyed = [s for s in cache_spans if s.name == "cache.keys"]
        assert [(s.attrs["jobs"], s.attrs["keyed"]) for s in keyed] == [(6, 6)]
        assert not [s for s in cache_spans if s.name == "cache.put_many"]
        assert warm.format() == _campaign().format()

    def test_cli_stdout_identical_and_spans_written(self, tmp_path, capsys):
        from repro.cli import main

        base = ["campaign", "--nprocs", "4", "--iters", "3",
                "--runs", "5", "--horizon", "8e-6"]
        assert main(base) == 0
        plain_out = capsys.readouterr().out
        spans_path = tmp_path / "spans.jsonl"
        assert main(base + ["--spans", str(spans_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain_out
        assert f"[spans] wrote {spans_path}" in captured.err
        assert records.errors(spans_path, SPANS) == []
        assert len(records.canon(spans_path, SPANS)) == 5

    def test_spans_cli_validate_canon_and_perfetto(self, tmp_path, capsys):
        from repro.cli import main

        _, rec = _recorded_campaign()
        path = tmp_path / "spans.jsonl"
        path.write_text(records.dumps(spans_to_records(rec)))
        assert main(["spans", str(path), "--validate"]) == 0
        assert "valid" in capsys.readouterr().err
        assert main(["spans", str(path), "--canon"]) == 0
        canon_out = capsys.readouterr().out
        assert canon_out.splitlines() == records.canon(path, SPANS)
        out_doc = tmp_path / "spans.perfetto.json"
        assert main(["spans", str(path), "--format", "perfetto",
                     "-o", str(out_doc)]) == 0
        capsys.readouterr()
        assert perfetto_errors(json.loads(out_doc.read_text())) == []

    def test_spans_cli_flags_invalid_stream(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"nope"}\n')
        assert main(["spans", str(bad), "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().err
