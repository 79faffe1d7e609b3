"""Trace export: Perfetto/JSONL golden pins, schema validity, round-trip.

The golden files pin the exporters byte-for-byte for two paper presets —
``fig2`` (clean baseline ring) and ``fig6`` (naive ring, one fail-stop).
Regenerate deliberately after an intended format change::

    PYTHONPATH=src python - <<'EOF'
    from pathlib import Path
    from repro.obs import (dumps_perfetto, make_scenario, trace_to_jsonl,
                           trace_to_perfetto)
    for name in ('fig2', 'fig6'):
        sim, main, nprocs = make_scenario(name)
        r = sim.run(main, on_deadlock='return', raise_app_errors=False)
        doc = trace_to_perfetto(r.trace, nprocs)
        Path(f'tests/golden/{name}_perfetto.json').write_text(
            dumps_perfetto(doc))
        Path(f'tests/golden/{name}_trace.jsonl').write_text(
            trace_to_jsonl(r.trace, nprocs))
    EOF
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs import (
    TRACE,
    dumps_perfetto,
    load_trace_jsonl,
    make_scenario,
    perfetto_errors,
    records,
    run_report,
    trace_to_jsonl,
    trace_to_perfetto,
)
from repro.simmpi.trace import TraceKind

GOLDEN = Path(__file__).parent / "golden"


def run_preset(name: str, **kwargs):
    sim, main, nprocs = make_scenario(name, **kwargs)
    result = sim.run(main, on_deadlock="return", raise_app_errors=False)
    return result, nprocs


@pytest.fixture(scope="module")
def fig2():
    return run_preset("fig2")


@pytest.fixture(scope="module")
def fig6():
    return run_preset("fig6")


# ---------------------------------------------------------------------------
# Golden pins
# ---------------------------------------------------------------------------


def test_fig2_perfetto_golden(fig2):
    result, nprocs = fig2
    doc = trace_to_perfetto(result.trace, nprocs)
    assert dumps_perfetto(doc) == (GOLDEN / "fig2_perfetto.json").read_text()


def test_fig6_perfetto_golden(fig6):
    result, nprocs = fig6
    doc = trace_to_perfetto(result.trace, nprocs)
    assert dumps_perfetto(doc) == (GOLDEN / "fig6_perfetto.json").read_text()


def test_fig2_jsonl_golden(fig2):
    result, nprocs = fig2
    assert trace_to_jsonl(result.trace, nprocs) == (
        GOLDEN / "fig2_trace.jsonl"
    ).read_text()


def test_fig6_jsonl_golden(fig6):
    result, nprocs = fig6
    assert trace_to_jsonl(result.trace, nprocs) == (
        GOLDEN / "fig6_trace.jsonl"
    ).read_text()


# ---------------------------------------------------------------------------
# Schema validity: every exported event, every preset
# ---------------------------------------------------------------------------


# ``farm`` is the regression preset for slice durations: its manager
# matches already-arrived results instantly, and the two virtual clocks
# involved (fiber-local vs. arrival) can disagree by one float ULP,
# which used to produce a negative ``dur``.
@pytest.mark.parametrize(
    "preset", ["fig2", "fig6", "fig7", "fig8", "ring", "farm"]
)
def test_perfetto_schema_valid(preset):
    result, nprocs = run_preset(preset)
    doc = trace_to_perfetto(result.trace, nprocs)
    assert perfetto_errors(doc) == []


@pytest.mark.parametrize("preset", ["fig2", "fig6", "fig7", "fig8", "ring"])
def test_jsonl_schema_valid(preset):
    result, nprocs = run_preset(preset)
    assert records.errors(trace_to_jsonl(result.trace, nprocs), TRACE) == []


# ---------------------------------------------------------------------------
# Perfetto semantics: flows and instants
# ---------------------------------------------------------------------------


def _events(doc, ph):
    return [e for e in doc["traceEvents"] if e["ph"] == ph]


def test_every_matched_pair_has_flow(fig6):
    """Every send whose message was delivered and received carries a
    complete flow (start + finish with the same id)."""
    result, nprocs = fig6
    doc = trace_to_perfetto(result.trace, nprocs)
    sent = {ev.detail["msg"]
            for ev in result.trace.filter(kind=TraceKind.SEND_POST)}
    delivered = {ev.detail["msg"]
                 for ev in result.trace.filter(kind=TraceKind.DELIVER)
                 if not ev.detail.get("am")}
    completed = {ev.detail.get("msg")
                 for ev in result.trace.filter(kind=TraceKind.RECV_COMPLETE)}
    matched = sent & delivered & completed
    assert matched, "fig6 must exchange at least one matched message"
    starts = {e["id"] for e in _events(doc, "s")}
    finishes = {e["id"] for e in _events(doc, "f")}
    assert starts == matched
    assert finishes == matched


def test_flow_ids_balanced(fig2):
    """Chrome Trace requires each flow id to open and close exactly once."""
    result, nprocs = fig2
    doc = trace_to_perfetto(result.trace, nprocs)
    starts = sorted(e["id"] for e in _events(doc, "s"))
    finishes = sorted(e["id"] for e in _events(doc, "f"))
    assert starts == finishes
    assert len(starts) == len(set(starts))


def test_every_injected_failure_is_instant(fig6):
    result, nprocs = fig6
    doc = trace_to_perfetto(result.trace, nprocs)
    failures = result.trace.filter(kind=TraceKind.FAILURE)
    assert failures, "fig6 injects a failure"
    instants = [e for e in _events(doc, "i") if e["name"] == "failure"]
    assert {(e["tid"], e["ts"]) for e in instants} == {
        (ev.rank, ev.time * 1e6) for ev in failures
    }
    detect = [e for e in _events(doc, "i") if e["name"] == "detect"]
    assert len(detect) == len(result.trace.filter(kind=TraceKind.DETECT))


def test_one_track_per_rank(fig2):
    result, nprocs = fig2
    doc = trace_to_perfetto(result.trace, nprocs)
    names = {e["args"]["name"]: e["tid"]
             for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {f"rank {r}": r for r in range(nprocs)}


def test_counters_unless_trace_dropped(fig2):
    """Counter tracks are folds from the first row: a capped trace,
    which lost its first rows, gets none."""
    result, nprocs = fig2
    doc = trace_to_perfetto(result.trace, nprocs)
    names = {e["name"] for e in _events(doc, "C")}
    assert names == {"in_flight"} | {
        f"{q}_r{r}" for q in ("posted", "unexpected") for r in range(nprocs)
    }
    capped, nprocs = run_preset("fig2", trace_cap=10)
    assert capped.trace.dropped
    doc = trace_to_perfetto(capped.trace, nprocs)
    assert not _events(doc, "C")
    assert doc["otherData"]["trace_dropped"] == capped.trace.dropped


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["fig2", "fig6", "fig8"])
def test_jsonl_round_trip(preset):
    result, nprocs = run_preset(preset)
    text = trace_to_jsonl(result.trace, nprocs)
    loaded, header = load_trace_jsonl(text)
    assert header["nprocs"] == nprocs
    assert header["events"] == len(result.trace)
    assert loaded.keys() == result.trace.keys()


def test_jsonl_round_trip_survives_file(tmp_path):
    result, nprocs = run_preset("fig6")
    path = tmp_path / "fig6.jsonl"
    path.write_text(trace_to_jsonl(result.trace, nprocs=nprocs))
    loaded, _header = load_trace_jsonl(path)
    assert loaded.keys() == result.trace.keys()


def test_folds_read_a_loaded_trace_by_name():
    """A loaded trace interns shapes of its own (its file holds detail
    names sorted); the counter tracks and the run report find their
    columns through the trace's shape table, so they read it alike."""
    result, nprocs = run_preset("abft")
    loaded, _header = load_trace_jsonl(trace_to_jsonl(result.trace, nprocs))
    assert loaded.shapes != result.trace.shapes
    assert trace_to_perfetto(loaded, nprocs) == trace_to_perfetto(
        result.trace, nprocs
    )
    report = run_report(result, nprocs)
    assert report.consensus
    assert run_report(replace(result, trace=loaded), nprocs) == report


def test_jsonl_errors_flag_corruption(fig2):
    result, nprocs = fig2
    lines = trace_to_jsonl(result.trace, nprocs).splitlines()
    # Drop one event: the declared count no longer matches.
    assert records.errors("\n".join(lines[:-1]) + "\n", TRACE)
    # Break the header format tag.
    bad = "\n".join(['{"format":"bogus/9"}'] + lines[1:]) + "\n"
    assert records.errors(bad, TRACE)
