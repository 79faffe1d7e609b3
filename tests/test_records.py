"""The shared record envelope: every malformed input is reported, never
raised, under each of the three stream schemas, and the CLI says
INVALID instead of dying on a file it cannot read."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import SPANS, TELEMETRY, TRACE, records

#: One valid body line per schema, with the header fields it needs.
VALID = {
    "trace": (TRACE, {"nprocs": 1, "cap": None, "dropped": 0},
              {"t": 0.0, "kind": "user", "rank": 0, "detail": {}}),
    "telemetry": (TELEMETRY, {"kind": "campaign", "workers": None},
                  {"kind": "job", "index": 0, "outcome": "ok",
                   "cache": None, "t_start": 0.0, "t_end": 1.0,
                   "wall_s": 1.0, "worker": 1, "retries": 0}),
    "spans": (SPANS, {"kind": "campaign"},
              {"id": 1, "parent": None, "name": "job", "cat": "job",
               "t": 0.0, "dur": 0.0, "track": "sweep",
               "attrs": {"index": 0, "outcome": "ok"}}),
}


def _stream(name, count=1, fmt=None):
    schema, fields, body = VALID[name]
    header = {"format": fmt or schema.format, schema.count_key: count,
              **fields}
    return records.dumps([header, body])


BAD_INPUTS = {
    "missing": lambda name, tmp: tmp / "missing.jsonl",
    "directory": lambda name, tmp: tmp,
    "empty": lambda name, tmp: _write(tmp, ""),
    "not_json": lambda name, tmp: _write(tmp, _stream(name) + "{oops\n"),
    "not_object": lambda name, tmp: _write(tmp, _stream(name) + "[1]\n"),
    "foreign_format": lambda name, tmp: _write(
        tmp, _stream(name, fmt="repro.other/1")),
    "count_off_by_one": lambda name, tmp: _write(tmp, _stream(name, count=2)),
}


def _write(tmp, text):
    path = tmp / "stream.jsonl"
    path.write_text(text)
    return path


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_stream_has_no_errors(name, tmp_path):
    schema = VALID[name][0]
    assert records.errors(_write(tmp_path, _stream(name)), schema) == []


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("name", sorted(VALID))
def test_errors_reports_bad_input_without_raising(name, bad, tmp_path):
    source = BAD_INPUTS[bad](name, tmp_path)
    problems = records.errors(source, VALID[name][0])
    assert problems and all(isinstance(p, str) for p in problems)


@pytest.mark.parametrize("name", sorted(VALID))
def test_read_names_the_bad_line(name):
    with pytest.raises(ValueError, match="line 3: not a JSON object"):
        records.read(_stream(name) + "7\n", VALID[name][0])


def test_trace_has_no_canonical_view():
    with pytest.raises(ValueError, match="no canonical view"):
        records.canon(_stream("trace"), TRACE)


@pytest.mark.parametrize("command", ["report", "spans"])
def test_cli_missing_file_is_invalid_not_a_traceback(command, tmp_path,
                                                      capsys):
    missing = tmp_path / "missing.jsonl"
    assert main([command, str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"== {missing}: INVALID"
    assert "unreadable" in err
