"""Every sweep prints its pinned report on every runner, cached or not.

``tests/reports.jsonl`` pins, per invocation of :mod:`tests.reports`,
the stdout of the four sweep commands and the canonical telemetry and
span streams of the campaign, as the serial runner printed them at the
commit that wrote the file.  Each cell of the matrix here — serial,
``--workers 2`` and a two-worker loopback fleet, each uncached, cold and
warm — must print the same.  A mismatch names the invocation, the cell
and the first line that differs.
"""

from __future__ import annotations

import pytest

from tests import reports


@pytest.fixture(scope="module")
def pinned() -> dict:
    return reports.load()


@pytest.fixture(scope="module")
def fleet_addrs():
    with reports.fleet() as addrs:
        yield addrs


def first_difference(name: str, pinned: dict, code: int, text: str) -> str | None:
    """Where *text* (printed with exit status *code*) departs from the
    pinned row *name*, or ``None``."""
    row = pinned[name]
    if reports.digest(text) == row["digest"] and code == row.get("exit", 0):
        return None
    if code != row.get("exit", 0):
        return f"exit status {code}, pinned {row['exit']}"
    lines = text.splitlines()
    for i, (old, new) in enumerate(zip(row["lines"], lines)):
        if old != new:
            return f"line {i + 1}:\n  pinned: {old}\n  now:    {new}"
    return (
        f"{len(lines)} lines, pinned {len(row['lines'])}"
        if len(lines) != len(row["lines"])
        else "same lines, different line endings"
    )


def test_the_ledger_pins_every_invocation_and_stream(pinned):
    names = set(reports.INVOCATIONS) | {
        f"{reports.STREAMED}:{stream}:{cache}"
        for stream in ("telemetry", "spans")
        for cache in reports.CACHES
    }
    assert set(pinned) == names


@pytest.mark.parametrize("runner", reports.RUNNERS)
@pytest.mark.parametrize("name", reports.INVOCATIONS)
def test_cell_prints_its_row(name, runner, pinned, fleet_addrs, tmp_path):
    for cache in reports.CACHES:
        texts = reports.cell(name, runner, cache, tmp_path, fleet_addrs)
        for row_name, (code, text) in texts.items():
            moved = first_difference(row_name, pinned, code, text)
            assert moved is None, (
                f"repro {' '.join(reports.INVOCATIONS[name])}\n"
                f"cell {runner}/{cache}, row {row_name}: {moved}"
            )


def test_a_moved_line_is_named():
    pinned = {"x": {"digest": reports.digest("a\nb\n"), "lines": ["a", "b"],
                    "exit": 0}}
    assert first_difference("x", pinned, 0, "a\nb\n") is None
    assert first_difference("x", pinned, 0, "a\nc\n") == (
        "line 2:\n  pinned: b\n  now:    c"
    )
    assert first_difference("x", pinned, 1, "a\nb\n") == (
        "exit status 1, pinned 0"
    )
    assert first_difference("x", pinned, 0, "a\n") == "1 lines, pinned 2"
