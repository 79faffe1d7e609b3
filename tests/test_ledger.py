"""Every job of the ledger keys, runs and stores as recorded.

``tests/ledger.jsonl`` pins, per job of :func:`tests.ledger.jobs`, its
canonical token, its key, a digest of its whole cache payload and its
final virtual time (see :mod:`tests.ledger`).  Both tests recompute every
row, once in this process and once through a two-worker pool, and name
the first row that moved and the field that moved in it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import make_runner
from tests import ledger

ROOT = Path(__file__).resolve().parents[1]


def first_moved(recorded: list[dict], now: list[dict]) -> str | None:
    """The first row whose fields differ, or ``None``."""
    for i, (old, new) in enumerate(zip(recorded, now)):
        for name in ledger.moved_fields(old, new)[:1]:
            return (
                f"ledger row {i} (line {i + 1}): {name} moved\n"
                f"  recorded: {old[name]!r}\n"
                f"  now:      {new[name]!r}\n"
                f"  job: {new['token']}"
            )
    if len(recorded) != len(now):
        return f"{len(recorded)} rows recorded, {len(now)} jobs now"
    return None


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    return ledger.load()


@pytest.fixture(scope="module")
def batch() -> list:
    return ledger.jobs()


def test_the_ledger_covers_every_kind_and_family(recorded, batch):
    assert len(recorded) == len(batch) >= 200
    kinds = {type(job).__name__ for job in batch}
    assert kinds == {"CampaignJob", "WindowJob", "ProtocolCompareJob", "FuzzJob"}
    assert {
        job.protocol for job in batch if type(job).__name__ == "ProtocolCompareJob"
    } == set(ledger.PROTOCOLS)


def test_serial_rows_match(recorded, batch):
    now = ledger.rows(batch, [ledger.PayloadOf(job)() for job in batch])
    moved = first_moved(recorded, now)
    assert moved is None, moved


def test_pooled_rows_match(recorded, batch):
    payloads = make_runner(2).run([ledger.PayloadOf(job) for job in batch])
    moved = first_moved(recorded, ledger.rows(batch, payloads))
    assert moved is None, moved


def test_serial_rows_match_under_another_hash_seed(recorded):
    """No key, payload or final time depends on set or dict order: a
    process with another string-hash seed recomputes the same rows."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests import ledger; "
         "print(json.dumps(ledger.compute()))"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="4242",
                 PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    moved = first_moved(recorded, json.loads(out.stdout.splitlines()[-1]))
    assert moved is None, moved


def test_moved_lists_every_moved_row_and_flags_a_moved_time():
    row = {"token": "t", "key": "k", "payload": "p", "final_time": 1.0}
    lines, times_moved = ledger.moved(
        [row, row, row], [row, dict(row, key="j", payload="q"), row]
    )
    assert lines == [
        "row 1 (line 2): key, payload",
        "1 of 3 rows moved (token 0, key 1, payload 1, final_time 0)",
    ]
    assert not times_moved
    _, times_moved = ledger.moved([row], [dict(row, final_time=2.0)])
    assert times_moved


def test_a_moved_field_is_named():
    row = {"token": "t", "key": "k", "payload": "p", "final_time": 1.0}
    moved = first_moved([row, row], [row, dict(row, payload="q")])
    assert moved.splitlines()[0] == "ledger row 1 (line 2): payload moved"
    assert first_moved([row], [row, row]) == "1 rows recorded, 2 jobs now"
