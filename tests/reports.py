"""The report ledger: what every sweep prints, pinned against the commit
that wrote it.

:data:`INVOCATIONS` is a fixed set of ``repro`` command lines, one per
sweep (``explore``, ``campaign``, ``compare-protocols`` and ``fuzz``).
The campaign's also writes its ``--telemetry`` and ``--spans`` streams,
whose canonical views (``repro report --canon``, ``repro spans
--canon``) are pinned beside its stdout.  Each line of
``tests/reports.jsonl`` is one pinned text:

* ``name`` — the invocation, and for a stream which one
  (``campaign:telemetry``) and in which cache state (``uncached``,
  ``cold``, ``warm``: a warm sweep's stream says ``hit`` where a cold
  one says ``miss``);
* ``digest`` — blake2b-128 of the text;
* ``lines`` — the text itself, so a mismatch names the first line that
  differs;
* ``exit`` — for stdout, the command's exit status.

``tests/test_reports.py`` runs every invocation serial, with
``--workers 2`` and through a loopback fleet of two in-process workers,
each uncached, cold and warm, and every cell must print its row.
Rewrite the file only for a deliberate change to what a sweep prints::

    PYTHONPATH=src python -m tests.reports
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.cli import main
from repro.parallel.remote import WorkerServer

REPORTS = Path(__file__).with_name("reports.jsonl")

#: name -> ``repro`` arguments.  Small enough that the whole matrix runs
#: in a few seconds; rich enough that every report has failures to list.
INVOCATIONS: dict[str, list[str]] = {
    "explore": [
        "explore", "--variant", "naive", "--termination", "root_bcast",
        "--nprocs", "4", "--iters", "3", "--pairs", "--limit", "8",
    ],
    "campaign": [
        "campaign", "--variant", "naive", "--termination", "root_bcast",
        "--nprocs", "4", "--iters", "3", "--runs", "12", "--horizon", "8e-6",
        "--kills", "2",
    ],
    "compare-protocols": [
        "compare-protocols", "--nprocs", "5", "--iters", "3", "--runs", "6",
        "--horizon", "1e-5", "--kills", "3",
    ],
    "fuzz": [
        "fuzz", "--nprocs", "4", "--iters", "3", "--runs", "12", "--seed", "3",
        "--variant", "ft_no_marker", "--min-kills", "1", "--no-shrink",
        "--verbose",
    ],
}

#: The invocation whose telemetry and span streams are pinned too.
STREAMED = "campaign"

RUNNERS = ("serial", "workers", "fleet")
CACHES = ("uncached", "cold", "warm")


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    """``repro`` *argv* in this process: its exit status and stdout
    (stderr dropped)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code or 0, out.getvalue()


@contextlib.contextmanager
def fleet() -> Iterator[str]:
    """Two loopback sweep workers served from threads of this process;
    yields their ``--workers-addr`` value."""
    servers = [WorkerServer(("127.0.0.1", 0)) for _ in range(2)]
    threads = [
        threading.Thread(
            target=s.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        for s in servers
    ]
    for t in threads:
        t.start()
    try:
        yield ",".join(f"{h}:{p}" for h, p in (s.address for s in servers))
    finally:
        for s in servers:
            s.shutdown()
            s.server_close()
        for t in threads:
            t.join(timeout=5)


def runner_args(runner: str, addrs: str | None) -> list[str]:
    if runner == "workers":
        return ["--workers", "2"]
    if runner == "fleet":
        return ["--transport", "remote", "--workers-addr", addrs or ""]
    return []


def cell(
    name: str, runner: str, cache: str, tmp: Path, addrs: str | None = None
) -> dict[str, tuple[int, str]]:
    """Run invocation *name* on *runner* in cache state *cache*: the
    exit status and text of each row it prints, by row name.  ``cold``
    and ``warm`` share the store ``tmp/<name>-<runner>``, so run
    ``cold`` first."""
    argv = [*INVOCATIONS[name], *runner_args(runner, addrs)]
    if cache != "uncached":
        argv += ["--cache", "--cache-dir", str(tmp / f"{name}-{runner}")]
    texts: dict[str, tuple[int, str]] = {}
    if name == STREAMED:
        tel = tmp / f"{name}-{runner}-{cache}.tel.jsonl"
        spans = tmp / f"{name}-{runner}-{cache}.spans.jsonl"
        argv += ["--telemetry", str(tel), "--spans", str(spans)]
    texts[name] = run(argv)
    if name == STREAMED:
        texts[f"{name}:telemetry:{cache}"] = run(["report", "--canon", str(tel)])
        texts[f"{name}:spans:{cache}"] = run(["spans", "--canon", str(spans)])
    return texts


def row(name: str, code: int, text: str) -> dict[str, Any]:
    """The ledger row of one pinned text."""
    out: dict[str, Any] = {"name": name, "digest": digest(text)}
    if name in INVOCATIONS:
        out["exit"] = code
    out["lines"] = text.splitlines()
    return out


def serial_texts(tmp: Path) -> dict[str, tuple[int, str]]:
    """Every pinned text, from the serial cells."""
    texts: dict[str, tuple[int, str]] = {}
    for name in INVOCATIONS:
        for cache in CACHES:
            texts.update(cell(name, "serial", cache, tmp))
    return texts


def load(path: Path = REPORTS) -> dict[str, dict[str, Any]]:
    return {
        pinned["name"]: pinned
        for pinned in map(json.loads, path.read_text().splitlines())
    }


def write(path: Path = REPORTS) -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = [
            row(name, code, text)
            for name, (code, text) in serial_texts(Path(tmp)).items()
        ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return len(lines)


if __name__ == "__main__":
    print(f"{write()} rows written to {REPORTS}")
