"""A/B comparer: ``python3 perfbench/compare.py A.json B.json``.

A and B are ``--out`` documents of untraced ``run.py`` passes; A is the
base.  Every (metric, workload) pair is judged with the bounds fixed in
``BENCHMARK.json``:

* exact metrics (``EXACT``) must be identical when both sides used the
  same ``--seed`` — they are counts of a deterministic simulation, so any
  difference is a behaviour change, better or worse by its direction;
* everything else is ``worse`` when B is worse than A by more than the
  metric's bound (a share of A's value), ``better`` when it is better by
  more than the bound, else ``same``.

One row per pair, with both values and the ratio B/A.  Exit status 1 if
any pair is ``worse`` (or a side failed its own checks), else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent

#: Compared exactly between runs of one seed; their BENCHMARK.json bound
#: only covers the spread across seeds.
EXACT = frozenset({"sim_messages", "sim_time_us", "ok_share"})


def verdict(metric: dict[str, Any], a: float, b: float, exact: bool) -> str:
    if a == b:
        return "same"
    b_is_better = (b < a) == (metric["better"] == "lower")
    if not exact and abs(b - a) <= metric["bound"] * abs(a):
        return "same"
    return "better" if b_is_better else "worse"


def load(path: str) -> dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "perfbench/1" or doc.get("traced"):
        raise SystemExit(f"{path}: not an untraced perfbench/1 document")
    if doc["fingerprint"]["quick"]:
        raise SystemExit(f"{path}: a --quick run measures nothing")
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = load(argv[0]), load(argv[1])
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    same_seed = a_doc["fingerprint"]["seed"] == b_doc["fingerprint"]["seed"]
    for side, doc in (("A", a_doc), ("B", b_doc)):
        f = doc["fingerprint"]
        print(f"{side}: commit {f['commit']} seed {f['seed']} python {f['python']} "
              f"nproc {f['nproc']} {f['cpu_model']}")
    if not same_seed:
        print("seeds differ: exact metrics are judged by their bound")

    worse = 0
    print(f"{'workload':<20}{'metric':<14}{'verdict':<8}"
          f"{'A (base)':>14}{'B':>14}{'B/A':>9}")
    for name in sorted(set(a_doc["workloads"]) & set(b_doc["workloads"])):
        a_run, b_run = a_doc["workloads"][name], b_doc["workloads"][name]
        for side, run in (("A", a_run), ("B", b_run)):
            if not run["correct"]:
                print(f"{name:<20}{side} failed its checks "
                      f"({run['failed']} of {run['attempted']})")
                worse += 1
        for metric in metrics:
            a = a_run["metrics"][metric["name"]]
            b = b_run["metrics"][metric["name"]]
            exact = same_seed and metric["name"] in EXACT
            word = verdict(metric, a, b, exact)
            worse += word == "worse"
            print(f"{name:<20}{metric['name']:<14}{word:<8}"
                  f"{a:>14.6g}{b:>14.6g}{b / a:>9.3f}")
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
