"""Schema-and-checks smoke of the benchmark: ``pytest perfbench -q``.

Not part of tier-1 (``testpaths`` is ``tests`` and ``benchmarks``).  Runs
the real commands with ``--quick`` — small sizes, one repeat — so it says
nothing about speed; it pins that every workload passes its own checks,
that the output matches ``BENCHMARK.json``, and that the comparer judges.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=170,
    )


def last_line(proc: subprocess.CompletedProcess[str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_pass_checks_every_workload(tmp_path):
    out = tmp_path / "quick.json"
    verdict = last_line(run("perfbench/run.py", "--quick", "--out", str(out)))
    assert verdict["correct"] and verdict["failed"] == 0
    assert verdict["attempted"] >= len(SPEC["workloads"])
    document = json.loads(out.read_text())
    assert document["fingerprint"]["quick"] and not document["traced"]
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for name, result in document["workloads"].items():
        assert set(result["metrics"]) == declared, name
        assert all(v for v in result["metrics"].values()), (name, result["metrics"])
        assert result["metrics"]["ok_share"] == 1.0
    # The sweeps share one campaign, hence one reference report per size.
    digests = {n: r["digest"] for n, r in document["workloads"].items()}
    assert digests["campaign_pool"] == digests["campaign_remote"]
    assert digests["cache_cold"] == digests["cache_warm"]
    # compare.py refuses a quick document instead of judging noise.
    refused = run("perfbench/compare.py", str(out), str(out))
    assert refused.returncode != 0 and "quick" in refused.stderr


def test_one_workload_prints_the_contract_result_line():
    verdict = last_line(run(
        "perfbench/run.py", "--workload", "ring_p2p_n256", "--seed", "2",
        "--seconds", "0", "--trace", "0", "--quick",
    ))
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in verdict["metrics"].items()} == units


def test_traced_pass_yields_every_per_layer_metric():
    verdict = last_line(run(
        "perfbench/run.py", "--workload", "cache_cold", "--trace", "1", "--quick",
    ))
    assert verdict["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in verdict["metrics"].items()} == units
    missing = [k for k, v in verdict["metrics"].items() if v["value"] is None]
    assert not missing, missing


def test_compare_applies_the_bounds(tmp_path):
    def document(wall: float, messages: int) -> dict:
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics.update(wall_s=wall, sim_messages=messages)
        return {
            "schema": "perfbench/1", "traced": False,
            "fingerprint": {"commit": "x", "seed": 1, "python": "3", "nproc": 2,
                            "cpu_model": "m", "quick": False},
            "workloads": {"cache_cold": {"correct": True, "attempted": 1,
                                         "failed": 0, "metrics": metrics}},
        }

    def compare(a: dict, b: dict) -> subprocess.CompletedProcess[str]:
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        return run("perfbench/compare.py", str(tmp_path / "a.json"),
                   str(tmp_path / "b.json"))

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    within = compare(document(1.00, 100), document(1.00 + 0.5 * bound, 100))
    assert within.returncode == 0 and within.stdout.strip().endswith("\n0 worse")
    slower = compare(document(1.00, 100), document(1.00 + 1.5 * bound, 100))
    assert slower.returncode == 1 and " worse " in slower.stdout
    chattier = compare(document(1.00, 100), document(1.00, 101))
    assert chattier.returncode == 1, "exact metrics must compare exactly"
    quieter = compare(document(1.00, 100), document(1.00, 99))
    assert quieter.returncode == 0 and " better " in quieter.stdout
