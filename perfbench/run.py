"""perfbench — the repository's end-to-end benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1 | --layers] [--out FILE] [--quick]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs.  The
default pass (``--trace 0``) has all tracing off, checks every output and
prints every end-to-end metric by name with its unit; ``--layers``
(``--trace 1``) is the separate traced pass that yields the per-layer
metrics.  Each measurement runs in a fresh child process (``child.py``);
the untraced pass makes ``ROUNDS`` rounds and interleaves the workloads
round-robin inside each, so a noisy minute is spread over all of them.

With ``--workload`` the last line of standard output is the result object
of the benchmark contract: ``correct``, ``attempted``, ``failed``,
``metrics``.  Results go to standard output and ``--out`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import host
from spans import self_times

HERE = Path(__file__).resolve().parent
REPO = host.REPO

#: Fresh children per workload in the untraced pass; ``setup_s`` is their
#: median set-up, ``wall_s`` the median repeat over all of them, both
#: host-calibrated.
ROUNDS = 3
CHILD_TIMEOUT_S = 150


def load_spec() -> dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


class Children:
    """Starts ``child.py`` processes with a scratch ``TMPDIR`` inside the
    checkout, and removes that directory when the run ends."""

    def __init__(self) -> None:
        self.base = REPO / ".perfbench_tmp"
        self.tmp = self.base / f"run-{os.getpid()}"

    def __enter__(self) -> "Children":
        self.tmp.mkdir(parents=True)
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run is using it

    def run(self, **spec: Any) -> dict[str, Any]:
        spec["spawned_at"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=REPO,
            env=dict(os.environ, TMPDIR=str(self.tmp)),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            # The child leads its own session: this reaches its pool and
            # fleet workers too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        if proc.returncode != 0:
            raise SystemExit(
                f"perfbench: {spec['mode']} child for "
                f"{spec.get('workload', 'the probe suite')} exited {proc.returncode}"
            )
        return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The untraced pass: end-to-end metrics
# ----------------------------------------------------------------------


def untraced_pass(
    children: Children, names: list[str], seed: int, seconds: float, quick: bool
) -> dict[str, dict[str, Any]]:
    rounds = 1 if quick else ROUNDS
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for _ in range(rounds):
        for name in names:
            done = results[name]
            done.append(
                children.run(
                    mode="time", workload=name, seed=seed, quick=quick,
                    seconds=seconds / rounds,
                    expect=done[0]["expect"] if done else None,
                )
            )
    return {name: summarize(results[name]) for name in names}


def summarize(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold one workload's rounds into its end-to-end metrics."""
    first = rounds[0]
    walls = [w for r in rounds for w in r["walls"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = statistics.median(
        host.calibrated(w, s)
        for r in rounds for w, s in zip(r["walls"], r["slices"])
    )
    q1, median, q3 = host.quartiles(walls)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "digest": first["expect"]["digest"],
        "inputs": first["inputs"],
        "fibers": first["fibers"],
        "affinity": first["affinity"],
        "metrics": {
            "wall_s": wall,
            "sims_per_s": first["sims"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(
                host.calibrated(r["setup_s"], r["setup_slices"]) for r in rounds
            ),
            "ok_share": 1.0 - failed / attempted,
            "sim_messages": first["expect"]["sim_messages"],
            "sim_time_us": first["expect"]["sim_time_us"],
        },
        "host": {
            "host.calib_ms": min(
                x for r in rounds for s in r["slices"] for x in s
            ) * 1e3,
            "host.wall_best_s": min(walls),
            "host.wall_median_s": median,
            "host.wall_iqr_s": q3 - q1,
            "host.repeats": len(walls),
        },
    }


# ----------------------------------------------------------------------
# The traced pass: per-layer metrics
# ----------------------------------------------------------------------


def traced_pass(
    children: Children, names: list[str], seed: int, quick: bool
) -> tuple[dict[str, dict[str, Any]], list[dict[str, Any]]]:
    suite = children.run(mode="probes", seed=seed, quick=quick)
    spans = suite["spans"]
    out = {}
    for name in names:
        own = children.run(mode="trace", workload=name, seed=seed, quick=quick)
        spans += own["spans"]
        out[name] = {
            "correct": own["failed"] == 0,
            "attempted": own["attempted"],
            "failed": own["failed"],
            "metrics": {**suite["metrics"], **own["metrics"]},
            "reasons": {**suite["reasons"], **own["reasons"]},
        }
    return out, spans


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(
    title: str, results: dict[str, dict[str, Any]], units: dict[str, str],
    section: str = "metrics",
) -> None:
    names = list(results)
    rows = [
        [metric, units.get(metric, "")]
        + [fmt(results[name][section].get(metric)) for name in names]
        for metric in next(iter(results.values()))[section]
    ]
    header = ["metric", "unit"] + names
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    print(f"\n== {title}")
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main() -> int:
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=declared)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload (untraced pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="schema-and-checks smoke: small sizes, one repeat")
    args = parser.parse_args()
    if not (REPO / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {REPO / 'src'}", file=sys.stderr)
        return 2

    traced = bool(args.trace or args.layers)
    names = [args.workload] if args.workload else declared
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    document: dict[str, Any] = {
        "schema": "perfbench/1",
        "fingerprint": host.fingerprint(args.seed, args.quick),
        "traced": traced,
    }
    with Children() as children:
        if traced:
            results, spans = traced_pass(children, names, args.seed, args.quick)
            document["spans"] = spans
        else:
            results = untraced_pass(
                children, names, args.seed,
                0.0 if args.quick else args.seconds, args.quick,
            )
    document["workloads"] = results

    for name, result in results.items():
        if set(result["metrics"]) != set(units):
            odd = sorted(set(result["metrics"]) ^ set(units))
            raise SystemExit(f"perfbench: {name} and BENCHMARK.json disagree on {odd}")
    print_table(f"{kind} (seed {args.seed})", results, units)
    if traced:
        print("\n== self seconds per span of the benchmark's recorder")
        for span, secs in sorted(self_times(spans).items(), key=lambda kv: -kv[1]):
            print(f"{span:<36} {secs:.4f}")
        reasons = {m: why for r in results.values() for m, why in r["reasons"].items()}
        for metric, reason in reasons.items():
            print(f"null: {metric}: {reason}")
    else:
        host_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_table("host (ungated)", results, host_units, section="host")
        print()
        for name, result in results.items():
            print(f"{name}: digest {result['digest']} fibers {result['fibers']} "
                  f"cpus {result['affinity']} inputs {json.dumps(result['inputs'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    def boxed(result: dict[str, Any]) -> dict[str, Any]:
        return {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["metrics"].items()
        }

    # The exit code says a result was produced; `correct` is the verdict.
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": boxed(results[args.workload]) if args.workload
        else {name: boxed(result) for name, result in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
