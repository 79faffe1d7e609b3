"""The command-line interface."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.simmpi import TraceKind


def test_importing_the_cli_does_not_import_numpy():
    """numpy is a third of the start-up of every command and only
    ``repro.apps`` uses it: it imports numpy on first use."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, repro.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "repro.cli.main(['perf', 'heat', '--nprocs', '3'])\n"
        "assert 'numpy' in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )


class TestRingCommand:
    def test_clean_run_exit_zero(self, capsys):
        rc = main(["ring", "--nprocs", "4", "--iters", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ran through" in out
        assert "completions" in out

    def test_kill_probe_injection(self, capsys):
        rc = main([
            "ring", "--nprocs", "5", "--iters", "4",
            "--kill-probe", "2:post_recv:2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed ranks: [2]" in out
        assert "resends: 1" in out

    def test_naive_hang_exit_code(self, capsys):
        rc = main([
            "ring", "--nprocs", "4", "--variant", "naive",
            "--termination", "root_bcast",
            "--kill-probe", "2:post_recv:2",
        ])
        out = capsys.readouterr().out
        assert rc == 2
        assert "HANG" in out
        assert "blocked processes" in out

    def test_kill_time_injection(self, capsys):
        rc = main([
            "ring", "--nprocs", "4", "--iters", "5", "--work", "1e-6",
            "--kill-time", "3:4.2e-6",
        ])
        assert rc == 0
        assert "failed ranks: [3]" in capsys.readouterr().out

    def test_spacetime_output(self, capsys):
        rc = main(["ring", "--nprocs", "3", "--iters", "2", "--spacetime"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time(us)" in out
        assert "send>1" in out

    def test_rootft_with_root_kill(self, capsys):
        rc = main([
            "ring", "--nprocs", "4", "--iters", "4", "--rootft",
            "--kill-probe", "0:root_post_send:2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed ranks: [0]" in out


class TestExploreCommand:
    def test_ft_marker_clean(self, capsys):
        rc = main(["explore", "--nprocs", "4", "--iters", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 hang(s)" in out

    def test_naive_reports_failures(self, capsys):
        rc = main(["explore", "--variant", "naive", "--iters", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "HANG" in out


class TestAppCommands:
    def test_heat(self, capsys):
        rc = main(["heat", "--nprocs", "4", "--steps", "6",
                   "--kill-time", "2:2.5e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total heat" in out

    def test_farm(self, capsys):
        rc = main(["farm", "--nprocs", "4", "--tasks", "8",
                   "--kill-probe", "2:task_begin:2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tasks complete & correct: True" in out

    def test_abft(self, capsys):
        rc = main(["abft", "--kill-probe", "2:computed:2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parity recoveries" in out

    def test_abft_degraded_exit_code(self, capsys):
        rc = main([
            "abft",
            "--kill-probe", "1:computed:2",
            "--kill-probe", "2:computed:2",
        ])
        assert rc == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_variant_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ring", "--variant", "bogus"])

    #: The top-level subcommands, sorted: adding or deleting one is a
    #: visible diff here.
    SUBCOMMANDS = [
        "abft", "cache", "campaign", "compare-protocols", "explore",
        "farm", "fuzz", "heat", "perf", "replay", "report", "ring",
        "spans", "trace", "worker",
    ]

    @staticmethod
    def _subcommands():
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return sub.choices

    def test_subcommands_are_pinned(self):
        assert sorted(self._subcommands()) == self.SUBCOMMANDS

    #: Every option string of each sweep subcommand, in declaration
    #: order: the shared helpers (runner, transport, telemetry, spans,
    #: cache) must neither add nor drop one.
    SWEEP_OPTIONS = {
        "explore": [
            "--nprocs", "--seed", "--detection-latency", "--kill-time",
            "--kill-probe", "--iters", "--variant", "--termination",
            "--rootft", "--pairs", "--limit", "--workers", "--transport",
            "--workers-addr", "--heartbeat-interval", "--connect-timeout",
            "--progress", "--telemetry", "--spans", "--cache", "--no-cache",
            "--cache-dir",
        ],
        "campaign": [
            "--nprocs", "--seed", "--detection-latency", "--kill-time",
            "--kill-probe", "--iters", "--variant", "--termination",
            "--rootft", "--runs", "--first-seed", "--horizon", "--kills",
            "--workers", "--transport", "--workers-addr",
            "--heartbeat-interval", "--connect-timeout", "--telemetry",
            "--spans", "--cache", "--no-cache", "--cache-dir",
        ],
        "fuzz": [
            "--nprocs", "--seed", "--detection-latency", "--scenario",
            "--iters", "--variant", "--termination", "--rootft", "--size",
            "--steps", "--runs", "--max-jitter", "--min-kills",
            "--max-kills", "--horizon", "--workers", "--transport",
            "--workers-addr", "--heartbeat-interval", "--connect-timeout",
            "--no-shrink", "--out-dir", "--verbose", "--telemetry",
            "--spans", "--coverage", "--coverage-uniform", "--coverage-out",
            "--cache", "--no-cache", "--cache-dir",
        ],
        "compare-protocols": [
            "--nprocs", "--iters", "--seed", "--detection-latency",
            "--protocols", "--runs", "--first-seed", "--horizon", "--kills",
            "--spares", "--workers", "--transport", "--workers-addr",
            "--heartbeat-interval", "--connect-timeout", "--cache",
            "--no-cache", "--cache-dir",
        ],
    }

    @pytest.mark.parametrize("command", sorted(SWEEP_OPTIONS))
    def test_sweep_subcommand_options_are_pinned(self, command):
        options = [
            o for a in self._subcommands()[command]._actions
            for o in a.option_strings if o not in ("-h", "--help")
        ]
        assert options == self.SWEEP_OPTIONS[command]


class TestTraceCommand:
    def test_perfetto_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig6.json"
        rc = main(["trace", "fig6", "--format", "perfetto",
                   "-o", str(out_file), "--validate"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "export valid" in err
        import json

        doc = json.loads(out_file.read_text())
        assert doc["otherData"]["producer"] == "repro.obs"
        assert doc["traceEvents"]

    def test_jsonl_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig6.jsonl"
        rc = main(["trace", "fig6", "--format", "jsonl",
                   "-o", str(out_file), "--validate"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "export valid" in err
        from repro.obs import TRACE, load_trace_jsonl, records

        assert records.errors(out_file, TRACE) == []
        trace, header = load_trace_jsonl(out_file)
        assert len(trace) == header["events"] > 0
        assert trace.count(TraceKind.FAILURE) == 1

    def test_perfetto_stdout(self, capsys):
        rc = main(["trace", "fig2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert '"traceEvents"' in out

    def test_jsonl_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "fig2.jsonl"
        rc = main(["trace", "fig2", "--format", "jsonl",
                   "-o", str(out_file), "--validate"])
        assert rc == 0
        from repro.obs import load_trace_jsonl

        trace, header = load_trace_jsonl(out_file)
        assert header["nprocs"] == 4
        assert len(trace) == header["events"]

    def test_spacetime_format(self, capsys):
        rc = main(["trace", "fig6", "--format", "spacetime"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time(us)" in out
        assert "FAILED" in out

    def test_summary_on_stderr(self, capsys):
        rc = main(["trace", "fig6", "--format", "spacetime", "--summary"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "run report: 4 rank(s)" in err

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "bogus"])


class TestReportCommand:
    def _telemetry(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        main(["campaign", "--nprocs", "4", "--iters", "3", "--runs", "6",
              "--telemetry", str(path)])
        return path

    def test_summary(self, capsys, tmp_path):
        path = self._telemetry(tmp_path)
        capsys.readouterr()
        rc = main(["report", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign sweep, 6 job(s)" in out
        assert "job wall time" in out

    def test_canonical_lines_are_sorted_json(self, capsys, tmp_path):
        path = self._telemetry(tmp_path)
        capsys.readouterr()
        rc = main(["report", "--canon", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert all("wall_s" not in ln for ln in lines)

    def test_invalid_file_flagged(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"nope"}\n')
        rc = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "INVALID" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[1,2]\n", 1),
            ('{"format":"repro.telemetry/1","kind":"campaign","runs":0}\n7\n', 2),
        ],
        ids=["header", "body"],
    )
    def test_non_object_line_is_invalid(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        rc = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines()[0] == f"== {bad}: INVALID"
        assert f"line {line}: not a JSON object" in err

    def test_json_format_matches_text_aggregates(self, capsys, tmp_path):
        import json

        path = self._telemetry(tmp_path)
        capsys.readouterr()
        rc = main(["report", "--format", "json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        (line,) = out.splitlines()
        doc = json.loads(line)
        assert doc["format"] == "repro.report/1"
        assert doc["kind"] == "campaign"
        assert doc["runs"] == 6
        assert sum(doc["outcomes"].values()) == 6
        assert set(doc["wall_percentiles"]) == {"p50", "p90", "p99", "max"}
        assert len(doc["slowest"]) == 5
        assert {"index", "wall_s", "outcome"} <= doc["slowest"][0].keys()
        assert doc["cache"]["uncached"] == 6
        # Same aggregates the text mode prints, machine-readable.
        from repro.obs import summarize, summary_dict

        assert doc == json.loads(json.dumps(
            summary_dict(summarize(path, top=5))
        ))


class TestTraceViewFlags:
    def test_ring_failure_story(self, capsys):
        rc = main(["ring", "--nprocs", "4", "--iters", "3",
                   "--kill-probe", "2:post_recv:2", "--failure-story"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAILED" in out
        assert "send>1" not in out  # story view hides normal traffic

    def test_heat_spacetime(self, capsys):
        rc = main(["heat", "--nprocs", "3", "--steps", "3", "--spacetime"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time(us)" in out

    def test_abft_failure_story(self, capsys):
        rc = main(["abft", "--kill-probe", "2:computed:2",
                   "--failure-story"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAILED" in out

    def test_farm_trace_cap(self, capsys):
        rc = main(["farm", "--nprocs", "4", "--tasks", "6",
                   "--trace-cap", "32", "--spacetime"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time(us)" in out
