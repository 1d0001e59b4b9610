"""Tests for the command-line interface and figure generators."""

import argparse
import dataclasses
import inspect
import json

import pytest

from repro.chaos.campaign import ChaosRunConfig
from repro.cli import _config, build_parser, main
from repro.edge.cdn import CdnScenarioConfig
from repro.harness.availability import AvailabilitySimConfig
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import FIGURES, generate_figure
from repro.harness.report import generate_report
from repro.mc import McRunConfig, explore
from repro.tune import TuneConfig


class TestFigureGenerators:
    def test_registry_covers_all_panels(self):
        assert set(FIGURES) == {
            "fig6a", "fig6b", "fig7a", "fig7b",
            "fig8a", "fig8b", "fig9a", "fig9b",
        }

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            generate_figure("fig99")

    def test_analytic_figures_fast_and_shaped(self):
        for name in ("fig8a", "fig8b", "fig9a", "fig9b"):
            x_label, x_values, series = generate_figure(name)
            assert len(x_values) >= 5
            for ys in series.values():
                assert len(ys) == len(x_values)

    def test_simulated_figure_small_scale(self):
        x_label, x_values, series = generate_figure("fig6a", ops=20, seed=1)
        assert x_label == "metric"
        assert set(series) == {
            "dqvl", "majority", "primary_backup", "rowa", "rowa_async",
            "dqvl_tuned",
        }


#: the smallest run of every subcommand that has a float flag
TINY = {
    "availability": [], "cdn": ["--users", "1000", "--horizon-ms", "300"],
    "chaos": ["--ops", "3", "--seeds", "1"], "explore": ["--ops", "3", "--budget", "2"],
    "run": ["--ops", "3"], "sweep": ["--ops", "3"], "trace": ["--ops", "3"],
    "tune": [], "why": ["--ops", "3"],
}


def _subcommands() -> dict:
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


FLOAT_FLAGS = [
    (command, action.option_strings[0])
    for command, parser in sorted(_subcommands().items())
    for action in parser._actions if action.type is float
]

#: the runner config each config-backed command builds, and the config
#: defaults that command overrides on purpose
CONFIGS = {
    "run": (ExperimentConfig, {}),
    "trace": (ExperimentConfig, {"write_ratio": 0.2, "ops_per_client": 60}),
    "why": (ExperimentConfig, {"write_ratio": 0.2, "ops_per_client": 60}),
    "sweep": (ExperimentConfig, {"ops_per_client": 120}),
    "cdn": (CdnScenarioConfig, {"users": 1_000_000}),
    "tune": (TuneConfig, {}),
    "availability": (AvailabilitySimConfig, {"p": 0.15}),
    "chaos": (ChaosRunConfig, {}),
    "explore": (McRunConfig, {}),
}

#: what the flags of a command that state no default of their own set
TARGETS = {
    **{command: [cls] for command, (cls, _) in CONFIGS.items()},
    "explore": [McRunConfig, explore],
    "figure": [generate_figure, FIGURES["fig6a"]],
    "report": [generate_report],
}

#: one run of every flag that writes a file; ``D`` is a directory that
#: does not exist yet
ARTIFACTS = [
    ["why", *TINY["why"], "--json", "D/top.json"],
    ["why", *TINY["why"], "--budget-out", "D/budget.json"],
    ["trace", *TINY["trace"], "--out", "D/trace.json"],
    ["cdn", *TINY["cdn"], "--json-out", "D/cdn.json"],
    ["cdn", *TINY["cdn"], "--budget-out", "D/budget.json"],
    ["tune", "--json-out", "D/frontier.json"],
    ["chaos", *TINY["chaos"], "--trace", "--trace-dir", "D"],
    ["report", "--figures", "fig8a", "--no-charts", "--out", "D/report.md"],
]


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_protocols_command(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "dqvl" in out and "fig6a" in out

    def test_figure_command_table(self, capsys):
        assert main(["figure", "fig9a"]) == 0
        out = capsys.readouterr().out
        assert "write_ratio" in out
        assert "dqvl" in out

    def test_figure_command_json(self, capsys):
        assert main(["figure", "fig8b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig8b"
        assert "dqvl" in payload["series"]

    def test_run_command_json(self, capsys):
        assert main([
            "run", "--protocol", "rowa", "--ops", "20",
            "--write-ratio", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "rowa"
        assert payload["requests"] == 60

    def test_run_command_table(self, capsys):
        assert main(["run", "--protocol", "rowa_async", "--ops", "10"]) == 0
        assert "rowa_async" in capsys.readouterr().out

    def test_run_accepts_a_short_lease(self, capsys):
        """The keeper's margin follows the lease (min(1000, L/2)), so a
        lease under 1 s runs, as it does for ``chaos``."""
        assert main(["run", "--lease-length-ms", "800", "--ops", "10",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["requests"] == 30

    def test_run_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "paxos"])

    def test_explore_drives_a_baseline_protocol(self, capsys):
        assert main([
            "explore", "--protocol", "majority", "--strategy", "dfs",
            "--budget", "5", "--no-shrink",
        ]) == 0
        assert capsys.readouterr().out == "majority: no violation in 5 dfs schedules\n"

    @pytest.mark.parametrize("flags, message", [
        pytest.param(flags, message, id=" ".join(flags)) for flags, message in [
            (["--budget", "0"], "budget must be in [1, inf), got 0"),
            (["--strategy", "dfs", "--max-depth", "-1"], "max_depth must be in [0, inf), got -1"),
            (["--p-deviate", "3"], "p_deviate must be in [0, 1], got 3.0"),
        ]
    ])
    def test_explore_rejects_bad_parameters(self, capsys, flags, message):
        assert main(["explore", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    @pytest.mark.parametrize("command, message", [
        (["availability", "--replicas", "0"], "num_replicas must be in [1, inf), got 0"),
        (["availability", "--epochs", "0"], "epochs must be in [1, inf), got 0"),
        (["sweep", "--localities", "2", "--ops", "5"], "locality must be in [0, 1], got 2.0"),
        (["sweep", "--write-ratios", "1.5", "--ops", "5"],
         "write_ratio must be in [0, 1], got 1.5"),
        (["availability", "--write-ratio", "2"], "write_ratio must be in [0, 1], got 2.0"),
        (["report", "--figures", "fig99"], "unknown figures: ['fig99']"),
        (["run", "--ops", "-5"], "ops_per_client must be in [1, inf), got -5"),
        (["chaos", "--ops", "0"], "ops_per_client must be in [1, inf), got 0"),
        (["explore", "--ops", "0"], "ops_per_client must be in [1, inf), got 0"),
        (["why", "--ops", "3", "--top", "-1"], "top_slow n must be in [0, inf), got -1"),
        (["chaos", "--seeds", "0"], "seeds must be in [1, inf), got 0"),
        (["chaos", "--seeds", "-2"], "seeds must be in [1, inf), got -2"),
        (["run", "--clients", "0"], "num_clients must be in [1, inf), got 0"),
        (["cdn", "--max-inflight", "0"], "fe_max_inflight must be in [1, inf), got 0"),
        (["figure", "fig6a", "--ops", "0"], "ops_per_client must be in [1, inf), got 0"),
        (["run", "--burst", "nan"], "mean_write_burst must be in [1, inf), got nan"),
        (["trace", "--partition", "nan:100"], "fault start must be in [0, inf], got nan"),
        (["why", "--partition", "100:nan"], "fault duration must be in [0, inf], got nan"),
        (["run", "--lease-length-ms", "nan"], "lease_length_ms must be in (0, inf], got nan"),
        (["cdn", "--horizon-ms", "nan"], "horizon_ms must be in (0, inf), got nan"),
        (["cdn", "--rate", "nan"], "ops_per_user_per_s must be in (0, inf), got nan"),
        (["cdn", "--rate", "inf"], "ops_per_user_per_s must be in (0, inf), got inf"),
        (["cdn", "--zipf", "nan"], "zipf_s must be in [0, inf], got nan"),
        (["cdn", "--flash-at-ms", "100", "--flash-peak", "nan"],
         "flash_peak_multiplier must be in [1, inf), got nan"),
        (["cdn", "--diurnal-amplitude", "0.5", "--diurnal-period-ms", "nan"],
         "diurnal_period_ms must be in (0, inf), got nan"),
        (["cdn", "--users", "1000", "--horizon-ms", "300", "--diurnal-amplitude", "nan"],
         "diurnal_amplitude must be in [0, 1], got nan"),
        (["cdn", "--horizon-ms", "inf"], "horizon_ms must be in (0, inf), got inf"),
        (["tune", "--jitter-ms", "nan"], "jitter_ms must be in [0, inf), got nan"),
        (["tune", "--jitter-ms", "-5"], "jitter_ms must be in [0, inf), got -5.0"),
        (["chaos", "--protocols", ","], "--protocols names no protocol"),
        *(pytest.param(command, message, id=" ".join(command)) for command, message in [
            (["figure", "fig8a", "--ops", "5", "--seed", "3"],
             "fig8a is analytic and takes no --ops or --seed"),
            (["figure", "fig9b", "--seed", "3"], "fig9b is analytic and takes no --seed"),
        ]),
    ])
    def test_bad_parameters_exit_2_with_one_line(self, capsys, command, message):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_every_float_flag_refuses_or_runs(self, capsys, command, flag, value):
        """A NaN or infinite value either exits 2 with one line or runs
        to completion: it never hangs, crashes or reports a false verdict."""
        code = main([command, *TINY[command], flag, value])
        captured = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_defaults_live_on_the_configs(self, capsys, command):
        """Every subcommand has help; a bare config-backed command builds
        its config's own defaults, but for the overrides listed in
        ``CONFIGS``."""
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0 and capsys.readouterr().out
        if command in CONFIGS:
            cls, overrides = CONFIGS[command]
            assert all(getattr(cls(), k) != v for k, v in overrides.items())
            args = build_parser().parse_args([command])
            assert _config(cls, args) == cls(**overrides)

    @pytest.mark.parametrize("command", sorted(TARGETS))
    def test_every_flag_without_a_default_names_a_field(self, command):
        names = set().union(*(
            {f.name for f in dataclasses.fields(target)}
            if dataclasses.is_dataclass(target)
            else inspect.signature(target).parameters
            for target in TARGETS[command]
        ))
        dests = {action.dest for action in _subcommands()[command]._actions
                 if action.default is argparse.SUPPRESS}
        assert dests - {"help"} <= names

    @pytest.mark.parametrize("argv", ARTIFACTS, ids=" ".join)
    def test_artifact_flags_create_their_directory(self, tmp_path, argv):
        out = tmp_path / "a" / "b"
        assert main([str(out) + a[1:] if a.startswith("D") else a
                     for a in argv]) == 0
        assert [f for f in out.iterdir() if f.stat().st_size]

    def test_availability_command(self, capsys):
        assert main([
            "availability", "--protocol", "rowa_async",
            "--epochs", "20", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["measured_unavailability"] <= 1.0
        assert payload["requests"] > 0


class TestReport:
    def test_report_analytic_subset(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([
            "report", "--figures", "fig8a", "fig9b",
            "--out", str(out), "--no-charts",
        ]) == 0
        text = out.read_text()
        assert "# Dual-Quorum Replication" in text
        assert "## fig8a" in text and "## fig9b" in text
        assert "## fig6a" not in text

    def test_report_with_charts(self, tmp_path):
        out = tmp_path / "report.md"
        from repro.harness.report import generate_report

        path = generate_report(
            out_path=str(out), figures=["fig9a"], charts=True
        )
        text = open(path).read()
        assert "write_ratio" in text
        assert "o dqvl" in text  # the chart legend

    def test_report_unknown_figure(self):
        from repro.harness.report import generate_report

        with pytest.raises(KeyError):
            generate_report(figures=["fig0x"])


class TestSweep:
    def test_sweep_table(self, capsys):
        assert main([
            "sweep", "--protocol", "rowa", "--write-ratios", "0.0", "0.5",
            "--localities", "1.0", "--ops", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "rowa" in out and "0.5" in out

    def test_sweep_json_grid_shape(self, capsys):
        assert main([
            "sweep", "--protocol", "rowa_async",
            "--write-ratios", "0.0", "0.3",
            "--localities", "0.5", "1.0",
            "--ops", "15", "--json", "--metric", "read",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "read"
        assert len(payload["grid"]) == 2
        assert all(len(v) == 2 for v in payload["grid"].values())

    def test_sweep_msgs_metric(self, capsys):
        assert main([
            "sweep", "--protocol", "majority", "--write-ratios", "0.2",
            "--localities", "1.0", "--ops", "15", "--metric", "msgs",
        ]) == 0
        assert "msgs" in capsys.readouterr().out


class TestTrace:
    def test_p50_p99_in_run_payload(self, capsys):
        assert main([
            "run", "--protocol", "rowa", "--ops", "15", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p50_ms"] <= payload["p95_ms"] <= payload["p99_ms"]

    def test_trace_chrome_to_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--ops", "5", "--clients", "1", "--edges", "3",
            "--export", "chrome", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        err = capsys.readouterr().err
        assert "perfetto" in err

    def test_trace_jsonl_to_stdout(self, capsys):
        assert main([
            "trace", "--ops", "5", "--clients", "1", "--edges", "3",
            "--export", "jsonl", "--span-filter", "op",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "meta"
        assert all(r["category"] in ("op", "qrpc", "lease", "inval")
                   for r in records if r["record"] == "span")

    def test_trace_partition_annotates_faults(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--ops", "5", "--clients", "1", "--edges", "3",
            "--partition", "100:200", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        faults = [e for e in doc["traceEvents"] if e.get("cat") == "fault"]
        assert len(faults) == 1
        assert faults[0]["name"] == "partition"
        assert faults[0]["ts"] == 100_000.0

    def test_trace_rejects_bad_partition_spec(self, capsys):
        assert main(["trace", "--partition", "nope"]) == 2
        assert "START:DUR" in capsys.readouterr().err


class TestWhy:
    def test_why_smoke_with_conservation(self, capsys):
        assert main([
            "why", "--ops", "8", "--clients", "2", "--edges", "3",
            "--check-conservation",
        ]) == 0
        out = capsys.readouterr().out
        assert "conservation check passed" in out
        assert "slowest operations" in out
        assert "latency budget" in out
        assert "quorum_wait" in out or "net_request" in out

    def test_why_writes_json_artifacts(self, tmp_path, capsys):
        top = tmp_path / "top.json"
        budget = tmp_path / "budget.json"
        assert main([
            "why", "--ops", "8", "--clients", "2", "--edges", "3",
            "--json", str(top), "--budget-out", str(budget),
        ]) == 0
        top_doc = json.loads(top.read_text())
        assert top_doc["version"] == 1 and top_doc["ops"]
        budget_doc = json.loads(budget.read_text())
        assert any("total" in phases for phases in budget_doc.values())
        err = capsys.readouterr().err
        assert "top-slow attribution written" in err
        assert "budget table written" in err

    def test_why_rejects_bad_partition_spec(self, capsys):
        assert main(["why", "--partition", "nope"]) == 2
        assert "START:DUR" in capsys.readouterr().err

    def test_an_explicit_default_lease_changes_nothing(self, capsys):
        """10 s is the default lease: naming it must not move the QRPC
        schedule (or anything else) of a partitioned run."""
        flags = ["why", "--partition", "200:3000", "--edges", "5", "--ops", "30"]
        outputs = []
        for extra in ([], ["--lease-length-ms", "10000"]):
            assert main(flags + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

