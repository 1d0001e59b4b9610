"""Tests for the command-line interface and figure generators."""

import json

import pytest

from repro.cli import build_parser, main
from repro.harness.figures import FIGURES, generate_figure


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
        (["--budget", "0"], "budget must be at least 1"),
        (["--strategy", "dfs", "--max-depth", "-1"], "max_depth must be non-negative"),
        (["--p-deviate", "3"], "p_deviate must be within [0, 1]"),
    ])
    def test_explore_rejects_bad_parameters(self, capsys, flags, message):
        assert main(["explore", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    @pytest.mark.parametrize("command, message", [
        (["availability", "--replicas", "0"], "epochs and num_replicas must be positive"),
        (["availability", "--epochs", "0"], "epochs and num_replicas must be positive"),
        (["sweep", "--localities", "2", "--ops", "5"], "locality must be in [0, 1]"),
        (["sweep", "--write-ratios", "1.5", "--ops", "5"], "write_ratio must be in [0, 1]"),
        (["availability", "--write-ratio", "2"], "write_ratio must be in [0, 1]"),
        (["report", "--figures", "fig99"], "unknown figures: ['fig99']"),
        (["run", "--ops", "-5"], "ops_per_client must be at least 1"),
        (["chaos", "--ops", "0"], "ops_per_client must be at least 1"),
        (["explore", "--ops", "0"], "ops_per_client must be at least 1"),
        (["why", "--ops", "3", "--top", "-1"], "top_slow wants n >= 0, got -1"),
        (["chaos", "--seeds", "0"], "seeds must be at least 1"),
        (["chaos", "--seeds", "-2"], "seeds must be at least 1"),
        (["run", "--clients", "0"], "num_clients must be at least 1"),
        (["cdn", "--max-inflight", "0"], "fe_max_inflight must be at least 1"),
        (["figure", "fig6a", "--ops", "0"], "ops_per_client must be at least 1"),
        (["run", "--burst", "nan"], "mean burst length must be at least 1 and finite"),
        (["trace", "--partition", "nan:100"], "fault start/duration must be non-negative"),
        (["why", "--partition", "100:nan"], "fault start/duration must be non-negative"),
        (["run", "--lease-length-ms", "nan"], "lease_length_ms must be positive"),
        (["cdn", "--horizon-ms", "nan"], "horizon must be positive and finite"),
        (["cdn", "--rate", "nan"], "per-user rate must be positive and finite"),
        (["cdn", "--rate", "inf"], "per-user rate must be positive and finite"),
        (["cdn", "--zipf", "nan"], "zipf exponent must be non-negative"),
        (["cdn", "--flash-at-ms", "100", "--flash-peak", "nan"],
         "peak_multiplier must be >= 1 and finite"),
        (["cdn", "--diurnal-amplitude", "0.5", "--diurnal-period-ms", "nan"],
         "period must be positive and finite"),
        (["cdn", "--users", "1000", "--horizon-ms", "300", "--diurnal-amplitude", "nan"],
         "amplitude must be in [0, 1]"),
        (["cdn", "--horizon-ms", "inf"], "horizon must be positive and finite"),
        (["tune", "--jitter-ms", "nan"], "jitter_ms must be non-negative and finite"),
        (["tune", "--jitter-ms", "-5"], "jitter_ms must be non-negative and finite"),
    ])
    def test_bad_parameters_exit_2_with_one_line(self, capsys, command, message):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

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

