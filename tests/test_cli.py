"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.__main__ import SHARED_FLAGS, build_parser, main

from tests.cluster.test_pinned_deployments import record_multiset_sha


class TestRun:
    def test_run_single_query(self, capsys):
        code = main(
            [
                "run",
                "SELECT AVG(value) FROM stream WINDOW TUMBLING 1s",
                "--events",
                "5000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "window results" in out
        assert "q0[" in out

    def test_run_multiple_queries_share_group(self, capsys):
        code = main(
            [
                "run",
                "SELECT AVG(value) FROM stream WINDOW TUMBLING 1s",
                "SELECT MEDIAN(value) FROM stream WINDOW SESSION GAP 2s",
                "--events",
                "3000",
                "--gap-every",
                "10000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 query-group(s)" in out

    def test_limit_truncates_output(self, capsys):
        main(
            [
                "run",
                "SELECT SUM(value) FROM stream WINDOW TUMBLING 200ms",
                "--events",
                "5000",
                "--limit",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "more" in out


class TestCompare:
    def test_compare_prints_all_systems(self, capsys):
        code = main(
            ["compare", "--queries", "5", "--events", "5000", "--rate", "5000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("Desis", "Scotty", "DeSW", "DeBucket", "CeBuffer"):
            assert name in out

    def test_compare_quantiles_skips_bucketed_at_scale(self, capsys):
        code = main(
            [
                "compare",
                "--queries",
                "300",
                "--events",
                "2000",
                "--workload",
                "quantiles",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-" in out  # skipped systems


class TestCluster:
    def test_cluster_demo(self, capsys):
        code = main(
            ["cluster", "--locals", "2", "--events", "3000", "--rate", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Desis (decentralized)" in out
        assert "Scotty (centralized)" in out


class TestObservabilityFlags:
    def test_run_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "SELECT SUM(value) FROM stream WINDOW TUMBLING 1s",
                "--events", "3000",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "events recorded" in out
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events and {"slice.close", "window.emit"} <= {
            e["kind"] for e in events
        }
        document = json.loads(metrics.read_text())
        names = {m["name"] for m in document["metrics"]}
        assert "engine.calculations" in names

    def test_run_metrics_out_prometheus(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "run",
                "SELECT AVG(value) FROM stream WINDOW TUMBLING 1s",
                "--events", "2000",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE engine_calculations counter" in text
        assert "engine_events 2000" in text

    def test_cluster_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "cluster", "--locals", "2", "--events", "3000",
                "--rate", "3000", "--trace-out", str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "events recorded" in out
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        }
        assert {"partial.ship", "merge.release", "window.emit"} <= kinds


class TestReport:
    def test_report_prints_registry_and_trace(self, capsys):
        code = main(
            ["report", "--locals", "2", "--events", "3000", "--rate", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Desis run report" in out
        assert "engine.calculations" in out
        assert "net.total_bytes" in out
        assert "events recorded" in out

    def test_report_explain_under_faults(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "report", "--locals", "2", "--events", "6000",
                "--rate", "3000", "--drop-rate", "0.02", "--seed", "3",
                "--explain", "--metrics-out", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "last window provenance" in out
        assert "sources: local-0, local-1" in out
        assert "retransmits before emit" in out
        document = json.loads(metrics.read_text())
        assert any(
            m["name"] == "net.retransmits" for m in document["metrics"]
        )

    def test_report_explain_prints_critical_path(self, capsys):
        code = main(
            [
                "report", "--locals", "2", "--events", "4000",
                "--rate", "3000", "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path:" in out
        assert "ms (ingest" in out  # waterfall header
        from repro.obs import STAGES

        assert any(stage in out for stage in STAGES)

    def test_report_explain_lists_the_sheds_of_a_degraded_window(
        self, capsys
    ):
        code = main(
            [
                "report", "--locals", "3", "--events", "3000",
                "--rate", "5000", "--seed", "8",
                "--channel-credit-bytes", "300",
                "--channel-credit-frames", "2", "--staging-limit", "1",
                "--link-latency", "50", "--bandwidth", "0.05", "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DEGRADED: completeness=0.000 (1 shed event(s) intersect)" in out
        assert "t=2610 buffer.shed @ mid-0 [0..1000) 2 record(s)" in out

    def test_report_recovers_from_on_disk_checkpoints(self, capsys, tmp_path):
        """The weekly chaos job's recovery command line at a small size:
        a state-losing intermediate crash healed from ``.ckpt`` files."""
        code = main(
            [
                "report", "--locals", "4", "--events", "13000",
                "--rate", "5000", "--seed", "8", "--drop-rate", "0.02",
                "--crash", "mid-0:1500:2500", "--checkpoint-interval", "400",
                "--checkpoint-dir", str(tmp_path), "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "mid-0.ckpt").exists()
        (recoveries,) = [
            line.split() for line in out.splitlines()
            if line.startswith("cluster.recoveries ")
        ]
        assert recoveries[-1] == "1"
        assert "critical path:" in out
        assert "ms (ingest" in out  # the waterfall header

    #: the CI span-smoke ``report --trace-out`` command lines, each with
    #: the sha256 of the trace file it writes and the sha256 of its
    #: records as a multiset (``record_multiset_sha``)
    CI_TRACES = {
        "drop-rate": (
            ["--locals", "3", "--drop-rate", "0.05", "--explain"],
            "ff49999c56729485ba5429988e6e07eb341592381c6d911d01c426dfe720f96e",
            "d2c66f92ea180f676dc7c38e936dbc71c2dd5770c9c3e01cd207e389d6472f3b",
        ),
        "crash-checkpoint": (
            ["--locals", "4", "--drop-rate", "0.02",
             "--crash", "mid-0:1500:2500", "--checkpoint-interval", "400"],
            "afcae1b529fad0a2cc8ecc5d1eb4d4f8608d5285953b239d5b1cdeb2a1e86933",
            "6ac078dca12c9bb83f9aff3e2868d7f049facaa583e038e085a5e85cb2ba2d4d",
        ),
    }

    def _ci_trace(self, name, capsys, tmp_path) -> bytes:
        flags = self.CI_TRACES[name][0]
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["report", "--events", "4000", "--rate", "5000", "--seed", "8",
             *flags, "--trace-out", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        return trace.read_bytes()

    @pytest.mark.parametrize("name", sorted(CI_TRACES))
    def test_ci_span_smoke_traces_are_pinned(self, name, capsys, tmp_path):
        data = self._ci_trace(name, capsys, tmp_path)
        assert hashlib.sha256(data).hexdigest() == self.CI_TRACES[name][1]

    @pytest.mark.parametrize("name", sorted(CI_TRACES))
    def test_ci_span_smoke_traces_hold_their_records(
        self, name, capsys, tmp_path
    ):
        data = self._ci_trace(name, capsys, tmp_path)
        assert record_multiset_sha(data.decode()) == self.CI_TRACES[name][2]


class TestProfile:
    def test_profile_prints_waterfalls_and_stage_totals(self, capsys):
        code = main(
            ["profile", "--locals", "2", "--events", "5000",
             "--rate", "3000", "--top", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "windows emitted" in out
        assert "explainable from the trace ring" in out
        assert "#1 " in out and "#2 " in out and "#3 " not in out
        assert "stage totals across explainable windows:" in out
        assert "slicing" in out
        assert "%" in out

    def test_profile_artifact_outputs(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "profile", "--locals", "2", "--events", "4000",
                "--rate", "3000", "--drop-rate", "0.02", "--seed", "3",
                "--chrome-out", str(chrome), "--spans-out", str(spans),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]
        lines = spans.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["spans"][0]["name"] == "window"
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "span.windows" in names
        assert "span.stage_ms" in names


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


class TestHelpAndUnknownCommands:
    ALL_COMMANDS = (
        "run", "compare", "cluster", "report", "profile", "conformance"
    )

    def test_help_lists_every_subcommand_with_a_description(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        from repro.__main__ import COMMANDS

        assert set(COMMANDS) == set(self.ALL_COMMANDS)
        flat = " ".join(out.split())  # argparse wraps long help lines
        for name in self.ALL_COMMANDS:
            assert name in flat
            assert COMMANDS[name] in flat

    def test_unknown_command_exits_nonzero_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["conformence"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown command 'conformence'" in err
        assert "did you mean 'conformance'?" in err
        assert "Traceback" not in err

    def test_unknown_command_without_close_match_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown command 'bogus'" in err
        for name in self.ALL_COMMANDS:
            assert name in err


class TestSharedFlags:
    """The parent-parser dedup contract: every verb takes the same set."""

    VERB_STUB = {
        "run": ["SELECT AVG(value) FROM stream WINDOW TUMBLING 1s"],
        "compare": [],
        "cluster": [],
        "report": [],
        "profile": [],
        "conformance": [],
    }

    def _subparser(self, parser, verb):
        actions = [
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices and verb in a.choices
        ]
        assert actions, f"no subparser for {verb}"
        return actions[0].choices[verb]

    @pytest.mark.parametrize("verb", sorted(VERB_STUB))
    def test_every_verb_registers_every_shared_flag(self, verb):
        sub = self._subparser(build_parser(), verb)
        options = {
            opt for action in sub._actions for opt in action.option_strings
        }
        missing = set(SHARED_FLAGS) - options
        assert not missing, f"{verb} is missing shared flags: {missing}"

    @pytest.mark.parametrize("verb", sorted(VERB_STUB))
    def test_every_verb_parses_the_shared_flag_set(self, verb, tmp_path):
        argv = [verb, *self.VERB_STUB[verb],
                "--seed", "5", "--metrics-out", str(tmp_path / "m.json")]
        args = build_parser().parse_args(argv)
        assert args.seed == 5

    def test_shards_is_a_flag_of_the_centralized_engine_verbs_only(self):
        for verb, stub in self.VERB_STUB.items():
            argv = [verb, *stub, "--shards", "2"]
            if verb in ("run", "compare", "conformance"):
                assert build_parser().parse_args(argv).shards == 2
            else:  # the simulated clusters never read it
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)


class TestShardedRun:
    def test_run_with_shards_prints_shard_summary(self, capsys):
        code = main(
            [
                "run",
                "SELECT AVG(value) FROM stream WINDOW TUMBLING 1s",
                "--events", "3000", "--shards", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shards: 2 workers" in out
        assert "per-shard events" in out

    def test_run_rejects_trace_with_shards(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "SELECT AVG(value) FROM stream WINDOW TUMBLING 1s",
                    "--events", "1000", "--shards", "2",
                    "--trace-out", str(tmp_path / "t.jsonl"),
                ]
            )
        assert "--trace" in str(excinfo.value)

    def test_compare_with_shards_adds_sharded_row(self, capsys):
        code = main(
            ["compare", "--queries", "3", "--events", "3000",
             "--rate", "3000", "--shards", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Desis x2" in out

    def test_run_shards_metrics_out_carries_shard_counters(
        self, capsys, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "SELECT SUM(value) FROM stream WINDOW TUMBLING 1s",
                "--events", "2000", "--shards", "2",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "shard.events" in names

    def test_conformance_shards_override_lands_in_report(
        self, capsys, tmp_path
    ):
        out_dir = tmp_path / "conf"
        code = main(
            ["conformance", "--seed", "4", "--runs", "1", "--shards", "2",
             "--out", str(out_dir), "--no-metamorphic"]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ok"] is True
        assert report["overrides"] == {"shards": 2}


class TestConformanceCommand:
    def test_clean_run_prints_summary_and_exits_zero(self, capsys):
        code = main(["conformance", "--seed", "3", "--runs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance: seed=3 runs=2 failed=0" in out
        assert "executors: ok" in out

    def test_out_dir_gets_the_report(self, capsys, tmp_path):
        out_dir = tmp_path / "conf"
        code = main(
            ["conformance", "--seed", "1", "--runs", "1",
             "--out", str(out_dir), "--no-metamorphic"]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ok"] is True
        assert report["seed"] == 1

    def test_metrics_out_carries_conformance_counters(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main(
            ["conformance", "--seed", "2", "--runs", "1",
             "--metrics-out", str(metrics)]
        )
        assert code == 0
        document = json.loads(metrics.read_text())
        names = {m["name"] for m in document["metrics"]}
        assert "conformance.scenarios" in names
        assert "conformance.failures" in names
