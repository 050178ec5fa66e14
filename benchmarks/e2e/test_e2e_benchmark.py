"""Self-test of the end-to-end benchmark (``PYTHONPATH=src pytest benchmarks/e2e``).

Outside tier-1's ``testpaths`` on purpose: it runs the benchmark's quick
mode twice (~15 s each), which tier-1 should not pay for.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from compare import compare_files, judge  # noqa: E402
from metrics import COUNTS, E2E, GATED, METRICS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick runs of every workload with the same seed."""
    out = tmp_path_factory.mktemp("e2e")
    files, stdouts = [], []
    for label in ("a", "b"):
        path = str(out / f"{label}.json")
        done = _run("--quick", "--seed", "1", "--out", path)
        assert done.returncode == 0, done.stdout + done.stderr
        files.append(path)
        stdouts.append(done.stdout)
    runs = []
    for path in files:
        with open(path) as handle:
            runs.append(json.load(handle)["runs"][0])
    return {"files": files, "runs": runs, "stdout": stdouts[0]}


def test_benchmark_json_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (n, METRICS[n].unit, METRICS[n].better, METRICS[n].bound) for n in GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, METRICS[n].unit, METRICS[n].better) for n in PER_LAYER
    ]
    assert "setup_s" in GATED and all(0 < METRICS[n].bound <= 0.25 for n in GATED)
    assert len(E2E) == 10 and len(WORKLOADS) == 6


def test_names_and_units_are_well_formed():
    for name, metric in METRICS.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric
        assert metric.better in ("higher", "lower")
    for workload in WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_tumbling_texts_are_the_harness_default_queries():
    from repro.harness import tumbling_queries
    from repro.interface.parser import parse_query

    parsed = [parse_query(text, query_id=f"q{i}")
              for i, text in enumerate(WORKLOADS["tumbling_batched"].texts)]
    assert parsed == tumbling_queries(100)


def test_every_named_metric_is_printed_with_its_unit(quick_runs):
    run = quick_runs["runs"][0]
    assert list(run["workloads"]) == list(WORKLOADS)
    seen: set[str] = set()
    for name, detail in run["workloads"].items():
        metrics = detail["metrics"]
        assert set(GATED) <= set(metrics), name
        assert set(metrics) <= set(METRICS), set(metrics) - set(METRICS)
        assert all(metrics[m] != 0 for m in GATED), name
        assert metrics["failed_share"] == 0 and detail["failed"] == 0
        seen |= set(metrics)
        for metric in metrics:
            line = re.search(rf"^  {re.escape(metric)} +\S+ (\S+)$",
                             quick_runs["stdout"], re.M)
            assert line and line.group(1) == METRICS[metric].unit, metric
    assert seen == set(METRICS), set(METRICS) - seen
    # workload-specific end-to-end metrics are absent elsewhere, never 0
    assert "wire_bytes_per_event" not in run["workloads"]["tumbling_batched"]["metrics"]
    assert "emit_latency_ms_p50" in run["workloads"]["sort_functions"]["metrics"]


def test_deterministic_metrics_repeat_exactly(quick_runs):
    first, second = quick_runs["runs"]
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["stream_digest"] == b["stream_digest"]
        assert a["result_digest"] == b["result_digest"]
        for metric in COUNTS:
            assert a["metrics"].get(metric) == b["metrics"].get(metric), (name, metric)


def test_layer_table_reconciles_with_the_replay_wall(quick_runs):
    for name, detail in quick_runs["runs"][0]["workloads"].items():
        layers = detail["layers"]
        total = sum(seconds for _, seconds, _ in layers["layer_table"])
        assert total == pytest.approx(layers["replay_wall_s"], rel=1e-9), name
        assert sum(s for _, _, s in layers["layer_table"]) == pytest.approx(1.0)
        assert layers["layer_table"][-1][0] == "harness.unattributed"
        assert "harness.trace_overhead_share" in detail["metrics"]
        with open(os.path.join(ROOT, detail["trace_file"])) as handle:
            spans = [json.loads(line) for line in handle]
        assert {"setup", "datagen", "interface.parse"} <= {s["name"] for s in spans}
        assert all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans)


def test_summary_claims_nothing_and_records_predictions(quick_runs):
    summary = json.loads(quick_runs["stdout"].split("== summary\n")[1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert len(summary["predictions"]) == 4
    assert quick_runs["runs"][0]["machine"]["nproc"] == os.cpu_count()


def test_a_different_seed_changes_the_stream():
    digests = []
    for seed in ("1", "2"):
        detail = os.path.join(HERE, "out", f"seedtest-{seed}.json")
        done = _run("--workload", "tumbling_per_event", "--quick", "--seed", seed,
                    "--trace", "0", "--detail", detail)
        assert done.returncode == 0, done.stderr
        with open(detail) as handle:
            digests.append(json.load(handle)["stream_digest"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("trace, names", [("0", GATED), ("1", PER_LAYER)])
def test_driver_line(trace, names):
    done = _run("--workload", "cluster_three_tier", "--quick", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(names)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == METRICS[name].unit


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "tumbling_batched", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_judge_applies_the_bounds():
    bound = METRICS["events_per_s"].bound
    assert judge("events_per_s", 100.0, 95.0, 0.02)[0] == "ok"
    assert judge("events_per_s", 100.0, 80.0, 0.02)[0] == "regressed"
    assert judge("events_per_s", 100.0, 80.0, bound + 0.01)[0] == "unresolved"
    assert judge("peak_rss_mb", 100.0, 120.0, 0.0)[0] == "regressed"
    # paired: the median per-seed ratio decides, not the two medians
    assert judge("emit_latency_ms_p50", 20.0, 26.0, 0.05, ratio=1.03)[0] == "ok"
    assert judge("emit_latency_ms_p50", 20.0, 20.0, 0.05, ratio=1.30)[0] == "regressed"
    # deterministic metrics: exact
    assert judge("wire_bytes_per_event", 22.6, 22.6, 0.0)[0] == "ok"
    assert judge("wire_bytes_per_event", 22.6, 22.7, 0.0)[0] == "regressed"
    assert judge("failed_share", 0.0, 0.0, 0.0)[0] == "ok"
    assert judge("failed_share", 0.0, 0.01, 0.0)[0] == "regressed"
    # setup_s: 25 % or 0.05 s, whichever is larger
    assert judge("setup_s", 0.10, 0.14, 0.0)[0] == "ok"
    assert judge("setup_s", 0.40, 0.52, 0.0)[0] == "regressed"


def _result_file(path, throughputs, wire=22.6):
    """A result file of one workload with one run per throughput."""
    runs = [
        {"seed": seed, "quick": False, "workloads": {"cluster_three_tier": {
            "metrics": {"events_per_s": value, "wire_bytes_per_event": wire,
                        "cluster.root.merge_ops": 7}}}}
        for seed, value in enumerate(throughputs)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_prints_ok_regressed_and_unresolved(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _result_file(tmp_path / "a.json", steady)
    assert compare_files(base, base) == 0
    assert re.search(r"events_per_s .* ok$", capsys.readouterr().out, re.M)

    slower = _result_file(tmp_path / "b.json", [v * 0.8 for v in steady])
    assert compare_files(base, slower) == 1
    assert re.search(r"events_per_s .* regressed$", capsys.readouterr().out, re.M)

    # a seed-dependent metric is not noise when the seeds pair up ...
    seeded = [100.0, 130.0, 80.0, 120.0, 70.0]
    by_seed = _result_file(tmp_path / "s.json", seeded)
    same = _result_file(tmp_path / "t.json", [v * 0.97 for v in seeded])
    assert compare_files(by_seed, same) == 0
    assert re.search(r"events_per_s .* ok$", capsys.readouterr().out, re.M)
    # ... but is when they do not
    noisy = _result_file(tmp_path / "c.json", seeded[::-1])
    assert compare_files(base, noisy) == 1
    assert re.search(r"events_per_s .* unresolved$", capsys.readouterr().out, re.M)

    chatty = _result_file(tmp_path / "d.json", steady, wire=22.7)
    assert compare_files(base, chatty) == 1
    out = capsys.readouterr().out
    assert re.search(r"wire_bytes_per_event .* regressed$", out, re.M)
    assert "changed (seed 0)" in out
