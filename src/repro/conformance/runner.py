"""The conformance run loop: generate, execute, compare, shrink, report.

:func:`run_conformance` drives ``--runs`` seeded scenarios through the
full executor matrix and checker stack, shrinks every failure to a minimal
repro, and produces a **deterministic** report: same seed, same code, same
report bytes (no wall-clock, no unseeded randomness — the property tier-1
asserts).  Failures additionally write a standalone repro script and the
minimized scenario JSON next to the report (``--out``).

Per-run counters are published into a
:class:`~repro.obs.registry.MetricsRegistry` under stable names::

    conformance.scenarios      scenarios evaluated
    conformance.executions     executor configurations run
    conformance.comparisons    row-set comparisons performed
    conformance.failures       scenarios with at least one mismatch
    conformance.mismatches     individual mismatch lines
    conformance.shrink_runs    predicate evaluations spent shrinking
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Any

from repro.obs import MetricsRegistry, publish_conformance_counters
from repro.obs.log import get_logger
from repro.conformance.check import evaluate_scenario
from repro.conformance.executors import ExecutionResult, executor_matrix
from repro.conformance.scenario import Scenario, ScenarioGenerator
from repro.conformance.shrink import shrink_scenario, write_repro_script

_log = get_logger(__name__)

__all__ = [
    "run_scenario",
    "run_conformance",
    "publish_conformance_counters",
    "render_conformance_summary",
]


def _rows_digest(execution: ExecutionResult) -> str:
    payload = repr(execution.rows).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def run_scenario(scenario: Scenario, *, metamorphic: bool = True) -> dict[str, Any]:
    """Evaluate one scenario; return its JSON-able verdict."""
    failures, executions = evaluate_scenario(scenario, metamorphic=metamorphic)
    return {
        "name": scenario.name,
        "digest": scenario.digest,
        "total_events": scenario.total_events,
        "queries": len(scenario.queries),
        "executors": {
            name: {"rows": len(execution.rows),
                   "rows_digest": _rows_digest(execution)}
            for name, execution in sorted(executions.items())
        },
        "failures": failures,
        "ok": not failures,
    }


def run_conformance(
    seed: int = 0,
    runs: int = 10,
    *,
    out: str | None = None,
    shrink: bool = True,
    metamorphic: bool = True,
    max_events_per_node: int = 160,
    registry: MetricsRegistry | None = None,
    overrides: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run the differential-fuzzing campaign; return the full report.

    ``overrides`` pins scenario knobs across the whole campaign — e.g.
    ``{"max_lateness": 0, "shards": 4}`` replays every generated scenario
    under those settings instead of the generator's own draws
    (``repro conformance --shards 4`` uses this).  Keys must be
    :class:`~repro.conformance.scenario.Scenario` field names; any other
    is a ``ValueError`` before the first scenario runs.
    """
    if overrides:
        Scenario.check_keys(overrides)
    registry = registry if registry is not None else MetricsRegistry()
    generator = ScenarioGenerator(seed, max_events_per_node=max_events_per_node)
    verdicts: list[dict[str, Any]] = []
    repro_paths: list[str] = []
    shrink_runs = 0
    for index in range(runs):
        scenario = generator.generate(index)
        if overrides:
            scenario = replace(scenario, **overrides)
        verdict = run_scenario(scenario, metamorphic=metamorphic)
        if not verdict["ok"] and shrink:
            try:
                shrunk = shrink_scenario(scenario)
                shrink_runs += shrunk.predicate_runs
                verdict["shrunk"] = {
                    "events_before": shrunk.events_before,
                    "events_after": shrunk.events_after,
                    "queries_before": shrunk.queries_before,
                    "queries_after": shrunk.queries_after,
                    "predicate_runs": shrunk.predicate_runs,
                    "digest": shrunk.scenario.digest,
                    "failures": shrunk.failures,
                }
                if out is not None:
                    os.makedirs(out, exist_ok=True)
                    stem = f"repro-{scenario.digest}"
                    script = write_repro_script(
                        shrunk, os.path.join(out, f"{stem}.py")
                    )
                    with open(os.path.join(out, f"{stem}.json"), "w",
                              encoding="utf-8") as handle:
                        handle.write(shrunk.scenario.to_json())
                    repro_paths.append(script)
            except ValueError:
                # A metamorphic-only failure the differential predicate
                # cannot see; report it unshrunk.
                verdict["shrunk"] = None
        verdicts.append(verdict)
        _log.info(
            "conformance scenario %s: %s",
            scenario.name,
            "ok" if verdict["ok"] else f"{len(verdict['failures'])} failure(s)",
        )
    failures = [v for v in verdicts if not v["ok"]]
    report = {
        "seed": seed,
        "runs": runs,
        "metamorphic": metamorphic,
        **({"overrides": dict(overrides)} if overrides else {}),
        "scenarios": verdicts,
        "failed": len(failures),
        "repro_scripts": [os.path.basename(p) for p in repro_paths],
        "ok": not failures,
    }
    publish_conformance_counters(registry, report, shrink_runs=shrink_runs)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def render_conformance_summary(report: dict[str, Any]) -> str:
    """A short human-readable summary of one report."""
    lines = [
        f"conformance: seed={report['seed']} runs={report['runs']} "
        f"failed={report['failed']}"
    ]
    for verdict in report["scenarios"]:
        executors = verdict["executors"]
        status = "ok" if verdict["ok"] else "FAIL"
        lines.append(
            f"  {verdict['name']} [{verdict['digest']}] "
            f"{verdict['total_events']} events, {verdict['queries']} "
            f"queries, {len(executors)} executors: {status}"
        )
        for failure in verdict["failures"]:
            lines.append(f"    {failure}")
        shrunk = verdict.get("shrunk")
        if shrunk:
            lines.append(
                f"    shrunk: {shrunk['events_before']} -> "
                f"{shrunk['events_after']} events, "
                f"{shrunk['queries_before']} -> {shrunk['queries_after']} "
                f"queries in {shrunk['predicate_runs']} runs"
            )
    if report.get("repro_scripts"):
        lines.append(
            "  repro scripts: " + ", ".join(report["repro_scripts"])
        )
    return "\n".join(lines)
