"""Benchmark regression gate: compare BENCH_*.json against a baseline.

The repo's benchmarks write machine-readable reports (``BENCH_*.json``)
whose headline numbers are the perf claims earlier PRs earned — the hot
path speedup, the merge-op reduction at high overlap, goodput under
faults, recovery savings.  Nothing so far *enforces* them: a later PR
could quietly lose the 5× and every report would still be green.

This module closes the loop.  A committed **baseline manifest** pins,
per benchmark file, a set of dotted metric paths with a tolerance band
and a direction:

.. code-block:: json

    {"version": 1,
     "benchmarks": {
       "BENCH_hot_path.json": {
         "workloads.100_queries.speedup":
           {"value": 5.0, "tolerance": 0.15, "direction": "higher"}}}}

Directions:

* ``higher`` — bigger is better; regression when
  ``current < value * (1 - tolerance)`` (wall-clock ratios get a loose
  band: they are stable on one machine but not across machines);
* ``lower`` — smaller is better; regression when
  ``current > value * (1 + tolerance)``;
* ``both`` — the value is deterministic (sim-ms, counters); any
  relative deviation beyond the tolerance is a failure, and tolerance
  ``0`` demands exact equality.

A missing file or metric path is always a failure — renaming a metric
must update the baseline deliberately.  ``benchmarks/bench_check.py``
is the CLI wrapper wired into CI; ``--update`` regenerates the manifest
from the current reports using :data:`DEFAULT_GATES`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DEFAULT_GATES",
    "BaselineManifest",
    "MetricCheck",
    "RegressionReport",
    "check_benchmarks",
    "extract_metric",
    "render_regression_report",
]

#: the gated metrics and their (tolerance, direction), per benchmark
#: file — the source of truth ``--update`` builds the manifest from.
#: Deterministic counters and sim-ms numbers gate exactly; wall-clock
#: ratios get a loose band.
DEFAULT_GATES: dict[str, dict[str, tuple[float, str]]] = {
    "BENCH_hot_path.json": {
        "workloads.single_query.speedup": (0.15, "higher"),
        "workloads.100_queries.speedup": (0.15, "higher"),
    },
    "BENCH_sliding.json": {
        "overlaps.64.merge_op_reduction": (0.05, "higher"),
        "overlaps.64.incremental.windows_closed": (0.0, "both"),
    },
    "BENCH_faults.json": {
        "rates.5%.results": (0.0, "both"),
        "rates.5%.goodput_data_bytes": (0.0, "both"),
        "rates.5%.retransmits": (0.0, "both"),
    },
    "BENCH_overload.json": {
        "scales.1500.bounded.degraded_windows": (0.0, "both"),
        "scales.1500.bounded.peak_staging": (0.0, "both"),
        "scales.1500.bounded.slices_shed": (0.0, "both"),
        "scales.1500.unbounded.peak_unacked_bytes": (0.0, "both"),
    },
    "BENCH_recovery.json": {
        "savings.reship_saved_pct": (0.0, "both"),
        "savings.latency_delta_ms": (0.0, "both"),
        "modes.checkpointed.checkpoints": (0.0, "both"),
    },
    # deterministic counters only (see bench_parallel.py): every row
    # crosses exactly one pipe, so rows_shipped equals the event count —
    # a broadcast would read shards x events.  The measured stage times
    # are reported ungated.
    "BENCH_parallel.json": {
        "shards.4.rows_shipped": (0.0, "both"),
        "shards.4.results": (0.0, "both"),
        "shards.4.reduce_merge_ops": (0.0, "both"),
    },
}


def extract_metric(document: Any, path: str) -> float:
    """Resolve a dotted path (``a.b.c``) into a loaded JSON document.

    Raises ``KeyError`` with the full path when any step is missing or
    the leaf is not a number.
    """
    value: Any = document
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(path)
        value = value[part]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KeyError(path)
    return float(value)


@dataclass(frozen=True, slots=True)
class MetricCheck:
    """The verdict on one gated metric."""

    file: str
    metric: str
    direction: str
    tolerance: float
    baseline: float
    #: ``None`` when the report or metric is missing
    current: float | None
    #: ``ok`` | ``regression`` | ``missing``
    status: str
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "metric": self.metric,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "baseline": self.baseline,
            "current": self.current,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(slots=True)
class RegressionReport:
    """Every gated metric's verdict for one bench_check run."""

    checks: list[MetricCheck] = field(default_factory=list)

    @property
    def failures(self) -> list[MetricCheck]:
        return [c for c in self.checks if c.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checked": len(self.checks),
            "failures": len(self.failures),
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(slots=True)
class BaselineManifest:
    """The committed perf contract: file → metric path → band."""

    benchmarks: dict[str, dict[str, dict[str, Any]]] = field(
        default_factory=dict
    )
    version: int = 1

    @classmethod
    def load(cls, path: str) -> "BaselineManifest":
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        version = document.get("version")
        if version != 1:
            raise ValueError(f"unsupported baseline version: {version!r}")
        return cls(benchmarks=document.get("benchmarks", {}), version=1)

    def save(self, path: str) -> None:
        document = {"version": self.version, "benchmarks": self.benchmarks}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_reports(
        cls,
        bench_dir: str,
        gates: dict[str, dict[str, tuple[float, str]]] | None = None,
    ) -> "BaselineManifest":
        """Pin the current reports as the new baseline.

        Raises ``FileNotFoundError`` / ``KeyError`` when a gated report
        or metric is absent — an incomplete baseline must not be
        committed silently.
        """
        gates = DEFAULT_GATES if gates is None else gates
        benchmarks: dict[str, dict[str, dict[str, Any]]] = {}
        for filename, metrics in sorted(gates.items()):
            with open(
                os.path.join(bench_dir, filename), "r", encoding="utf-8"
            ) as fh:
                document = json.load(fh)
            pinned: dict[str, dict[str, Any]] = {}
            for metric, (tolerance, direction) in sorted(metrics.items()):
                pinned[metric] = {
                    "value": extract_metric(document, metric),
                    "tolerance": tolerance,
                    "direction": direction,
                }
            benchmarks[filename] = pinned
        return cls(benchmarks=benchmarks)


def _evaluate(
    spec: dict[str, Any], current: float
) -> tuple[str, str]:
    baseline = float(spec["value"])
    tolerance = float(spec.get("tolerance", 0.0))
    direction = spec.get("direction", "both")
    if direction == "higher":
        floor = baseline * (1.0 - tolerance)
        if current < floor:
            return "regression", f"{current:g} < floor {floor:g}"
        return "ok", ""
    if direction == "lower":
        ceiling = baseline * (1.0 + tolerance)
        if current > ceiling:
            return "regression", f"{current:g} > ceiling {ceiling:g}"
        return "ok", ""
    if direction == "both":
        scale = max(abs(baseline), 1e-12)
        deviation = abs(current - baseline) / scale
        if deviation > tolerance:
            return (
                "regression",
                f"{current:g} deviates {deviation:.3g} from {baseline:g} "
                f"(tolerance {tolerance:g})",
            )
        return "ok", ""
    raise ValueError(f"unknown direction: {direction!r}")


def check_benchmarks(
    manifest: BaselineManifest, bench_dir: str
) -> RegressionReport:
    """Compare every gated metric in ``bench_dir`` against the manifest."""
    report = RegressionReport()
    for filename, metrics in sorted(manifest.benchmarks.items()):
        path = os.path.join(bench_dir, filename)
        document: Any = None
        file_missing = not os.path.exists(path)
        if not file_missing:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        for metric, spec in sorted(metrics.items()):
            baseline = float(spec["value"])
            tolerance = float(spec.get("tolerance", 0.0))
            direction = spec.get("direction", "both")
            if file_missing:
                report.checks.append(
                    MetricCheck(
                        file=filename,
                        metric=metric,
                        direction=direction,
                        tolerance=tolerance,
                        baseline=baseline,
                        current=None,
                        status="missing",
                        detail="report file not found",
                    )
                )
                continue
            try:
                current = extract_metric(document, metric)
            except KeyError:
                report.checks.append(
                    MetricCheck(
                        file=filename,
                        metric=metric,
                        direction=direction,
                        tolerance=tolerance,
                        baseline=baseline,
                        current=None,
                        status="missing",
                        detail="metric path not found in report",
                    )
                )
                continue
            status, detail = _evaluate(spec, current)
            report.checks.append(
                MetricCheck(
                    file=filename,
                    metric=metric,
                    direction=direction,
                    tolerance=tolerance,
                    baseline=baseline,
                    current=current,
                    status=status,
                    detail=detail,
                )
            )
    return report


def render_regression_report(report: RegressionReport) -> str:
    """The regression report as the aligned text block CI logs show."""
    lines = []
    for check in report.checks:
        mark = {"ok": "ok  ", "regression": "FAIL", "missing": "MISS"}[
            check.status
        ]
        current = "-" if check.current is None else f"{check.current:g}"
        line = (
            f"[{mark}] {check.file}:{check.metric} "
            f"current={current} baseline={check.baseline:g} "
            f"({check.direction}, tol {check.tolerance:g})"
        )
        if check.detail:
            line += f" — {check.detail}"
        lines.append(line)
    verdict = (
        "benchmark baseline holds"
        if report.ok
        else f"{len(report.failures)} gated metric(s) failed"
    )
    lines.append(f"{len(report.checks)} metric(s) checked: {verdict}")
    return "\n".join(lines)
