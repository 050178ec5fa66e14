"""``run.py --compare A.json B.json``: apply the bounds to two result files.

A result file is what ``run.py --out`` writes: ``{"runs": [...]}``, one
entry per invocation (``--out`` appends, so a file is a *set* of runs,
each with another seed).  ``A`` is the baseline, ``B`` the candidate.
One row per workload x end-to-end metric:

* ``ok`` -- B is not worse than A by more than the bound;
* ``regressed`` -- it is;
* ``unresolved`` -- the run-to-run spread is wider than the bound, so
  neither can be said.

When the two files hold runs of the same seeds (at least four), the
comparison is *paired*: "worse by" is the median of the per-seed ratios
B/A, and the spread is their inter-quartile range over their median,
divided by sqrt(2) because a ratio carries the noise of both its runs and
the bound is meant for the spread of one side.  So a metric that depends
on the seed (the paced latencies do) does not count as noise.  Otherwise
"worse by" compares the two medians and the spread is the wider of the
two files' own (inter-quartile range over median of a file's runs; with
fewer than four runs, the spread of the repeats inside a run).

Deterministic metrics (bound 0) are compared exactly.  For runs of the
same seed every count metric must also be bit-identical; differences are
listed as ``changed``.
"""

from __future__ import annotations

import json
import math
import statistics

from harness import relative_spread
from metrics import COUNTS, E2E, METRICS

#: setup_s may move by this many seconds before its relative bound applies
_SETUP_FLOOR_S = 0.05
#: metrics whose in-run repeats say something about their spread
_TIMED = ("events_per_s", "sustainable_events_per_s", "emit_latency_ms_p50",
          "emit_latency_ms_p95")


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def _metrics(run: dict, workload: str) -> dict:
    return run["workloads"].get(workload, {}).get("metrics", {})


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        _metrics(run, workload)[metric]
        for run in runs
        if metric in _metrics(run, workload)
    ]


def _own_spread(runs: list[dict], workload: str, metric: str) -> float:
    values = _values(runs, workload, metric)
    if len(values) >= 4:
        return relative_spread(values)
    if metric in _TIMED:
        return max(_values(runs, workload, "harness.repeat_spread"), default=0.0)
    return 0.0


def _twins(runs_a: list[dict], runs_b: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of A and B that share seed and size."""
    by_seed = {(run["seed"], run["quick"]): run for run in runs_b}
    return [
        (run, by_seed[run["seed"], run["quick"]])
        for run in runs_a
        if (run["seed"], run["quick"]) in by_seed
    ]


def judge(metric: str, a: float, b: float, spread: float,
          ratio: float | None = None) -> tuple[str, float]:
    """``(status, worse_by)`` for one workload x metric.

    ``a`` and ``b`` are the two medians; ``ratio`` is the median per-seed
    B/A of a paired comparison (``None``: compare the medians).
    """
    spec = METRICS[metric]
    sign = 1.0 if spec.better == "lower" else -1.0
    worse = sign * (b - a)
    if ratio is not None:
        worse_by = sign * (ratio - 1.0)
    else:
        worse_by = worse / abs(a) if a else (0.0 if worse <= 0 else float("inf"))
    if spec.bound == 0.0:
        return ("regressed" if worse > 0 else "ok"), worse_by
    if spread > spec.bound:
        return "unresolved", worse_by
    if metric == "setup_s" and worse <= _SETUP_FLOOR_S:
        return "ok", worse_by
    return ("regressed" if worse_by > spec.bound else "ok"), worse_by


def compare_files(path_a: str, path_b: str) -> int:
    runs_a, runs_b = _load(path_a), _load(path_b)
    twins = _twins(runs_a, runs_b)
    workloads = list(runs_a[0]["workloads"])
    bad = 0
    print(f"{'workload':<20}{'metric':<28}{'A median':>14}{'B median':>14}"
          f"{'worse by':>10}{'spread':>8}{'bound':>7}  status")
    for workload in workloads:
        for metric in E2E:
            base = _values(runs_a, workload, metric)
            cand = _values(runs_b, workload, metric)
            if not base or not cand:
                continue
            pairs = [
                (_metrics(a, workload)[metric], _metrics(b, workload)[metric])
                for a, b in twins
                if metric in _metrics(a, workload) and metric in _metrics(b, workload)
            ]
            if len(pairs) >= 4 and all(a for a, _ in pairs):
                ratios = [b / a for a, b in pairs]
                ratio = statistics.median(ratios)
                spread = relative_spread(ratios) / math.sqrt(2.0)
            else:
                ratio = None
                spread = max(_own_spread(runs_a, workload, metric),
                             _own_spread(runs_b, workload, metric))
            status, worse_by = judge(metric, statistics.median(base),
                                     statistics.median(cand), spread, ratio)
            bad += status != "ok"
            print(f"{workload:<20}{metric:<28}{statistics.median(base):>14.6g}"
                  f"{statistics.median(cand):>14.6g}{worse_by:>+10.1%}"
                  f"{spread:>8.1%}{METRICS[metric].bound:>7.0%}  {status}")
    changed = 0
    for run, twin in twins:
        for workload in workloads:
            left, right = _metrics(run, workload), _metrics(twin, workload)
            for metric in COUNTS:
                if metric in left and left[metric] != right.get(metric):
                    changed += 1
                    print(f"{workload:<20}{metric:<28}{left[metric]!r:>14}"
                          f"{right.get(metric)!r:>14}  changed (seed {run['seed']})")
    print(f"\n{bad} rows regressed or unresolved; {changed} deterministic "
          f"metrics changed between same-seed runs "
          f"({len(twins)} same-seed pairs of runs)")
    return 1 if bad or changed else 0
