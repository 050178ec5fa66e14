"""Delta-debugging shrinker: minimize a failing scenario to its essence.

Given a scenario the checkers reject, the shrinker searches for a smaller
scenario that *still fails*, in four phases:

1. **Knob simplification** — drop the overload caps, fault plan,
   checkpointing, batching, and disorder if the failure survives without
   them (a failure that needs none of them is an engine bug, not a
   distributed-systems bug).
2. **Query reduction** — remove queries one at a time while the failure
   persists.
3. **Event reduction (ddmin)** — classic delta debugging over the global
   event list: remove exponentially-narrowing chunks, keeping per-node
   order (Zeller & Hildebrandt's ddmin adapted to a partitioned stream).
4. **Node reduction** — drop now-empty (or droppable) local streams.

The result carries its surviving events explicitly
(:attr:`~repro.conformance.scenario.Scenario.explicit_streams`), so the
minimized scenario replays without the generator, and
:func:`write_repro_script` emits a standalone script that re-runs it and
exits non-zero while the failure reproduces.

Every candidate evaluation is deterministic, so shrinking the same failure
twice yields the same minimized scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.conformance.check import evaluate_scenario
from repro.conformance.scenario import Scenario

__all__ = ["ShrinkResult", "shrink_scenario", "write_repro_script"]

Predicate = Callable[[Scenario], bool]


@dataclass(slots=True)
class ShrinkResult:
    """Outcome of one minimization."""

    scenario: Scenario  # the minimized, explicit-stream scenario
    failures: list[str]  # failure descriptions of the minimized scenario
    events_before: int
    events_after: int
    queries_before: int
    queries_after: int
    predicate_runs: int


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def default_predicate(scenario: Scenario) -> bool:
    """True while the scenario still fails conformance (no metamorphic
    re-checks: the differential layer is the cheap, deterministic core)."""
    failures, _ = evaluate_scenario(scenario, metamorphic=False)
    return bool(failures)


def _events_of(scenario: Scenario) -> list[tuple[str, list]]:
    """The global event list as (node, row) in merged time order."""
    assert scenario.explicit_streams is not None
    tagged = [
        (row[0], node, row)
        for node, rows in sorted(scenario.explicit_streams.items())
        for row in rows
    ]
    tagged.sort(key=lambda item: (item[0], item[1]))
    return [(node, row) for _, node, row in tagged]


def _with_events(scenario: Scenario,
                 events: list[tuple[str, list]]) -> Scenario:
    streams: dict[str, list[list]] = {
        node: [] for node in scenario.explicit_streams
    }
    for node, row in events:
        streams[node].append(row)
    return replace(scenario, explicit_streams=streams)


def _shrink_knobs(scenario: Scenario, predicate: Predicate,
                  budget: _Budget) -> Scenario:
    for simplify in (
        lambda s: replace(s, overload=None),
        lambda s: replace(s, fault=None),
        lambda s: replace(s, checkpoint_interval=None),
        lambda s: replace(s, batch_ms=None),
        lambda s: replace(s, max_lateness=0),
        lambda s: replace(s, punctuation_mode="heap"),
    ):
        candidate = simplify(scenario)
        if candidate == scenario:
            continue
        if not budget.spend():
            return scenario
        if predicate(candidate):
            scenario = candidate
    return scenario


def _shrink_queries(scenario: Scenario, predicate: Predicate,
                    budget: _Budget) -> Scenario:
    changed = True
    while changed and len(scenario.queries) > 1:
        changed = False
        for index in range(len(scenario.queries)):
            remaining = (
                scenario.queries[:index] + scenario.queries[index + 1:]
            )
            candidate = replace(scenario, queries=remaining)
            if not budget.spend():
                return scenario
            if predicate(candidate):
                scenario = candidate
                changed = True
                break
    return scenario


def _ddmin_events(scenario: Scenario, predicate: Predicate,
                  budget: _Budget) -> Scenario:
    events = _events_of(scenario)
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events):
            candidate_events = events[:start] + events[start + chunk:]
            if not candidate_events:
                start += chunk
                continue
            if not budget.spend():
                return _with_events(scenario, events)
            if predicate(_with_events(scenario, candidate_events)):
                events = candidate_events
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(events))
    return _with_events(scenario, events)


def _drop_empty_nodes(scenario: Scenario, predicate: Predicate,
                      budget: _Budget) -> Scenario:
    streams = scenario.explicit_streams
    assert streams is not None
    live = {node: rows for node, rows in streams.items() if rows}
    if len(live) >= 2 and len(live) < len(streams):
        # Renumber onto a dense local-0..k-1 star-compatible layout.
        renamed = {
            f"local-{i}": rows
            for i, (_, rows) in enumerate(sorted(live.items()))
        }
        candidate = replace(
            scenario,
            explicit_streams=renamed,
            n_nodes=len(renamed),
            topology="star",
            n_intermediates=1,
        )
        if budget.spend() and predicate(candidate):
            return candidate
    return scenario


def shrink_scenario(
    scenario: Scenario,
    predicate: Predicate | None = None,
    *,
    max_predicate_runs: int = 400,
) -> ShrinkResult:
    """Minimize ``scenario`` while ``predicate`` keeps returning True."""
    if predicate is None:
        predicate = default_predicate
    scenario = scenario.materialized()
    events_before = sum(
        len(rows) for rows in scenario.explicit_streams.values()
    )
    queries_before = len(scenario.queries)
    budget = _Budget(max_predicate_runs)
    if not predicate(scenario):
        raise ValueError(
            "scenario does not fail its predicate; nothing to shrink"
        )
    budget.used += 1

    previous = None
    while previous != scenario:
        previous = scenario
        scenario = _shrink_knobs(scenario, predicate, budget)
        scenario = _shrink_queries(scenario, predicate, budget)
        scenario = _ddmin_events(scenario, predicate, budget)
        scenario = _drop_empty_nodes(scenario, predicate, budget)
        if budget.used >= budget.limit:
            break

    scenario = replace(scenario, name=f"{scenario.name}-min")
    failures, _ = evaluate_scenario(scenario, metamorphic=False)
    return ShrinkResult(
        scenario=scenario,
        failures=failures,
        events_before=events_before,
        events_after=sum(
            len(rows) for rows in scenario.explicit_streams.values()
        ),
        queries_before=queries_before,
        queries_after=len(scenario.queries),
        predicate_runs=budget.used,
    )


_REPRO_TEMPLATE = '''\
#!/usr/bin/env python
"""Standalone conformance repro (auto-generated by the shrinker).

Scenario: {name}  (digest {digest})
Original failures:
{failure_lines}

Run with the repro package on PYTHONPATH::

    python {filename}

Exits 0 when the failure no longer reproduces.
"""

import json
import sys

from repro.conformance import Scenario, evaluate_scenario

SCENARIO = json.loads(r\'\'\'
{scenario_json}
\'\'\')


def main() -> int:
    scenario = Scenario.from_dict(SCENARIO)
    failures, executions = evaluate_scenario(scenario)
    for name in sorted(executions):
        print(f"{{name}}: {{len(executions[name].rows)}} rows")
    if failures:
        print(f"REPRODUCED: {{len(failures)}} failure(s)")
        for line in failures:
            print(f"  {{line}}")
        return 1
    print("no failures: the scenario now conforms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


def write_repro_script(result: ShrinkResult, path: str) -> str:
    """Write the minimized scenario as a runnable repro script."""
    import os

    scenario = result.scenario
    failure_lines = "\n".join(f"  {line}" for line in result.failures) or "  -"
    content = _REPRO_TEMPLATE.format(
        name=scenario.name,
        digest=scenario.digest,
        failure_lines=failure_lines,
        filename=os.path.basename(path),
        scenario_json=scenario.to_json(),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path
