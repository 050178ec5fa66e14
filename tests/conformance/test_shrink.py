"""Mutation detection and delta-debugging minimization.

The acceptance property: an injected off-by-one in the single-node
engine's finalization — applied via monkeypatch, never committed — must be
*detected* by the differential matrix and *shrunk* to a standalone repro
of at most 20 events.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro

from repro.conformance import (
    ScenarioGenerator,
    evaluate_scenario,
    shrink_scenario,
    write_repro_script,
)
from repro.conformance.scenario import SPECIAL_VALUES
from repro.core.types import AggFunction


@pytest.fixture
def off_by_one_sum(monkeypatch):
    """Mutate the engine's SUM finalization by +1 (cluster side untouched)."""
    import repro.core.engine as engine_module

    true_finalize = engine_module.finalize

    def mutated(spec, ops):
        value = true_finalize(spec, ops)
        if spec.fn is AggFunction.SUM and value is not None:
            return value + 1.0
        return value

    monkeypatch.setattr(engine_module, "finalize", mutated)
    return mutated


def sum_scenario():
    """The first generated scenario whose query mix exercises SUM."""
    generator = ScenarioGenerator(0)
    for i in range(40):
        scenario = generator.generate(i)
        if any(q.function == "sum" for q in scenario.queries):
            return scenario
    raise AssertionError("no SUM scenario in 40 draws")  # pragma: no cover


class TestMutationDetection:
    def test_mutation_is_detected(self, off_by_one_sum):
        failures, _ = evaluate_scenario(sum_scenario(), metamorphic=False)
        assert failures

    def test_clean_engine_passes_the_same_scenario(self):
        failures, _ = evaluate_scenario(sum_scenario(), metamorphic=False)
        assert not failures

    def test_mutation_shrinks_to_small_repro(self, off_by_one_sum):
        result = shrink_scenario(sum_scenario())
        assert result.failures
        assert result.events_after <= 20
        assert result.events_after < result.events_before
        assert result.queries_after <= result.queries_before
        assert result.predicate_runs > 0
        # the minimized scenario still reproduces on its own
        failures, _ = evaluate_scenario(result.scenario, metamorphic=False)
        assert failures

    def test_repro_script_is_standalone(self, off_by_one_sum, tmp_path):
        result = shrink_scenario(sum_scenario())
        path = write_repro_script(result, str(tmp_path / "repro_case.py"))
        source = (tmp_path / "repro_case.py").read_text()
        assert result.scenario.digest in source
        assert "evaluate_scenario" in source
        # without the mutation the repro script reports no failures (rc 0)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, path],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr


class TestShrinkBasics:
    def test_refuses_non_failing_scenario(self):
        with pytest.raises(ValueError):
            shrink_scenario(ScenarioGenerator(7).generate(0))

    def test_custom_predicate_drives_the_shrink(self):
        scenario = ScenarioGenerator(7).generate(0).materialized()

        def has_any_event(candidate):
            return candidate.total_events >= 1

        result = shrink_scenario(scenario, has_any_event)
        assert result.events_after == 1

    def test_special_values_are_dropped_when_not_needed(self):
        scenario = replace(
            ScenarioGenerator(7).generate(0), specials=SPECIAL_VALUES
        )

        def has_any_event(candidate):
            return candidate.total_events >= 1

        result = shrink_scenario(scenario, has_any_event)
        assert result.scenario.specials == ()
