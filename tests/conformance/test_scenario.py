"""Scenario model: determinism, serialization, and stream invariants."""

from __future__ import annotations

import math

import pytest

from repro.conformance import Scenario, ScenarioGenerator, run_conformance
from repro.conformance.scenario import SPECIAL_VALUES, FaultSpec, QuerySpec


def small_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="t",
        seed=42,
        n_nodes=3,
        events_per_node=50,
        queries=(
            QuerySpec("q0", "tumbling", "sum", length=500),
            QuerySpec("q1", "sliding", "max", length=1_000, slide=250),
        ),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestSerialization:
    def test_json_roundtrip_identical(self):
        scenario = small_scenario(
            max_lateness=40,
            checkpoint_interval=2_000,
            fault=FaultSpec(seed=9, drop_rate=0.05),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_digest_stable_across_roundtrip(self):
        scenario = small_scenario()
        assert Scenario.from_json(scenario.to_json()).digest == scenario.digest

    def test_digest_changes_with_content(self):
        assert small_scenario().digest != small_scenario(seed=43).digest

    def test_unknown_keys_are_named(self):
        # a knob older scenario files carry (spelled in two pieces so that
        # grepping the tree for the removed name finds only its history)
        removed = "punctuation" "_mode"
        data = small_scenario().to_dict()
        for key, value in ((removed, "heap"), ("batchms", 500)):
            with pytest.raises(ValueError, match=key):
                Scenario.from_dict({**data, key: value})
            with pytest.raises(ValueError, match=key):
                run_conformance(seed=1, runs=1, overrides={key: value})

    def test_materialized_replays_same_streams(self):
        scenario = small_scenario()
        explicit = scenario.materialized()
        assert explicit.build_streams() == scenario.build_streams()
        # and survives a serialization trip
        again = Scenario.from_json(explicit.to_json())
        assert again.build_streams() == scenario.build_streams()


class TestStreams:
    def test_streams_deterministic(self):
        assert small_scenario().build_streams() == small_scenario().build_streams()

    def test_timestamps_globally_unique(self):
        streams = small_scenario().build_streams()
        times = [e.time for events in streams.values() for e in events]
        assert len(times) == len(set(times))

    def test_node_keeps_timestamp_residue(self):
        scenario = small_scenario()
        for i, (node, events) in enumerate(
            sorted(scenario.build_streams().items())
        ):
            assert all(e.time % scenario.n_nodes == i for e in events), node

    def test_disordered_streams_same_multiset(self):
        scenario = small_scenario(max_lateness=150)
        in_order = scenario.build_streams()
        disordered = scenario.disordered_streams()
        for node in in_order:
            assert sorted(disordered[node], key=lambda e: e.time) == in_order[node]

    def test_disorder_respects_lateness_bound(self):
        scenario = small_scenario(max_lateness=40)
        for events in scenario.disordered_streams().values():
            high = 0
            for event in events:
                high = max(high, event.time)
                assert high - event.time <= scenario.max_lateness


class TestSpecials:
    """About one scenario in ten draws ±inf, ±0.0 and subnormals in place
    of some values; the key is written only when set."""

    def test_about_one_value_in_twenty_is_special_and_the_rest_unchanged(self):
        plain = small_scenario(events_per_node=400)
        special = small_scenario(events_per_node=400, specials=SPECIAL_VALUES)
        drawn = 0
        for node, events in plain.build_streams().items():
            for before, after in zip(events, special.build_streams()[node]):
                assert (before.time, before.key) == (after.time, after.key)
                if repr(before.value) != repr(after.value):
                    assert after.value in SPECIAL_VALUES
                    drawn += 1
        assert 30 <= drawn <= 90  # 5 % of 1 200

    def test_the_key_is_written_only_when_set(self):
        assert "specials" not in small_scenario().to_dict()
        scenario = small_scenario(specials=SPECIAL_VALUES)
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert list(map(repr, again.specials)) == list(map(repr, SPECIAL_VALUES))
        assert again.digest == scenario.digest != small_scenario().digest

    def test_the_generator_draws_them_in_about_one_scenario_in_ten(self):
        generator = ScenarioGenerator(1)
        drawn = [generator.generate(i) for i in range(100)]
        special = [s for s in drawn if s.specials]
        assert 4 <= len(special) <= 20
        for scenario in special:
            if (scenario.value_lo, scenario.value_hi) == (0.5, 1.5):
                # a product family draws no subnormal and no negative
                assert scenario.specials == (math.inf, 0.0, -0.0)
            else:
                assert scenario.specials == SPECIAL_VALUES

    def test_without_specials_drops_them_from_explicit_streams(self):
        scenario = small_scenario(specials=SPECIAL_VALUES).materialized()
        plain = scenario.without_specials()
        assert plain.specials == ()
        values = [
            e.value for events in plain.build_streams().values() for e in events
        ]
        assert all(0.0 < value < 100.0 for value in values)
        assert small_scenario().without_specials() == small_scenario()


class TestFlags:
    def test_fixed_time_only(self):
        assert small_scenario().fixed_time_only
        with_session = small_scenario(
            queries=(QuerySpec("q0", "session", "sum", gap=100),),
            gap_every=10,
        )
        assert not with_session.fixed_time_only


class TestGenerator:
    def test_same_seed_same_scenarios(self):
        a = [ScenarioGenerator(5).generate(i).digest for i in range(6)]
        b = [ScenarioGenerator(5).generate(i).digest for i in range(6)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [ScenarioGenerator(1).generate(i).digest for i in range(4)]
        b = [ScenarioGenerator(2).generate(i).digest for i in range(4)]
        assert a != b

    def test_generated_scenarios_are_serializable(self):
        generator = ScenarioGenerator(3)
        for i in range(8):
            scenario = generator.generate(i)
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_product_family_values_clamped(self):
        generator = ScenarioGenerator(0)
        for i in range(60):
            scenario = generator.generate(i)
            if any(
                q.function in ("product", "geometric_mean")
                for q in scenario.queries
            ):
                assert (scenario.value_lo, scenario.value_hi) == (0.5, 1.5)
                break
        else:  # pragma: no cover - seed drift guard
            raise AssertionError("no product-family scenario in 60 draws")
