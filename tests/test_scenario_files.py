"""Tests for declarative scenario files (load/dump, validation, compilation).

Covers the three guarantees the scenario subsystem makes:

* **lossless, byte-stable round-tripping** — ``load -> dump -> load`` returns
  an equal scenario and re-dumping produces identical bytes, for TOML and
  JSON alike;
* **actionable validation** — every malformed document raises
  :class:`ScenarioValidationError` naming the offending key;
* **compilation into the ordinary pipeline** — :meth:`Scenario.run_specs`
  produces plain ``RunSpec`` cells byte-identical to hand-built ones, so
  scenario-file runs and programmatic runs share ``RunCache`` entries.
"""

import dataclasses

import pytest

from repro.experiments.broker import ExperimentBroker
from repro.experiments.orchestration import RunSpec, execute_many, execute_run
from repro.experiments.persistence import RunCache, run_key, spec_from_dict, spec_to_dict
from repro.experiments.scenario_files import (
    Scenario,
    ScenarioValidationError,
    dump_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.network.energy import EnergyModel
from repro.network.failures import (
    CompositeFailure,
    FailureEvent,
    TargetedCellFailure,
    build_failure_model,
    compile_failure_schedule,
    freeze_params,
)
from repro.sim.rng import spawn_seeds
from repro.sim.scenario import ScenarioConfig


def sample_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="sample",
        scenario=ScenarioConfig(
            columns=6, rows=6, deployed_count=300, spare_surplus=20, seed=3
        ),
        schemes=("SR", "AR"),
        description="a sample workload",
        stresses="round-tripping",
        expected="equality",
        failures=(
            FailureEvent.with_params(0, "targeted_cells", cells=[[0, 0], [5, 5]]),
            FailureEvent.with_params(4, "region_jamming", center=[10.0, 10.0], radius=5.0),
        ),
        max_rounds=120,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["toml", "json"])
    def test_load_dump_load_is_lossless_and_byte_stable(self, format):
        scenario = sample_scenario()
        text = dumps_scenario(scenario, format=format)
        reloaded = loads_scenario(text, format=format)
        assert reloaded == scenario
        assert dumps_scenario(reloaded, format=format) == text

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip_by_suffix(self, tmp_path, suffix):
        scenario = sample_scenario()
        path = tmp_path / f"sample{suffix}"
        dump_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_energy_and_exhaustion_round_trip(self):
        scenario = sample_scenario(
            name="lifetime",
            scenario=ScenarioConfig(
                columns=4, rows=4, deployed_count=80, seed=1, initial_energy=30.0
            ),
            failures=(),
            energy=EnergyModel(idle_cost_per_round=0.5),
            run_to_exhaustion=True,
            max_rounds=50,
        )
        text = dumps_scenario(scenario)
        assert loads_scenario(text) == scenario
        assert "[energy]" in text and "run_to_exhaustion = true" in text

    def test_dict_form_round_trips(self):
        scenario = sample_scenario()
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_unknown_suffix_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="toml or .json"):
            load_scenario(tmp_path / "sample.yaml")


class TestValidation:
    def check(self, payload, fragment):
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict(payload)
        assert fragment in str(excinfo.value)

    def test_unknown_top_level_key(self):
        self.check({"name": "x", "bogus": 1}, "unknown key(s) ['bogus']")
        # The format has no [engine] table (execution options).
        self.check({"name": "x", "engine": {}}, "unknown key(s) ['engine']")

    def test_unknown_scenario_key(self):
        self.check({"name": "x", "scenario": {"bogus": 1}}, "scenario: unknown key(s)")

    def test_unknown_run_key(self):
        self.check({"name": "x", "run": {"bogus": 1}}, "run: unknown key(s)")

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict({"name": "x", "run": {"schemes": ["NOPE"]}})
        message = str(excinfo.value)
        assert "run.schemes" in message and "SR" in message

    def test_unknown_failure_kind_lists_available(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict(
                {"name": "x", "failures": [{"round": 0, "kind": "wat"}]}
            )
        message = str(excinfo.value)
        assert "failures[0]" in message and "region_jamming" in message

    def test_unknown_failure_parameter(self):
        self.check(
            {"name": "x", "failures": [{"round": 0, "kind": "random", "chance": 0.5}]},
            "unknown parameter(s) ['chance']",
        )

    def test_targeted_cells_outside_grid(self):
        self.check(
            {
                "name": "x",
                "scenario": {"columns": 4, "rows": 4, "deployed_count": 100},
                "failures": [{"round": 0, "kind": "targeted_cells", "cells": [[9, 9]]}],
            },
            "outside the 4x4 grid",
        )

    def test_failure_beyond_round_bound_never_fires(self):
        self.check(
            {
                "name": "x",
                "run": {"max_rounds": 10},
                "failures": [
                    {"round": 50, "kind": "targeted_cells", "cells": [[0, 0]]}
                ],
            },
            "never fires",
        )

    def test_failure_beyond_default_engine_bound_never_fires(self):
        # With max_rounds omitted the engine bounds the run at 4 * cell_count
        # rounds; an event past that would silently never fire either.
        self.check(
            {
                "name": "x",
                "scenario": {"columns": 4, "rows": 4, "deployed_count": 100},
                "failures": [
                    {"round": 64, "kind": "targeted_cells", "cells": [[0, 0]]}
                ],
            },
            "engine's default bound",
        )

    def test_boolean_numbers_are_rejected(self):
        self.check(
            {
                "name": "x",
                "failures": [
                    {
                        "round": 0,
                        "kind": "region_jamming",
                        "center": [1.0, 1.0],
                        "radius": True,
                    }
                ],
            },
            "'radius' must be a number",
        )
        self.check(
            {
                "name": "x",
                "failures": [
                    {"round": 0, "kind": "battery_depletion", "threshold": True}
                ],
            },
            "'threshold' must be a number",
        )

    def test_exhaustion_requires_idle_drain(self):
        self.check(
            {"name": "x", "run": {"run_to_exhaustion": True}},
            "positive idle_cost_per_round",
        )

    def test_bad_scenario_value_is_wrapped_with_context(self):
        self.check(
            {"name": "x", "scenario": {"columns": 0}},
            "scenario: grid dimensions must be positive",
        )

    def test_unsupported_format_version(self):
        self.check({"format": 99, "name": "x"}, "unsupported scenario format")

    def test_invalid_toml_text(self):
        with pytest.raises(ScenarioValidationError, match="invalid TOML"):
            loads_scenario("name = ", format="toml")

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioValidationError, match="invalid JSON"):
            loads_scenario("{", format="json")

    def test_name_is_required(self):
        self.check({}, "name")


class TestCompilation:
    def test_run_specs_match_hand_built_specs(self):
        scenario = sample_scenario()
        expected = [
            RunSpec(
                scenario=scenario.scenario,
                scheme=scheme,
                seed=scenario.scenario.seed,
                max_rounds=scenario.max_rounds,
                failures=scenario.failures,
            )
            for scheme in scenario.schemes
        ]
        assert scenario.run_specs() == expected

    def test_trials_spawn_independent_seeds(self):
        scenario = sample_scenario(trials=3, failures=(), max_rounds=None)
        specs = scenario.run_specs()
        seeds = spawn_seeds(scenario.scenario.seed, 3, label="scenario")
        assert [spec.seed for spec in specs] == [
            seed for seed in seeds for _ in scenario.schemes
        ]
        assert all(spec.scenario.seed == spec.seed for spec in specs)

    def test_scenario_file_and_programmatic_runs_share_cache_entries(self, tmp_path):
        scenario = sample_scenario(max_rounds=60)
        cache = RunCache(tmp_path / "cache")
        first = execute_many(scenario.run_specs(), cache=cache)
        assert cache.misses == len(first) and cache.hits == 0

        programmatic = [
            RunSpec(
                scenario=scenario.scenario,
                scheme=scheme,
                seed=scenario.scenario.seed,
                max_rounds=60,
                failures=scenario.failures,
            )
            for scheme in scenario.schemes
        ]
        with ExperimentBroker(cache=cache) as broker:
            second = execute_many(programmatic, broker=broker)
        assert broker.stats().executed == 0
        assert all(record.cached for record in second)

    def test_scheduled_failures_reach_the_engine(self):
        scenario = sample_scenario(max_rounds=80)
        [spec] = [s for s in scenario.run_specs() if s.scheme == "SR"]
        record = execute_run(spec)
        # The two scheduled events must have disabled nodes mid-run: the
        # run ends with more disabled nodes than the thinning left behind.
        assert record.metrics.total_moves > 0
        assert record.metrics.final_holes == 0

    def test_smoke_variant_caps_trials_and_rounds(self):
        scenario = sample_scenario(trials=5, max_rounds=5000)
        smoke = scenario.smoke_variant()
        assert smoke.trials == 1
        assert smoke.max_rounds <= 60
        # Smoke never caps below the last scheduled failure round.
        late = sample_scenario(
            max_rounds=5000,
            failures=(
                FailureEvent.with_params(100, "targeted_cells", cells=[[1, 1]]),
            ),
        )
        assert late.smoke_variant().max_rounds > 100


class TestFailureEvents:
    def test_params_freeze_and_event_hashability(self):
        event = FailureEvent.with_params(0, "targeted_cells", cells=[[1, 1], [0, 2]])
        assert isinstance(hash(event), int)
        assert event.params == freeze_params({"cells": [[1, 1], [0, 2]]})

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="non-empty list"):
            FailureEvent.with_params(0, "targeted_cells", cells=[])
        with pytest.raises(ValueError, match="must be non-negative"):
            FailureEvent.with_params(-1, "targeted_cells", cells=[[0, 0]])

    def test_build_failure_model_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            build_failure_model("wat", {})

    def test_reason_parameter_resolves_node_state(self):
        model = build_failure_model(
            "targeted_cells", {"cells": ((0, 0),), "reason": "depleted"}
        )
        assert isinstance(model, TargetedCellFailure)
        assert model.reason.value == "depleted"

    def test_same_round_events_compose(self):
        schedule = compile_failure_schedule(
            [
                FailureEvent.with_params(2, "targeted_cells", cells=[[0, 0]]),
                FailureEvent.with_params(2, "random", count=1),
                FailureEvent.with_params(5, "battery_depletion"),
            ]
        )
        assert set(schedule) == {2, 5}
        assert isinstance(schedule[2], CompositeFailure)
        assert len(schedule[2].models) == 2


class TestSpecPersistence:
    def test_spec_with_failures_round_trips_through_json_form(self):
        scenario = sample_scenario()
        for spec in scenario.run_specs():
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_failures_change_the_cache_key(self):
        scenario = sample_scenario()
        spec = scenario.run_specs()[0]
        bare = dataclasses.replace(spec, failures=())
        assert run_key(spec) != run_key(bare)
