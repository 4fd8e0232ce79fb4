"""Tests for the run-orchestration layer: registry, executors, persistence.

The contracts exercised here are the ones the sweep stack depends on:

* the scheme registry resolves names, rejects duplicates and unknowns;
* ``execute_run`` is a pure function of its (picklable) ``RunSpec``;
* serial and parallel executors produce identical records in spec order;
* the run cache round-trips records, treats damage as a miss, and lets a
  repeated sweep finish with zero re-executions.
"""

import dataclasses
import json
import pickle

import pytest

from repro.experiments.orchestration import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_many,
    execute_run,
    make_executor,
)
from repro.experiments.persistence import (
    CACHE_FORMAT_VERSION,
    RunCache,
    record_from_dict,
    record_to_dict,
    run_key,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.registry import (
    available_schemes,
    get_scheme,
    make_controller,
    register_scheme,
    unregister_scheme,
)
from repro.experiments.sweep import build_comparison_specs, run_comparison
from repro.sim.scenario import ScenarioConfig, build_scenario_state

QUICK_CONFIG = ScenarioConfig(columns=6, rows=6, deployed_count=200, seed=7)


def _module_level_sr_factory(state):
    """Picklable factory for the worker-propagation test (must be top-level)."""
    from repro.core.hamilton import build_hamilton_cycle
    from repro.core.replacement import HamiltonReplacementController

    return HamiltonReplacementController(build_hamilton_cycle(state.grid))


def quick_spec(scheme: str = "SR", seed: int = 7, spare_surplus: int = 15, **kwargs) -> RunSpec:
    return RunSpec(
        scenario=QUICK_CONFIG.with_spare_surplus(spare_surplus),
        scheme=scheme,
        seed=seed,
        **kwargs,
    )


class TestRegistry:
    def test_builtin_schemes_are_registered(self):
        assert set(available_schemes()) >= {"SR", "SR-shortcut", "AR", "VF", "SMART"}
        assert available_schemes() == tuple(sorted(available_schemes()))

    def test_get_scheme_unknown_lists_available(self):
        with pytest.raises(KeyError, match="SR"):
            get_scheme("NOPE")

    def test_make_controller_unknown_scheme(self):
        state = build_scenario_state(QUICK_CONFIG.with_spare_surplus(10))
        with pytest.raises(KeyError):
            make_controller("NOPE", state)

    def test_register_and_unregister_round_trip(self):
        from repro.core.baseline_ar import LocalizedReplacementController

        factory = lambda state: LocalizedReplacementController(state.grid)  # noqa: E731
        register_scheme("AR-test-alias", factory)
        try:
            assert "AR-test-alias" in available_schemes()
            assert get_scheme("AR-test-alias") is factory
            state = build_scenario_state(QUICK_CONFIG.with_spare_surplus(10))
            assert make_controller("AR-test-alias", state).name == "AR"
        finally:
            unregister_scheme("AR-test-alias")
        assert "AR-test-alias" not in available_schemes()

    def test_duplicate_registration_requires_replace(self):
        register_scheme("dup-test", lambda state: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("dup-test", lambda state: None)
            register_scheme("dup-test", lambda state: None, replace=True)
        finally:
            unregister_scheme("dup-test")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_scheme("never-registered")

    def test_shadowed_scheme_changes_cache_key(self):
        from repro.experiments.registry import BUILTIN_FACTORIES

        spec = quick_spec()
        key_before = run_key(spec)
        register_scheme("SR", _module_level_sr_factory, replace=True)
        try:
            assert run_key(spec) != key_before
        finally:
            register_scheme("SR", BUILTIN_FACTORIES["SR"], replace=True)
        assert run_key(spec) == key_before

    def test_distinct_lambdas_get_distinct_cache_keys(self):
        from repro.experiments.registry import BUILTIN_FACTORIES

        spec = quick_spec()
        keys = []
        try:
            for factory in (lambda s: ("variant", "A"), lambda s: ("variant", "B")):
                register_scheme("SR", factory, replace=True)
                keys.append(run_key(spec))
        finally:
            register_scheme("SR", BUILTIN_FACTORIES["SR"], replace=True)
        assert len(set(keys)) == 2

    def test_dynamically_registered_scheme_runs_in_parallel(self):
        register_scheme("SR-par-test", _module_level_sr_factory)
        try:
            specs = [
                RunSpec(
                    scenario=QUICK_CONFIG.with_spare_surplus(surplus),
                    scheme="SR-par-test",
                    seed=7,
                )
                for surplus in (5, 15)
            ]
            records = ParallelExecutor(2).run_all(specs)
        finally:
            unregister_scheme("SR-par-test")
        assert [r.spec for r in records] == specs
        assert all(r.metrics.scheme == "SR" for r in records)

    def test_registered_scheme_is_sweepable(self):
        from repro.core.hamilton import build_hamilton_cycle
        from repro.core.replacement import HamiltonReplacementController

        register_scheme(
            "SR-test-alias",
            lambda state: HamiltonReplacementController(build_hamilton_cycle(state.grid)),
        )
        try:
            result = run_comparison(QUICK_CONFIG, [15], schemes=("SR-test-alias",))
        finally:
            unregister_scheme("SR-test-alias")
        assert result.rows[0]["SR-test-alias_success_rate"] == pytest.approx(1.0)


class TestRunSpec:
    def test_spec_is_frozen_and_hashable(self):
        spec = quick_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99
        assert spec == quick_spec()
        assert hash(spec) == hash(quick_spec())
        assert spec != quick_spec(seed=8)

    def test_spec_pickles(self):
        spec = quick_spec(max_rounds=50)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_execute_run_is_deterministic(self):
        first = execute_run(quick_spec())
        second = execute_run(quick_spec())
        assert first == second
        assert first.metrics.scheme == "SR"
        assert first.converged == first.metrics.coverage_restored

    def test_record_pickles(self):
        record = execute_run(quick_spec())
        assert pickle.loads(pickle.dumps(record)) == record


class TestExecutors:
    def test_make_executor_selects_strategy(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_parallel_matches_serial(self):
        specs = build_comparison_specs(
            QUICK_CONFIG, [5, 15], schemes=("SR", "AR"), trials=2
        )
        serial = SerialExecutor()
        parallel = ParallelExecutor(2)
        serial_records = serial.run_all(specs)
        parallel_records = parallel.run_all(specs)
        assert serial.runs_executed == parallel.runs_executed == len(specs)
        assert [r.spec for r in serial_records] == specs
        assert serial_records == parallel_records

    def test_run_comparison_parallel_parity(self):
        serial = run_comparison(QUICK_CONFIG, [5, 15], trials=2)
        parallel = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=ParallelExecutor(4)
        )
        assert serial.columns == parallel.columns
        assert serial.rows == parallel.rows

    def test_empty_batch(self):
        assert ParallelExecutor(2).run_all([]) == []
        assert execute_many([]) == []


class TestPersistence:
    def test_spec_dict_round_trip(self):
        spec = quick_spec(max_rounds=77)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_record_dict_round_trip(self):
        record = execute_run(quick_spec())
        assert record_from_dict(json.loads(json.dumps(record_to_dict(record)))) == record

    def test_run_key_covers_every_spec_field(self):
        base = quick_spec()
        variants = [
            quick_spec(seed=8),
            quick_spec(scheme="AR"),
            quick_spec(max_rounds=10),
            quick_spec(idle_round_limit=5),
            quick_spec(spare_surplus=20),
            dataclasses.replace(base, scenario=base.scenario.with_seed(123)),
        ]
        keys = {run_key(base)} | {run_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cache_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = quick_spec()
        assert cache.get(spec) is None
        record = execute_run(spec)
        path = cache.put(record)
        assert path.exists()
        assert spec in cache
        assert cache.get(spec) == record
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        path.write_text("{not json")
        assert cache.get(quick_spec()) is None

    @pytest.mark.parametrize("content", ["[1, 2]", '"text"', "1", "null"])
    def test_non_object_json_entry_is_a_miss(self, tmp_path, content):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        path.write_text(content)
        assert cache.get(quick_spec()) is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(execute_run(quick_spec()))
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        payload = json.loads(path.read_text())
        payload["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(quick_spec()) is None

    def test_cache_format_version_unchanged(self):
        # A bump here means something leaked into the persisted record
        # format; v5 came from the message-ledger metrics fields.
        assert CACHE_FORMAT_VERSION == 5

    def test_run_key_is_pinned(self):
        # Stored records are addressed by this digest: a different value
        # orphans every existing cache entry.
        assert run_key(quick_spec()) == (
            "bedd2e960a9ead0714111ebc85ff6d8b547c50a4e2b9c464c0908573e8f25000"
        )


class TestCachedSweeps:
    def test_second_pass_executes_nothing(self, tmp_path):
        cache = RunCache(tmp_path)
        first_executor = SerialExecutor()
        first = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=first_executor, cache=cache
        )
        assert first_executor.runs_executed == 8  # 2 N-values x 2 trials x 2 schemes

        second_executor = SerialExecutor()
        second = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=second_executor, cache=cache
        )
        assert second_executor.runs_executed == 0
        assert second.rows == first.rows

    def test_cache_is_shared_across_overlapping_sweeps(self, tmp_path):
        cache = RunCache(tmp_path)
        run_comparison(QUICK_CONFIG, [5], executor=SerialExecutor(), cache=cache)
        # The [5, 15] sweep shares the N=5 cells with the sweep above.
        executor = SerialExecutor()
        run_comparison(QUICK_CONFIG, [5, 15], executor=executor, cache=cache)
        assert executor.runs_executed == 2  # only the N=15 SR and AR cells

    def test_changed_config_invalidates(self, tmp_path):
        cache = RunCache(tmp_path)
        run_comparison(QUICK_CONFIG, [5], executor=SerialExecutor(), cache=cache)
        executor = SerialExecutor()
        run_comparison(
            QUICK_CONFIG.with_seed(99), [5], executor=executor, cache=cache
        )
        assert executor.runs_executed == 2  # nothing reusable under the new seed

    def test_execute_many_marks_cache_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [quick_spec(scheme="SR"), quick_spec(scheme="AR")]
        cache.put(execute_run(specs[0]))
        executor = SerialExecutor()
        records = execute_many(specs, executor=executor, cache=cache)
        assert [r.spec for r in records] == specs
        assert records[0].cached and not records[1].cached
        assert executor.runs_executed == 1
        assert cache.hits == 1 and cache.misses == 1


class TestScenarioReuse:
    """The cold-path machinery: scenario grouping, clones, warm pools."""

    def test_group_by_scenario_groups_consecutive_runs(self):
        from repro.experiments.orchestration import _group_by_scenario

        a = QUICK_CONFIG.with_spare_surplus(5)
        b = QUICK_CONFIG.with_spare_surplus(15)
        specs = [
            RunSpec(scenario=a, scheme="SR", seed=1),
            RunSpec(scenario=a, scheme="AR", seed=1),
            RunSpec(scenario=b, scheme="SR", seed=1),
            RunSpec(scenario=a, scheme="SR", seed=2),  # a again: new group
        ]
        groups = _group_by_scenario(specs)
        assert [len(group) for group in groups] == [2, 1, 1]
        assert [spec for group in groups for spec in group] == specs
        assert _group_by_scenario([]) == []

    def test_serial_executor_builds_each_scenario_once(self, monkeypatch):
        from repro.experiments import orchestration

        builds = []
        real_build = orchestration.build_scenario_state

        def counting_build(config):
            builds.append(config.spare_surplus)
            return real_build(config)

        monkeypatch.setattr(orchestration, "build_scenario_state", counting_build)
        specs = [
            quick_spec(scheme=scheme, seed=seed, spare_surplus=surplus)
            for surplus in (5, 15)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        executor = SerialExecutor()
        records = executor.run_all(specs)
        assert len(records) == len(specs)
        # 8 specs over one scenario per surplus: the seed lives in the spec,
        # not the config, so each surplus is one consecutive group.
        assert builds == [5, 15]

    def test_serial_executor_matches_spec_by_spec_execution(self):
        specs = [
            quick_spec(scheme=scheme, seed=seed)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        grouped = SerialExecutor().run_all(specs)
        assert [record_to_dict(execute_run(spec)) for spec in specs] == [
            record_to_dict(record) for record in grouped
        ]

    def test_parallel_pool_persists_across_run_all_calls(self):
        specs = [
            quick_spec(scheme=scheme, seed=seed)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        with ParallelExecutor(2) as executor:
            first = executor.run_all(specs)
            pool = executor._pool
            assert pool is not None
            second = executor.run_all(specs)
            assert executor._pool is pool  # same workers, not a fresh pool
        assert executor._pool is None  # context exit reaped it
        assert [record_to_dict(a) for a in first] == [
            record_to_dict(b) for b in second
        ]

    def test_parallel_pool_rebuilds_when_registry_changes(self):
        from repro.experiments.registry import register_scheme, unregister_scheme

        specs = [quick_spec(scheme=scheme, seed=1) for scheme in ("SR", "AR")]
        with ParallelExecutor(2) as executor:
            executor.run_all(specs)
            pool = executor._pool
            register_scheme("SR-pool-test", _module_level_sr_factory)
            try:
                executor.run_all(specs + [quick_spec(scheme="SR-pool-test", seed=1)])
                assert executor._pool is not pool  # overrides changed -> new pool
            finally:
                unregister_scheme("SR-pool-test")

    def test_group_clones_leave_the_shared_build_untouched(self, monkeypatch):
        """Every spec of a group simulates on its own clone of one build."""
        from repro.experiments import orchestration

        built = []
        real_build = orchestration.build_initial_state

        def recording_build(spec):
            state = real_build(spec)
            built.append((state, state.to_bytes()))
            return state

        monkeypatch.setattr(orchestration, "build_initial_state", recording_build)
        specs = [quick_spec(scheme=scheme, seed=3) for scheme in ("SR", "AR", "SR")]
        records = orchestration._run_group(specs)
        assert len(built) == 1
        state, pristine = built[0]
        assert state.to_bytes() == pristine  # simulations ran on clones
        assert [record_to_dict(r) for r in records] == [
            record_to_dict(execute_run(spec)) for spec in specs
        ]
