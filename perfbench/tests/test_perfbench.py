"""The benchmark's own tests: seeded inputs, record identity, trace coverage.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import threading
import time

import pytest

import spans
import workloads
from repro.experiments.broker import ExperimentBroker
from repro.experiments.orchestration import RunSpec, execute_run
from repro.experiments.persistence import record_to_dict
from repro.serve.server import ServeConfig, make_server
from repro.sim.scenario import ScenarioConfig


def _small_specs():
    scenario = ScenarioConfig(columns=6, rows=6, deployed_count=240, spare_surplus=10, seed=3)
    return [RunSpec(scenario=scenario, scheme=scheme, seed=3) for scheme in ("SR", "AR", "VF")]


def _dumped(records):
    return json.dumps([record_to_dict(r) for r in records], sort_keys=True)


# ------------------------------------------------------------ input generation
def test_serve_schedule_is_identical_for_equal_seeds():
    assert workloads.serve_schedule(7, 12.0) == workloads.serve_schedule(7, 12.0)
    assert workloads.serve_schedule(7, 12.0) != workloads.serve_schedule(8, 12.0)


def test_serve_schedule_mix_and_warm_repeats():
    schedule = workloads.serve_schedule(3, 30.0)
    counts = workloads.schedule_summary(schedule)
    total = len(schedule)
    assert total == round(workloads.SERVE_RATE_PER_S * 30.0)
    rejected = total // 20
    unknown = -(-rejected // workloads.UNKNOWN_SCHEME_EVERY)
    assert counts == {"warm": total * 14 // 20, "cold": total * 4 // 20, "stream": total // 20,
                      "malformed": rejected - unknown, "unknown_scheme": unknown}
    novel = [json.loads(r.body)["seed"] for r in schedule
             if r.kind in ("cold", "stream", "unknown_scheme")]
    assert len(set(novel)) == len(novel), "novel specs must have distinct seeds"
    for request in schedule:
        if request.kind == "warm":
            repeated = schedule[request.repeats]
            assert repeated.kind == "cold" and repeated.body == request.body
            assert repeated.at_s <= request.at_s - workloads.WARM_MIN_AGE_S


def test_batch_inputs_are_identical_for_equal_seeds():
    assert workloads.catalog_scenarios_for(5, 2) == workloads.catalog_scenarios_for(5, 2)
    assert workloads.catalog_scenarios_for(5, 2) != workloads.catalog_scenarios_for(5, 3)
    default = workloads.catalog_scenarios_for(workloads.DEFAULT_SEED, 0)
    from repro.experiments.catalog import load_catalog_scenario

    assert [s.scenario.seed for s in default] == [
        load_catalog_scenario(s.name).scenario.seed for s in default
    ]
    assert workloads.derive_seed(1, "x", 2) == workloads.derive_seed(1, "x", 2)


# --------------------------------------------------------------- the wrappers
def _patched_attributes():
    """Every attribute ``install`` may replace, by identity."""
    import repro.experiments.broker as broker
    import repro.experiments.persistence as persistence
    import repro.network.channel as channel
    import repro.network.energy as energy
    import repro.network.failures as failures
    import repro.network.state as state
    import repro.serve.server as server
    import repro.sim.engine as engine

    classes = [failures.ThinningToEnabledCount, engine.RoundBasedEngine, energy.EnergyModel,
               channel.ChannelState, persistence.RunCache, state.WsnState,
               broker.ExperimentBroker, server._RequestHandler]
    try:
        from repro.experiments.state_cache import StateCache
    except ImportError:  # the layer was deleted; install() skips it too
        pass
    else:
        classes.append(StateCache)
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for key, value in vars(module).items():
                if callable(value):
                    seen[(name, key)] = value
    for cls in classes:
        for key, value in vars(cls).items():
            seen[(cls.__qualname__, key)] = value
        seen[(cls.__qualname__, "send_response?")] = "send_response" in vars(cls)
    return seen


def test_uninstall_restores_every_original():
    before = _patched_attributes()
    tracer = spans.Tracer()
    with spans.install(tracer):
        during = _patched_attributes()
    after = _patched_attributes()
    assert during != before
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    from repro.experiments import broker, orchestration

    assert broker.execute_run is orchestration.execute_run


def test_traced_records_are_byte_identical():
    specs = _small_specs()
    plain = [execute_run(spec) for spec in specs]
    tracer = spans.Tracer()
    with spans.install(tracer):
        traced = [execute_run(spec) for spec in specs]
        with ExperimentBroker(workers=2) as broker:
            brokered = broker.run(specs)
    assert _dumped(traced) == _dumped(plain)
    assert _dumped(brokered) == _dumped(plain)
    names = {span[3] for span in tracer.spans}
    assert {"sim.engine.run", "controller.SR.round", "controller.VF.round",
            "experiments.orchestration.simulate_from"} <= names


def test_spans_of_one_spec_share_a_trace():
    tracer = spans.Tracer()
    spec = _small_specs()[0]
    with spans.install(tracer):
        execute_run(dataclasses.replace(spec, seed=11))
    traces = {s[2] for s in tracer.spans if s[3].startswith(("experiments.", "sim.", "controller."))}
    assert len(traces) == 1 and 0 not in traces


def test_broker_links_only_specs_that_reach_a_worker(tmp_path):
    from repro.experiments.persistence import RunCache

    spec = _small_specs()[0]
    tracer = spans.Tracer()
    with spans.install(tracer):
        with ExperimentBroker(cache=RunCache(tmp_path), workers=1) as broker:
            broker.run([spec])
            again = dataclasses.replace(spec)
            assert broker.submit(again).cached
        gate = threading.Event()

        def gated(spec):
            gate.wait(30)
            return execute_run(spec)

        with ExperimentBroker(workers=1, run_fn=gated) as broker:
            slow = dataclasses.replace(spec, seed=12)
            first = broker.submit(slow)
            twin = dataclasses.replace(slow)
            assert broker.submit(twin) is first and first.deduplicated
            gate.set()
            first.result(timeout=30)
    assert id(again) not in tracer._links and id(twin) not in tracer._links
    assert tracer._links[id(slow)][4] is slow
    waits = [s for s in tracer.spans if s[3] == "experiments.broker.queue_wait"]
    assert len(waits) == 2


class _SlowSubmitTracer(spans.Tracer):
    """Pauses after each submit span, so workers start specs before it returns."""

    def close(self, frame) -> None:
        super().close(frame)
        if frame.name == "experiments.broker.submit":
            time.sleep(0.005)


def test_every_brokered_run_joins_its_submitters_trace():
    specs = [RunSpec(scenario=ScenarioConfig(columns=4, rows=4, deployed_count=100,
                                             spare_surplus=4, seed=seed), scheme="SR", seed=seed)
             for seed in range(10)]
    tracer = _SlowSubmitTracer()
    with spans.install(tracer):
        with ExperimentBroker(workers=2) as broker:
            roots, handles = [], []
            for spec in specs:
                frame = tracer.open("root", scoped=True)
                handles.append(broker.submit(spec))
                roots.append(frame.trace_id)
                tracer.close(frame)
            for handle in handles:
                handle.result(timeout=60)
    waits = sorted(s[2] for s in tracer.spans if s[3] == "experiments.broker.queue_wait")
    assert waits == sorted(roots)
    simulated = {s[2] for s in tracer.spans if s[3] == "experiments.orchestration.simulate_from"}
    assert simulated == set(roots)


def test_unknown_scheme_500_is_a_known_defect_not_a_failure():
    from serve_load import Outcome, check

    schedule = workloads.serve_schedule(4, 10.0)
    unknown = next(r for r in schedule if r.kind == "unknown_scheme")
    malformed = next(r for r in schedule if r.kind == "malformed")
    outcomes = [Outcome(unknown, status=500), Outcome(malformed, status=400)]
    assert check(outcomes, {}) == ({}, {unknown.index: 500})
    outcomes = [Outcome(unknown, status=400), Outcome(malformed, status=500)]
    problems, known = check(outcomes, {})
    assert list(problems) == [malformed.index] and known == {}


# ------------------------------------------------------------- span coverage
def test_cold_request_span_coverage_meets_the_target():
    """trace.span_coverage of a cold ``POST /run`` against the 95% target."""
    from repro.serve.client import ServeClient

    tracer = spans.Tracer()
    with spans.install(tracer):
        server = make_server(ServeConfig(port=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = json.loads(workloads.warmup_request(1).body)
            first = ServeClient(server.url).run(body)
            second = ServeClient(server.url).run(body)
        finally:
            server.shutdown()
            thread.join(timeout=30)
            server.close()
    assert not thread.is_alive()
    assert not first["cached"] and second["cached"]
    expected = record_to_dict(execute_run(RunSpec(
        scenario=ScenarioConfig(**body["scenario"]), scheme=body["scheme"], seed=body["seed"])))
    assert first["record"] == expected == second["record"]
    cold = spans.coverage(tracer.spans, ("serve.server.handle_run",),
                          require="experiments.orchestration.simulate_from")
    assert len(cold) == 1
    _, share = cold[0]
    print(f"trace.span_coverage of a cold spec: {share:.3f} (target 0.95)")
    assert share >= 0.95
    names = {s[3] for s in tracer.spans}
    assert {"experiments.broker.queue_wait", "experiments.persistence.put",
            "experiments.persistence.get", "sim.scenario.build"} <= names
    assert tracer.counters["serve.server.status_2xx"] == 2


def test_aggregate_self_time_excludes_children():
    recorded = [
        (1, 0, 1, "outer", 0, 100, 7),
        (2, 1, 1, "inner", 10, 40, 7),
        (3, 1, 1, "other-thread", 10, 90, 8),
    ]
    table = spans.aggregate(recorded)
    assert table["outer"]["self_ns"] == 70
    assert table["inner"]["self_ns"] == 30
    assert spans.coverage(recorded, ("outer",)) == [(100 / 1e6, 0.8)]


@pytest.mark.parametrize("module", ["run", "serve_load", "serve_traced"])
def test_modules_import_without_side_effects(module):
    importlib.import_module(module)
