"""Tests for the experiment broker (satellite: broker semantics).

The contracts exercised here:

* two concurrent submissions of an identical spec share **one** simulation
  (in-flight dedup) and both receive the same record;
* interactive submissions overtake queued batch work;
* a bounded queue rejects overload with :class:`BrokerQueueFull` instead of
  buffering unboundedly;
* records produced through the broker, in-process or on its worker pool,
  are byte-identical to per-spec ``execute_run`` records;
* ``execute_many`` collapses duplicate specs within one batch onto a single
  execution while preserving spec order in the returned records;
* a batch's consecutive same-scenario specs share one initial-state build,
  a failing spec fails only its own handle, a ``BrokerQueueFull`` part-way
  through a batch still queues what it admitted, and a failing store never
  strands a waiter or kills a worker;
* a pool worker that dies fails only its group, and the next group runs on
  a freshly forked pool.
"""

import json
import os
import threading
import time

import pytest

from repro.experiments.broker import BrokerQueueFull, ExperimentBroker, Priority
from repro.experiments.orchestration import RunSpec, execute_many, execute_run
from repro.experiments.persistence import RunCache, record_to_dict, run_key
from repro.sim.scenario import ScenarioConfig

QUICK_CONFIG = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7)


def quick_spec(scheme: str = "SR", seed: int = 7, spare_surplus: int = 10) -> RunSpec:
    return RunSpec(
        scenario=QUICK_CONFIG.with_spare_surplus(spare_surplus),
        scheme=scheme,
        seed=seed,
        max_rounds=40,
    )


def wait_until_draining(broker, timeout: float = 5.0) -> None:
    """Block until the worker has dequeued everything pending (it may be gated)."""
    deadline = time.monotonic() + timeout
    while broker.stats().pending and time.monotonic() < deadline:
        time.sleep(0.005)
    assert broker.stats().pending == 0, "worker never picked up the queued spec"


class GatedRunner:
    """A run_fn that blocks until released, counting real executions."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec):
        self.gate.wait(timeout=30)
        with self._lock:
            self.calls.append(spec)
        return execute_run(spec)


# ------------------------------------------------------------ in-flight dedup
def test_identical_concurrent_submissions_share_one_simulation():
    """Acceptance: two submissions of the same spec -> exactly one run."""
    runner = GatedRunner()
    with ExperimentBroker(workers=2, run_fn=runner) as broker:
        spec = quick_spec()
        first = broker.submit(spec)
        second = broker.submit(spec)
        assert second is first
        assert second.deduplicated
        runner.gate.set()
        record_a = first.result(timeout=30)
        record_b = second.result(timeout=30)
    assert record_a is record_b
    assert len(runner.calls) == 1
    stats = broker.stats()
    assert stats.submitted == 2
    assert stats.dedup_hits == 1
    assert stats.executed == 1


def test_resolved_specs_are_not_deduplicated_without_a_cache():
    """Dedup only spans in-flight work; a finished spec runs again (no cache)."""
    runner = GatedRunner()
    runner.gate.set()
    with ExperimentBroker(workers=1, run_fn=runner) as broker:
        spec = quick_spec()
        broker.submit(spec).result(timeout=30)
        handle = broker.submit(spec)
        assert not handle.deduplicated
        handle.result(timeout=30)
    assert len(runner.calls) == 2


def test_cache_answers_before_the_queue(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(execute_run(quick_spec()))
    runner = GatedRunner()  # never released: a queued run would hang
    with ExperimentBroker(cache=cache, workers=1, run_fn=runner) as broker:
        handle = broker.submit(quick_spec())
        assert handle.done() and handle.cached
        record = handle.result(timeout=5)
    assert record.cached
    assert not runner.calls
    assert broker.stats().cache_hits == 1


# ------------------------------------------------------------------ priority
def test_interactive_overtakes_queued_batch_work():
    runner = GatedRunner()
    with ExperimentBroker(workers=1, run_fn=runner) as broker:
        blocker = broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the one worker now holds seed 1 at the gate
        batch = [broker.submit(quick_spec(seed=s), Priority.BATCH) for s in (2, 3)]
        urgent = broker.submit(quick_spec(seed=4), Priority.INTERACTIVE)
        runner.gate.set()
        for handle in [blocker, urgent, *batch]:
            handle.result(timeout=30)
    executed_seeds = [spec.seed for spec in runner.calls]
    assert executed_seeds[0] == 1
    assert executed_seeds[1] == 4, "interactive spec should run before batch backfill"


# ---------------------------------------------------------------- queue bound
def test_bounded_queue_rejects_overload():
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, queue_limit=2, run_fn=runner)
    try:
        broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the worker holds seed 1 at the gate
        for seed in (2, 3):  # fill the queue exactly to its bound
            broker.submit(quick_spec(seed=seed))
        with pytest.raises(BrokerQueueFull):
            broker.submit(quick_spec(seed=4))
        assert broker.stats().rejected == 1
    finally:
        runner.gate.set()
        broker.shutdown(wait=True)


def test_shutdown_refuses_new_work_but_drains_the_queue():
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, run_fn=runner)
    handle = broker.submit(quick_spec())
    runner.gate.set()
    broker.shutdown(wait=True)
    assert handle.result(timeout=5) is not None
    with pytest.raises(RuntimeError, match="shut down"):
        broker.submit(quick_spec(seed=99))


def test_failed_run_propagates_to_every_waiter():
    def explode(spec):
        raise ValueError("boom")

    with ExperimentBroker(workers=1, run_fn=explode) as broker:
        handle = broker.submit(quick_spec())
        with pytest.raises(ValueError, match="boom"):
            handle.result(timeout=10)
    assert broker.stats().failed == 1


# -------------------------------------------------------------- byte identity
def canonical(records):
    return json.dumps([record_to_dict(r) for r in records], sort_keys=True)


def test_broker_records_match_serial_executor(tmp_path):
    """Acceptance: broker output is byte-identical to per-spec execution."""
    specs = [quick_spec(scheme=s, seed=seed) for s in ("SR", "AR") for seed in (1, 2)]
    serial = [execute_run(spec) for spec in specs]
    for workers in (1, 2):
        with ExperimentBroker(cache=RunCache(tmp_path / str(workers)), workers=workers) as broker:
            brokered = broker.run(specs)
        assert canonical(serial) == canonical(brokered)


# -------------------------------------------------------------- in-batch dedup
def test_execute_many_collapses_duplicate_specs(tmp_path):
    """Satellite: duplicates within one batch are simulated exactly once."""
    base = quick_spec()
    other = quick_spec(scheme="AR")
    specs = [base, other, base, base]
    with ExperimentBroker(cache=RunCache(tmp_path)) as broker:
        records = execute_many(specs, broker=broker)
    assert broker.stats().executed == 2
    assert len(records) == 4
    assert canonical([records[0]]) == canonical([records[2]]) == canonical([records[3]])
    assert records[1].spec.scheme == "AR"
    # The records must still line up with their specs, in order.
    for spec, record in zip(specs, records):
        assert run_key(record.spec) == run_key(spec)


def test_execute_many_dedup_works_without_a_cache():
    base = quick_spec()
    with ExperimentBroker() as broker:
        records = execute_many([base, base], broker=broker)
    assert broker.stats().executed == 1
    assert canonical([records[0]]) == canonical([records[1]])


def test_execute_many_mixes_cache_hits_and_misses(tmp_path):
    cache = RunCache(tmp_path)
    cached_spec = quick_spec()
    cache.put(execute_run(cached_spec))
    with ExperimentBroker(cache=cache) as broker:
        records = execute_many([cached_spec, quick_spec(scheme="AR")], broker=broker)
    assert records[0].cached and not records[1].cached
    assert broker.stats().executed == 1
    # The one-shot path writes the fresh record too.
    assert execute_many([quick_spec(scheme="AR")], cache=cache)[0].cached


def test_execute_many_routes_through_a_broker(tmp_path):
    specs = [quick_spec(seed=s) for s in (1, 2)]
    with ExperimentBroker(cache=RunCache(tmp_path), workers=2) as broker:
        records = execute_many(specs, broker=broker)
        again = execute_many(specs, broker=broker)
    assert canonical(records) == canonical(execute_many(specs))
    assert all(record.cached for record in again)


# ------------------------------------------------------------ scenario reuse
def grouped_specs():
    """Sweep-shaped specs: two scenarios, schemes innermost, consecutive."""
    return [
        quick_spec(scheme=scheme, seed=seed, spare_surplus=surplus)
        for surplus in (5, 15)
        for seed in (1, 2)
        for scheme in ("SR", "AR")
    ]


def counting_builds(monkeypatch):
    """Record every initial-state build (the broker's and any per-spec one)."""
    import repro.experiments.orchestration as orchestration

    builds = []
    real_build = orchestration.build_scenario_state

    def counting_build(config):
        builds.append(config.spare_surplus)
        return real_build(config)

    monkeypatch.setattr(orchestration, "build_scenario_state", counting_build)
    return builds


def test_broker_builds_each_scenario_group_once(monkeypatch):
    builds = counting_builds(monkeypatch)
    specs = grouped_specs()
    with ExperimentBroker(workers=1) as broker:  # in-process: builds are visible
        brokered = broker.run(specs)
        stats = broker.stats()
    assert builds == [5, 15]
    assert stats.executed == len(specs) and stats.pending == 0
    assert canonical(brokered) == canonical([execute_run(spec) for spec in specs])


def test_single_submits_are_groups_of_one(monkeypatch):
    builds = counting_builds(monkeypatch)
    specs = grouped_specs()[:2]
    with ExperimentBroker(workers=1) as broker:
        records = [broker.submit(spec).result(timeout=30) for spec in specs]
    assert builds == [5, 5]
    assert canonical(records) == canonical([execute_run(spec) for spec in specs])


def test_a_failing_spec_fails_only_its_own_handle(monkeypatch):
    builds = counting_builds(monkeypatch)
    good_sr, good_ar = quick_spec(scheme="SR"), quick_spec(scheme="AR")
    bad = quick_spec(scheme="no-such-scheme")
    with ExperimentBroker(workers=1) as broker:
        handles = broker.submit_many([good_sr, bad, good_ar])
        with pytest.raises(KeyError, match="no-such-scheme"):
            handles[1].result(timeout=30)
        records = [handles[0].result(timeout=30), handles[2].result(timeout=30)]
        stats = broker.stats()
    assert builds == [10]  # one group, one build, despite the failure inside it
    assert canonical(records) == canonical([execute_run(good_sr), execute_run(good_ar)])
    assert (stats.executed, stats.failed, stats.in_flight) == (2, 1, 0)


def test_a_failed_build_fails_the_whole_group(monkeypatch):
    import repro.experiments.orchestration as orchestration

    def broken_build(spec):
        raise RuntimeError("deployment exploded")

    monkeypatch.setattr(orchestration, "build_initial_state", broken_build)
    specs = [quick_spec(scheme=scheme) for scheme in ("SR", "AR")]
    with ExperimentBroker(workers=1) as broker:
        handles = broker.submit_many(specs)
        for handle in handles:
            with pytest.raises(RuntimeError, match="deployment exploded"):
                handle.result(timeout=30)
        stats = broker.stats()
        monkeypatch.undo()
        assert broker.submit(specs[0]).result(timeout=30) is not None
    assert (stats.failed, stats.in_flight) == (2, 0)


def test_queue_full_mid_batch_still_queues_the_admitted_specs():
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, queue_limit=2, run_fn=runner)
    try:
        broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the worker holds seed 1 at the gate
        with pytest.raises(BrokerQueueFull):
            broker.submit_many([quick_spec(seed=seed) for seed in (2, 3, 4)])
        stats = broker.stats()
        assert (stats.pending, stats.in_flight, stats.rejected) == (2, 3, 1)
        runner.gate.set()
        deadline = time.monotonic() + 30
        while broker.stats().in_flight and time.monotonic() < deadline:
            time.sleep(0.005)
        assert broker.stats().in_flight == 0, "an admitted spec was never queued"
    finally:
        runner.gate.set()
        broker.shutdown(wait=True)
    assert sorted(spec.seed for spec in runner.calls) == [1, 2, 3]
    assert broker.stats().executed == 3


class FailingStore(RunCache):
    """A run cache whose writes always fail (a full disk, a locked store)."""

    def put(self, record):
        raise OSError("store is read-only")

    def put_many(self, records):
        raise OSError("store is read-only")


def test_a_failing_store_does_not_kill_the_worker(tmp_path):
    with ExperimentBroker(cache=FailingStore(tmp_path), workers=1) as broker:
        spec = quick_spec()
        record = broker.submit(spec).result(timeout=30)
        assert canonical([record]) == canonical([execute_run(spec)])
        assert broker.stats().in_flight == 0
        # The worker is still draining: a later submit executes too.
        broker.submit(quick_spec(seed=8)).result(timeout=30)
        assert broker.stats().executed == 2


# ---------------------------------------------------------------- worker pool
def test_pool_workers_fail_only_the_failing_spec():
    good_sr, good_ar = quick_spec(scheme="SR"), quick_spec(scheme="AR")
    bad = quick_spec(scheme="no-such-scheme")
    with ExperimentBroker(workers=2) as broker:
        handles = broker.submit_many([good_sr, bad, good_ar])
        with pytest.raises(KeyError, match="no-such-scheme"):
            handles[1].result(timeout=60)
        records = [handles[0].result(timeout=60), handles[2].result(timeout=60)]
        stats = broker.stats()
    assert canonical(records) == canonical([execute_run(good_sr), execute_run(good_ar)])
    assert (stats.executed, stats.failed, stats.in_flight) == (2, 1, 0)


def _dying_factory(state):
    """A scheme whose controller construction kills the process running it."""
    os._exit(1)


def test_a_dead_worker_fails_its_group_and_the_pool_is_reforked():
    from repro.experiments.registry import register_scheme, unregister_scheme

    register_scheme("die-test", _dying_factory)
    try:
        with ExperimentBroker(workers=2) as broker:
            doomed = broker.submit(quick_spec(scheme="die-test"))
            with pytest.raises(RuntimeError, match="worker process died"):
                doomed.result(timeout=60)
            stats = broker.stats()
            assert (stats.failed, stats.in_flight) == (1, 0)
            assert broker._pool is None  # the broken pool was dropped
            record = broker.submit(quick_spec(seed=5)).result(timeout=60)
    finally:
        unregister_scheme("die-test")
    assert canonical([record]) == canonical([execute_run(quick_spec(seed=5))])
    assert broker.stats().executed == 1
