"""Load benchmark for the ``repro serve`` experiment service.

Stands up an in-process server (ephemeral port, ephemeral sqlite store) and
drives it with the workload shape the broker exists for:

* a **cold pass** — every spec is novel, so each request simulates through
  the broker (per-request latency = queueing + simulation + persistence);
* a **warm pass** — the identical specs again, now answered from the cache
  (per-request latency = one HTTP round-trip + one backend lookup);
* a **herd pass** — many concurrent requests for one novel spec, which the
  broker's in-flight dedup must collapse onto a single simulation.

Three further sections run off the HTTP socket.  The first two profile the
cold path itself — the exact code a broker runs per cold spec:

* a **cold-path breakdown** — seconds spent building the initial scenario
  state versus simulating from it, per scheme;
* a **sweep-shaped cold workload** — every scheme crossed with several
  trial seeds over a handful of shared scenarios (the shape every sweep
  and figure driver emits), executed in four passes: the survivors-only
  build with and without scenario reuse (the default reuses), and the
  per-victim reference build (:mod:`reference_build`: index the whole
  deployment, then one ``disable_node`` call per thinned node) with and
  without it.  "Shared" passes run the batch through an in-process
  ``ExperimentBroker(workers=1).run``, which builds each consecutive
  same-scenario group once and simulates every spec on a clone; "unshared"
  passes call ``execute_run`` spec by spec, one build each.  The
  ``batched_unshared`` key names the survivors-only build.  Records from
  all four passes must be byte-identical.

The third, **pool scaling**, times the 60-spec Fig. 6-8 batch
(``build_comparison_specs(SECTION5_CONFIG.with_seed(seed),
PAPER_SPARE_VALUES, trials=3)``) through ``ExperimentBroker(workers=1)``
(in-process) and ``ExperimentBroker(workers=2)`` (two forked pool
workers), one fresh interpreter per run, with the pool's start-up inside
the timed span.  It reports per-seed wall times, their medians and the
cores the process may run on.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py          # writes BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke  # CI guards only

Latency is reported honestly: every pass records p50 and max; p99 appears
only when a pass has at least ``P99_MIN_SAMPLES`` requests (over a dozen
requests, "p99" is just the max wearing a statistics costume).  The guards
— enforced in ``--smoke`` and on the full run alike — are:

* warm-cache throughput at least 10x cold throughput (the service exists to
  make repeated queries cheap);
* the herd performs exactly one simulation (in-flight dedup works);
* warm p50 latency under a generous quarter-second ceiling (a cache hit
  must never cost simulation time);
* the default path (survivors-only build + scenario reuse) runs the
  sweep-shaped cold workload at least ``MIN_COLD_SWEEP_SPEEDUP`` times
  faster than the unshared per-victim reference, and no slower than the
  shared per-victim reference, with byte-identical records.  The reuse's
  own gain over the unshared build (``scenario_reuse_speedup``) is reported
  but not guarded;
* the two-worker pool runs the Fig. 6-8 batch at least
  ``MIN_POOL_SPEEDUP`` times faster than one in-process worker (median over
  the seeds), with byte-identical records.  The speedup half of this guard
  needs two cores; on a single-core host it is skipped with a note.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.broker import ExperimentBroker
from repro.experiments.orchestration import (
    RunSpec,
    build_initial_state,
    execute_run,
    simulate_from,
)
from repro.experiments.persistence import record_to_dict
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, make_server
from repro.sim.scenario import ScenarioConfig

from reference_build import per_victim_build

#: Scenario shape of every benchmarked spec: the paper's Section-5 workload
#: (16x16 grid, 5000 deployed sensors), so cold-pass cost is the cost a real
#: figure query pays.
SCENARIO = {"columns": 16, "rows": 16, "deployed_count": 5000, "spare_surplus": 55}
SCHEMES = ("SR", "AR")
MAX_ROUNDS = 60
WARM_REPEATS = 6
HERD_SIZE = 8
#: Below this many requests a pass reports no p99 — the tail quantile of a
#: dozen samples is just the max.
P99_MIN_SAMPLES = 100
#: Sweep-shaped cold workload shape: per scenario, every scheme is run with
#: ``SWEEP_TRIALS`` controller seeds (the scenario — deployment, thinning —
#: is shared; only the controller randomness differs).
SWEEP_TRIALS = 4
#: Each sweep pass runs this many times; its median wall time is reported.
SWEEP_REPEATS = 3
#: Guards (see module docstring).
MIN_WARM_SPEEDUP = 10.0
MAX_WARM_P50_SECONDS = 0.25
MIN_COLD_SWEEP_SPEEDUP = 2.0
MIN_POOL_SPEEDUP = 1.5
#: Seeds of the pool-scaling section (full run / ``--smoke``).
POOL_SEEDS = (1, 2, 3, 4, 5)
POOL_SMOKE_SEEDS = (1, 2, 3)

#: One pool-scaling run, in a fresh interpreter: argv is (workers, seed); it
#: prints the wall seconds of the batch (broker start-up and shutdown
#: included) and the sha256 of its records.
_POOL_RUN = """
import hashlib, json, sys, time
from repro.experiments.broker import ExperimentBroker
from repro.experiments.figures import PAPER_SPARE_VALUES, SECTION5_CONFIG
from repro.experiments.persistence import record_to_dict
from repro.experiments.sweep import build_comparison_specs

workers, seed = int(sys.argv[1]), int(sys.argv[2])
specs = build_comparison_specs(SECTION5_CONFIG.with_seed(seed), PAPER_SPARE_VALUES, trials=3)
started = time.perf_counter()
with ExperimentBroker(workers=workers) as broker:
    records = broker.run(specs)
seconds = time.perf_counter() - started
dump = json.dumps([record_to_dict(record) for record in records], sort_keys=True)
print(json.dumps({"specs": len(specs), "seconds": seconds,
                  "digest": hashlib.sha256(dump.encode()).hexdigest()}))
"""


def spec_payload(scheme: str, seed: int) -> dict:
    """One run-spec request body for the benchmark workload."""
    return {
        "scenario": {**SCENARIO, "seed": seed},
        "scheme": scheme,
        "seed": seed,
        "max_rounds": MAX_ROUNDS,
    }


def build_workload(seeds: int) -> list:
    """The benchmark's distinct specs: every scheme crossed with every seed."""
    return [
        spec_payload(scheme, seed) for scheme in SCHEMES for seed in range(1, seeds + 1)
    ]


def latency_summary(latencies: list) -> dict:
    """p50 always, max always, p99 only when the sample count supports it."""
    ordered = sorted(latencies)
    summary = {
        "latency_p50_seconds": round(statistics.median(ordered), 5),
        "latency_max_seconds": round(ordered[-1], 5),
    }
    if len(ordered) >= P99_MIN_SAMPLES:
        summary["latency_p99_seconds"] = round(
            ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))], 5
        )
    return summary


def timed_pass(client: ServeClient, payloads: list) -> dict:
    """Issue every payload sequentially and summarize latency/throughput."""
    latencies = []
    cached = 0
    started = time.perf_counter()
    for payload in payloads:
        t0 = time.perf_counter()
        response = client.run(payload)
        latencies.append(time.perf_counter() - t0)
        cached += 1 if response["cached"] else 0
    wall = time.perf_counter() - started
    return {
        "requests": len(payloads),
        "cached_answers": cached,
        "wall_seconds": round(wall, 4),
        "specs_per_second": round(len(payloads) / wall, 2),
        **latency_summary(latencies),
    }


def herd_pass(server, client: ServeClient, payload: dict) -> dict:
    """Fire HERD_SIZE concurrent requests for one novel spec; count simulations."""
    before = server.broker.stats()
    results = []
    errors = []

    def ask():
        try:
            results.append(client.run(payload))
        except Exception as error:  # noqa: BLE001 - reported in the summary
            errors.append(str(error))

    threads = [threading.Thread(target=ask) for _ in range(HERD_SIZE)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    after = server.broker.stats()
    executed = after.executed - before.executed
    identical = bool(results) and all(
        r["record"] == results[0]["record"] for r in results
    )
    return {
        "concurrent_requests": HERD_SIZE,
        "errors": errors,
        "wall_seconds": round(wall, 4),
        "simulations_performed": executed,
        "dedup_or_cache_hits": (after.dedup_hits - before.dedup_hits)
        + (after.cache_hits - before.cache_hits),
        "records_identical": identical,
    }


def _sweep_scenario(seed: int) -> ScenarioConfig:
    """The benchmark scenario as a typed config with the given build seed."""
    return ScenarioConfig(**SCENARIO, seed=seed)


def cold_path_breakdown() -> dict:
    """Seconds per cold spec split into state build vs simulation, per scheme.

    This times the two halves of ``execute_run`` directly (no HTTP), so
    the split is exactly what a broker worker pays on a novel spec.
    """
    config = _sweep_scenario(seed=1)
    started = time.perf_counter()
    state = build_initial_state(
        RunSpec(scenario=config, scheme=SCHEMES[0], seed=1, max_rounds=MAX_ROUNDS)
    )
    build_seconds = time.perf_counter() - started
    simulate = {}
    for scheme in SCHEMES:
        spec = RunSpec(scenario=config, scheme=scheme, seed=2, max_rounds=MAX_ROUNDS)
        started = time.perf_counter()
        simulate_from(state.clone(), spec)
        simulate[scheme] = round(time.perf_counter() - started, 4)
    typical_simulate = statistics.median(simulate.values())
    return {
        "state_build_seconds": round(build_seconds, 4),
        "simulate_seconds": simulate,
        "state_build_fraction_of_cold_spec": round(
            build_seconds / (build_seconds + typical_simulate), 3
        ),
    }


def _timed_records(specs: list, per_victim: bool, shared: bool) -> tuple:
    """Run the specs once; return (records, wall seconds).

    ``per_victim`` builds with the per-victim reference; ``shared`` runs the
    batch through a fresh in-process :class:`ExperimentBroker`, which builds
    each consecutive same-scenario group once, otherwise every spec builds
    its own initial state through ``execute_run``.
    """
    with per_victim_build() if per_victim else nullcontext():
        if shared:
            with ExperimentBroker(workers=1) as broker:
                started = time.perf_counter()
                records = broker.run(specs)
                wall = time.perf_counter() - started
        else:
            started = time.perf_counter()
            records = [execute_run(spec) for spec in specs]
            wall = time.perf_counter() - started
    return records, wall


def sweep_cold_pass(scenarios: int) -> dict:
    """Sweep-shaped cold throughput: default vs per-victim build, reuse off vs on.

    Per scenario the workload holds ``len(SCHEMES) * SWEEP_TRIALS`` specs
    sharing one deployment — the shape every sweep/figure driver emits.
    The default path is the survivors-only build with scenario reuse (the
    broker's grouped path); the reference passes swap in the per-victim
    build of :func:`reference_build.per_victim_build`.  The four passes run
    ``SWEEP_REPEATS`` times in turn and each reports its median wall time.
    """
    specs = [
        RunSpec(
            scenario=_sweep_scenario(seed=scenario_seed),
            scheme=scheme,
            seed=1_000 + trial,
            max_rounds=MAX_ROUNDS,
        )
        for scenario_seed in range(101, 101 + scenarios)
        for trial in range(SWEEP_TRIALS)
        for scheme in SCHEMES
    ]
    passes = {
        "reference_unshared": (True, False),
        "reference_shared": (True, True),
        "batched_unshared": (False, False),
        "default": (False, True),
    }
    samples = {name: [] for name in passes}
    dumps = set()
    for _ in range(SWEEP_REPEATS):
        for name, (per_victim, shared) in passes.items():
            records, wall = _timed_records(specs, per_victim, shared)
            samples[name].append(wall)
            dumps.add(
                tuple(json.dumps(record_to_dict(r), sort_keys=True) for r in records)
            )
    walls = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "scenarios": scenarios,
        "specs_per_scenario": len(SCHEMES) * SWEEP_TRIALS,
        "specs": len(specs),
        "repeats": SWEEP_REPEATS,
        "wall_seconds": {name: round(wall, 4) for name, wall in walls.items()},
        "specs_per_second": {
            name: round(len(specs) / wall, 2) for name, wall in walls.items()
        },
        "speedup_vs_reference_unshared": round(
            walls["reference_unshared"] / walls["default"], 2
        ),
        "speedup_vs_reference_shared": round(
            walls["reference_shared"] / walls["default"], 2
        ),
        "scenario_reuse_speedup": round(
            walls["batched_unshared"] / walls["default"], 2
        ),
        "records_identical": len(dumps) == 1,
    }


def cores_available() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_scaling(seeds) -> dict:
    """The Fig. 6-8 batch on one in-process worker vs a two-worker pool.

    Each (seed, workers) run is a fresh interpreter, so neither side reuses
    a warm pool or a warm import; the two worker counts alternate per seed.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    seconds = {1: [], 2: []}
    digests = {}
    specs = 0
    for seed in seeds:
        for workers in (1, 2):
            completed = subprocess.run(
                [sys.executable, "-c", _POOL_RUN, str(workers), str(seed)],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            )
            run = json.loads(completed.stdout.strip().splitlines()[-1])
            seconds[workers].append(round(run["seconds"], 4))
            digests.setdefault(seed, set()).add(run["digest"])
            specs = run["specs"]
    medians = {workers: statistics.median(values) for workers, values in seconds.items()}
    return {
        "workload": (
            "build_comparison_specs(SECTION5_CONFIG.with_seed(seed), "
            "PAPER_SPARE_VALUES, trials=3)"
        ),
        "specs": specs,
        "seeds": list(seeds),
        "cores_available": cores_available(),
        "seconds": {f"workers_{w}": values for w, values in seconds.items()},
        "median_seconds": {f"workers_{w}": round(m, 4) for w, m in medians.items()},
        "speedup": round(medians[1] / medians[2], 2),
        "records_identical": all(len(found) == 1 for found in digests.values()),
    }


def run_benchmark(
    seeds: int, workers: int, sweep_scenarios: int, pool_seeds
) -> tuple:
    """Execute all passes against a private server; return (report, failures)."""
    server = make_server(ServeConfig(port=0, workers=workers))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=300)
    try:
        workload = build_workload(seeds)
        cold = timed_pass(client, workload)
        warm = timed_pass(client, workload * WARM_REPEATS)
        herd = herd_pass(server, client, spec_payload("SR", seed=10_000))
        stats = client.stats()
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()

    breakdown = cold_path_breakdown()
    sweep = sweep_cold_pass(scenarios=sweep_scenarios)
    pool = pool_scaling(pool_seeds)

    speedup = warm["specs_per_second"] / cold["specs_per_second"]
    report = {
        "benchmark": "bench_serve",
        "description": (
            "HTTP experiment-service load benchmark: cold pass (every spec "
            "simulated through the broker) vs warm pass (identical specs "
            "answered from the cache) vs a concurrent herd of one novel spec "
            "(in-flight dedup), plus the off-socket cold path itself: the "
            "state-build/simulate split per cold spec and a sweep-shaped "
            "workload run with the survivors-only and the per-victim reference "
            "build, each spec by spec (unshared) and through an in-process "
            "broker that builds each same-scenario group once (shared) "
            "(byte-identical records required), and the 60-spec Fig. 6-8 "
            "batch on a one-worker (in-process) vs a two-worker (process "
            "pool) broker, a fresh interpreter per run; p99 latency is "
            "reported only for passes with >= 100 requests, smaller passes "
            "carry p50/max only; guards: warm_vs_cold_speedup >= 10x, "
            "cold_path.sweep.speedup_vs_reference_unshared >= 2x, "
            "cold_path.sweep.speedup_vs_reference_shared >= 1x, "
            "pool_scaling.speedup >= 1.5x where cores_available >= 2; "
            "scenario_reuse_speedup is an unguarded diagnostic"
        ),
        "scenario": SCENARIO,
        "schemes": list(SCHEMES),
        "max_rounds": MAX_ROUNDS,
        "distinct_specs": len(SCHEMES) * seeds,
        "broker_workers": workers,
        "cold": cold,
        "warm": warm,
        "warm_vs_cold_speedup": round(speedup, 1),
        "herd": herd,
        "cold_path": {
            "breakdown": breakdown,
            "sweep": sweep,
        },
        "pool_scaling": pool,
        "server_stats": stats,
    }

    failures = []
    if cold["cached_answers"] != 0:
        failures.append("cold pass hit the cache; the workload is not novel")
    if warm["cached_answers"] != warm["requests"]:
        failures.append(
            f"warm pass missed the cache ({warm['cached_answers']} of "
            f"{warm['requests']} answered cached)"
        )
    if speedup < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm-cache throughput is only {speedup:.1f}x cold "
            f"(guard: >= {MIN_WARM_SPEEDUP:.0f}x)"
        )
    if warm["latency_p50_seconds"] > MAX_WARM_P50_SECONDS:
        failures.append(
            f"warm p50 latency {warm['latency_p50_seconds']}s exceeds "
            f"{MAX_WARM_P50_SECONDS}s"
        )
    if herd["errors"]:
        failures.append(f"herd requests errored: {herd['errors'][:3]}")
    if herd["simulations_performed"] != 1:
        failures.append(
            f"herd of {HERD_SIZE} identical requests performed "
            f"{herd['simulations_performed']} simulations (dedup broken)"
        )
    if not herd["records_identical"]:
        failures.append("herd requests received differing records")
    if not sweep["records_identical"]:
        failures.append(
            "sweep records differ between the survivors-only, per-victim, "
            "shared and unshared passes"
        )
    if sweep["speedup_vs_reference_unshared"] < MIN_COLD_SWEEP_SPEEDUP:
        failures.append(
            f"the default path runs the sweep-shaped cold workload only "
            f"{sweep['speedup_vs_reference_unshared']:.2f}x faster than the "
            f"unshared per-victim reference "
            f"(guard: >= {MIN_COLD_SWEEP_SPEEDUP:.0f}x)"
        )
    if sweep["speedup_vs_reference_shared"] < 1.0:
        failures.append(
            f"the default path runs the sweep-shaped cold workload at "
            f"{sweep['speedup_vs_reference_shared']:.2f}x the shared per-victim "
            "reference (guard: no slower)"
        )
    if not pool["records_identical"]:
        failures.append("the pool and in-process brokers produced different records")
    if pool["cores_available"] < 2:
        print(
            f"bench_serve: pool-scaling guard skipped: only "
            f"{pool['cores_available']} core available, a two-worker pool "
            "cannot outrun one worker here"
        )
    elif pool["speedup"] < MIN_POOL_SPEEDUP:
        failures.append(
            f"the two-worker pool runs the Fig. 6-8 batch only "
            f"{pool['speedup']:.2f}x as fast as one in-process worker "
            f"(guard: >= {MIN_POOL_SPEEDUP}x on {pool['cores_available']} cores)"
        )
    return report, failures


def main(argv=None) -> int:
    """Benchmark entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, guards only, no BENCH_serve.json",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, help="seeds per scheme (distinct specs / 2)"
    )
    parser.add_argument("--workers", type=int, default=2, help="server worker processes")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_serve.json",
        help="report destination (full runs only)",
    )
    args = parser.parse_args(argv)

    seeds = args.seeds if args.seeds is not None else (2 if args.smoke else 12)
    sweep_scenarios = 2 if args.smoke else 3
    report, failures = run_benchmark(
        seeds=seeds,
        workers=args.workers,
        sweep_scenarios=sweep_scenarios,
        pool_seeds=POOL_SMOKE_SEEDS if args.smoke else POOL_SEEDS,
    )

    if failures:
        for failure in failures:
            print(f"bench_serve FAILED: {failure}", file=sys.stderr)
        return 1
    sweep = report["cold_path"]["sweep"]
    print(
        f"bench_serve OK: cold {report['cold']['specs_per_second']} specs/s, "
        f"warm {report['warm']['specs_per_second']} specs/s "
        f"({report['warm_vs_cold_speedup']}x), herd of "
        f"{report['herd']['concurrent_requests']} -> "
        f"{report['herd']['simulations_performed']} simulation, "
        f"cold sweep {sweep['speedup_vs_reference_unshared']}x / "
        f"{sweep['speedup_vs_reference_shared']}x the per-victim reference "
        f"without / with scenario reuse "
        f"({sweep['specs_per_second']['default']} specs/s, identical records), "
        f"Fig. 6-8 batch {report['pool_scaling']['speedup']}x on a two-worker pool"
    )
    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
