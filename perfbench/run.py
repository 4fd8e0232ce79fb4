"""The repository benchmark: three seeded workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sweep --seed 2008 --seconds 30 --trace 0

Workloads:

* ``paper_sweep`` — ``run_section5_experiment`` over ``PAPER_SPARE_VALUES``
  x {SR, AR}, the pipeline behind ``repro figures fig6 fig7 fig8``.
* ``catalog_mix`` — every catalog scenario with every registered scheme
  (stress-64x64 as declared) through ``Scenario.execute()``.
* ``serve_mixed`` — ``repro serve`` driven open loop by warm, cold, streamed
  and malformed ``POST /run`` requests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs once untraced and once with span wrappers installed, checks that the
records are byte-identical, and prints the per-layer metrics.  Outputs are
checked in both modes; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
(``# detail: {...}``) carries sample counts, host facts and validity.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import serve_load  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_WORKLOADS,
    DEFAULT_SEED,
    SERVE_RATE_PER_S,
    captured_sweep_records,
    record_problems,
    records_digest,
    schedule_summary,
    serve_schedule,
    warmup_request,
)

WORKLOADS = ("paper_sweep", "catalog_mix", "serve_mixed")

#: Fresh-interpreter imports timed per run for ``setup_s`` (median reported).
IMPORT_SAMPLES = 7

#: Server starts timed per serve_mixed run for ``setup_s`` (median reported).
SERVER_START_SAMPLES = 5

#: Schemes whose controller rounds are reported per layer.
SCHEMES = ("SR", "SR-shortcut", "SR-energy", "AR", "AR-energy", "VF", "SMART")

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(pct) - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}


def host_facts() -> Dict[str, object]:
    """What every result records about the machine it ran on."""
    return {"cores": os.cpu_count(), "python": platform.python_version()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_setup_s() -> Tuple[float, List[float]]:
    """Median time for a fresh interpreter to import the CLI package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), samples


def pinned_digest(workload: str) -> str:
    """Batch-0 record digest of ``workload`` at :data:`DEFAULT_SEED`."""
    with open(HERE / "pinned.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"][workload]


def scratch_dir() -> Path:
    """Where runs leave traces and the service's ephemeral store."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


# --------------------------------------------------------------- batch runs
def run_batches(workload: str, seed: int, seconds: float, tracer=None,
                count: Optional[int] = None) -> Tuple[List[dict], List[str]]:
    """Run batches until ``seconds`` elapse (or exactly ``count`` batches).

    Returns one entry per batch (index, specs, seconds, digest) and the
    invariant violations of its records.
    """
    batch = BATCH_WORKLOADS[workload]
    batches: List[dict] = []
    problems: List[str] = []
    with captured_sweep_records() as captured:
        deadline = time.perf_counter() + seconds
        index = 0
        while (index < count) if count is not None else (index == 0 or time.perf_counter() < deadline):
            frame = tracer.open("bench.batch") if tracer is not None else None
            started = time.perf_counter()
            records = batch(seed, index, captured)
            elapsed = time.perf_counter() - started
            if frame is not None:
                tracer.close(frame)
            batches.append({"index": index, "specs": len(records), "seconds": elapsed,
                            "digest": records_digest(records)})
            for record in records:
                problems += record_problems(record)
            captured.clear()
            index += 1
    return batches, problems


def pinned_check(workload: str, seed: int, batches: List[dict]) -> List[str]:
    """Compare the default seed's batch 0 with the digest pinned for it."""
    if seed == DEFAULT_SEED:
        digest = batches[0]["digest"]
    else:
        with captured_sweep_records() as captured:
            records = BATCH_WORKLOADS[workload](DEFAULT_SEED, 0, captured)
        digest = records_digest(records)
    expected = pinned_digest(workload)
    if digest != expected:
        return [f"{workload} batch 0 at seed {DEFAULT_SEED}: digest {digest[:16]} != pinned {expected[:16]}"]
    return []


def state_cache_counts() -> Optional[Tuple[int, int]]:
    """(hits, misses) of the process-wide initial-state cache, if it exists."""
    try:
        from repro.experiments.state_cache import default_state_cache
    except ImportError:
        return None
    cache = default_state_cache()
    if cache is None:
        return None
    stats = cache.stats()
    return stats.hits, stats.misses


def batch_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 0`` on a batch workload.

    One operation is one batch, which is what a user waits for: the sweep
    behind ``repro figures fig6 fig7 fig8``, or a run of the whole catalog.
    """
    setup_s, setup_samples = import_setup_s()
    batches, problems = run_batches(workload, seed, seconds)
    problems += pinned_check(workload, seed, batches)
    attempted = sum(b["specs"] for b in batches)
    rates = [b["specs"] / b["seconds"] for b in batches]
    return {
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "problems": problems,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "specs_per_s": metric(statistics.median(rates), "1/s"),
            "op_p50_ms": metric(statistics.median(b["seconds"] for b in batches) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "detail": {"samples": {"setup_s": len(setup_samples), "specs_per_s": len(rates),
                               "op_p50_ms": len(batches)},
                   "specs_per_batch": batches[0]["specs"],
                   "setup_samples_s": setup_samples},
    }


def untraced_pass(workload: str, seed: int, seconds: float) -> List[dict]:
    """Run the untraced half of a trace run in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--pass-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["batches"]


def batch_per_layer(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 1`` on a batch workload: same batches untraced, then traced."""
    reference = untraced_pass(workload, seed, seconds / 2)
    tracer = spans.Tracer()
    before = state_cache_counts()
    with spans.install(tracer):
        batches, problems = run_batches(workload, seed, 0, tracer, count=len(reference))
    after = state_cache_counts()
    for ours, theirs in zip(batches, reference):
        if ours["digest"] != theirs["digest"]:
            problems.append(f"batch {ours['index']}: traced records differ from untraced")
    problems += pinned_check(workload, seed, batches)
    tracer.dump(scratch_dir() / f"spans-{workload}-{seed}.jsonl")
    overhead = sum(b["seconds"] for b in batches) / sum(b["seconds"] for b in reference) - 1
    cache = None
    if before is not None and after is not None:
        cache = (after[0] - before[0], after[1] - before[1])
    covered = [share for _, share in spans.coverage(tracer.spans, ("bench.batch",))]
    attempted = sum(b["specs"] for b in batches)
    return {
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "problems": problems,
        "metrics": layer_metrics(
            tracer.spans, tracer.counters, state_cache=cache, broker=None,
            overhead=overhead, coverage=spans.median(covered), lag_ms=0.0, server_overhead_ms=0.0,
        ),
        "detail": {"batches": len(batches), "coverage_roots": len(covered),
                   "coverage_target": 0.95, "state_cache_present": cache is not None},
    }


# --------------------------------------------------------------- serve runs
def serve_pass(seed: int, seconds: float, traced_spans: Optional[Path] = None,
               extra_starts: int = 0) -> dict:
    """Start a server, drive one schedule at it, stop it; nothing is checked."""
    setup_samples = []
    for _ in range(extra_starts):
        server = serve_load.start_server(ROOT)
        setup_samples.append(server.setup_s)
        server.stop()
    server = serve_load.start_server(ROOT, traced_spans)
    setup_samples.append(server.setup_s)
    try:
        # One throwaway request lets lazy first-call set-up finish untimed.
        serve_load.drive(server, [warmup_request(seed)], 1)
        schedule = serve_schedule(seed, seconds)
        cpu_before = server.user_cpu_s()
        outcomes = serve_load.drive(server, schedule, os.cpu_count() or 1)
        cpu_s = server.user_cpu_s() - cpu_before
        stats = server.client.stats()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"schedule": schedule, "outcomes": outcomes, "stats": stats, "rss_mb": rss,
            "cpu_s": cpu_s, "setup_samples": setup_samples}


def latencies(outcomes, kind: str, field: str = "latency_ms") -> List[float]:
    """Latencies of the successful requests of one kind."""
    return [getattr(o, field) for o in outcomes
            if o.request.kind == kind and not o.error and getattr(o, field) is not None]


def slo_share(outcomes, wrong_at: set) -> float:
    """Share of sent requests answered correctly within their kind's limit."""
    met = sum(1 for o in outcomes
              if o.request.index not in wrong_at
              and o.latency_ms <= serve_load.SLO_MS[o.request.kind])
    return met / len(outcomes)


def lag_facts(outcomes) -> Dict[str, float]:
    """Generator lateness and whether it stayed within one send interval."""
    lags = [o.lag_ms for o in outcomes]
    interval_ms = 1000.0 / SERVE_RATE_PER_S
    p50 = statistics.median(lags)
    return {"lag_p50_ms": p50, "lag_p95_ms": percentile(lags, 95),
            "interval_ms": interval_ms, "valid": p50 <= interval_ms}


def checked(passes: Sequence[dict]) -> Tuple[Dict[int, str], Dict[int, int]]:
    """Check every pass against in-process ``execute_run`` records.

    Returns the problems and the known defects, keyed by request index.
    """
    expected = serve_load.expected_records(passes[0]["schedule"])
    problems: Dict[int, str] = {}
    known: Dict[int, int] = {}
    for run in passes:
        run_problems, run_known = serve_load.check(run["outcomes"], expected)
        problems.update(run_problems)
        known.update(run_known)
    return problems, known


def known_defects(outcomes) -> Dict[str, dict]:
    """How the service answered the unknown-scheme bodies it should reject."""
    statuses: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.request.kind == "unknown_scheme":
            statuses[str(outcome.status)] = statuses.get(str(outcome.status), 0) + 1
    return {"unknown_scheme": {"statuses": statuses, "want": "4xx"}}


def tail(values: Sequence[float], pct: float) -> Dict[str, object]:
    """``pct``-th percentile when the sample leaves ten values above it.

    With fewer samples the highest percentile the sample supports is
    reported instead, under its own percentile.
    """
    supported = min(pct, int(100 * (1 - 10 / len(values)))) if len(values) > 10 else 0
    if supported < 50:
        return {"pct": None, "value": None}
    return {"pct": supported, "value": percentile(values, supported)}


def service_metrics(outcomes, wrong_at: set) -> Dict[str, dict]:
    """serve_mixed's own figures, each with its unit and sample count.

    They are printed on every run but not gated: the other workloads have
    no warm, streamed or malformed requests, and on a shared 2-core host the
    cold and tail figures spread wider than the largest bound allowed.
    """
    cold = latencies(outcomes, "cold")
    warm = latencies(outcomes, "warm")
    first = latencies(outcomes, "stream", "first_round_ms")
    cold_tail, warm_tail = tail(cold, 90), tail(warm, 95)
    return {
        "cold_p50_ms": {"value": statistics.median(cold), "unit": "ms", "samples": len(cold)},
        "cold_tail_ms": dict(cold_tail, unit="ms", samples=len(cold), wanted_pct=90),
        "warm_p50_ms": {"value": statistics.median(warm), "unit": "ms", "samples": len(warm)},
        "warm_tail_ms": dict(warm_tail, unit="ms", samples=len(warm), wanted_pct=95),
        "stream_first_round_ms": {"value": statistics.median(first), "unit": "ms",
                                  "samples": len(first)},
        "slo_met_share": {"value": slo_share(outcomes, wrong_at), "unit": "ratio",
                          "samples": len(outcomes)},
    }


def serve_end_to_end(seed: int, seconds: float) -> dict:
    """``--trace 0`` on serve_mixed.

    ``specs_per_s`` is answered run requests per second of server user CPU
    time spent on the schedule: the send rate is fixed by the open loop, so
    requests per wall second would measure the generator, not the server.
    """
    run = serve_pass(seed, seconds, extra_starts=SERVER_START_SAMPLES - 1)
    outcomes = run["outcomes"]
    problems, known = checked([run])
    answered = [o for o in outcomes
                if o.request.kind not in serve_load.REJECTED_KINDS
                and o.request.index not in problems]
    service = service_metrics(outcomes, set(problems) | set(known))
    lag = lag_facts(outcomes)
    metrics = {
        "setup_s": metric(statistics.median(run["setup_samples"]), "s"),
        "specs_per_s": metric(len(answered) / run["cpu_s"], "1/s"),
        "op_p50_ms": metric(statistics.median(o.latency_ms for o in outcomes), "ms"),
        "peak_rss_mb": metric(run["rss_mb"], "MB"),
    }
    return {
        "attempted": len(outcomes),
        "failed": len(problems),
        "problems": list(problems.values()),
        "metrics": metrics,
        "valid": lag["valid"],
        "detail": {"samples": {"setup_s": len(run["setup_samples"]), "specs_per_s": len(answered),
                               "op_p50_ms": len(outcomes)},
                   "server_user_cpu_s": run["cpu_s"],
                   "service_metrics": service,
                   "known_defects": known_defects(outcomes),
                   "schedule": schedule_summary(run["schedule"]),
                   "rate_per_s": SERVE_RATE_PER_S, "generator": lag,
                   "broker": run["stats"].get("broker"),
                   "setup_samples_s": run["setup_samples"]},
    }


def serve_per_layer(seed: int, seconds: float) -> dict:
    """``--trace 1`` on serve_mixed: one schedule untraced, then traced."""
    trace_path = scratch_dir() / f"spans-serve_mixed-{seed}.jsonl"
    plain = serve_pass(seed, seconds / 2)
    traced = serve_pass(seed, seconds / 2, traced_spans=trace_path)
    problems, _ = checked([plain, traced])
    for a, b in zip(plain["outcomes"], traced["outcomes"]):
        if serve_load.served_record(a) != serve_load.served_record(b):
            problems[a.request.index] = f"request {a.request.index}: traced record differs"
    recorded, counters = spans.load_dump(trace_path)
    cold_ratio = (statistics.median(latencies(traced["outcomes"], "cold"))
                  / statistics.median(latencies(plain["outcomes"], "cold")))
    handled = spans.coverage(recorded, ("serve.server.handle_run",))
    cold_roots = spans.coverage(recorded, ("serve.server.handle_run",),
                                require="experiments.orchestration.simulate_from")
    state_cache = traced["stats"].get("state_cache")
    lag = lag_facts(plain["outcomes"] + traced["outcomes"])
    metrics = layer_metrics(
        recorded, counters,
        state_cache=(state_cache["hits"], state_cache["misses"]) if state_cache else None,
        broker=traced["stats"].get("broker"),
        overhead=cold_ratio - 1,
        coverage=spans.median([share for _, share in cold_roots]),
        lag_ms=lag["lag_p95_ms"],
        server_overhead_ms=spans.median([ms * (1 - share) for ms, share in handled]),
    )
    return {
        "attempted": len(plain["outcomes"]) + len(traced["outcomes"]),
        "failed": len(problems),
        "problems": list(problems.values()),
        "metrics": metrics,
        "valid": lag["valid"],
        "detail": {"cold_roots": len(cold_roots), "coverage_target": 0.95,
                   "known_defects": known_defects(plain["outcomes"] + traced["outcomes"]),
                   "generator": lag, "state_cache_present": state_cache is not None},
    }


# ------------------------------------------------------------ layer metrics
def layer_metrics(recorded, counters, state_cache, broker, overhead, coverage, lag_ms,
                  server_overhead_ms) -> Dict[str, dict]:
    """Every per-layer metric; a layer a workload never reaches reads 0."""
    table = spans.aggregate(recorded)

    def mean_ms(name: str, own: bool = True) -> float:
        row = table.get(name)
        if not row:
            return 0.0
        return row["self_ns" if own else "total_ns"] / row["count"] / 1e6

    def total_ns(name: str) -> float:
        return table.get(name, {}).get("total_ns", 0)

    build_ns = total_ns("sim.scenario.build")
    simulate_ns = total_ns("experiments.orchestration.simulate_from")
    gets = counters.get("experiments.persistence.hits", 0) + counters.get("experiments.persistence.misses", 0)
    hits, misses = state_cache if state_cache is not None else (0, 0)
    broker = broker or {}
    out = {
        "sim.scenario.build_ms": metric(mean_ms("sim.scenario.build", own=False), "ms"),
        "sim.scenario.build_share": metric(
            build_ns / (build_ns + simulate_ns) if build_ns + simulate_ns else 0.0, "ratio"),
        "network.deployment.deploy_ms": metric(mean_ms("network.deployment.deploy", own=False), "ms"),
        "network.failures.thinning_ms": metric(mean_ms("network.failures.thinning", own=False), "ms"),
        "network.state.disable_node_calls": metric(counters.get("network.state.disable_node_calls", 0), "count"),
        "experiments.state_cache.hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "experiments.state_cache.builds_saved": metric(hits, "count"),
    }
    for scheme in SCHEMES:
        out[f"controller.{scheme}.round_ms"] = metric(mean_ms(f"controller.{scheme}.round"), "ms")
    out.update({
        "sim.engine.rounds": metric(counters.get("sim.engine.rounds", 0), "count"),
        "sim.engine.run_ms": metric(mean_ms("sim.engine.run"), "ms"),
        "network.channel.deliver_ms": metric(mean_ms("network.channel.deliver"), "ms"),
        "network.energy.apply_round_ms": metric(mean_ms("network.energy.apply_round"), "ms"),
        "network.failures.inject_ms": metric(mean_ms("network.failures.inject"), "ms"),
        "sim.metrics.collect_ms": metric(mean_ms("sim.metrics.collect"), "ms"),
        "experiments.persistence.put_ms": metric(mean_ms("experiments.persistence.put"), "ms"),
        "experiments.persistence.get_ms": metric(mean_ms("experiments.persistence.get"), "ms"),
        "experiments.persistence.hit_ratio": metric(
            counters.get("experiments.persistence.hits", 0) / gets if gets else 0.0, "ratio"),
        "experiments.broker.queue_wait_ms": metric(mean_ms("experiments.broker.queue_wait"), "ms"),
        "experiments.broker.executed": metric(broker.get("executed", 0), "count"),
        "experiments.broker.dedup_hits": metric(broker.get("dedup_hits", 0), "count"),
        "experiments.broker.failed": metric(broker.get("failed", 0), "count"),
        "experiments.broker.rejected": metric(broker.get("rejected", 0), "count"),
        "serve.server.overhead_ms": metric(server_overhead_ms, "ms"),
        "serve.server.status_4xx": metric(counters.get("serve.server.status_4xx", 0), "count"),
        "serve.server.status_5xx": metric(counters.get("serve.server.status_5xx", 0), "count"),
        "trace.overhead": metric(overhead, "ratio"),
        "trace.span_coverage": metric(coverage, "ratio"),
        "generator.lag_ms": metric(lag_ms, "ms"),
    })
    return out


# --------------------------------------------------------------------- main
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload once and print its result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-only", action="store_true",
                        help="internal: run the timed batches only and print their digests")
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        parser.error(f"the checkout's sources are missing: found repro at {repro.__file__}")

    if args.pass_only:
        batches, _ = run_batches(args.workload, args.seed, args.seconds)
        print(json.dumps({"batches": batches}))
        return 0
    serve = args.workload == "serve_mixed"
    if args.trace:
        result = (serve_per_layer(args.seed, args.seconds) if serve
                  else batch_per_layer(args.workload, args.seed, args.seconds))
    else:
        result = (serve_end_to_end(args.seed, args.seconds) if serve
                  else batch_end_to_end(args.workload, args.seed, args.seconds))
    for problem in result["problems"][:20]:
        print(f"output check failed: {problem}", file=sys.stderr)
    valid = result.get("valid", True)
    if not valid:
        print("run invalid: the generator ran more than one send interval late", file=sys.stderr)
    detail = dict(result["detail"], host=host_facts(), workload=args.workload, seed=args.seed,
                  trace=args.trace, valid=valid, failed_share=result["failed"] / result["attempted"])
    print("# detail: " + json.dumps(detail, sort_keys=True))
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct and valid else 1


if __name__ == "__main__":
    sys.exit(main())
