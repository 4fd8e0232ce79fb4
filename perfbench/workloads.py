"""The batch workloads and the request schedule of the serving workload.

Every input is a pure function of the workload seed.  Runs grow longer by
adding batches with fresh derived seeds, never by repeating a spec: a
repeated scenario would hit the process-wide initial-state cache and time
the cache instead of the sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

#: The seed whose batch-0 digests are pinned in ``pinned.json``.  Batch 0 at
#: this seed is exactly ``repro figures fig6 fig7 fig8`` (paper_sweep) and the
#: catalog with its own deployment seeds (catalog_mix).
DEFAULT_SEED = 2008

#: The catalog scenario that keeps its declared schemes in catalog_mix.
STRESS_SCENARIO = "stress-64x64"


def derive_seed(seed: int, label: str, index: int) -> int:
    """A 31-bit seed derived from ``(seed, label, index)``."""
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def records_digest(records: Sequence[object]) -> str:
    """sha256 of the records' ``record_to_dict`` forms, in order."""
    from repro.experiments.persistence import record_to_dict

    payload = json.dumps([record_to_dict(r) for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_problems(record: object) -> List[str]:
    """Invariants every record must satisfy, whatever its seed."""
    metrics = record.metrics
    spec = record.spec
    problems = []
    cells = spec.scenario.cell_count
    if spec.scheme.startswith("SR") and metrics.total_moves > metrics.processes_initiated * cells:
        problems.append(f"{spec.scheme}: {metrics.total_moves} moves exceed the Theorem-2 bound")
    if metrics.messages_sent != (
        metrics.messages_delivered + metrics.messages_dropped + metrics.messages_in_flight
    ):
        problems.append(f"{spec.scheme}: message ledger does not balance")
    if not 0.0 <= metrics.success_rate <= 1.0:
        problems.append(f"{spec.scheme}: success rate {metrics.success_rate} out of range")
    if record.rounds_executed < 1:
        problems.append(f"{spec.scheme}: no round executed")
    return problems


@contextlib.contextmanager
def captured_sweep_records() -> Iterator[List[object]]:
    """Collect the records ``run_section5_experiment`` computes.

    The figure driver returns an aggregated table; the records it was built
    from pass through ``sweep.execute_many``, which is tapped here without
    changing its arguments or result.
    """
    from repro.experiments import sweep

    original = sweep.execute_many
    captured: List[object] = []

    def tap(*args, **kwargs):
        records = original(*args, **kwargs)
        captured.extend(records)
        return records

    sweep.execute_many = tap
    try:
        yield captured
    finally:
        sweep.execute_many = original


# ------------------------------------------------------------ batch workloads
def paper_sweep_batch(seed: int, index: int, captured: List[object]) -> List[object]:
    """One Section-5 sweep (PAPER_SPARE_VALUES x 1 trial x {SR, AR}).

    Batch 0 uses the workload seed as the sweep seed, as
    ``repro figures --seed <seed>`` does; later batches use derived seeds.
    Returns the sweep's records.
    """
    from repro.experiments.figures import PAPER_SPARE_VALUES, run_section5_experiment
    from repro.sim.scenario import ScenarioConfig

    sweep_seed = seed if index == 0 else derive_seed(seed, "paper_sweep", index)
    start = len(captured)
    run_section5_experiment(
        spare_values=PAPER_SPARE_VALUES, config=ScenarioConfig(seed=sweep_seed), trials=1
    )
    return captured[start:]


def catalog_scenarios_for(seed: int, index: int) -> List[object]:
    """The catalog of batch ``index``: every scenario, every registered scheme.

    stress-64x64 keeps its declared schemes.  Each scenario's deployment seed
    is replaced by a derived seed, except in batch 0 of the default seed,
    which keeps the catalog's own seeds.
    """
    from repro.experiments.catalog import catalog_names, load_catalog_scenario
    from repro.experiments.registry import available_schemes

    scenarios = []
    for name in catalog_names():
        scenario = load_catalog_scenario(name)
        if name != STRESS_SCENARIO:
            scenario = dataclasses.replace(scenario, schemes=tuple(available_schemes()))
        if not (index == 0 and seed == DEFAULT_SEED):
            scenario = scenario.with_seed(derive_seed(seed, f"catalog:{name}", index))
        scenarios.append(scenario)
    return scenarios


def catalog_mix_batch(seed: int, index: int, captured: List[object]) -> List[object]:
    """One pass over the catalog through ``Scenario.execute()``; its records."""
    records: List[object] = []
    for scenario in catalog_scenarios_for(seed, index):
        records.extend(scenario.execute())
    return records


BATCH_WORKLOADS = {
    "paper_sweep": paper_sweep_batch,
    "catalog_mix": catalog_mix_batch,
}


# ------------------------------------------------------------ serve schedule
#: Open-loop send rate of serve_mixed, below this host class's knee.
SERVE_RATE_PER_S = 10.0

#: One period of serve_mixed's request kinds: 70% warm repeats, 20% novel
#: specs, 5% streamed novel specs and 5% malformed bodies, spread out so that
#: expensive requests are as far apart as the mix allows.
SERVE_PATTERN = (
    "warm", "warm", "cold", "warm", "stream", "warm", "warm", "cold", "warm", "warm",
    "warm", "warm", "cold", "warm", "malformed", "warm", "warm", "cold", "warm", "warm",
)

#: A warm request repeats a cold spec scheduled at least this long before it,
#: so the repeat finds a stored record rather than an in-flight run.
WARM_MIN_AGE_S = 1.0

#: Bodies the service must answer with a 4xx.
MALFORMED_BODIES = (
    b"not json",
    b"[1, 2, 3]",
    b'{"scheme": "SR"}',
    b'{"scenario": 5, "scheme": "SR"}',
    b'{"scenario": {"columns": -1}, "scheme": "SR"}',
    b'{"scenario": {"colums": 16}, "scheme": "SR"}',
    b'{"scenario": {"columns": "x"}, "scheme": "SR"}',
    b"",
)

#: Every this-many-th malformed slot sends a well-formed spec naming an
#: unknown scheme instead.  The service should answer it with a 4xx; today it
#: answers 500, which runs report as a known defect rather than a failure.
UNKNOWN_SCHEME_EVERY = 4


@dataclasses.dataclass(frozen=True)
class Request:
    """One scheduled request of serve_mixed."""

    index: int
    at_s: float
    kind: str
    body: bytes
    #: Index of the cold request whose spec a warm request repeats.
    repeats: int = -1


def _cold_body(ordinal: int, seed: int) -> bytes:
    """The ``ordinal``-th novel 16x16 Section-5 spec, with deployment seed ``seed``.

    N cycles through ``PAPER_SPARE_VALUES`` and the scheme alternates per
    cycle, so every schedule has the same mix of spec sizes; only the seeds
    differ between workload seeds.
    """
    from repro.experiments.figures import PAPER_SPARE_VALUES

    cycle, position = divmod(ordinal, len(PAPER_SPARE_VALUES))
    body = {
        "scenario": {
            "columns": 16,
            "rows": 16,
            "deployed_count": 5000,
            "spare_surplus": PAPER_SPARE_VALUES[position],
            "seed": seed,
        },
        "scheme": ("SR", "AR")[cycle % 2],
        "seed": seed,
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _unknown_scheme_body(seed: int) -> bytes:
    """A small well-formed spec naming a scheme that is not registered.

    The seed is a novel one, so the initial state it builds is never a
    state-cache hit.
    """
    body = {
        "scenario": {"columns": 4, "rows": 4, "deployed_count": 100, "spare_surplus": 4,
                     "seed": seed},
        "scheme": "NO-SUCH-SCHEME",
        "seed": seed,
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def serve_schedule(seed: int, seconds: float) -> List[Request]:
    """The open-loop schedule: sends at :data:`SERVE_RATE_PER_S`, seeded specs."""
    rng = random.Random(derive_seed(seed, "serve_mixed", 0))
    total = max(1, int(round(SERVE_RATE_PER_S * seconds)))
    # Evenly spaced sends with the kinds interleaved in a fixed pattern, so
    # every seed sees the same overlap between expensive requests; only the
    # specs and the repeated records differ.
    kinds = [SERVE_PATTERN[i % len(SERVE_PATTERN)] for i in range(total)]
    times = [i / SERVE_RATE_PER_S for i in range(total)]
    # A warm request needs an older cold spec to repeat: swap it with the
    # next non-warm request until one exists (counts stay exact).
    first_cold = None
    for i in range(total):
        if kinds[i] == "warm" and (first_cold is None or first_cold > times[i] - WARM_MIN_AGE_S):
            swap = next((j for j in range(i + 1, total) if kinds[j] != "warm"), None)
            if swap is not None:
                kinds[i], kinds[swap] = kinds[swap], kinds[i]
        if kinds[i] == "cold" and first_cold is None:
            first_cold = times[i]
    novel_seeds = rng.sample(range(1, 2**31 - 1), total)
    requests: List[Request] = []
    cold_indices: List[Tuple[float, int]] = []
    novel = {"cold": 0, "stream": 0}
    malformed = 0
    for i, kind in enumerate(kinds):
        at = times[i]
        repeats = -1
        if kind in ("cold", "stream"):
            body = _cold_body(novel[kind], novel_seeds[i])
            novel[kind] += 1
            if kind == "cold":
                cold_indices.append((at, i))
        elif kind == "malformed":
            if malformed % UNKNOWN_SCHEME_EVERY == 0:
                kind, body = "unknown_scheme", _unknown_scheme_body(novel_seeds[i])
            else:
                body = MALFORMED_BODIES[rng.randrange(len(MALFORMED_BODIES))]
            malformed += 1
        else:
            eligible = [j for t, j in cold_indices if t <= at - WARM_MIN_AGE_S]
            if eligible:
                repeats = rng.choice(eligible)
                body = requests[repeats].body
            else:  # only when the schedule has no cold request at all
                kind, body = "malformed", MALFORMED_BODIES[0]
        requests.append(Request(i, at, kind, body, repeats))
    return requests


def warmup_request(seed: int) -> Request:
    """A cold request outside the schedule, sent before timing starts."""
    return Request(-1, 0.0, "cold", _cold_body(0, derive_seed(seed, "serve_warmup", 0)))


def schedule_summary(requests: Sequence[Request]) -> Dict[str, int]:
    """Requests per kind."""
    counts: Dict[str, int] = {}
    for request in requests:
        counts[request.kind] = counts.get(request.kind, 0) + 1
    return counts
