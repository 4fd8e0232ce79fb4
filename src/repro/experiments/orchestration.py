"""Run orchestration: declarative run specs, pure execution, pluggable executors.

The paper's whole evaluation (Figures 6-8) is one embarrassingly parallel
sweep: every scheme runs on identical scenario builds across a range of spare
counts ``N`` and seeds.  This module decouples *describing* such a cell from
*executing* it:

* :class:`RunSpec` — a frozen, picklable description of one simulation run
  (scenario config + scheme name + controller seed + engine knobs).  Equal
  specs describe byte-identical runs, which is what makes result caching and
  cross-process execution sound.
* :func:`build_initial_state` / :func:`simulate_from` — the two pure halves
  of a run: construction of the initial state (a function of
  ``spec.scenario`` alone) and the simulation proper, whose engine
  :func:`engine_for` builds.  :func:`execute_run` is their composition and
  stays the pure entry point ``RunSpec -> RunRecord``.
* :class:`SerialExecutor` / :class:`ParallelExecutor` — interchangeable
  strategies for executing a batch of specs.  Both return records in spec
  order, so identical seeds give identical results regardless of worker
  count.  Both reuse scenarios the same way: each maximal run of
  consecutive specs with an equal scenario (the sweep's schemes x trials
  shape) is built once and every spec simulates on a private
  :meth:`WsnState.clone` of that build.  The parallel executor ships each
  such group as one task to a worker pool it keeps alive across ``run_all``
  calls.
* :func:`execute_many` — the one entry point the sweep layer uses: consult an
  optional cache, execute only the missing specs, persist fresh records.

Determinism contract: everything stochastic inside a run is derived from
``spec.scenario.seed`` (deployment + thinning) and ``spec.seed`` (controller
stream) via :func:`repro.sim.rng.derive_rng`, so ``execute_run`` is a pure
function of its spec — built from scratch or cloned from a group's shared
build, serial or parallel, the records are byte-identical (the golden
seed-identity suite and the ``clone-identity`` differential oracle enforce
this).
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.experiments.registry import (
    BUILTIN_FACTORIES,
    SCHEME_REGISTRY,
    SchemeFactory,
    make_controller,
)
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent, compile_failure_schedule
from repro.network.state import WsnState
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT, RoundBasedEngine
from repro.sim.metrics import RunMetrics
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.persistence import RunCache

#: Per-round callback ``(round_index, sample)`` an engine may carry.
RoundObserver = Callable[[int, Dict[str, float]], None]


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one simulation run.

    Attributes
    ----------
    scenario:
        The deployment to build (including its deployment/thinning seed).
    scheme:
        Name of the recovery scheme, resolved through the scheme registry.
    seed:
        Seed of the controller random stream (movement targets,
        tie-breaking).  The sweep runner uses the trial seed here so the
        controller stream changes together with the scenario across trials.
    max_rounds:
        Optional hard bound on simulation rounds (``None``: engine default).
    idle_round_limit:
        Consecutive no-progress rounds before the engine declares a stall.
    energy:
        Optional :class:`~repro.network.energy.EnergyModel` the engine applies
        every round (idle drain + engine-driven depletion).  Frozen, so the
        spec stays hashable and picklable.
    run_to_exhaustion:
        Run-until-network-death mode for lifetime workloads (only meaningful
        together with an energy model whose idle drain is positive).
    failures:
        Declarative failure schedule: frozen
        :class:`~repro.network.failures.FailureEvent` entries the engine
        applies at the start of their round (dynamic holes).  Events are
        data, not controller objects, so the spec stays hashable, picklable,
        and cache-addressable; :func:`execute_run` compiles them with
        :func:`~repro.network.failures.compile_failure_schedule`.
    channel:
        The :class:`~repro.network.channel.ChannelModel` carrying the run's
        control-message traffic.  ``None`` means the default perfect
        one-round channel (the paper's assumption).  The channel's random
        stream is derived from ``seed`` with its own label, so loss patterns
        change per trial without perturbing the controller stream.
    """

    scenario: ScenarioConfig
    scheme: str
    seed: int
    max_rounds: Optional[int] = None
    idle_round_limit: int = DEFAULT_IDLE_ROUND_LIMIT
    energy: Optional[EnergyModel] = None
    run_to_exhaustion: bool = False
    failures: Tuple[FailureEvent, ...] = ()
    channel: Optional[ChannelModel] = None

    def __post_init__(self) -> None:
        """Normalise an explicit default channel to ``None``.

        ``--channel perfect`` and an omitted channel describe byte-identical
        runs; folding them onto one canonical form keeps spec equality — and
        therefore the run-cache key — semantic rather than syntactic.
        """
        if self.channel == DEFAULT_CHANNEL:
            object.__setattr__(self, "channel", None)

    def controller_rng_label(self) -> str:
        """Label of the controller random stream (kept stable for reproducibility)."""
        return f"{self.scheme}-controller"


@dataclass(frozen=True)
class RunRecord:
    """The outcome of executing one :class:`RunSpec`."""

    spec: RunSpec
    metrics: RunMetrics
    rounds_executed: int
    stalled: bool
    #: Whether the run hit its round bound before finishing (a bound-hit run
    #: with holes left is also reported as stalled).
    exhausted: bool = False
    #: Per-round total remaining energy of the enabled nodes; empty unless the
    #: spec carried an energy model.
    energy_series: Tuple[float, ...] = ()
    cached: bool = False

    @property
    def converged(self) -> bool:
        """Whether the run ended with complete coverage (no holes left)."""
        return self.metrics.coverage_restored


def build_initial_state(spec: RunSpec) -> WsnState:
    """The initial state of ``spec`` — the pure, scenario-only half of a run.

    The initial state depends on nothing but ``spec.scenario``, so the N
    schemes x T trials over one scenario can share one build: callers that
    run several such specs build once and hand each a
    :meth:`WsnState.clone` (see :func:`_run_group`).  The build is
    deterministic, so a clone and a rebuild are interchangeable.
    """
    return build_scenario_state(spec.scenario)


def engine_for(
    spec: RunSpec,
    state: WsnState,
    round_observer: Optional[RoundObserver] = None,
) -> RoundBasedEngine:
    """The engine that runs ``spec``'s scheme on ``state`` — the one spec -> engine map.

    Controller construction, RNG derivation, and every engine knob of the
    spec live here, so the executors and the streaming endpoint cannot
    drift apart.  ``state`` must be a private copy of ``spec.scenario``'s
    initial state (it is mutated in place); every stochastic draw from here
    on comes from streams derived off ``spec.seed``.  ``round_observer`` is installed on the engine (the
    streaming endpoint's live per-round series).
    """
    controller = make_controller(spec.scheme, state)
    rng = derive_rng(spec.seed, spec.controller_rng_label())
    engine = RoundBasedEngine(
        state,
        controller,
        rng,
        max_rounds=spec.max_rounds,
        failure_schedule=compile_failure_schedule(spec.failures) or None,
        idle_round_limit=spec.idle_round_limit,
        energy_model=spec.energy,
        run_to_exhaustion=spec.run_to_exhaustion,
        channel=spec.channel if spec.channel is not None else DEFAULT_CHANNEL,
        channel_seed=spec.seed,
    )
    engine.round_observer = round_observer
    return engine


def simulate_from(
    state: WsnState,
    spec: RunSpec,
    round_observer: Optional[RoundObserver] = None,
) -> RunRecord:
    """Run ``spec``'s scheme on an already-built initial state.

    The second half of :func:`execute_run`: the :func:`engine_for` engine
    run to completion.  ``state`` must be a private copy of
    ``spec.scenario``'s initial state (it is mutated in place).
    """
    result = engine_for(spec, state, round_observer).run()
    return RunRecord(
        spec=spec,
        metrics=result.metrics,
        rounds_executed=result.rounds_executed,
        stalled=result.stalled,
        exhausted=result.exhausted,
        energy_series=tuple(result.series.energy),
    )


def execute_run(spec: RunSpec) -> RunRecord:
    """Build the scenario, run the scheme, and return the resulting record.

    This is the single choke point every sweep cell goes through, and it is
    the composition of :func:`build_initial_state` and
    :func:`simulate_from`.  It must stay a pure, top-level function: worker
    processes unpickle and call it by reference.
    """
    return simulate_from(build_initial_state(spec), spec)


# ------------------------------------------------------------------ executors
def _run_group(specs: Sequence[RunSpec]) -> List[RunRecord]:
    """Execute specs sharing one scenario: one build, a private clone each.

    The build is deterministic, so simulating on a clone is byte-identical
    to a from-scratch :func:`execute_run`.  Top-level so worker processes
    can run it as one task per group.
    """
    base = build_initial_state(specs[0])
    return [simulate_from(base.clone(), spec) for spec in specs]


def _run_serially(specs: Sequence[RunSpec]) -> List[RunRecord]:
    """Execute specs in order, building each consecutive scenario group once."""
    return [
        record for group in _group_by_scenario(specs) for record in _run_group(group)
    ]


def _registry_overrides() -> Dict[str, SchemeFactory]:
    """Registrations added or replaced since import that can be pickled.

    Worker processes re-import the registry and therefore only know the
    built-in schemes; anything registered afterwards (and any built-in
    shadowed with ``replace=True``) must be shipped along.  Factories that
    cannot be pickled (lambdas, closures) are skipped — resolving them in a
    worker raises the registry's usual unknown-scheme error.
    """
    overrides: Dict[str, SchemeFactory] = {}
    for name, factory in SCHEME_REGISTRY.items():
        if BUILTIN_FACTORIES.get(name) is factory:
            continue
        try:
            pickle.dumps(factory)
        except Exception:
            continue
        overrides[name] = factory
    return overrides


def _install_registry_overrides(overrides: Dict[str, SchemeFactory]) -> None:
    """Worker-process initializer: replay post-import registrations."""
    SCHEME_REGISTRY.update(overrides)


def _group_by_scenario(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Split specs into maximal runs of consecutive equal scenarios.

    The sweep emits schemes innermost, so grouping consecutive equal
    scenarios captures the N-schemes-x-T-trials duplication without
    reordering anything.
    """
    groups: List[List[RunSpec]] = []
    for spec in specs:
        if groups and groups[-1][0].scenario == spec.scenario:
            groups[-1].append(spec)
        else:
            groups.append([spec])
    return groups


class RunExecutor(ABC):
    """Strategy interface for executing a batch of run specs.

    Implementations must return one record per spec **in spec order** and
    keep :attr:`runs_executed` up to date (the cache tests rely on it to
    assert that a warm cache causes zero re-executions).
    """

    def __init__(self) -> None:
        #: Total number of specs this executor has actually simulated.
        self.runs_executed = 0

    @abstractmethod
    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec and return their records in spec order."""


class SerialExecutor(RunExecutor):
    """Execute specs one after another in the current process."""

    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec in order in the current process."""
        records = _run_serially(specs)
        self.runs_executed += len(records)
        return records


class ParallelExecutor(RunExecutor):
    """Execute specs across worker processes with deterministic ordering.

    ``ProcessPoolExecutor.map`` preserves input order, so the records come
    back exactly as :class:`SerialExecutor` would produce them; only
    wall-clock time changes with ``jobs``.  Specs and records cross the
    process boundary; controllers and states never do.

    * **Persistent pool** — the worker pool survives across ``run_all``
      calls (and therefore across sweep/broker submissions), so repeated
      batches pay interpreter + import start-up once.  The pool is rebuilt
      only when the picklable scheme-registry overrides change.  Call
      :meth:`close` (or use the executor as a context manager) to reap the
      workers early; an unreferenced executor reaps them at GC/interpreter
      exit like any ``ProcessPoolExecutor``.
    * **Scenario grouping** — consecutive specs sharing a scenario travel as
      one worker task, so the shared initial state is built once per group
      in the worker and each spec simulates on a clone of it.
    """

    def __init__(self, jobs: int) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_overrides: Optional[Dict[str, SchemeFactory]] = None

    # ------------------------------------------------------------- pool reuse
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, (re-)created only when needed.

        A pool is invalidated when the picklable scheme-registry overrides
        change: workers installed the overrides at start-up, so a new or
        shadowed registration after that must reach fresh workers.
        """
        overrides = _registry_overrides()
        if self._pool is not None and overrides != self._pool_overrides:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_install_registry_overrides,
                initargs=(overrides,),
            )
            self._pool_overrides = overrides
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_overrides = None

    def __enter__(self) -> "ParallelExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: reap the worker pool."""
        self.close()

    # -------------------------------------------------------------- execution
    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute the specs across worker processes; records in spec order."""
        specs = list(specs)
        if self.jobs == 1 or len(specs) <= 1:
            records = _run_serially(specs)
        else:
            pool = self._ensure_pool()
            records = [
                record
                for group_records in pool.map(_run_group, _group_by_scenario(specs))
                for record in group_records
            ]
        self.runs_executed += len(records)
        return records


def make_executor(jobs: Optional[int] = None) -> RunExecutor:
    """Executor for ``jobs`` worker processes (``None`` or 1: serial)."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)


# ---------------------------------------------------------------- entry point
def execute_many(
    specs: Sequence[RunSpec],
    executor: Optional[RunExecutor] = None,
    cache: "Optional[RunCache]" = None,
    broker: "Optional[object]" = None,
) -> List[RunRecord]:
    """Execute a batch of specs, reusing cached records where available.

    Records are returned in spec order.  This is a thin wrapper over the
    broker layer (:mod:`repro.experiments.broker`): identical specs within
    the batch are simulated once (``execute_run`` is deterministic, so the
    shared record is what each duplicate would have produced), specs with a
    stored record are answered from the cache with ``record.cached`` set,
    and only the remaining unique misses are simulated through ``executor``
    and persisted before returning.

    Pass ``broker`` (an :class:`~repro.experiments.broker.ExperimentBroker`)
    to route the batch through a long-running broker instead — its cache,
    in-flight dedup, and worker pool then apply across concurrent callers,
    not just within this batch; ``executor``/``cache`` are ignored because
    the broker owns its own.
    """
    from repro.experiments.broker import Priority, execute_batch

    if broker is not None:
        return broker.run(list(specs), priority=Priority.BATCH)
    return execute_batch(specs, executor=executor, cache=cache)
