"""Run orchestration: declarative run specs and pure execution.

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
* :func:`_run_group` — one scenario group (consecutive specs with an equal
  scenario, the sweep's schemes x trials shape): built once, every spec
  simulated on a private :meth:`WsnState.clone` of that build.  It is the
  unit of work the :class:`~repro.experiments.broker.ExperimentBroker`
  runs, in-process or in a pool worker.
* :func:`execute_many` — the one batch entry point the sweep layer uses: it
  runs the batch through a broker (the caller's, or a one-shot in-process
  one), so the cache, dedup and scenario grouping apply the same way
  everywhere.

Determinism contract: everything stochastic inside a run is derived from
``spec.scenario.seed`` (deployment + thinning) and ``spec.seed`` (controller
stream) via :func:`repro.sim.rng.derive_rng`, so ``execute_run`` is a pure
function of its spec — built from scratch or cloned from a group's shared
build, in-process or in a pool worker, the records are byte-identical (the
golden seed-identity suite and the ``clone-identity`` differential oracle
enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.experiments.registry import make_controller
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent, compile_failure_schedule
from repro.network.state import WsnState
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT, RoundBasedEngine
from repro.sim.metrics import RunMetrics
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.broker import ExperimentBroker
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
    spec live here, so the broker and the streaming endpoint cannot
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
    :func:`simulate_from`.  It must stay a pure, top-level function: a
    broker compares its run function against it to pick the grouped path.
    """
    return simulate_from(build_initial_state(spec), spec)


# ---------------------------------------------------------- scenario groups
#: What running one spec of a group yields: its record, or what it raised.
Outcome = Union[RunRecord, BaseException]


def _run_group(specs: Sequence[RunSpec]) -> List[Outcome]:
    """Execute specs sharing one scenario: one build, a private clone each.

    The build is deterministic, so simulating on a clone is byte-identical
    to a from-scratch :func:`execute_run`.  Returns one outcome per spec, in
    order: a spec that raises fails alone, and a build that raises fails the
    whole group.  Top-level, and it raises only what is not an
    ``Exception`` (an interrupt), so a broker can run it in a pool worker
    and get every outcome back.
    """
    try:
        base = build_initial_state(specs[0])
    except Exception as error:  # noqa: BLE001 - returned to the broker
        return [error] * len(specs)
    outcomes: List[Outcome] = []
    for spec in specs:
        try:
            outcomes.append(simulate_from(base.clone(), spec))
        except Exception as error:  # noqa: BLE001 - returned to the broker
            outcomes.append(error)
    return outcomes


# ---------------------------------------------------------------- entry point
def execute_many(
    specs: Sequence[RunSpec],
    cache: "Optional[RunCache]" = None,
    broker: "Optional[ExperimentBroker]" = None,
) -> List[RunRecord]:
    """Execute a batch of specs, reusing cached records where available.

    Records are returned in spec order.  The batch runs through ``broker``
    (an :class:`~repro.experiments.broker.ExperimentBroker`), whose cache,
    in-flight dedup and worker pool then apply across concurrent callers;
    ``cache`` is ignored because the broker owns its own.  Without one, a
    one-shot broker over ``cache`` runs the batch in the calling thread:
    identical specs are simulated once, specs with a stored record are
    answered from the cache with ``record.cached`` set, and fresh records
    are persisted before returning.
    """
    from repro.experiments.broker import ExperimentBroker, Priority

    if broker is not None:
        return broker.run(list(specs), priority=Priority.BATCH)
    return ExperimentBroker(cache=cache)._run_in_caller(list(specs))
