"""Sharded execution: one run simulated across column-band tiles, byte-identical.

:class:`ShardedEngine` runs a single :class:`~repro.sim.engine.RoundBasedEngine`
round loop with the per-round work distributed over worker tiles
(:mod:`repro.network.partition`), exchanging cross-tile effects at the round
barrier.  Determinism is the headline guarantee: a sharded run produces the
same :class:`~repro.sim.engine.SimulationResult` — metrics, series, move
records, message traffic — bit for bit as the sequential engine, so shard
count is an execution option, never part of a run's identity.

How byte-identity is achieved
-----------------------------

On the fast path (plain SR on a serpentine cycle, perfect channel, no energy
model, shard-safe failure models) every decision the controller takes in a
round is a *pure function of the round-start state*: the only rng draws of
the whole round are the two movement-target draws per committed move.  An SR
decision for a vacancy ``v`` reads exactly one cell — the cycle predecessor
``pred(v)`` it recruits from — and a serve writes exactly ``{v, pred(v)}``.
That tiny footprint is what the round protocol exploits:

1. **Scatter.**  Each tile holds a full-size replica of the state with the
   rows outside its halo coverage masked out.  Per round it applies the
   (shard-safe, hence rng-free) scheduled failures and reports every
   round-start vacancy in its *owned* column band, in global cycle order,
   together with a snapshot of the initiator cell's members — ids and exact
   floats.  Only never-moved deployment nodes share a cell (moves always
   target vacant cells), so these snapshots are bit-exact in every replica.

2. **Merge.**  The driver replays the sequential decision sequence over the
   merged reports.  Under the lowest-id election policy the head of a cell
   is always its lowest-id member, so a membership snapshot determines the
   whole decision: head, battery check, spare choice.  Same-round coupling —
   a chain of adjacent holes where each serve recruits the node that just
   arrived — is handled with a *delta map* of the cells written earlier in
   the round, and the floats of any node that already moved this round come
   from the driver's own float ledger, which is exact.  The merge is split
   so only its *decide* half sits on the critical path: gating, spare
   choice, the round's *only* rng draws, and the exact post-move floats.
   The controller/channel bookkeeping — process ids, move records, message
   posts, in exactly the sequential order — happens after the commits have
   been scattered, overlapping the tiles' apply phase.

3. **Gather.**  Each committed move is routed to just the tiles covering its
   source or target column.  A tile moves tracked rows with the exact target
   position (no draw), admits masked rows that enter its coverage, and
   evicts rows that leave it, keeping the invariant that a replica tracks
   exactly the nodes whose current cell it covers.  It returns its owned
   hole/spare counts — maintained incrementally, never by rescanning — which
   the driver sums for the round series.  Whenever the engine loop can reach
   the next round, the apply is *fused* with the next round's vacancy scan
   (one pipelined op), so from the second round on the only tile work left
   on the critical path is whatever outlasts the driver's own bookkeeping.

The expensive half of a round — vacancy enumeration and the per-move index
maintenance — thus runs tile-side in parallel, while the driver's serial
decide loop is a handful of float comparisons, two draws, and dict updates
per vacancy.

After the last round the tiles' rows are merged back into the driver state
(each tile exclusively owns the rows whose current cell lies in its band),
indices are rebuilt, and heads re-elected — identical, by the lowest-id
argument, to the assignment the sequential run would carry.

Ineligible runs (other controllers, lossy channels, energy physics, rng-
drawing failure models, grids too narrow for halo-wide tiles) transparently
fall back to the inherited sequential round loop — same object, same result.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.hamilton import SerpentineHamiltonCycle
from repro.core.protocol import RoundOutcome
from repro.core.replacement import HamiltonReplacementController
from repro.grid.geometry import Point
from repro.grid.head_election import lowest_id_policy
from repro.grid.virtual_grid import GridCoord
from repro.network.channel import DEFAULT_CHANNEL
from repro.network.mobility import MovementModel, MoveRecord
from repro.network.partition import Tile, feasible_shards, partition_columns
from repro.network.state import WsnState
from repro.sim.engine import RoundBasedEngine, SimulationResult

__all__ = ["ShardAbort", "ShardedEngine", "TileSim"]


class ShardAbort(RuntimeError):
    """The sharded fast path cannot reproduce the sequential run.

    A safety valve rather than an expected outcome: the snapshot/delta merge
    covers every reachable fast-path interleaving, so this only fires on an
    internal invariant violation.  The driver catches it and re-runs the
    whole spec sequentially, so callers still get the byte-identical result.
    """


# One member of an initiator cell: (node_id, x, y, energy, moved, move_count).
_Member = Tuple[int, float, float, float, float, int]

# One owned round-start vacancy and the recruiting cell's membership:
# (cycle order, vacant coord, initiator coord, members).  ``members`` lists
# the initiator cell's enabled nodes in id order (so the first entry is the
# head under the lowest-id policy) with their exact round-start floats;
# empty when the initiator cell is itself vacant.  Plain tuples: these cross
# a pipe every round.
_VacancyReport = Tuple[int, GridCoord, GridCoord, Tuple[_Member, ...]]

# One authoritative move, routed to the tiles covering its source or target
# column: (mover_id, target coord, x, y, energy, moved_distance, move_count).
# The energy already includes the cascade message debit when there is one.
_Commit = Tuple[int, GridCoord, float, float, float, float, int]

# A tile's answer to ``run_round``: (vacancy reports, busy seconds).
_TileReport = Tuple[List[_VacancyReport], float]


class _SenderRef:
    """Minimal stand-in for the sending node in a driver-side channel post.

    The channel path of ``_post_replacement_request`` only reads
    ``sender.node_id``; energy is debited through the engine's debit hook,
    which the sharded driver overrides (the driver's float ledger applies
    the identical debit itself, and the tiles replay it replica-side).
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


class TileSim:
    """One worker's view of the run: a masked replica of the network state.

    The replica covers the tile's owned column band plus its halo; rows
    outside are masked.  Per round the tile applies scheduled failures,
    reports its owned vacancies with initiator-membership snapshots
    (:meth:`run_round`), and applies the barrier's authoritative moves
    (:meth:`apply_commits`).  All decision logic lives in the driver.
    """

    def __init__(
        self,
        tile: Tile,
        state: WsnState,
        cycle: SerpentineHamiltonCycle,
        failure_schedule: Dict[int, object],
    ) -> None:
        self.tile = tile
        self.state = state
        self.cycle = cycle
        self.failure_schedule = failure_schedule
        # Never drawn from: shard-safe failure models are rng-free and every
        # commit arrives with its exact target position.  It only exists to
        # satisfy the rng parameters of the state mutation APIs.
        self._scratch_rng = random.Random(0)
        # Incremental owned-band accounting, so neither the per-round vacancy
        # enumeration nor the series counters ever scan the whole grid: the
        # set of owned holes and the number of enabled nodes in the owned
        # band, updated by exactly the events that can change them (failures
        # and barrier commits).
        self._band_cells = tile.width * state.grid.rows
        self._band_holes = {
            coord
            for coord in state.vacant_cell_set()
            if tile.x_start <= coord.x < tile.x_stop
        }
        self._band_enabled = state.band_enabled_count(tile.x_start, tile.x_stop)

    def run_round(self, round_index: int) -> _TileReport:
        """Apply this round's failures, then report the owned vacancies."""
        started = time.perf_counter()
        state = self.state
        tile = self.tile
        x_start, x_stop = tile.x_start, tile.x_stop
        band_holes = self._band_holes
        model = self.failure_schedule.get(round_index)
        if model is not None:
            # Shard-safe models select victims purely from the state; masked
            # rows are invisible, so each replica disables exactly the
            # victims inside its coverage.
            for node_id in model.apply(state, self._scratch_rng):
                coord = state.cell_of_node(node_id)
                if x_start <= coord.x < x_stop:
                    self._band_enabled -= 1
                    if state.is_vacant(coord):
                        band_holes.add(coord)

        cycle_index = self.cycle.index_of
        initiator_for = self.cycle.initiator_for
        # Snapshots read the arrays directly (the id-sorted per-cell index
        # gives the member order, hence the head under the lowest-id policy).
        # For any node that already moved the driver's float ledger overrides
        # the snapshot anyway, so live values are as good as round-start ones.
        arrays = state.arrays
        row_of = arrays.row_of
        positions = arrays.positions
        energies = arrays.energy
        moved = arrays.moved_distance
        counts = arrays.move_count
        cell_members = state._cell_members
        vacancies: List[_VacancyReport] = []
        for vacant in sorted(band_holes, key=cycle_index):
            initiator = initiator_for(vacant)
            if initiator is None:  # pragma: no cover - serpentine never yields None
                continue
            members: List[_Member] = []
            for node_id in cell_members[initiator]:
                row = row_of(node_id)
                members.append(
                    (
                        node_id,
                        float(positions[row, 0]),
                        float(positions[row, 1]),
                        float(energies[row]),
                        float(moved[row]),
                        int(counts[row]),
                    )
                )
            vacancies.append((cycle_index(vacant), vacant, initiator, tuple(members)))
        return (vacancies, time.perf_counter() - started)

    def apply_commits(
        self, round_index: int, commits: Sequence[_Commit]
    ) -> Tuple[int, int, float]:
        """Apply the routed moves; return the owned band's (holes, spares, seconds).

        The driver routes each commit to exactly the tiles covering its
        source or target column, in cycle order, so a node that moved twice
        in one round (a cascade chain recruiting the node that just arrived)
        is stepped through both hops in sequence.  Three cases: a masked
        mover enters the coverage (admit — the routing guarantees the target
        is covered), a tracked mover relocates inside it (authoritative
        move, no draw), or a tracked mover leaves it (evict, so the replica
        keeps tracking exactly the nodes whose current cell it covers).
        """
        started = time.perf_counter()
        state = self.state
        tile = self.tile
        x_start, x_stop = tile.x_start, tile.x_stop
        band_holes = self._band_holes
        for mover_id, target, x, y, energy, moved_distance, move_count in commits:
            position = Point(x, y)
            if state.is_masked(mover_id):
                state.admit_node(
                    mover_id, target, position, energy, moved_distance, move_count
                )
                if x_start <= target.x < x_stop:
                    self._band_enabled += 1
                    band_holes.discard(target)
                continue
            if tile.covers_column(target.x):
                source = state.apply_authoritative_move(
                    mover_id, target, position, energy, moved_distance, move_count
                )
                if x_start <= target.x < x_stop:
                    self._band_enabled += 1
                    band_holes.discard(target)
            else:
                # Owned bands are at least one halo wide, so only halo-cell
                # residents can step out of the coverage.
                source = state.evict_node(mover_id)
            if x_start <= source.x < x_stop:
                self._band_enabled -= 1
                if state.is_vacant(source):
                    band_holes.add(source)
        holes = len(band_holes)
        spares = self._band_enabled - (self._band_cells - holes)
        return (holes, spares, time.perf_counter() - started)

    def apply_and_scan(
        self, round_index: int, commits: Sequence[_Commit]
    ) -> Tuple[Tuple[int, int, float], _TileReport]:
        """Apply round ``round_index``'s moves, then scan round ``round_index + 1``.

        Fusing the two ops takes the next round's vacancy scan off the
        driver's critical path: it overlaps the driver's bookkeeping of the
        current round instead of starting after it.  The driver only fuses
        when the engine either is guaranteed to execute the next round (a
        failure is still scheduled past the current one, which blocks every
        stop condition except the round bound) or the scan is a pure read
        (no failure scheduled next round), so the speculation never leaves
        an unwanted mutation behind.
        """
        counts = self.apply_commits(round_index, commits)
        return (counts, self.run_round(round_index + 1))

    def export_rows(self) -> Dict[str, object]:
        """Row data of every node currently located in the owned band."""
        return self.state.export_band_rows(self.tile.x_start, self.tile.x_stop)


# ------------------------------------------------------------------- backends
def _worker_loop(sim: TileSim, conn) -> None:
    """Blocking RPC loop of one forked tile worker."""
    try:
        while True:
            request = conn.recv()
            op = request[0]
            if op == "stop":
                break
            conn.send(getattr(sim, op)(*request[1:]))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass


class _InlineBackend:
    """Tiles stepped in-process (tests, benchmark timing, fork-less hosts)."""

    def __init__(self, sims: Sequence[TileSim]) -> None:
        self.sims = list(sims)
        self._pending: Optional[List[object]] = None

    def broadcast(self, op: str, *args) -> List[object]:
        """Run ``op`` on every tile with shared arguments; return the results."""
        return [getattr(sim, op)(*args) for sim in self.sims]

    def scatter(self, op: str, per_tile_args: Sequence[tuple]) -> None:
        """Start ``op`` with tile-specific arguments; :meth:`gather` collects.

        Inline tiles run eagerly, so the scatter/gather split only models the
        fork backend's pipelining — the per-tile busy seconds each call
        returns are what the modeled critical path is built from.
        """
        self._pending = [
            getattr(sim, op)(*args) for sim, args in zip(self.sims, per_tile_args)
        ]

    def gather(self) -> List[object]:
        """Collect the results of the last :meth:`scatter`."""
        results, self._pending = self._pending, None
        return results

    def close(self) -> None:
        """Nothing to release for in-process tiles."""


class _ForkBackend:
    """One forked worker process per tile, spoken to over pipes.

    Workers are persistent for the whole run: the replica state lives in the
    child and only reports/commits/counters cross the pipe each round.
    """

    def __init__(self, sims: Sequence[TileSim]) -> None:
        context = multiprocessing.get_context("fork")
        self.processes = []
        self.connections = []
        for sim in sims:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop, args=(sim, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            self.processes.append(process)
            self.connections.append(parent_conn)

    def broadcast(self, op: str, *args) -> List[object]:
        """Run ``op`` on every worker with shared arguments; block for results."""
        request = (op, *args)
        for conn in self.connections:
            conn.send(request)
        return [conn.recv() for conn in self.connections]

    def scatter(self, op: str, per_tile_args: Sequence[tuple]) -> None:
        """Dispatch ``op`` with tile-specific arguments without waiting.

        The driver does its serial bookkeeping between :meth:`scatter` and
        :meth:`gather`, genuinely overlapping it with the workers' apply
        phase.
        """
        for conn, args in zip(self.connections, per_tile_args):
            conn.send((op, *args))

    def gather(self) -> List[object]:
        """Collect the results of the last :meth:`scatter` (blocking)."""
        return [conn.recv() for conn in self.connections]

    def close(self) -> None:
        """Stop every worker and release the pipes."""
        for conn in self.connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - worker died
                pass
        for process in self.processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
        for conn in self.connections:
            conn.close()


# --------------------------------------------------------------------- engine
class ShardedEngine(RoundBasedEngine):
    """Round-based engine that distributes eligible runs over column-band tiles.

    Construction mirrors :class:`RoundBasedEngine` plus:

    Parameters
    ----------
    shards:
        Requested worker count; clamped to the grid's feasible maximum
        (every owned band must be at least one halo wide).
    mode:
        ``"fork"`` (default) runs each tile in a forked worker process;
        ``"inline"`` steps tiles in-process (deterministically identical —
        used by tests and for timing without process overhead).  Hosts
        without the ``fork`` start method silently use ``inline``.
    sequential_factory:
        Zero-argument callable producing a *fresh* sequential engine
        (fresh state, controller, and rng) for the :class:`ShardAbort`
        safety valve.  Without it an abort propagates to the caller.

    Ineligible configurations (see :attr:`ineligible_reason`) transparently
    run the inherited sequential loop on the same state/controller/rng.
    """

    def __init__(
        self,
        state: WsnState,
        controller,
        rng: random.Random,
        *,
        shards: int,
        mode: str = "fork",
        sequential_factory: Optional[Callable[[], RoundBasedEngine]] = None,
        **engine_kwargs,
    ) -> None:
        super().__init__(state, controller, rng, **engine_kwargs)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if mode not in ("fork", "inline"):
            raise ValueError(f"mode must be 'fork' or 'inline', got {mode!r}")
        if mode == "fork" and "fork" not in multiprocessing.get_all_start_methods():
            mode = "inline"  # pragma: no cover - non-forking platforms
        self.requested_shards = shards
        self.mode = mode
        self._sequential_factory = sequential_factory
        self._active = False
        self._backend = None
        self.fallback_engine: Optional[RoundBasedEngine] = None
        self.abort_reason: Optional[str] = None
        self.ineligible_reason = self._shard_eligibility()
        self.shards_effective = (
            feasible_shards(state.grid, shards) if self.ineligible_reason is None else 1
        )
        if self.ineligible_reason is None and self.shards_effective < 2:
            self.ineligible_reason = (
                "fewer than two halo-wide tiles fit"
                if shards > 1
                else "one shard requested"
            )
            self.shards_effective = 1
        #: Per-run timing telemetry for modeled-speedup reporting on hosts
        #: with fewer cores than shards: per-round maxima/sums of the tiles'
        #: busy seconds in both phases, the driver's serial decide and
        #: (overlappable) bookkeeping seconds, and their combination
        #: ``critical_seconds`` — the per-round critical path
        #: ``max(tile run) + decide + max(bookkeep, max(tile apply))``
        #: that a fully parallel host would pay.
        self.timing: Dict[str, float] = {
            "rounds": 0.0,
            "tile_run_max": 0.0,
            "tile_run_sum": 0.0,
            "tile_apply_max": 0.0,
            "tile_apply_sum": 0.0,
            "decide_seconds": 0.0,
            "bookkeep_seconds": 0.0,
            "critical_seconds": 0.0,
        }

    # ------------------------------------------------------------ eligibility
    def _shard_eligibility(self) -> Optional[str]:
        """Why this run must stay sequential, or ``None`` for the fast path.

        The fast path requires every per-round decision to be a pure
        function of the round-start state (see the module docstring); each
        check below guards one way rng draws or effects invisible to a
        membership snapshot could leak into decisions.
        """
        controller = self.controller
        state = self.state
        if type(controller) is not HamiltonReplacementController:
            return f"controller {type(controller).__name__} is not plain SR"
        if not isinstance(controller.cycle, SerpentineHamiltonCycle):
            return "cycle is not the serpentine construction"
        if controller.cycle.grid is not state.grid:
            return "cycle was built for a different grid"
        if controller.activation_probability != 1.0:
            return "activation_probability < 1 draws per-head rng"
        if controller.spare_selection == "random":
            return "random spare selection draws rng"
        if controller._processes:
            return "controller carries processes from a previous run"
        if self.energy_model is not None:
            return "energy model applies per-round physics"
        if self.event_log is not None:
            return "event log requires the sequential trace"
        if self.channel is None:
            return "legacy no-channel path"
        if self.channel.model != DEFAULT_CHANNEL:
            return f"channel {self.channel.model.kind!r} is not the default perfect channel"
        if state._head_policy is not lowest_id_policy:
            return "custom head-election policy"
        movement = state.movement_model
        if type(movement) is not MovementModel:
            return f"custom movement model {type(movement).__name__}"
        if not movement._target_central_area:
            return "whole-cell move targeting"
        for round_index in sorted(self.failure_schedule):
            if not self.failure_schedule[round_index].shard_safe:
                return f"failure model at round {round_index} is not shard-safe"
        if state.neighbor_index is not None:
            return "attached neighbor index cannot follow the merged arrays"
        return None

    # -------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        """Run sharded when eligible; otherwise the inherited sequential loop."""
        if self.ineligible_reason is not None:
            self._active = False
            return super().run()
        tiles = partition_columns(self.state.grid, self.shards_effective)
        cycle = self.controller.cycle
        sims = [
            TileSim(
                tile,
                self.state.extract_column_band(tile.halo_start, tile.halo_stop),
                cycle,
                self.failure_schedule,
            )
            for tile in tiles
        ]
        backend = _ForkBackend(sims) if self.mode == "fork" else _InlineBackend(sims)
        self._backend = backend
        self._tile_count = len(tiles)
        #: Routing table: for each grid column, the indices of the tiles whose
        #: coverage (owned band + halo) includes it.  A commit only concerns
        #: the tiles covering its source or target column.
        self._column_tiles: List[Tuple[int, ...]] = [
            tuple(
                index
                for index, tile in enumerate(tiles)
                if tile.halo_start <= column < tile.halo_stop
            )
            for column in range(self.state.grid.columns)
        ]
        # Per-cell geometry and per-column-pair routing caches for the
        # decision loop (vacancy chains revisit the same cells round after
        # round, and source/target column pairs are few).
        self._area_cache: Dict[GridCoord, object] = {}
        self._center_cache: Dict[GridCoord, object] = {}
        self._route_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: Float ledger: (x, y, energy, moved_distance, move_count) of every
        #: node that has moved during the sharded run — the driver-side
        #: authority that keeps decision floats exact across rounds.
        self._floats: Dict[int, Tuple[float, float, float, float, int]] = {}
        #: Vacancy reports for the upcoming round, produced by the previous
        #: barrier's fused apply-and-scan (``None`` before the first round
        #: and after a round that could not prefetch).
        self._prefetched: Optional[List[_TileReport]] = None
        self._holes = self.state.hole_count
        self._spares = self.state.spare_count
        self._active = True
        try:
            return super().run()
        except ShardAbort as abort:
            self.abort_reason = str(abort)
            if self._sequential_factory is None:
                raise
            # The driver's controller/channel/rng are mid-round; rebuild the
            # run from scratch and execute it sequentially.
            self.fallback_engine = self._sequential_factory()
            return self.fallback_engine.run()
        finally:
            self._active = False
            self._backend = None
            backend.close()

    # ----------------------------------------------------------- phase hooks
    def _pre_round(self, round_index: int) -> int:
        if not self._active:
            return super()._pre_round(round_index)
        # Scheduled failures are applied replica-side by every tile (they are
        # shard-safe, hence rng-free), and the fast path excludes energy
        # models, so the driver state stays pristine until the final merge.
        return 0

    def _charge_sender(self, sender_id: int) -> None:
        if not self._active:
            super()._charge_sender(sender_id)
        # The driver's float ledger applies the message debit itself in
        # _barrier_round, and the tiles replay it when applying commits.

    def _controller_round(self, round_index: int) -> RoundOutcome:
        if not self._active:
            return super()._controller_round(round_index)
        return self._barrier_round(round_index)

    def _hole_count(self) -> int:
        if not self._active:
            return super()._hole_count()
        return self._holes

    def _spare_count(self) -> int:
        if not self._active:
            return super()._spare_count()
        return self._spares

    def _finish_run(self, final_round: int) -> None:
        if self._active:
            # Each tile owns its band's rows exclusively, so adopting every
            # band partitions the population exactly; heads are re-derived by
            # a fresh election (identical to the sequential assignment under
            # the lowest-id policy, which both paths are pinned to).
            for payload in self._backend.broadcast("export_rows"):
                self.state.apply_row_export(payload)
            self.state._rebuild_indices_from_arrays()
            self.state.elect_all_heads()
        super()._finish_run(final_round)

    # ---------------------------------------------------------------- barrier
    def _barrier_round(self, round_index: int) -> RoundOutcome:
        """One distributed round: gather reports, merge decisions, scatter moves.

        The serial merge is split in two so only its decision half sits on
        the critical path.  The *decide* loop resolves every serve — gating,
        spare choice, the round's only rng draws, the exact post-move floats
        — and routes the resulting commits; the *bookkeeping* loop (process
        records, move records, channel posts) runs after the commits have
        been scattered, overlapping the tiles' apply phase in fork mode.
        Nothing the bookkeeping writes is read by the same round's decisions:
        a cascade hands the process to a cell that was occupied at round
        start, so the keys it writes are never queried until the next round.
        """
        controller = self.controller
        outcome = RoundOutcome(round_index=round_index)
        timing = self.timing
        reports = self._prefetched
        self._prefetched = None
        if reports is None:
            # Only the first round pays a blocking scan; afterwards each
            # barrier's fused apply-and-scan hands the next round's reports
            # to the gather below.
            reports = self._backend.broadcast("run_round", round_index)
            run_elapsed = [report[1] for report in reports]
            timing["tile_run_max"] += max(run_elapsed)
            timing["tile_run_sum"] += sum(run_elapsed)
            initial_scan = max(run_elapsed)
        else:
            initial_scan = 0.0

        decide_started = time.perf_counter()
        timing["rounds"] += 1
        # Each tile reports in cycle order and owned bands are disjoint, so
        # this is a timsort over concatenated sorted runs with unique leading
        # keys — pure C tuple comparisons, never reaching the later elements.
        merged = [entry for report in reports for entry in report[0]]
        merged.sort()

        vacancy_process = controller._vacancy_process
        processes = controller._processes
        undelivered = controller._undelivered
        floats = self._floats
        rng_random = self.rng.random
        central_area = self.state.grid.central_area
        move_cost = self.state.movement_model.move_cost_per_meter
        message_cost = self._message_cost
        area_cache = self._area_cache
        column_tiles = self._column_tiles
        route_cache = self._route_cache
        spare_selection = controller.spare_selection
        select_mover = self._select_mover

        # Current membership of the cells written earlier this round, id
        # order preserved; cells not in the map still hold their snapshot
        # membership.  This is what makes same-round cascade chains — a
        # serve recruiting the node another serve just moved in — replay
        # exactly as the sequential interleaving.
        delta: Dict[GridCoord, Tuple[_Member, ...]] = {}
        commit_lists: List[List[_Commit]] = [[] for _ in range(self._tile_count)]
        pending: List[tuple] = []
        for entry in merged:
            vacant = entry[1]
            process_id = vacancy_process.get(vacant)
            process = processes.get(process_id) if process_id is not None else None
            if process is not None:
                if not process.is_active:
                    # Served by a process that already finished (e.g. failed):
                    # the scheme has no spare to offer.
                    continue
                if vacant in undelivered:
                    # The cascade notification is still in the channel.
                    continue
            initiator = entry[2]
            members = delta.get(initiator)
            if members is None:
                members = entry[3]
            if not members:
                # The recruiting cell is (by now) also vacant; retry next round.
                continue
            # Lowest-id member is the head; floats of anything that moved
            # this run come from the ledger, never the (stale) snapshot.
            head = members[0]
            head_floats = floats.get(head[0])
            if head_floats is None:
                head_floats = head[1:]
            if head_floats[2] <= 0.0:
                # Dead-battery head: the vacancy waits (sequential skip).
                continue
            if len(members) == 1:
                # No spares at all: cascade with the head, no selection.
                mover, is_spare = head, False
            else:
                mover, is_spare = select_mover(
                    members, head, vacant, spare_selection
                )
            mover_id = mover[0]
            pre = floats.get(mover_id)
            if pre is None:
                pre = mover[1:]
            # The movement draw — random_point_in_box over the central area
            # of the vacant cell, x then y, identical to
            # MovementModel.move_row.
            box = area_cache.get(vacant)
            if box is None:
                box = central_area(vacant)
                area_cache[vacant] = box
            x = box.min_x + rng_random() * box.width
            y = box.min_y + rng_random() * box.height
            distance = math.hypot(pre[0] - x, pre[1] - y)
            energy = max(0.0, pre[2] - distance * move_cost)
            if not is_spare:
                # Cascade notification energy is debited at transmission,
                # after the move debit (sequential order of _serve_vacancy).
                energy = max(0.0, energy - message_cost)
            moved_distance = pre[3] + distance
            move_count = pre[4] + 1
            floats[mover_id] = (x, y, energy, moved_distance, move_count)
            commit = (mover_id, vacant, x, y, energy, moved_distance, move_count)
            route_key = (initiator.x, vacant.x)
            route = route_cache.get(route_key)
            if route is None:
                source_tiles = column_tiles[initiator.x]
                route = source_tiles + tuple(
                    index
                    for index in column_tiles[vacant.x]
                    if index not in source_tiles
                )
                route_cache[route_key] = route
            for index in route:
                commit_lists[index].append(commit)
            delta[vacant] = (mover,)
            delta[initiator] = tuple(m for m in members if m[0] != mover_id)
            pending.append(
                (vacant, initiator, process, mover_id, is_spare, pre, x, y, distance)
            )
        decide_elapsed = time.perf_counter() - decide_started
        timing["decide_seconds"] += decide_elapsed

        backend = self._backend
        # Prefetch the next round's scan whenever the loop can reach it: the
        # engine only stops after this round if no failure is scheduled past
        # it (every stop condition checks _failures_pending) or the round
        # bound hits — so either the next round runs and consumes the
        # reports, or the scan applied no failure and was a pure read.
        prefetch = round_index + 1 < self.max_rounds
        backend.scatter(
            "apply_and_scan" if prefetch else "apply_commits",
            [(round_index, commits) for commits in commit_lists],
        )

        book_started = time.perf_counter()
        cycle = controller.cycle
        max_hops = controller.max_hops
        start_process = controller._start_process
        post_request = controller._post_replacement_request
        initiator_of = cycle.initiator_for
        outcome_moves = outcome.moves
        sender = _SenderRef(0)
        for vacant, initiator, process, mover_id, is_spare, pre, x, y, distance in pending:
            if process is None:
                process = start_process(
                    origin_cell=vacant,
                    initiator_cell=initiator,
                    round_index=round_index,
                )
                vacancy_process[vacant] = process.process_id
                outcome.processes_started.append(process.process_id)
            if not is_spare:
                # Step 3 preamble: the notification is accounted before the
                # move (sequential order of _serve_vacancy).
                process.notifications_sent += 1
                outcome.messages_sent += 1
            record = MoveRecord(
                node_id=mover_id,
                source_cell=initiator,
                target_cell=vacant,
                source_position=Point(pre[0], pre[1]),
                target_position=Point(x, y),
                distance=distance,
                round_index=round_index,
                process_id=process.process_id,
            )
            if is_spare:
                # Step 2: a spare fills the hole and the process converges.
                process.record_move(record)
                outcome_moves.append(record)
                del vacancy_process[vacant]
                process.mark_converged(round_index)
                outcome.processes_converged.append(process.process_id)
            else:
                # Step 3: the head moves and notifies its own initiator.
                notify_target = initiator_of(initiator) or initiator
                final_hop = process.move_count + 1 >= max_hops
                sender.node_id = mover_id
                gated = post_request(
                    sender=sender,
                    source_cell=vacant,
                    target_cell=notify_target,
                    vacancy=initiator,
                    process_id=process.process_id,
                    round_index=round_index,
                    reliable=not final_hop,
                )
                process.record_move(record)
                outcome.moves.append(record)
                del vacancy_process[vacant]
                vacancy_process[initiator] = process.process_id
                if process.move_count >= max_hops:
                    process.mark_failed(round_index)
                    outcome.processes_failed.append(process.process_id)
                elif gated:
                    undelivered.add(initiator)
        book_elapsed = time.perf_counter() - book_started
        timing["bookkeep_seconds"] += book_elapsed

        results = backend.gather()
        if prefetch:
            counts = [result[0] for result in results]
            self._prefetched = [result[1] for result in results]
            scan_elapsed = [report[1] for report in self._prefetched]
            timing["tile_run_max"] += max(scan_elapsed)
            timing["tile_run_sum"] += sum(scan_elapsed)
            # Each tile runs its apply and its next-round scan back to back,
            # so the window overlapping the driver's bookkeeping is the
            # slowest per-tile apply+scan pair.
            tile_window = max(
                count[2] + scan for count, scan in zip(counts, scan_elapsed)
            )
        else:
            counts = results
            tile_window = max(count[2] for count in counts)
        self._holes = sum(count[0] for count in counts)
        self._spares = sum(count[1] for count in counts)
        apply_elapsed = [count[2] for count in counts]
        timing["tile_apply_max"] += max(apply_elapsed)
        timing["tile_apply_sum"] += sum(apply_elapsed)
        timing["critical_seconds"] += (
            initial_scan + decide_elapsed + max(book_elapsed, tile_window)
        )
        return outcome

    def _select_mover(
        self,
        members: Sequence[_Member],
        head: _Member,
        vacant: GridCoord,
        spare_selection: str,
    ) -> Tuple[_Member, bool]:
        """Replay ``HamiltonReplacementController._select_spare`` on snapshots.

        Returns the chosen spare (or the head for a cascade) and whether it
        was a spare.  Spares are never same-round movers (moves only target
        vacant cells, so an arriving node is always a sole member), but their
        floats are routed through the ledger anyway for uniformity.
        """
        usable: List[Tuple[_Member, Tuple[float, ...]]] = []
        for member in members[1:]:
            floats = self._floats.get(member[0], member[1:])
            if floats[2] > 0.0:
                usable.append((member, floats))
        if not usable:
            return head, False
        if len(usable) == 1:
            # Both selection policies pick the only candidate; skip the
            # geometry.
            return usable[0][0], True
        center = self._center_cache.get(vacant)
        if center is None:
            center = self.state.grid.cell_center(vacant)
            self._center_cache[vacant] = center
        if spare_selection == "max_energy":
            chosen = max(
                usable,
                key=lambda pair: (
                    pair[1][2],
                    -math.hypot(pair[1][0] - center.x, pair[1][1] - center.y),
                    -pair[0][0],
                ),
            )
        else:
            chosen = min(
                usable,
                key=lambda pair: (
                    math.hypot(pair[1][0] - center.x, pair[1][1] - center.y),
                    pair[0][0],
                ),
            )
        return chosen[0], True
