"""Movement model for replacement moves.

Section 4 ("Implementation Issue") specifies how a node moves during a
replacement: it goes straight to a point in the *central area* of the target
cell.  For an ``r x r`` cell the central area is the middle ``r/2 x r/2``
square, so a single hop covers at least ``r/4`` and at most ``sqrt(58)/4 * r``
metres; the paper uses ``1.08 * r`` as the average per-hop distance in its
estimates (Figure 5).
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from repro.grid.geometry import Point
from repro.grid.virtual_grid import (
    AVERAGE_MOVE_FACTOR,
    GridCoord,
    VirtualGrid,
    move_distance_bounds,
    random_point_in_box,
)
from repro.network.node import MOVE_COST_PER_METER, SensorNode


class MoveRecord(NamedTuple):
    """One completed relocation of a node between two cells.

    A named tuple rather than a frozen dataclass, like
    :class:`~repro.grid.virtual_grid.GridCoord`: every replacement hop
    creates one, and the C-level tuple constructor is several times cheaper
    than the generated dataclass ``__init__``.
    """

    node_id: int
    source_cell: GridCoord
    target_cell: GridCoord
    source_position: Point
    target_position: Point
    distance: float
    round_index: int
    process_id: Optional[int] = None

    @property
    def is_cascading(self) -> bool:
        """Whether the move vacated its source cell as part of a cascade."""
        return self.process_id is not None


class MovementModel:
    """Chooses target positions and executes replacement moves."""

    def __init__(
        self,
        grid: VirtualGrid,
        target_central_area: bool = True,
        move_cost_per_meter: float = MOVE_COST_PER_METER,
    ) -> None:
        if move_cost_per_meter < 0:
            raise ValueError(
                f"move_cost_per_meter must be non-negative, got {move_cost_per_meter}"
            )
        self._grid = grid
        self._target_central_area = target_central_area
        self._move_cost_per_meter = move_cost_per_meter

    @property
    def grid(self) -> VirtualGrid:
        """The virtual grid movements are validated against."""
        return self._grid

    @property
    def move_cost_per_meter(self) -> float:
        """Energy debited per metre moved (joules/metre)."""
        return self._move_cost_per_meter

    def with_move_cost(self, move_cost_per_meter: float) -> "MovementModel":
        """Copy of this model with a different move rate, other knobs kept."""
        return MovementModel(
            self._grid,
            target_central_area=self._target_central_area,
            move_cost_per_meter=move_cost_per_meter,
        )

    @property
    def average_hop_distance(self) -> float:
        """The paper's average per-hop distance estimate, ``1.08 * r``."""
        return AVERAGE_MOVE_FACTOR * self._grid.cell_size

    @property
    def hop_distance_bounds(self) -> tuple:
        """(min, max) possible per-hop distance for this grid's cell size."""
        return move_distance_bounds(self._grid.cell_size)

    def choose_target_position(self, target_cell: GridCoord, rng: random.Random) -> Point:
        """Random point in the central area (or the whole cell) of ``target_cell``.

        "Each movement of node u from one grid to its neighbour will randomly
        select the destination location in the central area of the target
        grid" (Section 5).
        """
        if self._target_central_area:
            box = self._grid.central_area(target_cell)
        else:
            box = self._grid.cell_bounds(target_cell)
        return random_point_in_box(box, rng)

    def execute_move(
        self,
        node: SensorNode,
        source_cell: GridCoord,
        target_cell: GridCoord,
        rng: random.Random,
        round_index: int,
        process_id: Optional[int] = None,
        target_position: Optional[Point] = None,
    ) -> MoveRecord:
        """Move ``node`` from ``source_cell`` into ``target_cell``.

        The caller is responsible for keeping the cell-membership index of the
        network state consistent.  Nodes of a network state move through
        :meth:`repro.network.state.WsnState.move_node`, which calls
        :meth:`move_row` on the state's arrays instead.
        """
        self._grid.validate_coord(source_cell)
        self._grid.validate_coord(target_cell)
        source_position = node.position
        if target_position is None:
            target_position = self.choose_target_position(target_cell, rng)
        distance = node.relocate(target_position, cost_per_meter=self._move_cost_per_meter)
        return MoveRecord(
            node_id=node.node_id,
            source_cell=source_cell,
            target_cell=target_cell,
            source_position=source_position,
            target_position=target_position,
            distance=distance,
            round_index=round_index,
            process_id=process_id,
        )

    def move_row(
        self,
        arrays,
        row: int,
        source_cell: GridCoord,
        target_cell: GridCoord,
        rng: random.Random,
        round_index: int,
        process_id: Optional[int] = None,
        target_position: Optional[Point] = None,
        source_position: Optional[Point] = None,
    ) -> MoveRecord:
        """:meth:`execute_move` for row ``row`` of a ``NodeArrays`` store.

        Writes the position, ``moved_distance``, ``move_count`` and
        ``energy`` columns directly, with the float operations of
        :meth:`SensorNode.relocate` in the same order, so the two paths agree
        bit for bit.  ``source_position`` is the node's current position
        when the caller already holds it as a point (a handle's), which the
        record then shares instead of a new point read from the row.  The
        caller has checked that the row is enabled and both cells are valid;
        a depleted battery raises :class:`RuntimeError` after the target
        draw, as ``relocate`` does.
        """
        if target_position is None:
            target_position = self.choose_target_position(target_cell, rng)
        energy = float(arrays.energy[row])
        node_id = int(arrays.node_ids[row])
        if energy <= 0.0:
            raise RuntimeError(f"node {node_id} has a depleted battery and cannot move")
        if source_position is None:
            source_position = Point(*arrays.positions[row].tolist())
        target_x = target_position.x
        target_y = target_position.y
        distance = math.hypot(source_position.x - target_x, source_position.y - target_y)
        arrays.positions[row] = (target_x, target_y)
        arrays.moved_distance[row] = float(arrays.moved_distance[row]) + distance
        arrays.move_count[row] += 1
        arrays.energy[row] = max(0.0, energy - distance * self._move_cost_per_meter)
        return MoveRecord(
            node_id,
            source_cell,
            target_cell,
            source_position,
            target_position,
            distance,
            round_index,
            process_id,
        )
