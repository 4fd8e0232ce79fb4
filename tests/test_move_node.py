"""Differential tests for the mutation path :meth:`WsnState.move_node`.

``move_node`` writes the move straight into the node arrays and keeps a
surviving head without consulting the policy, rewriting member roles only
on a fresh election.  These tests replay random move sequences against an
in-test copy of the previous algorithm — the move applied through a node
handle, then a linear head-survival scan and a role rewrite of every
member of both cells — and require identical records, heads, role columns
and ``to_bytes()`` snapshots under every head policy.  The sequences cover
neighbour moves, same-cell moves and long moves (``enforce_adjacent=False``),
moves into vacant cells, heads leaving single-member cells, and an attached
neighbour index.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.grid.head_election import elect_head
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.node import NodeRole
from repro.network.node_arrays import NodeArrays
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState
from repro.sim.scenario import HEAD_POLICIES

POLICIES = sorted(HEAD_POLICIES)
SEEDS = range(8)
MOVES = 120


def _sparse_state(policy: str, rng: random.Random) -> WsnState:
    """4x4 grid, 1.5 nodes per cell on average: vacant and single-member cells abound.

    Ids are a shuffled, non-contiguous range (rows go through the id map)
    and energies take two levels, so highest-energy elections tie.
    """
    grid = VirtualGrid(columns=4, rows=4, cell_size=2.0)
    count = 24
    ids = [5 * index + 2 for index in range(count)]
    rng.shuffle(ids)
    xs = np.asarray([rng.uniform(0.0, 8.0) for _ in ids])
    ys = np.asarray([rng.uniform(0.0, 8.0) for _ in ids])
    arrays = NodeArrays.from_positions(np.asarray(ids), xs, ys)
    arrays.energy[:] = [rng.choice((60.0, 100.0)) for _ in ids]
    return WsnState(grid, arrays, head_policy=HEAD_POLICIES[policy])


def _reference_elect(state: WsnState, coord: GridCoord) -> None:
    """The previous head repair: scan for the head, else elect; rewrite every role."""
    members = state.members_of(coord)
    head_id = state._heads[coord]
    if head_id is not None and any(node.node_id == head_id for node in members):
        head = state.node(head_id)
    else:
        head = elect_head(members, state.grid.cell_center(coord), state._head_policy)
        state._heads[coord] = None if head is None else head.node_id
    for node in members:
        node.role = NodeRole.SPARE
    if head is not None:
        head.role = NodeRole.HEAD


def _reference_move(state, node_id, target, rng, round_index, enforce_adjacent):
    """The previous ``move_node``: relocate through the handle, then full role repair."""
    node = state.node(node_id)
    assert node.is_enabled
    source = state.cell_of_node(node_id)
    if enforce_adjacent:
        assert source.is_neighbour_of(target)
    record = state.movement_model.execute_move(
        node, source, target, rng, round_index=round_index, process_id=round_index % 3
    )
    row = state.arrays.row_of(node_id)
    state.arrays.cell[row] = state.grid.flat_index(target)
    state._index_remove(source, node_id)
    state._index_add(target, node_id)
    if state._heads[source] == node_id:
        state._heads[source] = None
        _reference_elect(state, source)
    node.role = NodeRole.UNASSIGNED
    _reference_elect(state, target)
    if state.neighbor_index is not None:
        state.neighbor_index.on_move(row)
    return record


def _pick_move(state: WsnState, chooser: random.Random):
    """(mover, target cell, kind) for one random step, or ``None`` if nobody can move."""
    movers = [
        node_id
        for node_id in state.enabled_node_ids()
        if state.arrays.energy[state.arrays.row_of(node_id)] > 0.0
    ]
    if not movers:
        return None
    node_id = chooser.choice(movers)
    source = state.cell_of_node(node_id)
    kind = chooser.choice(("neighbour", "neighbour", "same", "far"))
    if kind == "neighbour":
        target = chooser.choice(state.grid.neighbours(source))
    elif kind == "same":
        target = source
    else:
        target = chooser.choice(state.grid.coord_list())
    return node_id, target, kind


def _replay(policy: str, seed: int, with_index: bool) -> Counter:
    rng = random.Random(seed)
    state = _sparse_state(policy, rng)
    if with_index:
        state.attach_neighbor_index(UnitDiskRadio(2.5))
    reference = state.clone()
    if with_index:
        reference.attach_neighbor_index(UnitDiskRadio(2.5))
    chooser = random.Random(seed + 1000)
    move_rng = random.Random(seed + 2000)
    reference_rng = random.Random(seed + 2000)
    seen: Counter = Counter()
    for round_index in range(MOVES):
        picked = _pick_move(state, chooser)
        if picked is None:
            break
        node_id, target, kind = picked
        source = state.cell_of_node(node_id)
        seen[kind] += 1
        seen["into_vacant"] += state.is_vacant(target)
        seen["head_leaves_single_member_cell"] += (
            source != target
            and state.heads()[source] == node_id
            and state.member_count(source) == 1
        )
        seen["head_moves"] += state.heads()[source] == node_id
        enforce = kind == "neighbour"
        record = state.move_node(
            node_id,
            target,
            move_rng,
            round_index,
            process_id=round_index % 3,
            enforce_adjacent=enforce,
        )
        expected = _reference_move(
            reference, node_id, target, reference_rng, round_index, enforce
        )
        assert record == expected
        assert state.heads() == reference.heads()
        assert np.array_equal(state.arrays.role, reference.arrays.role)
        assert state.to_bytes() == reference.to_bytes()
        state.check_invariants()
    reference.check_invariants()
    return seen


@pytest.mark.parametrize("with_index", [False, True], ids=["plain", "neighbor_index"])
@pytest.mark.parametrize("policy", POLICIES)
def test_move_node_matches_full_reelection(policy, with_index):
    seen: Counter = Counter()
    for seed in SEEDS:
        seen += _replay(policy, seed, with_index)
    for kind in (
        "neighbour",
        "same",
        "far",
        "into_vacant",
        "head_moves",
        "head_leaves_single_member_cell",
    ):
        assert seen[kind] > 0, f"the move sequences never exercised {kind}"


def test_move_node_refreshes_an_existing_handle():
    rng = random.Random(3)
    state = _sparse_state("lowest_id", rng)
    node_id = state.enabled_node_ids()[0]
    handle = state.node(node_id)
    target = state.grid.neighbours(state.cell_of_node(node_id))[0]
    record = state.move_node(node_id, target, rng)
    assert handle.position == record.target_position
    assert handle.moved_distance == record.distance
    assert handle.move_count == 1
    assert state.node(node_id) is handle


def test_move_node_rejects_a_depleted_battery():
    rng = random.Random(4)
    state = _sparse_state("lowest_id", rng)
    node_id = state.enabled_node_ids()[0]
    state.arrays.energy[state.arrays.row_of(node_id)] = 0.0
    before = state.to_bytes()
    target = state.grid.neighbours(state.cell_of_node(node_id))[0]
    with pytest.raises(RuntimeError, match="depleted battery"):
        state.move_node(node_id, target, rng)
    assert state.to_bytes() == before
