"""Property tests for the batched mutation path :meth:`WsnState.disable_nodes`.

``disable_nodes`` re-elects every cell whose head it disabled once, over the
cell's final members, instead of once per victim.  These tests pin that it
is bit-for-bit the same as disabling the victims one at a time — both
through :meth:`WsnState.disable_node` and through an independent copy of the
per-victim algorithm (index surgery plus an immediate re-election on every
head loss) — under every head policy, on tie-heavy fixtures where the
argbest tie-breaks decide the outcome, with an attached neighbour index,
mid-run after moves have left non-best heads in place, and with repeated
and already-disabled ids.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np
import pytest

from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.node import NodeState
from repro.network.node_arrays import NodeArrays
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState
from repro.sim.scenario import HEAD_POLICIES

POLICIES = sorted(HEAD_POLICIES)
SEEDS = range(12)
#: Offsets from the cell centre of the symmetric fixture: four nodes on the
#: diagonals and four on the axes, so each group is equidistant from the
#: centre and nearest-to-centre elections are decided by the id tie-break.
SYMMETRIC_OFFSETS = (
    (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5),
    (-0.5, 0.0), (0.5, 0.0), (0.0, -0.5), (0.0, 0.5),
)


def _symmetric_state(policy: str, rng: random.Random) -> WsnState:
    """4x4 grid, eight symmetric nodes per cell, shuffled ids, tied energies.

    Ids are a shuffled, non-contiguous range (so rows are looked up through
    the id map), and energies take only two values (so highest-energy
    elections tie constantly).
    """
    grid = VirtualGrid(columns=4, rows=4, cell_size=2.0)
    xs: List[float] = []
    ys: List[float] = []
    for coord in grid.all_coords():
        center = grid.cell_center(coord)
        for dx, dy in SYMMETRIC_OFFSETS:
            xs.append(center.x + dx)
            ys.append(center.y + dy)
    ids = [3 * index + 1 for index in range(len(xs))]
    rng.shuffle(ids)
    arrays = NodeArrays.from_positions(np.asarray(ids), np.asarray(xs), np.asarray(ys))
    arrays.energy[:] = [rng.choice((50.0, 100.0)) for _ in ids]
    return WsnState(grid, arrays, head_policy=HEAD_POLICIES[policy])


def _victims(state: WsnState, rng: random.Random, share: float) -> List[int]:
    """A victim list with repeats and already-disabled ids mixed in."""
    ids = state.arrays.node_ids.tolist()
    picks = rng.sample(ids, int(share * len(ids)))
    return picks + rng.choices(picks, k=len(picks) // 4) + rng.sample(ids, 3)


def _disable_one_by_one(state: WsnState, node_ids: Sequence[int], reason: NodeState) -> None:
    """The per-victim algorithm ``disable_nodes`` replaces, kept as an oracle."""
    for node_id in node_ids:
        node = state.node(node_id)
        if not node.is_enabled:
            continue
        row = state.arrays.row_of(node_id)
        coord = state.cell_of_node(node_id)
        node.disable(reason)
        state._index_remove(coord, node_id)
        if state._heads[coord] == node_id:
            state._heads[coord] = None
            state._elect_cell_head(coord)
        if state.neighbor_index is not None:
            state.neighbor_index.on_disable(row)


def _assert_batch_matches(
    state: WsnState, node_ids: Sequence[int], reason: NodeState = NodeState.FAILED
) -> List[int]:
    """Disable ``node_ids`` three ways on clones of ``state``; all must agree."""
    radio = UnitDiskRadio(2.5) if state.neighbor_index is not None else None
    copies = [state.clone() for _ in range(3)]
    if radio is not None:
        for copy in copies:
            copy.attach_neighbor_index(radio)
    batched, looped, oracle = copies
    enabled_before = set(state.enabled_node_ids())
    disabled = batched.disable_nodes(node_ids, reason)
    for node_id in node_ids:
        looped.disable_node(node_id, reason)
    _disable_one_by_one(oracle, node_ids, reason)

    assert disabled == [n for n in dict.fromkeys(node_ids) if n in enabled_before]
    for other in (looped, oracle):
        assert batched.to_bytes() == other.to_bytes()
        assert batched.heads() == other.heads()
    for copy in copies:
        copy.check_invariants()
    return disabled


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_equals_per_victim_on_tie_heavy_fixture(policy, seed):
    rng = random.Random(seed)
    state = _symmetric_state(policy, rng)
    _assert_batch_matches(state, _victims(state, rng, share=0.6))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_keeps_neighbor_index_consistent(policy, seed):
    rng = random.Random(seed)
    state = _symmetric_state(policy, rng)
    state.attach_neighbor_index(UnitDiskRadio(2.5))
    _assert_batch_matches(state, _victims(state, rng, share=0.4), NodeState.DEPLETED)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_mid_run_keeps_non_best_heads(policy, seed):
    """Moves and energy drift leave non-best heads; surviving ones stay heads."""
    rng = random.Random(seed)
    state = _symmetric_state(policy, rng)
    for _ in range(25):
        node_id = rng.choice(state.enabled_node_ids())
        source = state.cell_of_node(node_id)
        state.move_node(node_id, rng.choice(state.grid.neighbours(source)), rng)
    # Energy changes mid-run never trigger a re-election either.
    for coord, head_id in state.heads().items():
        spares = state.spares_of(coord)
        if spares:
            spares[0].energy = state.node(head_id).energy + 1.0
    policy_fn = HEAD_POLICIES[policy]
    before = state.heads()
    non_best = [
        coord
        for coord, head_id in before.items()
        if head_id is not None
        and policy_fn(state.members_of(coord), state.grid.cell_center(coord)).node_id
        != head_id
    ]
    if policy != "nearest_to_center":
        assert non_best, "the fixture left no non-best head to exercise"
    spared = {before[coord] for coord in non_best}
    victims = [n for n in _victims(state, rng, share=0.5) if n not in spared]
    _assert_batch_matches(state, victims)
    batched = state.clone()
    batched.disable_nodes(victims)
    assert all(batched.heads()[coord] == before[coord] for coord in non_best)


@pytest.mark.parametrize("policy", POLICIES)
def test_repeated_and_already_disabled_ids_are_skipped(policy):
    rng = random.Random(5)
    state = _symmetric_state(policy, rng)
    first = state.arrays.node_ids[:10].tolist()
    state.disable_nodes(first, NodeState.MISBEHAVING)
    victims = first + first[:3] + state.arrays.node_ids[10:20].tolist() * 2
    disabled = _assert_batch_matches(state, victims)
    assert disabled == state.arrays.node_ids[10:20].tolist()
    assert state.disable_nodes(first) == []
    assert state.disable_nodes([]) == []


def test_batch_rejects_bad_input_without_mutating():
    state = _symmetric_state("lowest_id", random.Random(1))
    snapshot = state.to_bytes()
    with pytest.raises(ValueError):
        state.disable_nodes(state.enabled_node_ids()[:3], NodeState.ENABLED)
    with pytest.raises(KeyError):
        state.disable_nodes([state.enabled_node_ids()[0], 2])  # 2 is no node id
    assert state.to_bytes() == snapshot
    state.check_invariants()


def test_contiguous_ids_reject_unknown_ids():
    grid = VirtualGrid(columns=2, rows=2, cell_size=1.0)
    arrays = NodeArrays.from_positions(
        np.arange(10, 14), np.array([0.5, 1.5, 0.5, 1.5]), np.array([0.5, 0.5, 1.5, 1.5])
    )
    state = WsnState(grid, arrays)
    for unknown in (9, 14, -1):
        with pytest.raises(KeyError):
            state.disable_nodes([11, unknown])
    assert state.enabled_count == 4
    assert state.disable_nodes([13, 10]) == [13, 10]
    assert state.hole_count == 2
    state.check_invariants()


def test_orphaned_cell_is_reelected_over_final_members():
    """The head and the would-be successor die together: one election, right winner."""
    grid = VirtualGrid(columns=1, rows=1, cell_size=4.0)
    arrays = NodeArrays.from_positions(
        np.arange(4), np.array([1.0, 2.0, 3.0, 1.5]), np.array([1.0, 2.0, 3.0, 2.5])
    )
    state = WsnState(grid, arrays)
    coord = GridCoord(0, 0)
    assert state.heads()[coord] == 0
    assert state.disable_nodes([0, 1]) == [0, 1]
    assert state.heads()[coord] == 2
    assert [n.node_id for n in state.spares_of(coord)] == [3]
    state.check_invariants()
