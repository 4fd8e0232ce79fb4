"""Property tests for state copies, judged by the ``to_bytes`` snapshot.

Scenario reuse runs every spec of a scenario group on a
:meth:`WsnState.clone` of one shared build, so the copy must be *exact*:
every :class:`NodeArrays` column (values and dtypes), the grid geometry,
the head table, and the incremental indices of the copy must match the
original, and the copy must be independent of it.  These tests drive the
copy over seeded random scenarios and mutation histories — including
states with disabled nodes, stale head roles on disabled rows, energy
jitter, and non-default head policies — and hold it to the
:meth:`WsnState.to_bytes` identity oracle, ``check_invariants()`` (the
index oracle), and a re-attached
:class:`~repro.network.adjacency.NeighborIndex` checked for consistency.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.network.node_arrays import NodeArrays
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig, build_scenario_state

COLUMNS = (
    "node_ids",
    "positions",
    "energy",
    "initial_energy",
    "state",
    "role",
    "cell",
    "moved_distance",
    "move_count",
)

#: Seeded copy scenarios (kept moderate: each builds a full state).
SEED_COUNT = 25


def assert_arrays_identical(left: NodeArrays, right: NodeArrays) -> None:
    assert len(left) == len(right)
    for column in COLUMNS:
        a = getattr(left, column)
        b = getattr(right, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column


def random_config(rng: random.Random) -> ScenarioConfig:
    """A randomized scenario: size, policy, deployment, and optional energy."""
    columns = rng.randint(3, 7)
    rows = rng.randint(3, 7)
    jittered = rng.random() < 0.5
    return ScenarioConfig(
        columns=columns,
        rows=rows,
        deployed_count=(
            columns * rows * rng.randint(2, 4)
        ),
        spare_surplus=rng.randint(0, 20),
        seed=rng.randint(0, 2**31),
        head_policy=rng.choice(sorted(HEAD_POLICIES)),
        deployment=rng.choice(("uniform", "per_cell")),
        initial_energy=rng.uniform(0.5, 2.0) if jittered else None,
        initial_energy_jitter=rng.uniform(0.0, 0.3) if jittered else 0.0,
    )


def mutate(state: WsnState, rng: random.Random, operations: int) -> None:
    """A random mutation history so copies cover non-pristine states."""
    for _ in range(operations):
        roll = rng.random()
        enabled = state.enabled_nodes()
        if roll < 0.4:
            if enabled:
                state.disable_node(rng.choice(enabled).node_id)
        elif roll < 0.6:
            disabled = state.disabled_nodes()
            if disabled:
                state.enable_node(rng.choice(disabled).node_id)
        elif enabled:
            node = rng.choice(enabled)
            source = state.cell_of_node(node.node_id)
            neighbours = state.grid.neighbours(source)
            if neighbours:
                try:
                    state.move_node(node.node_id, rng.choice(neighbours), rng)
                except RuntimeError:
                    pass  # depleted batteries cannot move; skip the operation


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_state_round_trip_over_random_scenarios(seed):
    """A clone is exact and independent for random scenarios and histories."""
    rng = random.Random(seed)
    config = random_config(rng)
    state = build_scenario_state(config)
    if seed % 2:  # half the seeds copy a mutated, mid-simulation state
        mutate(state, rng, operations=rng.randint(1, 25))
    snapshot = state.to_bytes()
    restored = state.clone()
    assert restored.to_bytes() == snapshot
    assert_arrays_identical(state.arrays, restored.arrays)
    assert restored.grid.columns == state.grid.columns
    assert restored.grid.rows == state.grid.rows
    assert restored.grid.cell_size == state.grid.cell_size
    assert restored.heads() == state.heads()
    assert restored.hole_count == state.hole_count
    assert restored.spare_count == state.spare_count
    assert restored.vacant_cells() == state.vacant_cells()
    restored.check_invariants()
    mutate(restored, rng, operations=10)
    assert state.to_bytes() == snapshot  # the original is untouched
    state.check_invariants()


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 5))
def test_restored_state_reattaches_a_consistent_neighbor_index(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    state = build_scenario_state(config)
    mutate(state, rng, operations=10)
    reference = state.attach_neighbor_index(UnitDiskRadio(config.communication_range))
    restored = state.clone()
    assert restored.neighbor_index is None  # a clone never shares the index
    index = restored.attach_neighbor_index(UnitDiskRadio(config.communication_range))
    index.check_consistency()
    assert index.as_dict() == reference.as_dict()


def test_restored_heads_are_not_re_elected():
    """Jittered energy + highest_energy policy: a clone must keep the roles.

    Energy jitter installs *after* head election, so a fresh election on the
    jittered energies could crown different heads than the built state
    holds.  A clone copies the head table instead of re-electing.
    """
    config = ScenarioConfig(
        columns=5,
        rows=5,
        deployed_count=150,
        seed=11,
        head_policy="highest_energy",
        initial_energy=1.0,
        initial_energy_jitter=0.5,
    )
    state = build_scenario_state(config)
    restored = state.clone()
    assert restored.heads() == state.heads()
    assert restored.to_bytes() == state.to_bytes()
