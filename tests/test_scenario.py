"""Unit tests for the Section-5 scenario configuration and builder."""

import dataclasses

import pytest

from repro.network.failures import ThinningToEnabledCount
from repro.sim.rng import derive_rng
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig, build_scenario_state


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = ScenarioConfig()
        assert config.columns == 16 and config.rows == 16
        assert config.communication_range == 10.0
        assert config.deployed_count == 5000
        assert config.cell_size == pytest.approx(4.4721, abs=1e-4)
        assert config.cell_count == 256

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(columns=0)
        with pytest.raises(ValueError):
            ScenarioConfig(communication_range=0)
        with pytest.raises(ValueError):
            ScenarioConfig(deployed_count=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(spare_surplus=-5)
        with pytest.raises(ValueError):
            ScenarioConfig(head_policy="no-such-policy")
        with pytest.raises(ValueError):
            ScenarioConfig(deployment="hexagonal")

    def test_target_enabled(self):
        assert ScenarioConfig(spare_surplus=40).target_enabled == 256 + 40
        assert ScenarioConfig().target_enabled is None

    def test_with_helpers_return_copies(self):
        base = ScenarioConfig(seed=1)
        changed = base.with_spare_surplus(99).with_seed(7)
        assert changed.spare_surplus == 99 and changed.seed == 7
        assert base.spare_surplus is None and base.seed == 1

    def test_head_policy_lookup(self):
        for name in HEAD_POLICIES:
            assert ScenarioConfig(head_policy=name).head_policy_fn is HEAD_POLICIES[name]

    def test_make_grid(self):
        grid = ScenarioConfig(columns=8, rows=6).make_grid()
        assert grid.columns == 8 and grid.rows == 6
        assert grid.cell_size == pytest.approx(4.4721, abs=1e-4)


class TestBuildScenario:
    def test_thinning_gives_requested_enabled_count(self):
        config = ScenarioConfig(
            columns=8, rows=8, deployed_count=500, spare_surplus=30, seed=3
        )
        state = build_scenario_state(config)
        assert state.node_count == 500
        assert state.enabled_count == 64 + 30
        # The defining relation of the workload: spares exceed holes by N.
        assert state.spare_surplus == 30

    def test_no_thinning_without_spare_surplus(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=300, seed=3)
        state = build_scenario_state(config)
        assert state.enabled_count == 300

    def test_reproducible_builds(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=400, spare_surplus=20, seed=11)
        a = build_scenario_state(config)
        b = build_scenario_state(config)
        assert a.occupancy() == b.occupancy()
        assert a.heads() == b.heads()

    def test_different_seeds_differ(self):
        base = ScenarioConfig(columns=8, rows=8, deployed_count=400, spare_surplus=20)
        a = build_scenario_state(base.with_seed(1))
        b = build_scenario_state(base.with_seed(2))
        assert a.occupancy() != b.occupancy()

    def test_per_cell_deployment(self):
        config = ScenarioConfig(
            columns=6, rows=6, deployed_count=72, deployment="per_cell", seed=5
        )
        state = build_scenario_state(config)
        assert state.hole_count == 0
        assert all(count == 2 for count in state.occupancy().values())

    def test_heads_elected_in_built_state(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=600, spare_surplus=64, seed=9)
        state = build_scenario_state(config)
        state.check_invariants()
        for coord in state.occupied_cells():
            assert state.head_of(coord) is not None


class TestPerCellDeploymentValidation:
    """per_cell deployments must honor deployed_count exactly or be rejected."""

    def test_non_multiple_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of the cell count"):
            ScenarioConfig(columns=6, rows=6, deployed_count=20, deployment="per_cell")

    def test_zero_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of the cell count"):
            ScenarioConfig(columns=4, rows=4, deployed_count=0, deployment="per_cell")

    def test_exact_multiple_deploys_exactly_that_many(self):
        config = ScenarioConfig(
            columns=4, rows=4, deployed_count=48, deployment="per_cell", seed=2
        )
        state = build_scenario_state(config)
        assert state.node_count == 48
        assert all(count == 3 for count in state.occupancy().values())


class TestSurvivorsOnlyBuild:
    """The build fails its thinning victims before indexing; nothing else may change.

    Two references build the whole deployment first and then thin it with
    the same victim draw: one ``disable_node`` call per victim (the
    historical algorithm) and one :meth:`ThinningToEnabledCount.apply`
    batch.  Every observable of the three states must agree.
    """

    CONFIGS = {
        "uniform": ScenarioConfig(columns=6, rows=5, deployed_count=400, spare_surplus=12),
        "per_cell": ScenarioConfig(
            columns=6, rows=5, deployed_count=240, spare_surplus=12, deployment="per_cell"
        ),
        "nothing_to_thin": ScenarioConfig(
            columns=6, rows=5, deployed_count=42, spare_surplus=12
        ),
        "paper": ScenarioConfig(spare_surplus=55),
    }

    @staticmethod
    def _thinned_after_indexing(config: ScenarioConfig, per_victim: bool):
        state = build_scenario_state(dataclasses.replace(config, spare_surplus=None))
        thinning = ThinningToEnabledCount(target_enabled=config.target_enabled)
        rng = derive_rng(config.seed, "thinning")
        if per_victim:
            for node_id in thinning.draw_victims(state.enabled_node_ids(), rng):
                state.disable_node(node_id)
        else:
            thinning.apply(state, rng)
        return state

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("policy", sorted(HEAD_POLICIES))
    @pytest.mark.parametrize("shape", sorted(CONFIGS))
    def test_equals_index_then_disable(self, shape, policy, seed):
        config = dataclasses.replace(self.CONFIGS[shape], head_policy=policy, seed=seed)
        if shape == "nothing_to_thin":
            assert config.deployed_count == config.target_enabled
        built = build_scenario_state(config)
        built.check_invariants()
        assert built.enabled_count == config.target_enabled
        for per_victim in (True, False):
            reference = self._thinned_after_indexing(config, per_victim)
            assert built.to_bytes() == reference.to_bytes()
            assert built.heads() == reference.heads()
            assert built.vacant_cells() == reference.vacant_cells()
            for coord in built.grid.all_coords():
                assert [n.node_id for n in built.members_of(coord)] == [
                    n.node_id for n in reference.members_of(coord)
                ]
