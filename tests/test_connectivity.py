"""Unit tests for the connectivity evaluation (GAF overlay argument)."""

from repro.grid.connectivity import (
    connected_component_count,
    head_connectivity_graph,
    is_head_network_connected,
    is_node_network_connected,
    node_connectivity_graph,
)
from repro.grid.virtual_grid import GridCoord
from repro.network.radio import UnitDiskRadio

from helpers import make_hole


class TestHeadOverlay:
    def test_full_coverage_implies_connected_heads(self, dense_state):
        """The GAF claim: one head per cell with R = sqrt(5)*r keeps heads connected."""
        assert is_head_network_connected(dense_state)
        node_ids, _ = head_connectivity_graph(dense_state)
        assert len(node_ids) == dense_state.grid.cell_count

    def test_full_coverage_implies_connected_network(self, dense_state):
        assert is_node_network_connected(dense_state)
        assert connected_component_count(dense_state) == 1

    def test_wide_hole_band_disconnects_heads(self, sparse_state):
        """Emptying two full adjacent columns splits the head overlay in two."""
        for y in range(sparse_state.grid.rows):
            make_hole(sparse_state, GridCoord(1, y))
            make_hole(sparse_state, GridCoord(2, y))
        assert not is_head_network_connected(sparse_state)
        assert connected_component_count(sparse_state) >= 2

    def test_empty_network_not_connected(self, sparse_state):
        for coord in list(sparse_state.grid.all_coords()):
            make_hole(sparse_state, coord)
        assert not is_head_network_connected(sparse_state)
        assert connected_component_count(sparse_state) == 0

    def test_custom_radio(self, dense_state):
        tiny = UnitDiskRadio(0.1)
        _, link_pairs = head_connectivity_graph(dense_state, radio=tiny)
        assert len(link_pairs) == 0
        assert not is_head_network_connected(dense_state, radio=tiny)


class TestGraphs:
    def test_node_graph_includes_all_enabled(self, dense_state):
        node_ids, _ = node_connectivity_graph(dense_state)
        assert len(node_ids) == dense_state.enabled_count

    def test_node_graph_excludes_disabled(self, dense_state):
        victim = dense_state.members_of(GridCoord(0, 0))[0]
        dense_state.disable_node(victim.node_id)
        node_ids, link_pairs = node_connectivity_graph(dense_state)
        assert victim.node_id not in node_ids
        assert all(victim.node_id not in pair for pair in link_pairs)
