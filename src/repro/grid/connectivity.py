"""Connectivity evaluation of the head overlay and of the whole network.

The GAF argument the paper builds on: with ``R = sqrt(5) * r``, a head can
talk to any node in the four neighbouring cells, so if *every* cell has a
head the head overlay is connected and relays traffic for the whole network.
These helpers build the corresponding communication graphs as plain
``(node_ids, link_pairs)`` and count their components with a union-find, so
tests and examples can verify the connectivity claim before and after hole
recovery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.radio import UnitDiskRadio

#: A communication graph: its node ids and its undirected ``(a, b)`` links.
Graph = Tuple[List[int], List[Tuple[int, int]]]


def _graph(nodes: Sequence, state, radio: Optional[UnitDiskRadio]) -> Graph:
    """Unit-disk graph over ``nodes`` (default range ``R = sqrt(5) * r``)."""
    if radio is None:
        radio = UnitDiskRadio(state.grid.required_communication_range)
    return [node.node_id for node in nodes], radio.link_pairs(nodes)


def node_connectivity_graph(state, radio: Optional[UnitDiskRadio] = None) -> Graph:
    """Unit-disk communication graph over all enabled nodes.

    When ``radio`` is omitted, the minimum GAF-compatible range
    ``R = sqrt(5) * r`` for the state's grid is used.
    """
    return _graph(state.enabled_nodes(), state, radio)


def head_connectivity_graph(state, radio: Optional[UnitDiskRadio] = None) -> Graph:
    """Unit-disk communication graph restricted to the current grid heads."""
    return _graph(state.head_nodes(), state, radio)


def _find(parent: Dict[int, int], node_id: int) -> int:
    """Root of ``node_id`` in the union-find forest (with path halving)."""
    while parent[node_id] != node_id:
        parent[node_id] = parent[parent[node_id]]
        node_id = parent[node_id]
    return node_id


def _component_count(graph: Graph) -> int:
    """Number of connected components of ``graph`` (union-find)."""
    node_ids, pairs = graph
    parent: Dict[int, int] = {node_id: node_id for node_id in node_ids}
    components = len(parent)
    for a, b in pairs:
        root_a, root_b = _find(parent, a), _find(parent, b)
        if root_a != root_b:
            parent[root_a] = root_b
            components -= 1
    return components


def is_head_network_connected(state, radio: Optional[UnitDiskRadio] = None) -> bool:
    """Whether the head overlay forms a single connected component.

    An overlay with no heads at all (fully failed network) is reported as not
    connected; a single head is trivially connected.
    """
    return _component_count(head_connectivity_graph(state, radio)) == 1


def is_node_network_connected(state, radio: Optional[UnitDiskRadio] = None) -> bool:
    """Whether all enabled nodes form a single connected component."""
    return connected_component_count(state, radio) == 1


def connected_component_count(state, radio: Optional[UnitDiskRadio] = None) -> int:
    """Number of connected components among enabled nodes."""
    return _component_count(node_connectivity_graph(state, radio))
