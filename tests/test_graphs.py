import re

import pytest

from cumulyap.graphs import (
    DirectedGraph,
    GraphCycleError,
    connected_components,
    spanning_polytree,
    topological_order,
)

# Recurring test graphs (0-based). The four-node ones exercise cycles,
# bidirected pairs, and missing self-loops.
CHAIN3 = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
CYCLIC4 = DirectedGraph(
    4,
    [(i, i) for i in range(4)]
    + [(0, 2), (3, 1), (2, 3), (1, 2), (2, 1)],
)


def test_edge_validation_and_dedup():
    g = DirectedGraph(2, [(0, 1), (0, 1), (1, 1)])
    assert g.edges == frozenset({(0, 1), (1, 1)})
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 2)])


@pytest.mark.parametrize("d", [0, -2])
def test_graph_needs_a_node(d):
    with pytest.raises(ValueError, match=f"d={d}"):
        DirectedGraph(d, [])


def test_complete_graph():
    g = DirectedGraph.complete(3)
    assert len(g.edges) == 9
    assert g.has_all_self_loops()


def test_json_round_trip_one_based():
    g = DirectedGraph.from_json('{"d": 3, "edges": [[1, 2], [3, 3]]}')
    assert g == DirectedGraph(3, [(0, 1), (2, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "[[1, 2]]",
        '{"edges": [[1, 2]]}',
        '{"d": "3", "edges": [[1, 2]]}',
        '{"d": true, "edges": []}',
        '{"d": 3, "edges": 5}',
        '{"d": 3, "edges": [[1, 2, 3]]}',
        '{"d": 3, "edges": [[1]]}',
        '{"d": 3, "edges": [[1, 2.5]]}',
        '{"d": 3, "edges": ["12"]}',
    ],
)
def test_from_json_rejects_other_shapes(text):
    form = re.escape('{"d": int, "edges": [[a, b], ...]}')
    with pytest.raises(ValueError, match=form):
        DirectedGraph.from_json(text)


def test_from_edge_list():
    g = DirectedGraph.from_edge_list(3, ["1->2", " 3 -> 3 ", "2->1"])
    assert g.edges == frozenset({(0, 1), (2, 2), (1, 0)})
    with pytest.raises(ValueError):
        DirectedGraph.from_edge_list(3, ["1-2"])


def test_structure_queries():
    g = DirectedGraph(3, [(0, 0), (0, 1), (2, 1)])
    assert g.self_loop_nodes() == [0]
    assert not g.has_all_self_loops()
    assert g.non_loop_edges() == [(0, 1), (2, 1)]
    assert g.has_edge(2, 1) and not g.has_edge(1, 2)


def test_drift_mask_orientation():
    g = DirectedGraph(3, [(0, 1)])  # coordinate 1 feels coordinate 0
    mask = g.drift_mask()
    assert mask[1, 0] and not mask[0, 1]


def test_connected_components():
    g = DirectedGraph(5, [(0, 1), (1, 2), (3, 3)])
    assert connected_components(g) == [[0, 1, 2], [3], [4]]
    assert connected_components(DirectedGraph.complete(3)) == [[0, 1, 2]]


def test_spanning_polytree_properties():
    tree = spanning_polytree(CYCLIC4)
    non_loop = tree.non_loop_edges()
    assert len(non_loop) == 3
    assert set(non_loop) <= set(CYCLIC4.non_loop_edges())
    assert tree.self_loop_nodes() == [0, 1, 2, 3]
    assert len(connected_components(tree)) == 1
    # deterministic
    assert spanning_polytree(CYCLIC4) == tree


def test_spanning_polytree_requires_connected():
    with pytest.raises(ValueError):
        spanning_polytree(DirectedGraph(3, [(0, 1)]))


def test_topological_order():
    g = DirectedGraph(4, [(2, 0), (0, 1), (0, 3), (2, 2)])
    order = topological_order(g)
    pos = {node: p for p, node in enumerate(order)}
    for src, dst in g.non_loop_edges():
        assert pos[src] < pos[dst]
    with pytest.raises(GraphCycleError):
        topological_order(DirectedGraph(2, [(0, 1), (1, 0)]))
