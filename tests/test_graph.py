import numpy as np
import pytest

from cfosync import Graph, random_geometric
from cfosync.errors import GenerationError, UnknownAgentError

from helpers import edgelist_text, graph_from_edgelist_text, random_connected_graph


def test_neighbors_triangle_and_path():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert tri.neighbors(2) == {1, 3}
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert path.neighbors(3) == {2}


def test_fully_connected_degree():
    g = Graph.from_edges(5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    for i in g.agents:
        assert g.degree(i) == 4


def test_unknown_agent_raises():
    g = Graph.from_edges(2, [(1, 2)])
    with pytest.raises(UnknownAgentError):
        g.neighbors(9)
    with pytest.raises(UnknownAgentError):
        g.remove_agent(9)


def test_is_connected():
    assert Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]).is_connected()
    assert not Graph.from_edges(4, [(1, 2), (3, 4)]).is_connected()
    assert Graph.from_edges(1, []).is_connected()


def test_no_self_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_adjacency_symmetry_and_degree_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 25)))
        for i in g.agents:
            for j in g.neighbors(i):
                assert i in g.neighbors(j)
        assert sum(g.degree(i) for i in g.agents) == 2 * len(g.edges)


def test_random_geometric_deterministic():
    g1 = random_geometric(100, 3000, 4000, radius=1000, seed=7)
    g2 = random_geometric(100, 3000, 4000, radius=1000, seed=7)
    assert g1.edges == g2.edges
    assert g1.positions == g2.positions
    assert g1.is_connected()
    g3 = random_geometric(100, 3000, 4000, radius=1000, seed=8)
    assert g3.edges != g1.edges


def test_random_geometric_two_agents_full_radius():
    g = random_geometric(2, 30, 40, radius=1000, seed=1)
    assert g.edges == {(1, 2)}


def test_random_geometric_exhausts_budget():
    with pytest.raises(GenerationError, match="5 attempts"):
        random_geometric(10, 3000, 4000, radius=0.001, seed=0, retry_budget=5)


def test_remove_agent_triangle_to_path():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    g = tri.remove_agent(3)
    assert g.agents == {1, 2}
    assert g.edges == {(1, 2)}


def test_remove_reference_forbidden():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="reference"):
        tri.remove_agent(1)


def test_remove_star_leaf_keeps_connectivity():
    star = Graph.from_edges(5, [(1, k) for k in range(2, 6)])
    g = star.remove_agent(5)
    assert g.is_connected()
    assert g.degree(1) == 3


def test_add_agent_recovers_former_edges():
    g = random_geometric(12, 1000, 1000, radius=400, seed=3)
    victim = next(a for a in sorted(g.agents) if a != g.reference)
    former_pos = g.positions[victim]
    former_nbrs = g.neighbors(victim)
    removed = g.remove_agent(victim)
    back, new_id = removed.add_agent(former_pos, radius=400)
    assert new_id == 13  # ids are never reused
    assert back.neighbors(new_id) == former_nbrs


def test_add_agent_requires_positions():
    g = Graph.from_edges(2, [(1, 2)])
    with pytest.raises(ValueError, match="positions"):
        g.add_agent((0.0, 0.0))


def test_edgelist_round_trip():
    g = random_geometric(15, 500, 500, radius=250, seed=2)
    back = graph_from_edgelist_text(edgelist_text(g))
    assert back.agents == g.agents
    assert back.edges == g.edges
    assert back.reference == g.reference
    assert back.positions == g.positions


def test_edgelist_round_trip_without_positions():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    back = graph_from_edgelist_text(edgelist_text(g))
    assert back.agents == g.agents and back.edges == g.edges


def test_edgelist_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        graph_from_edgelist_text("1 2\n")
