import math
import tracemalloc

import numpy as np
import pytest

from cfosync import Graph, random_geometric
from cfosync.errors import GenerationError, UnknownAgentError
from cfosync.graph import _close_pairs

from helpers import (dense_random_geometric, edgelist_text, graph_from_edgelist_text,
                     random_connected_graph)


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
    assert not Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]).unreachable_agents()
    assert Graph.from_edges(4, [(1, 2), (3, 4)]).unreachable_agents() == {3, 4}
    assert not Graph.from_edges(1, []).unreachable_agents()


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
    assert not g1.unreachable_agents()
    g3 = random_geometric(100, 3000, 4000, radius=1000, seed=8)
    assert g3.edges != g1.edges


def test_random_geometric_two_agents_full_radius():
    g = random_geometric(2, 30, 40, radius=1000, seed=1)
    assert g.edges == {(1, 2)}


def test_random_geometric_exhausts_budget():
    with pytest.raises(GenerationError, match="5 attempts"):
        random_geometric(10, 3000, 4000, radius=0.001, seed=0, retry_budget=5)


def test_remove_agent_triangle_to_path():
    pos = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)}
    for positions, kept in ((None, None), (pos, {1: (0.0, 0.0), 2: (1.0, 0.0)})):
        tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)], reference=2, positions=positions)
        g = tri.remove_agent(3)
        assert g.agents == {1, 2}
        assert g.edges == {(1, 2)}
        assert (g.reference, g.next_id, g.positions) == (2, 4, kept)   # id 3 is never reused


def test_remove_reference_forbidden():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="reference"):
        tri.remove_agent(1)


def test_remove_star_leaf_keeps_connectivity():
    star = Graph.from_edges(5, [(1, k) for k in range(2, 6)])
    g = star.remove_agent(5)
    assert not g.unreachable_agents()
    assert g.degree(1) == 3


def test_add_agent_recovers_former_edges():
    # a joiner links by the generator's distance rule, so an agent that
    # leaves and rejoins at its place gets back exactly its former edges
    for seed in range(40):
        g = random_geometric(12, 1000, 1000, radius=400, seed=seed)
        for victim in sorted(g.agents - {g.reference}):
            removed = g.remove_agent(victim)
            back, new_id = removed.add_agent(g.positions[victim], radius=400)
            assert new_id == 13  # ids are never reused
            assert back.neighbors(new_id) == g.neighbors(victim), (seed, victim)
            assert back.edges - {e for e in back.edges if new_id in e} == removed.edges


def test_joiner_and_generator_share_one_distance_rule():
    # math.hypot and np.linalg.norm disagree in the last ulp on about one
    # random pair in six; at a radius equal to the norm both generated and
    # joining agents link, where a hypot rule would not
    rng = np.random.default_rng(0)
    offsets = rng.uniform(-1000, 1000, (200, 2))
    radii = np.linalg.norm(offsets, axis=-1)
    hypot_beyond = [k for k, (dx, dy) in enumerate(offsets.tolist())
                    if math.hypot(dx, dy) > radii[k]]
    assert len(hypot_beyond) > 10
    for k in hypot_beyond:
        pos = np.array([[0.0, 0.0], offsets[k]])
        assert _close_pairs(pos, radii[k]).tolist() == [[0, 1]]
        g = Graph.from_edges(2, [(1, 2)], positions={1: (0.0, 0.0), 2: (-1.0, 0.0)})
        back, new_id = g.add_agent(tuple(offsets[k]), radius=radii[k])
        assert 1 in back.neighbors(new_id)


def test_add_agent_keeps_edge_order_and_links_only_agents():
    # a position entry of an id outside the graph is not an agent to link to
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)],
                         positions={1: (0, 0), 2: (10, 0), 3: (0, 10), 4: (10, 10),
                                    9: (5, 5)})
    back, new_id = g.add_agent((5, 5), radius=7.5)
    assert (new_id, back.next_id, back.reference) == (5, 6, 1)
    assert back.edge_array.tolist() == [[1, 2], [1, 3], [1, 5], [2, 4], [2, 5],
                                        [3, 4], [3, 5], [4, 5]]
    assert back.positions[5] == (5.0, 5.0)


def test_add_agent_beyond_the_float_range_links_nothing():
    g = Graph.from_edges(2, [(1, 2)], positions={1: (0.0, 0.0), 2: (1.0, 0.0)})
    for position in ((1e308, -1e308), (math.inf, 0.0), (math.nan, 0.0)):
        back, new_id = g.add_agent(position, radius=1e300)
        assert back.neighbors(new_id) == frozenset()


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


def test_graph_checks_its_edge_array():
    agents = frozenset({1, 2, 3})
    for rows, match in (([[2, 1]], "canonical order"), ([[1, 4]], "unknown agent"),
                        ([[1, 3], [1, 2]], "sorted"), ([[1, 2], [1, 2]], "sorted")):
        with pytest.raises(ValueError, match=match):
            Graph(agents=agents, edge_array=np.array(rows))
    with pytest.raises(ValueError, match="reference"):
        Graph(agents=agents, edge_array=np.array([[1, 2]]), reference=7)
    with pytest.raises(ValueError, match="positions missing"):
        Graph(agents=agents, edge_array=np.array([[1, 2]]), positions={1: (0.0, 0.0)})
    g = Graph.from_edges(3, [(2, 1), (3, 2), (1, 2)])
    assert g.edge_array.tolist() == [[1, 2], [2, 3]]
    assert not g.edge_array.flags.writeable


def test_unreachable_agents_match_a_set_search():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        pairs = rng.integers(1, n + 1, (int(rng.integers(0, 2 * n)), 2))
        g = Graph.from_edges(n, [(i, j) for i, j in pairs.tolist() if i != j],
                             reference=int(rng.integers(1, n + 1)))
        for gone in rng.permutation(sorted(g.agents - {g.reference}))[:n // 4].tolist():
            g = g.remove_agent(gone)   # ids with gaps
        seen, stack = {g.reference}, [g.reference]
        while stack:
            for j in g.neighbors(stack.pop()) - seen:
                seen.add(j)
                stack.append(j)
        assert g.unreachable_agents() == set(g.agents) - seen


def _outcome(build, **kwargs):
    """(edges, positions, edge_array) of the built graph, or the type and
    text of the error it raised."""
    try:
        g = build(**kwargs)
    except Exception as exc:   # the error itself is what is compared
        return type(exc), str(exc)
    return g.edges, g.positions, g.edge_array.tolist()


def _preset_density(n: int, seed: int, **kwargs) -> dict:
    scale = math.sqrt(n / 100)
    return dict(n=n, width=3000 * scale, height=4000 * scale, radius=1000.0, seed=seed,
                **kwargs)


def test_random_geometric_matches_the_dense_reference():
    cases = [_preset_density(n, seed) for seed in range(30) for n in (2, 3, 30, 100, 800)]
    cases += [dict(n=30, width=3000, height=4000, radius=math.inf, seed=seed)
              for seed in range(5)]
    retried = [dict(n=20, width=3000, height=4000, radius=1000.0, seed=seed)
               for seed in range(30)]
    cases += retried + [
        dict(n=10, width=3000, height=4000, radius=0.001, retry_budget=5),   # exhausted
        dict(n=2, width=1e308, height=1, radius=math.inf),                   # overflow
        dict(n=4, width=1e12, height=1e12, radius=1e-8, retry_budget=2),     # huge quotients
        dict(n=3, width=1e-320, height=1e-320, radius=1e-320),               # squares underflow
        dict(n=20, width=-10, height=10, radius=3.0, seed=4),                # negative side
        dict(n=30, width=3000, height=4000, radius=math.nan, retry_budget=2),
    ]
    for case in cases:
        assert _outcome(random_geometric, **case) == _outcome(dense_random_geometric, **case), case
    first_draw = [np.random.default_rng([c["seed"], 0]).uniform(0.0, 3000, 20)[0]
                  for c in retried]
    assert sum(random_geometric(**c).positions[1][0] != x
               for c, x in zip(retried, first_draw)) >= 10   # placements that needed retries


def _dense_pairs(pos: np.ndarray, radius: float) -> list[list[int]]:
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    return np.argwhere(np.triu(dist <= radius, k=1)).tolist()


def test_pair_search_on_crafted_positions():
    def check(points, radius):
        pos = np.array(points, dtype=float)
        expected = _dense_pairs(pos, radius)
        assert _close_pairs(pos, radius).tolist() == expected, (points, radius)
        return expected

    # 3-4-5 triangles: pairs exactly the radius apart, and one ulp beyond
    pairs = check([(0, 0), (3, 4), (6, 8), (-3, 4), (5, 0), (0, np.nextafter(5, 6))], 5.0)
    assert [0, 1] in pairs and [1, 2] in pairs and [0, 4] in pairs and [0, 5] not in pairs
    # coincident points and a second cluster exactly the radius away
    assert len(check([(7, 7)] * 4 + [(12, 7)] * 3, 5.0)) == 21
    # points on and next to the bucket boundaries (radius 1000: cells of 1024), both signs
    edges = [k * 1024.0 + d for k in (-2, -1, 0, 1, 2) for d in (0.0, -1e-9, 1000.0)]
    lattice = [(x, y) for x in edges for y in edges[::2]]
    assert len(check(lattice, 1000.0)) > len(lattice)
    # a radius that is itself a power of two, and one just below it; the
    # difference 1024 + 1e-300 rounds to the radius, a cell and a bit apart
    for radius in (1024.0, np.nextafter(1024.0, 0)):
        check([(x, 0.0) for x in (-1e-300, 0.0, 1024.0, 2048.0, 3072.0, 2047.0)], radius)
    assert check([(-1e-300, 0.0), (1024.0, 0.0)], 1024.0) == [[0, 1]]
    # quotients far beyond the integer range, and squares that underflow
    check([(1e12, 1e12), (1e12, 1e12), (np.nextafter(1e12, 2e12), 1e12)], 1e-8)
    assert len(check([(0.0, 0.0), (1e-300, 0.0), (0.0, 3e-300)], 1e-320)) == 3


def test_pair_search_on_random_lattices():
    # points snapped to a lattice of a quarter radius: many pairs sit exactly
    # on the radius and on cell boundaries
    rng = np.random.default_rng(3)
    for radius in (1.0, 0.75, 3.3, 1000.0, 1024.0, math.inf):
        step = 0.25 * (radius if math.isfinite(radius) else 1.0)
        pos = rng.integers(-12, 12, (150, 2)) * step
        assert _close_pairs(pos, radius).tolist() == _dense_pairs(pos, radius), radius


def test_random_geometric_memory_is_linear_in_edges():
    # N = 3000 at preset density stays below n^2 bytes; the n x n x 2
    # distance tensor alone took 16 n^2
    case = _preset_density(3000, seed=7)
    tracemalloc.start()
    try:
        g = random_geometric(**case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 10 * case["n"] < len(g.edge_array) < 15 * case["n"]   # preset density
    assert peak < case["n"] ** 2, f"{peak / 2**20:.1f} MiB"
