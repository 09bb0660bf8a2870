"""Undirected communication graphs with a designated reference agent.

Graphs are immutable values: the mutation operations (agent removal, agent
join) return new graphs, so snapshots taken by the simulator stay valid.
Agent ids are stable for the life of a run; ids of removed agents are never
reused, joiners always get fresh ids.  A graph holds its edges as one sorted
(|E|, 2) id array, and lays its directed edges out from it once (`layout`),
which neighbour lookups, connectivity, the engines and the oracle all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GenerationError, UnknownAgentError

DEFAULT_COMM_RADIUS = 1000.0
DEFAULT_RETRY_BUDGET = 50


def canonical_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"self loop on agent {i}")
    return (i, j) if i < j else (j, i)


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between the points of two (..., 2) coordinate
    arrays, row by row: the one distance rule, shared by generated and
    joining agents."""
    return np.linalg.norm(a - b, axis=-1)


@dataclass(frozen=True, eq=False)
class Graph:
    """Agents, the edges as sorted distinct rows (i, j) with i < j (the
    canonical order of measurement arrays, read-only), the reference, and
    optional positions per agent."""

    agents: frozenset[int]
    edge_array: np.ndarray
    reference: int = 1
    positions: dict[int, tuple[float, float]] | None = None
    next_id: int = field(default=0)

    def __post_init__(self):
        if self.reference not in self.agents:
            raise ValueError(f"reference agent {self.reference} not in graph")
        edges = np.array(self.edge_array, dtype=np.intp).reshape(-1, 2)
        for bad, what in ((edges[:, 0] >= edges[:, 1], "not in canonical order"),
                          (~np.isin(edges, list(self.agents)).all(axis=1),
                           "references unknown agent")):
            if bad.any():
                i, j = edges[bad][0].tolist()
                raise ValueError(f"edge ({i},{j}) {what}")
        step = np.diff(edges, axis=0)
        if not np.all((step[:, 0] > 0) | (step[:, 0] == 0) & (step[:, 1] > 0)):
            raise ValueError("edges not sorted and distinct")
        edges.flags.writeable = False
        object.__setattr__(self, "edge_array", edges)
        if self.positions is not None:
            missing = self.agents - self.positions.keys()
            if missing:
                raise ValueError(f"positions missing for agents {sorted(missing)}")
        if self.next_id <= max(self.agents):
            object.__setattr__(self, "next_id", max(self.agents) + 1)

    @classmethod
    def from_edges(cls, num_agents: int, edges, reference: int = 1,
                   positions=None) -> "Graph":
        """Graph over agents 1..num_agents with the given (i, j) pairs, in
        either order and possibly repeated."""
        pairs = np.array([canonical_edge(i, j) for i, j in edges],
                         dtype=np.intp).reshape(-1, 2)
        # return_inverse: without it np.unique imports numpy.ma, ~13 ms of a
        # fresh process
        distinct, _ = np.unique(pairs, axis=0, return_inverse=True)
        return cls(agents=frozenset(range(1, num_agents + 1)),
                   edge_array=distinct, reference=reference,
                   positions=dict(positions) if positions else None)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as a set of (i, j) tuples."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    @cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        """(ids, src, dst, rev, indptr, pair): the 2|E| directed edges in
        read-only arrays, by receiver, then sender.  Agent k is ids[k]; edge
        e carries what src[e] sends to dst[e], k's inbox is
        indptr[k]:indptr[k+1], rev[e] is the reverse edge and pair[e] the
        edge_array row of e.  edge_array ascends, so one stable sort by
        receiver orders each inbox by sender."""
        ids = np.array(sorted(self.agents))
        ends = np.searchsorted(ids, self.edge_array)
        m = len(ends)
        order = np.argsort(np.concatenate([ends[:, 1], ends[:, 0]]), kind="stable")
        where = np.empty_like(order)
        where[order] = np.arange(2 * m)
        src, dst = (np.concatenate([ends[:, a], ends[:, 1 - a]])[order] for a in (0, 1))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=len(ids)))])
        layout = (ids, src, dst, where[(order + m) % max(2 * m, 1)], indptr,
                  order % max(m, 1))
        for a in layout:
            a.flags.writeable = False
        return layout

    def neighbors(self, i: int) -> frozenset[int]:
        if i not in self.agents:
            raise UnknownAgentError(f"unknown agent id {i}")
        ids, src, _, _, indptr, _ = self.layout
        k = int(np.searchsorted(ids, i))
        return frozenset(ids[src[indptr[k]:indptr[k + 1]]].tolist())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def unreachable_agents(self) -> set[int]:
        """Breadth-first search from the reference, one array step per hop:
        the frontier's inbox slices of the layout give its neighbours, and
        the unseen ones form the next frontier."""
        ids, nbr, _, _, indptr, _ = self.layout
        seen = np.zeros(len(ids), dtype=bool)
        frontier = np.searchsorted(ids, [self.reference])
        seen[frontier] = True
        while len(frontier):
            start, count = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
            hops = nbr[np.repeat(start - np.cumsum(count) + count, count)
                       + np.arange(count.sum())]
            # each unseen agent once; a plain np.unique would import numpy.ma,
            # about 25 ms of a fresh process's set-up
            hops = np.sort(hops[~seen[hops]])
            frontier = hops[np.diff(hops, prepend=-1) != 0]
            seen[frontier] = True
        return set(ids[~seen].tolist())

    def remove_agent(self, i: int) -> "Graph":
        """Graph without agent i and its incident edges.

        The reference cannot be removed: it anchors the estimation problem
        for the whole run.
        """
        if i not in self.agents:
            raise UnknownAgentError(f"unknown agent id {i}")
        if i == self.reference:
            raise ValueError("the reference agent cannot be removed")
        positions = None
        if self.positions is not None:
            positions = {a: p for a, p in self.positions.items() if a != i}
        return replace(self, agents=self.agents - {i}, positions=positions,
                       edge_array=self.edge_array[np.all(self.edge_array != i, axis=1)])

    def add_agent(self, position: tuple[float, float],
                  radius: float = DEFAULT_COMM_RADIUS) -> tuple["Graph", int]:
        """Add a fresh agent at `position`, linked to every agent within
        `radius` by the distance rule of `random_geometric` (a distance
        beyond the float range counts as inf, a NaN one links nothing).
        Requires a positioned graph.  Returns (graph, new_id)."""
        if self.positions is None:
            raise ValueError("add_agent requires a graph with positions")
        new_id = self.next_id
        x, y = float(position[0]), float(position[1])
        ids = np.array(sorted(self.agents))
        coords = np.array([self.positions[a] for a in ids.tolist()], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            linked = ids[_distance(coords, np.array([x, y])) <= radius]
        # (a, new_id) sorts after every other edge of a: new_id is the largest id
        at = np.searchsorted(self.edge_array[:, 0], linked, side="right")
        edges = np.insert(self.edge_array, at,
                          np.column_stack([linked, np.full(len(linked), new_id)]), axis=0)
        positions = dict(self.positions)
        positions[new_id] = (x, y)
        return replace(self, agents=self.agents | {new_id}, edge_array=edges,
                       positions=positions, next_id=new_id + 1), new_id


def _cell_width(radius: float) -> float:
    """Edge of the square buckets of the pair search: the smallest power of
    two above radius * (1 + 2**-40), and at least 2**-400 (inf when that
    power is past the float range).

    A pair passes the distance test only if it lies less than one cell
    apart on each axis: rounding passes pairs at most a few ulps beyond the
    radius, and only coordinate differences below 2**-510, whose squares
    underflow, pass further out.  Dividing by a power of two is exact, so
    the floors of the quotients of two such points differ by at most one."""
    scaled = radius * (1 + 2.0 ** -40)
    if scaled >= 2.0 ** 1023:
        return math.inf
    return math.ldexp(1.0, max(math.frexp(scaled)[1], -400))


def _block_pairs(start_a: np.ndarray, count_a: np.ndarray, start_b: np.ndarray,
                 count_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with a in start_a[k] + range(count_a[k]) and b in
    start_b[k] + range(count_b[k]), for every k."""
    sizes = count_a * count_b
    k = np.repeat(np.arange(len(sizes)), sizes)
    p = np.arange(sizes.sum()) - (np.cumsum(sizes) - sizes)[k]
    return start_a[k] + p // count_b[k], start_b[k] + p % count_b[k]


def _close_pairs(pos: np.ndarray, radius: float) -> np.ndarray:
    """The pairs of rows of the (n, 2) points `pos` within `radius` of each
    other, as sorted distinct rows (a, b) with a < b.

    The points are bucketed into square cells (`_cell_width`) and only the
    pairs in the same or in adjacent cells are tested.  A cell is named by
    the ranks of its floored coordinates among those that occur, so no
    float is cast to an integer however large the quotient; two cells are
    adjacent on an axis when their floors differ by one.
    """
    cell = _cell_width(radius)
    ranks, next_up = [], []   # per axis: a point's rank; is rank k + 1 the next cell
    for axis in (0, 1):
        floors, rank = np.unique(np.floor(pos[:, axis] / cell), return_inverse=True)
        ranks.append(rank)
        next_up.append(np.append(np.diff(floors) == 1, False))   # [-1] is False too
    ny = len(next_up[1])
    key = ranks[0] * ny + ranks[1]
    order = np.argsort(key, kind="stable")
    keys, start, count = np.unique(key[order], return_index=True, return_counts=True)
    cx, cy = np.divmod(keys, ny)
    found = []
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        ok = np.ones(len(keys), dtype=bool) if dx == 0 else next_up[0][cx]
        if dy:
            ok &= next_up[1][cy if dy > 0 else cy - 1]
        other = (cx + dx) * ny + cy + dy
        at = np.minimum(np.searchsorted(keys, other), len(keys) - 1)
        ok &= keys[at] == other
        a, b = _block_pairs(start[ok], count[ok], start[at[ok]], count[at[ok]])
        if dx == dy == 0:
            a, b = a[a < b], b[a < b]
        a, b = order[a], order[b]
        close = _distance(pos[a], pos[b]) <= radius
        found.append(np.column_stack([a[close], b[close]]))
    pairs = np.sort(np.concatenate(found), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def random_geometric(n: int, width: float, height: float,
                     radius: float = DEFAULT_COMM_RADIUS, seed: int = 0,
                     retry_budget: int = DEFAULT_RETRY_BUDGET,
                     reference: int = 1) -> Graph:
    """Connected random geometric graph: n agents placed uniformly on a
    width x height rectangle, edges between pairs whose distance
    (np.linalg.norm of the difference) is at most `radius`.

    The pairs come from a bucket search (`_close_pairs`): square cells
    whose side is the smallest power of two above the radius, and only
    pairs in the same or adjacent cells are measured.  At a bounded density an attempt costs
    O(n + |E|) time and memory; no n x n array is formed.  A placement whose
    bounding box has a squared diagonal beyond the float range is too wide
    to measure and raises FloatingPointError.

    Deterministic for a fixed seed.  If the drawn placement is not
    connected, the attempt counter advances the seed stream and placement
    is redrawn, up to `retry_budget` attempts.
    """
    if n < 2:
        raise ValueError("need at least 2 agents")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    for attempt in range(retry_budget):
        rng = np.random.default_rng([seed, attempt])
        xs = rng.uniform(0.0, width, n)
        ys = rng.uniform(0.0, height, n)
        pos = np.column_stack([xs, ys])
        with np.errstate(over="raise"):   # a placement too wide to measure
            _distance(pos.min(axis=0), pos.max(axis=0))
        g = Graph(agents=frozenset(range(1, n + 1)), edge_array=_close_pairs(pos, radius) + 1,
                  reference=reference,
                  positions=dict(zip(range(1, n + 1), zip(xs.tolist(), ys.tolist()))))
        if not g.unreachable_agents():
            return g
    raise GenerationError(
        f"no connected placement within {retry_budget} attempts "
        f"(n={n}, radius={radius})")
