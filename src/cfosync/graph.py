"""Undirected communication graphs with a designated reference agent.

Graphs are immutable values: the mutation operations (agent removal, agent
join) return new graphs, so snapshots taken by the simulator stay valid.
Agent ids are stable for the life of a run; ids of removed agents are never
reused, joiners always get fresh ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GenerationError, UnknownAgentError

DEFAULT_COMM_RADIUS = 1000.0
DEFAULT_RETRY_BUDGET = 50


def canonical_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"self loop on agent {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    agents: frozenset[int]
    edges: frozenset[tuple[int, int]]
    reference: int = 1
    positions: dict[int, tuple[float, float]] | None = None
    next_id: int = field(default=0)

    def __post_init__(self):
        if self.reference not in self.agents:
            raise ValueError(f"reference agent {self.reference} not in graph")
        for i, j in self.edges:
            if i >= j:
                raise ValueError(f"edge ({i},{j}) not in canonical order")
            if i not in self.agents or j not in self.agents:
                raise ValueError(f"edge ({i},{j}) references unknown agent")
        if self.positions is not None:
            missing = self.agents - self.positions.keys()
            if missing:
                raise ValueError(f"positions missing for agents {sorted(missing)}")
        if self.next_id <= max(self.agents):
            object.__setattr__(self, "next_id", max(self.agents) + 1)

    @classmethod
    def from_edges(cls, num_agents: int, edges, reference: int = 1,
                   positions=None) -> "Graph":
        """Graph over agents 1..num_agents with the given (i, j) pairs."""
        agents = frozenset(range(1, num_agents + 1))
        canon = frozenset(canonical_edge(i, j) for i, j in edges)
        return cls(agents=agents, edges=canon, reference=reference,
                   positions=dict(positions) if positions else None)

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {i: set() for i in self.agents}
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return {i: frozenset(s) for i, s in nbrs.items()}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges in sorted order as a read-only (|E|, 2) array, i < j
        in each row: the canonical order of measurement arrays."""
        arr = np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def neighbors(self, i: int) -> frozenset[int]:
        if i not in self.agents:
            raise UnknownAgentError(f"unknown agent id {i}")
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def is_connected(self) -> bool:
        """True iff every agent is reachable from the reference."""
        return not self.unreachable_agents()

    def unreachable_agents(self) -> set[int]:
        seen = {self.reference}
        stack = [self.reference]
        while stack:
            for j in self._adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return set(self.agents) - seen

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
        return Graph(
            agents=self.agents - {i},
            edges=frozenset(e for e in self.edges if i not in e),
            reference=self.reference,
            positions=positions,
            next_id=self.next_id,
        )

    def add_agent(self, position: tuple[float, float],
                  radius: float = DEFAULT_COMM_RADIUS) -> tuple["Graph", int]:
        """Add a fresh agent at `position`, linked to every agent within
        `radius`.  Requires a positioned graph.  Returns (graph, new_id)."""
        if self.positions is None:
            raise ValueError("add_agent requires a graph with positions")
        new_id = self.next_id
        x, y = position
        new_edges = set(self.edges)
        for a, (ax, ay) in self.positions.items():
            if math.hypot(ax - x, ay - y) <= radius:
                new_edges.add(canonical_edge(a, new_id))
        positions = dict(self.positions)
        positions[new_id] = (float(x), float(y))
        g = Graph(
            agents=self.agents | {new_id},
            edges=frozenset(new_edges),
            reference=self.reference,
            positions=positions,
            next_id=new_id + 1,
        )
        return g, new_id


def random_geometric(n: int, width: float, height: float,
                     radius: float = DEFAULT_COMM_RADIUS, seed: int = 0,
                     retry_budget: int = DEFAULT_RETRY_BUDGET,
                     reference: int = 1) -> Graph:
    """Connected random geometric graph: n agents placed uniformly on a
    width x height rectangle, edges between pairs within `radius`.

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
            dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        close = (dist <= radius) & ~np.eye(n, dtype=bool)
        ii, jj = np.nonzero(np.triu(close))
        edges = frozenset(canonical_edge(int(a) + 1, int(b) + 1)
                          for a, b in zip(ii, jj))
        positions = {k + 1: (float(xs[k]), float(ys[k])) for k in range(n)}
        g = Graph(agents=frozenset(range(1, n + 1)), edges=edges,
                  reference=reference, positions=positions)
        if g.is_connected():
            return g
    raise GenerationError(
        f"no connected placement within {retry_budget} attempts "
        f"(n={n}, radius={radius})")
