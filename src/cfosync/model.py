"""Ground-truth frequency offsets and noisy pairwise measurements.

Each agent i carries a pre-compensation shift f_i (Hz).  For every edge
{i, j} the system observes one measurement r = f_i + f_j + n with
n ~ N(0, sigma^2).  The reference agent's shift is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InconsistentStateError
from .graph import Graph, check_edge_rows

DEFAULT_MAX_OFFSET_HZ = 200.0
# Noiseless generation still needs a positive variance so precision
# arithmetic stays finite.
NOISELESS_SIGMA2 = 1e-12


@dataclass(frozen=True)
class GroundTruth:
    """Per-agent true offsets; the reference agent's value is known to the
    system and pins the estimate."""

    offsets: dict[int, float]
    reference: int

    def __post_init__(self):
        if self.reference not in self.offsets:
            raise ValueError("reference agent has no offset")

    @property
    def reference_value(self) -> float:
        return self.offsets[self.reference]

    def with_offset(self, agent: int, value: float) -> "GroundTruth":
        return replace(self, offsets={**self.offsets, agent: float(value)})


@dataclass(eq=False)
class MeasurementSet:
    """One measurement per edge in each of T >= 1 Monte-Carlo trials.

    Stored as three aligned arrays over the canonical edges in sorted order:
    `edge_array` (m, 2) with i < j in each row, `sigma2_array` (m,), shared
    by the trials, and `r_array` (T, m), one row of measurements per trial;
    a single trial is T = 1.  Any other shape or edge order raises
    ValueError, and a set is never changed in place.
    """

    edge_array: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.intp))
    r_array: np.ndarray = field(default_factory=lambda: np.empty((1, 0)))
    sigma2_array: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        m = len(self.edge_array)
        if not (np.shape(self.edge_array) == (m, 2) and len(self.r_array) > 0
                and np.shape(self.r_array)[1:] == np.shape(self.sigma2_array) == (m,)):
            raise ValueError(f"need edges ({m}, 2), measurements (T >= 1, {m}) and variances "
                             f"({m},), got {np.shape(self.edge_array)}, "
                             f"{np.shape(self.r_array)} and {np.shape(self.sigma2_array)}")
        check_edge_rows(self.edge_array)

    def __len__(self) -> int:
        return len(self.edge_array)

    def rows_of(self, edges: np.ndarray) -> np.ndarray:
        """The row of each canonical edge in `edges` ((k, 2), any order);
        InconsistentStateError if one has no measurement."""
        at, found = sorted_lookup(self.edge_array, edges)
        if not found.all():
            i, j = edges[np.argmin(found)].tolist()
            raise InconsistentStateError(f"no measurement for edge {{{i},{j}}}")
        return at

    def merged_with(self, other: "MeasurementSet") -> "MeasurementSet":
        """Both sets' measurements; on an edge in both, other's wins."""
        _, shared = sorted_lookup(other.edge_array, self.edge_array)
        keep = ~shared
        edges = np.concatenate([self.edge_array[keep], other.edge_array])
        order = np.lexsort(edges.T[::-1])   # by i, then j
        r = np.concatenate([self.r_array[:, keep], other.r_array], axis=1)
        sigma2 = np.concatenate([self.sigma2_array[keep], other.sigma2_array])
        return MeasurementSet(edges[order], r[:, order], sigma2[order])


def sorted_lookup(keys: np.ndarray, queries: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(position in keys, found) for each query; keys ascend.  Keys and
    queries may be (k, 2) integer pairs, ordered by first then second."""
    if keys.ndim == 2:
        span = int(max(keys.max(initial=0), queries.max(initial=0))) + 1
        keys, queries = keys @ [span, 1], queries @ [span, 1]
    at = np.minimum(np.searchsorted(keys, queries), max(len(keys) - 1, 0))
    found = keys[at] == queries if len(keys) else np.zeros(len(queries), bool)
    return at, found


def generate_truth(graph: Graph, max_offset: float = DEFAULT_MAX_OFFSET_HZ,
                   seed=0) -> GroundTruth:
    """Draw each agent's offset i.i.d. uniform on [-max_offset, +max_offset].

    max_offset = 0 gives exactly-zero offsets.  Deterministic per seed;
    agents are assigned draws in sorted id order.
    """
    if max_offset < 0:
        raise ValueError("max_offset must be >= 0")
    rng = np.random.default_rng(seed)
    agents = sorted(graph.agents)
    draws = rng.uniform(-max_offset, max_offset, len(agents)) if max_offset > 0 \
        else np.zeros(len(agents))
    return GroundTruth(offsets={a: float(v) for a, v in zip(agents, draws)},
                       reference=graph.reference)


def draw_joiner_offset(truth_seed: list[int], agent_id: int,
                       max_offset: float = DEFAULT_MAX_OFFSET_HZ) -> float:
    """Offset for an agent joining mid-run, from the stream truth_seed +
    [agent_id], keyed by its fresh id so the value is reproducible and
    independent of join timing."""
    rng = np.random.default_rng([*truth_seed, agent_id])
    return float(rng.uniform(-max_offset, max_offset)) if max_offset > 0 else 0.0


def generate_measurements(graph: Graph, truth: GroundTruth, sigma: float = 1.0, seeds=(0,),
                          sigma_overrides: dict[tuple[int, int], float] | None = None,
                          edges=None) -> MeasurementSet:
    """One noisy measurement r = f_i + f_j + n per edge of the graph, or per
    edge of `edges` when given: (k, 2) canonical rows (i < j) in sorted order,
    in each of T = len(seeds) trials.

    sigma is the homogeneous noise std; per-edge stds may be overridden via
    sigma_overrides.  sigma = 0 is allowed for noiseless tests; the stored
    variance then falls back to NOISELESS_SIGMA2 so weights stay finite.
    Row t of `r_array` (T, k) is drawn from seeds[t] alone: the edges with a
    positive std consume one normal draw each, in sorted edge order.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    pairs = graph.edge_array if edges is None else \
        np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    s = np.full(len(pairs), float(sigma))
    if sigma_overrides:
        at, found = sorted_lookup(pairs, np.array(list(sigma_overrides), dtype=np.intp))
        s[at[found]] = np.array(list(sigma_overrides.values()), dtype=float)[found]
    noisy = s > 0
    noise = np.zeros((len(seeds), len(pairs)))
    for row, key in zip(noise, seeds):
        row[noisy] = np.random.default_rng(key).normal(0.0, s[noisy])
    sigma2 = np.where(noisy, s * s, NOISELESS_SIGMA2)
    if np.any(sigma2 <= 0.0):
        raise ValueError("a positive noise std squares to a zero variance")
    agents, ends = np.unique(pairs, return_inverse=True)
    ends = ends.reshape(pairs.shape)   # numpy < 2 returns it flat
    f = np.array([truth.offsets[a] for a in agents.tolist()])
    r = f[ends[:, 0]] + f[ends[:, 1]] + noise
    return MeasurementSet(pairs, r, sigma2)
