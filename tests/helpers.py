"""Shared generators for randomized tests (connected graphs, trees,
preset-density graphs, measurement sets with heterogeneous noise, stacked
trial batches and per-edge delivery masks), scalar references (information-
form Gaussians and the edge and BP cavity messages, per-edge measurement
generation and lookups, the oracle's dense design and fixed-point loop,
the mean square error, the per-value trace cells), the dense n x n random
geometric graph, the lexsort layout of the directed edges, the masked BP
round, the asynchronous round that scatters each new belief into the caches
it reaches, the per-agent trial mean, and text round trips of graphs, truths,
measurement sets and traces."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from cfosync import Graph, MeasurementSet, generate_measurements, generate_truth
from cfosync.edges import message_precision
from cfosync.errors import GenerationError, MetricError, NumericError
from cfosync.graph import DEFAULT_COMM_RADIUS, DEFAULT_RETRY_BUDGET, canonical_edge
from cfosync.metrics import TRACE_COLUMNS
from cfosync.model import NOISELESS_SIGMA2, GroundTruth


@dataclass(frozen=True)
class Gaussian1D:
    """Scalar Gaussian in information form: precision and precision * mean.
    Precision 0 is the flat (uninformative) density, an ordinary value that
    flows through the same arithmetic as informative ones."""

    precision: float = 0.0
    weighted_mean: float = 0.0

    def __post_init__(self):
        if not (self.precision >= 0.0):
            raise ValueError(f"precision must be >= 0, got {self.precision}")
        if not math.isfinite(self.weighted_mean):
            raise ValueError("weighted_mean must be finite")
        if self.precision == 0.0 and self.weighted_mean != 0.0:
            raise ValueError("flat value (precision 0) must have weighted_mean 0")

    @classmethod
    def from_moments(cls, mean: float, variance: float) -> "Gaussian1D":
        if variance <= 0.0:
            raise ValueError(f"variance must be > 0, got {variance}")
        lam = 1.0 / variance
        return cls(precision=lam, weighted_mean=lam * mean)

    @property
    def is_flat(self) -> bool:
        return self.precision == 0.0

    def mean(self) -> float:
        if self.is_flat:
            raise ValueError("mean of a flat Gaussian is undefined")
        return self.weighted_mean / self.precision

    def variance(self) -> float:
        return math.inf if self.is_flat else 1.0 / self.precision

    def __mul__(self, other: "Gaussian1D") -> "Gaussian1D":
        # product of densities up to normalization; flat is the identity
        return Gaussian1D(self.precision + other.precision,
                          self.weighted_mean + other.weighted_mean)


FLAT = Gaussian1D()


def edge_message(r: float, sigma2: float, neighbor: Gaussian1D) -> Gaussian1D:
    """Gaussian in f_i implied by the pairwise measurement r = f_i + f_j + n
    (noise variance sigma2) and a belief about f_j: mean r - mean(f_j),
    variance sigma2 + var(f_j) (max-marginalizing and integrating out f_j
    coincide).  A flat neighbor belief yields a flat message."""
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    if neighbor.is_flat:
        return FLAT
    return Gaussian1D.from_moments(r - neighbor.mean(), sigma2 + neighbor.variance())


def beliefs(engine, row: int = 0) -> dict[int, Gaussian1D]:
    """An engine's beliefs in trial `row` as scalar Gaussians, by agent id."""
    return {a: (Gaussian1D(p, p * m) if p > 0 else FLAT) for a, m, p in
            zip(engine.ids, engine.mean[row].tolist(), engine.prec[row].tolist())}


def directed_edge(edges, receiver: int, sender: int) -> int:
    """Position of the directed edge sender -> receiver (agent ids) in a
    DirectedEdges."""
    k, j = edges.index[receiver], edges.index[sender]
    return int(np.flatnonzero((edges.dst == k) & (edges.src == j))[0])


def delivery_mask(edges, draws) -> np.ndarray | None:
    """A (T, 2|E|) delivery mask for one round of T trials, one row per
    (rng, pdr, skip_prob) in `draws`, drawn as the simulator draws it: n
    skip uniforms when skip_prob > 0, then 2|E| delivery uniforms when
    pdr < 1.  None when no trial loses or skips anything."""
    if all(pdr == 1.0 and skip_prob == 0.0 for _, pdr, skip_prob in draws):
        return None
    arrived = np.ones((len(draws), len(edges.src)), bool)
    for row, (rng, pdr, skip_prob) in zip(arrived, draws):
        if skip_prob > 0:
            row &= ~(rng.random(edges.n) < skip_prob)[edges.src]
        if pdr < 1.0:
            row &= rng.random(len(edges.src)) < pdr
    return arrived


def lexsort_directed_edges(graph: Graph, meas: MeasurementSet
                           ) -> tuple[np.ndarray, ...]:
    """The reference for `Graph.layout` and the measurements DirectedEdges
    gathers along it: (src, dst, rev, indptr, r, sig2), with the directed
    edges ordered by one lexsort by receiver, then sender, and each edge's
    measurements tiled over both directions."""
    ids = sorted(graph.agents)
    pairs = graph.edge_array
    ends = np.searchsorted(ids, pairs)
    rows = meas.rows_of(pairs)
    m = len(pairs)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.lexsort((src, dst))
    where = np.empty_like(order)
    where[order] = np.arange(2 * m)
    r = np.take(np.tile(meas.r_array[:, rows], 2), order, axis=1)
    sig2 = np.tile(meas.sigma2_array[rows], 2)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst[order], minlength=len(ids)))])
    return src[order], dst[order], where[(order + m) % max(2 * m, 1)], indptr, r, sig2


def mean_square_error(pairs: Iterable[tuple[float, float]],
                      mse_normalization: float = 1.0) -> float:
    """The scalar reference for `cfosync.avg_mse`: the average of
    ((estimate - truth)/B)^2 over (estimate, truth) pairs, summed left to
    right; MetricError when there are none."""
    if mse_normalization <= 0:
        raise MetricError("mse_normalization must be > 0")
    errs = [((v - f) / mse_normalization) ** 2 for v, f in pairs]
    if not errs:
        raise MetricError("no agent holds an estimate; metric undefined")
    return sum(errs) / len(errs)


def scalar_cells(values) -> list[str]:
    """The reference for `metrics._cells`, one value at a time: empty for
    NaN, a whole number below 1e15 without its fraction, anything else by
    repr; an infinite value raises NumericError."""
    x = np.asarray(values, dtype=float)
    if np.isinf(x).any():
        raise NumericError(f"non-finite value {float(x[np.isinf(x)][0])!r} in the trace")
    whole = ((x == np.trunc(x)) & (np.abs(x) < 1e15)).tolist()
    return ["" if math.isnan(v) else str(int(v)) if w else repr(v)
            for v, w in zip(x.tolist(), whole)]


def measurement_set(records: dict[tuple[int, int], tuple[float, float]]
                    ) -> MeasurementSet:
    """A one-trial set from {(i, j): (r, sigma2)}, edges in any order and
    orientation."""
    by_edge = {canonical_edge(*e): v for e, v in records.items()}
    edges = sorted(by_edge)
    r, sigma2 = np.array([by_edge[e] for e in edges], dtype=float).reshape(-1, 2).T.copy()
    return MeasurementSet(np.array(edges, dtype=np.intp).reshape(-1, 2), r[None], sigma2)


def stacked(sets: list[MeasurementSet]) -> MeasurementSet:
    """One batch from sets over the same edges and variances, their trials
    in order."""
    return MeasurementSet(sets[0].edge_array, np.concatenate([m.r_array for m in sets]),
                          sets[0].sigma2_array)


def nonref_agents(graph: Graph) -> list[int]:
    return sorted(graph.agents - {graph.reference})


def measurement_dict(ms: MeasurementSet) -> dict[tuple[int, int], tuple[float, float]]:
    """{(i, j): (r, sigma2)} of a set's trial 0, in its edge order."""
    return {(i, j): (r, s2) for (i, j), r, s2 in zip(
        ms.edge_array.tolist(), ms.r_array[0].tolist(), ms.sigma2_array.tolist())}


def _row(ms: MeasurementSet, i: int, j: int) -> int:
    return int(ms.rows_of(np.array([canonical_edge(i, j)]))[0])


def meas_r(ms: MeasurementSet, i: int, j: int) -> float:
    """Trial 0's measurement of edge {i, j}; InconsistentStateError without one."""
    return float(ms.r_array[0, _row(ms, i, j)])


def meas_sigma2(ms: MeasurementSet, i: int, j: int) -> float:
    return float(ms.sigma2_array[_row(ms, i, j)])


def random_tree(rng: np.random.Generator, n: int) -> Graph:
    """Uniform random attachment tree on agents 1..n."""
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def preset_density_graph(n: int, seed: int) -> Graph:
    """n agents on the pdr-sweep area scaled to keep its mean degree (~25)
    at radius 1000, without an n x n distance matrix."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(n / 100)
    pos = rng.uniform(0.0, 1.0, (n, 2)) * [3000 * scale, 4000 * scale]
    edges = []
    for lo in range(0, n, 500):
        d = np.linalg.norm(pos[lo:lo + 500, None, :] - pos[None, :, :], axis=2)
        ii, jj = np.nonzero(d <= 1000.0)
        ii += lo
        keep = ii < jj
        edges += zip((ii[keep] + 1).tolist(), (jj[keep] + 1).tolist())
    return Graph.from_edges(n, edges)


def dense_random_geometric(n: int, width: float, height: float,
                           radius: float = DEFAULT_COMM_RADIUS, seed: int = 0,
                           retry_budget: int = DEFAULT_RETRY_BUDGET,
                           reference: int = 1) -> Graph:
    """The reference for `random_geometric`: the same placements and retry
    sequence with every pair measured through an n x n x 2 distance tensor
    (16 n^2 bytes)."""
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
        g = Graph.from_edges(n, edges, reference=reference, positions=positions)
        if not g.unreachable_agents:
            return g
    raise GenerationError(
        f"no connected placement within {retry_budget} attempts "
        f"(n={n}, radius={radius})")


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edge_frac: float = 0.5) -> Graph:
    """Random attachment tree plus extra random edges (keeps connectivity)."""
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    n_extra = int(rng.integers(0, max(1, int(extra_edge_frac * n)) + 1))
    for _ in range(n_extra):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n + 1))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, sorted(edges))


def heterogeneous_measurements(rng: np.random.Generator, graph: Graph,
                               sigma2_range: tuple[float, float] = (0.25, 4.0),
                               offset_scale: float = 100.0) -> MeasurementSet:
    """Measurements with per-edge noise variance drawn from sigma2_range."""
    truth = generate_truth(graph, offset_scale, seed=int(rng.integers(2**31)))
    recs = {}
    for (i, j) in sorted(graph.edges):
        s2 = float(rng.uniform(*sigma2_range))
        noise = float(rng.normal(0.0, np.sqrt(s2)))
        recs[i, j] = (truth.offsets[i] + truth.offsets[j] + noise, s2)
    return measurement_set(recs)


def triangle(sigma2: float = 1.0, r12: float = 0.0, r13: float = 0.0,
             r23: float = 0.0) -> tuple[Graph, MeasurementSet]:
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    return g, measurement_set({(1, 2): (r12, sigma2), (1, 3): (r13, sigma2),
                               (2, 3): (r23, sigma2)})


def seeded_instance(seed: int, n: int, sigma: float = 1.0):
    """(graph, truth, measurements) for a random connected instance."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    truth = generate_truth(g, 100.0, seed=seed + 1)
    meas = generate_measurements(g, truth, sigma, seeds=[seed + 2])
    return g, truth, meas


def scalar_measurements(graph: Graph, truth: GroundTruth, sigma: float = 1.0,
                        seed=0, sigma_overrides=None, edges=None) -> MeasurementSet:
    """generate_measurements one edge at a time, one trial from `seed`: the
    scalar reference each row of the vectorized generator must match
    exactly."""
    rng = np.random.default_rng(seed)
    recs = {}
    for (i, j) in sorted(edges) if edges is not None else sorted(graph.edges):
        s = sigma
        if sigma_overrides:
            s = sigma_overrides.get(canonical_edge(i, j), sigma)
        noise = rng.normal(0.0, s) if s > 0 else 0.0
        recs[i, j] = (truth.offsets[i] + truth.offsets[j] + noise,
                      s * s if s > 0 else NOISELESS_SIGMA2)
    return measurement_set(recs)


def dense_linear_system(graph: Graph, meas: MeasurementSet, reference_value: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """The stacked measurements r = f_i + f_j + n as A f = rhs over the
    non-reference unknowns, with a dense design: (A, rhs, weights, columns).

    A: (|E|, N-1) with +1 per non-reference endpoint per row; rhs: (T, |E|),
    the reference's value folded in; weights: 1/sigma2 per edge; columns:
    the agent id per column of A."""
    cols = sorted(graph.agents - {graph.reference})
    pairs = graph.edge_array
    rows = meas.rows_of(pairs)
    rhs = meas.r_array[:, rows]
    rhs[:, np.any(pairs == graph.reference, axis=1)] -= reference_value
    a_mat = np.zeros((len(pairs), len(cols)))
    edge, end = np.nonzero(pairs != graph.reference)
    a_mat[edge, np.searchsorted(cols, pairs[edge, end])] = 1.0
    return a_mat, rhs, 1.0 / meas.sigma2_array[rows], tuple(cols)


def scalar_fixed_point_system(graph: Graph, meas: MeasurementSet,
                              converged_precisions: np.ndarray, reference_value: float,
                              reference_precision: float = 1e12
                              ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(K, eta, rows) of the broadcast mean update mu <- eta - K mu, one
    agent and one scalar measurement lookup at a time (trial 0)."""
    ids = sorted(graph.agents - {graph.reference})
    pstar = {a: 1.0 / p for a, p in zip(ids, converged_precisions)}
    pstar[graph.reference] = 1.0 / reference_precision
    idx = {a: k for k, a in enumerate(ids)}
    k_mat = np.zeros((len(ids), len(ids)))
    eta = np.zeros(len(ids))
    for a in ids:
        inv_c = {j: 1.0 / (meas_sigma2(meas, a, j) + pstar[j]) for j in graph.neighbors(a)}
        tot = sum(inv_c.values())
        eta[idx[a]] = sum(ic * meas_r(meas, a, j) for j, ic in inv_c.items()) / tot
        for j, ic in inv_c.items():
            if j == graph.reference:
                eta[idx[a]] -= (ic / tot) * reference_value
            else:
                k_mat[idx[a], idx[j]] = ic / tot
    return k_mat, eta, tuple(ids)


def truth_to_csv(truth: GroundTruth) -> str:
    return "i,f\n" + "".join(f"{a},{truth.offsets[a]!r}\n" for a in sorted(truth.offsets))


def truth_from_csv(text: str, reference: int = 1) -> GroundTruth:
    offsets = {}
    for line in text.splitlines()[1:]:
        if line.strip():
            a, f = line.split(",")
            offsets[int(a)] = float(f)
    return GroundTruth(offsets=offsets, reference=reference)


def measurements_to_csv(ms: MeasurementSet) -> str:
    return "i,j,r,sigma2\n" + "".join(f"{i},{j},{r!r},{s2!r}\n" for (i, j), (r, s2)
                                        in measurement_dict(ms).items())


def measurements_from_csv(text: str) -> MeasurementSet:
    recs = {}
    for line in text.splitlines()[1:]:
        if line.strip():
            i, j, r, s2 = line.split(",")
            recs[int(i), int(j)] = (float(r), float(s2))
    return measurement_set(recs)


def edgelist_text(g: Graph) -> str:
    """The `N <n> REF <ref>` / `i j` / `POS i x y` text of a graph."""
    lines = [f"N {len(g.agents)} REF {g.reference}"]
    lines += [f"{i} {j}" for i, j in sorted(g.edges)]
    if g.positions is not None:
        lines += [f"POS {a} {g.positions[a][0]!r} {g.positions[a][1]!r}"
                  for a in sorted(g.positions)]
    return "\n".join(lines) + "\n"


def graph_from_edgelist_text(text: str) -> Graph:
    """Parse edgelist_text.  Agents are the union of ids 1..n, edge
    endpoints, and POS entries."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[0] != "N" or head[2] != "REF":
        raise ValueError("missing 'N <num_agents> REF <reference>' header")
    agents = set(range(1, int(head[1]) + 1))
    edges, positions = set(), {}
    for parts in (ln.split() for ln in lines[1:]):
        if parts[0] == "POS":
            positions[int(parts[1])] = (float(parts[2]), float(parts[3]))
            agents.add(int(parts[1]))
        else:
            i, j = int(parts[0]), int(parts[1])
            edges.add(canonical_edge(i, j))
            agents.update((i, j))
    return Graph(agents=frozenset(agents), edge_array=np.array(sorted(edges)).reshape(-1, 2),
                 reference=int(head[3]), positions=positions or None)


def bp_message(j: int, i: int, incoming: dict[int, Gaussian1D], r: float,
               sigma2: float, reference: int | None = None,
               reference_belief: Gaussian1D | None = None) -> Gaussian1D:
    """Message j -> i from j's received messages `incoming` (keyed by
    sender).  For the reference agent the cavity is its pinned belief;
    otherwise it is the product of the messages from all but i."""
    if reference is not None and j == reference:
        cavity = reference_belief
    else:
        cavity = math.prod((m for k, m in incoming.items() if k != i), start=FLAT)
    return edge_message(r, sigma2, cavity)


def masked_message_precision(sig2: np.ndarray, sender_prec: np.ndarray) -> np.ndarray:
    """The reference for `edges.message_precision`: 1 / (sigma2 + 1/p),
    with 1/p taken only where p > 0 and inf elsewhere."""
    var = np.divide(1.0, sender_prec, out=np.full(np.shape(sender_prec), np.inf),
                    where=sender_prec > 0)
    var += sig2
    return np.divide(1.0, var, out=var)


def masked_bp_round(engine, arrived: np.ndarray | None = None) -> None:
    """The reference for `BpEngine.sync_round`: every round sums the
    payloads anew for the cavities, and flat cavities and beliefs are
    skipped by masked divides."""
    wm = engine.edge_prec * engine.edge_mean
    tot_prec = engine._agent_sums(engine.edge_prec)
    tot_wm = engine._agent_sums(wm)
    cav_prec = np.maximum(tot_prec[:, engine.src] - engine.edge_prec[:, engine.rev], 0.0)
    cav_wm = tot_wm[:, engine.src] - wm[:, engine.rev]
    cav_mean = np.divide(cav_wm, cav_prec, out=np.zeros_like(cav_wm), where=cav_prec > 0)
    from_ref = np.flatnonzero(engine.src == engine.ref)
    cav_prec[:, from_ref] = engine.reference_precision
    cav_mean[:, from_ref] = engine.reference_value
    out_prec = masked_message_precision(engine.sig2, cav_prec)
    out_mean = np.where(out_prec > 0, engine.r - cav_mean, 0.0)
    if arrived is not None:
        out_prec = np.where(arrived, out_prec, engine.edge_prec)
        out_mean = np.where(arrived, out_mean, engine.edge_mean)
    engine.edge_prec, engine.edge_mean = out_prec, out_mean
    prec = engine._agent_sums(out_prec)
    wm = engine._agent_sums(out_prec * out_mean)
    mean = np.divide(wm, prec, out=np.zeros_like(prec), where=prec > 0)
    prec[:, engine.ref] = engine.reference_precision
    mean[:, engine.ref] = engine.reference_value
    engine.prec, engine.mean = prec, mean


def scatter_async_round(engine, orders, arrived: np.ndarray | None = None) -> None:
    """The reference for `LsbpEngine.async_round`: after each step, the
    updated agents' new beliefs are scattered along the reverse edges of
    their inboxes into the caches the (T, 2|E|) delivery mask lets them
    reach (None: all), before the next step reads its inboxes."""
    t, n, m = len(engine.trials), engine.n, len(engine.src)
    agents = np.asarray(orders).T.ravel()           # step-major: (step, trial)
    rows = np.tile(np.arange(t), n)
    cells = rows * n + agents                       # flat (trial, agent)
    # every step's inboxes, concatenated (a ragged arange over indptr)
    deg = np.diff(engine.indptr)[agents]
    ends = np.cumsum(deg)
    edge = np.repeat(engine.indptr[agents] + deg - ends, deg) + np.arange(ends[-1])
    row = np.repeat(rows, deg)
    inbox = row * m + edge                          # flat (trial, edge)
    sig2, r = engine.sig2[edge], engine.r.reshape(-1)[inbox]
    bounds = np.concatenate([[0], ends[t - 1::t]])  # where each step starts
    # the reverse edges carry each new belief out, where it arrives
    out, sender, out_bounds = row * m + engine.rev[edge], np.repeat(cells, deg), bounds
    if arrived is not None:
        keep = arrived.reshape(-1)[out]
        out, sender = out[keep], sender[keep]
        out_bounds = np.concatenate([[0], np.cumsum(keep)])[bounds]
    # flat views: every per-trial array is C-contiguous
    prec, mean = engine.prec.reshape(-1), engine.mean.reshape(-1)
    edge_prec, edge_mean = engine.edge_prec.reshape(-1), engine.edge_mean.reshape(-1)
    bounds, out_bounds = bounds.tolist(), out_bounds.tolist()
    for s in range(n):
        lo, hi = bounds[s], bounds[s + 1]
        f, tr = inbox[lo:hi], row[lo:hi]
        w = message_precision(sig2[lo:hi], edge_prec[f])
        p = np.bincount(tr, w, t)
        wm = np.bincount(tr, w * (r[lo:hi] - edge_mean[f]), t)
        at = cells[s * t:(s + 1) * t]
        prec[at] = p
        mean[at] = np.divide(wm, p, out=np.zeros(t), where=p > 0)
        engine.prec[:, engine.ref] = engine.reference_precision   # the reference only sends
        engine.mean[:, engine.ref] = engine.reference_value
        lo, hi = out_bounds[s], out_bounds[s + 1]
        edge_prec[out[lo:hi]] = prec[sender[lo:hi]]
        edge_mean[out[lo:hi]] = mean[sender[lo:hi]]


def loop_trial_mean(values: np.ndarray) -> np.ndarray:
    """The reference for `netsim._trial_mean`: one np.mean per agent that
    is flat (NaN) in some trials but not all, over its informative trials."""
    stack = values.T.copy()
    out = stack.mean(axis=1)
    flat = np.isnan(stack)
    for a in np.flatnonzero(flat.any(axis=1) & ~flat.all(axis=1)):
        out[a] = np.mean(stack[a][~flat[a]])
    return out


def read_trace_csv(text: str) -> list[dict]:
    """Parse trace CSV back into row dicts; floats round-trip exactly."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"unexpected trace header {header}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rec = dict(zip(header, parts))
        rec["iteration"] = int(rec["iteration"])
        rec["agent"] = int(rec["agent"])
        for k in ("mean", "variance"):
            rec[k] = float(rec[k]) if rec[k] else None
        for k in ("avg_mse", "broadcasts", "deliveries", "drops"):
            rec[k] = float(rec[k])
        out.append(rec)
    return out
