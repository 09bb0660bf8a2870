"""Broadcast belief propagation with linear message scaling.

Instead of per-neighbor cavity messages, every agent broadcasts its full
belief once per round; receivers convert the cached neighbor belief into an
incoming message through the shared edge measurement and multiply.  One
round therefore costs one message per agent.

The belief-variance recursion induced by this update is a monotone map on
precision vectors; from a feasible start (the map moves every coordinate
the same way) the per-agent variance trajectory is monotone and converges
to a unique fixed point regardless of the start.  Belief means then follow
a linear contraction whose iteration matrix is substochastic for connected
graphs, so they converge from arbitrary initial means.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .edges import (DEFAULT_MEAN_TOL, DEFAULT_PREC_TOL, DEFAULT_REFERENCE_PRECISION,
                    DirectedEdges, EdgeEngine, MessagePassingEstimator,
                    message_precision)
from .graph import Graph
from .model import MeasurementSet

ZERO_PRECISION = "zero_precision"
UNIFORM_VARIANCE = "uniform"


@dataclass(frozen=True)
class BeliefInit:
    """Initial belief for every non-reference agent.

    zero_precision starts flat (the always-feasible choice); uniform starts
    every agent at N(mean, variance), reproducing fixed-variance sweeps.  In
    information form that start is precision 1/variance and weighted mean
    mean/variance; the precision must be positive and finite (an infinite
    variance would be the flat start) and the weighted mean finite.
    """

    mode: str = ZERO_PRECISION
    variance: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        if self.mode not in (ZERO_PRECISION, UNIFORM_VARIANCE):
            raise ValueError(f"unknown init mode {self.mode!r}")
        if self.mode == UNIFORM_VARIANCE and not (
                self.variance > 0 and 0 < 1.0 / self.variance < math.inf
                and math.isfinite(self.mean * (1.0 / self.variance))):
            raise ValueError("uniform init requires variance > 0 with a positive, finite "
                             "precision 1/variance and a finite weighted mean mean/variance")


def nonref_agents(graph: Graph) -> list[int]:
    return sorted(graph.agents - {graph.reference})


def _precision_update(edges: DirectedEdges, p: np.ndarray,
                      ref_precision: float) -> np.ndarray:
    """Every non-reference agent's precision becomes the summed precision
    of the messages its neighbors' beliefs `p` imply (reference pinned)."""
    full = np.insert(p, edges.ref, ref_precision)
    w = message_precision(edges.sig2, full[edges.src])
    return np.delete(np.bincount(edges.dst, w, edges.n), edges.ref)


def variance_map(graph: Graph, meas: MeasurementSet, p: np.ndarray,
                 ref_precision: float = DEFAULT_REFERENCE_PRECISION) -> np.ndarray:
    """One application of the belief-precision update.

    `p` holds precisions of non-reference agents in sorted-id order; entry 0
    encodes an infinite-variance (flat) neighbor.  The reference agent is
    pinned at `ref_precision` and is not part of the vector.  Pure function,
    shared by the simulator's tests and the feasibility check.
    """
    edges = DirectedEdges(graph, meas)
    p = np.asarray(p, dtype=float)
    if len(p) != edges.n - 1:
        raise ValueError(f"expected {edges.n - 1} entries, got {len(p)}")
    if np.any(p < 0):
        raise ValueError("precisions must be >= 0")
    return _precision_update(edges, p, ref_precision)


def variance_map_bound(graph: Graph, meas: MeasurementSet,
                       ref_precision: float = DEFAULT_REFERENCE_PRECISION) -> np.ndarray:
    """Elementwise upper bound of the precision update: the image of
    zero-variance (perfectly known) neighbors, i.e. sum_j 1/sigma2_ij.

    Every finite-precision input maps strictly below this bound in each
    coordinate that has at least one non-reference neighbor.
    """
    edges = DirectedEdges(graph, meas)
    return _precision_update(edges, np.full(edges.n - 1, np.inf), ref_precision)


def is_feasible_start(graph: Graph, meas: MeasurementSet, p0: np.ndarray,
                      ref_precision: float = DEFAULT_REFERENCE_PRECISION,
                      slack: float = 1e-12) -> bool:
    """True iff the precision update moves every coordinate of p0 the same
    way (elementwise >= or elementwise <=), the start condition under which
    the variance trajectory is monotone."""
    diff = variance_map(graph, meas, p0, ref_precision) - np.asarray(p0)
    return bool(np.all(diff >= -slack) or np.all(diff <= slack))


def variance_fixed_point(graph: Graph, meas: MeasurementSet,
                         ref_precision: float = DEFAULT_REFERENCE_PRECISION,
                         tol: float = 1e-14, max_iter: int = 100000) -> np.ndarray:
    """Iterate the precision update from the flat start until stationary.
    Returns precisions of non-reference agents in sorted-id order."""
    edges = DirectedEdges(graph, meas)
    p = np.zeros(edges.n - 1)
    for _ in range(max_iter):
        p_next = _precision_update(edges, p, ref_precision)
        if np.max(np.abs(p_next - p), initial=0.0) <= tol:
            return p_next
        p = p_next
    raise NumericError(f"variance iteration did not settle within {max_iter} steps")


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------

class LsbpEngine(EdgeEngine):
    """Round engine for the broadcast algorithm.

    Directed edge j -> i holds receiver i's cached copy of the last belief
    it received from sender j.  Caches start at each neighbor's declared
    initial belief (flat under zero_precision init) and are only
    overwritten by successful deliveries.
    """

    def __init__(self, graph: Graph, meas: MeasurementSet, init: BeliefInit,
                 reference_value: float,
                 reference_precision: float = DEFAULT_REFERENCE_PRECISION):
        super().__init__(graph, meas, reference_value, reference_precision)
        self.init = init
        p0 = 1.0 / init.variance if init.mode == UNIFORM_VARIANCE else 0.0
        if p0 > 0:   # else flat, as is an infinite variance
            others = np.arange(self.n) != self.ref
            self.prec[:, others] = p0
            # the information-form start's mean (p0 * m) / p0, not m: m alone
            # differs in the last ulp for about one (m, v) in ten, and would
            # move the output bytes of such runs with init_mean != 0
            self.mean[:, others] = (p0 * init.mean) / p0
            # the reference's declared initial belief is its pin
            self.edge_prec, self.edge_mean = (np.take(a, self.src, axis=1)
                                              for a in (self.prec, self.mean))

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "LsbpEngine":
        return LsbpEngine(graph, meas, self.init, self.reference_value,
                          self.reference_precision)

    def sync_round(self, arrived: np.ndarray | None = None) -> None:
        """One synchronous round in every trial: every non-skipped agent
        broadcasts its current belief, deliveries land in the caches, then
        all agents recompute from the cache snapshot.  `arrived` is the
        (T, 2|E|) delivery mask; None delivers everything."""
        sent_prec, sent_mean = (np.take(a, self.src, axis=1) for a in (self.prec, self.mean))
        if arrived is None:
            self.edge_prec, self.edge_mean = sent_prec, sent_mean
        else:
            self.edge_prec = np.where(arrived, sent_prec, self.edge_prec)
            self.edge_mean = np.where(arrived, sent_mean, self.edge_mean)
        w = message_precision(self.sig2, self.edge_prec)
        self._set_beliefs(w, w * (self.r - self.edge_mean))

    def async_round(self, orders: Sequence[np.ndarray],
                    arrived: np.ndarray | None = None) -> None:
        """In each trial, agents update one at a time in that trial's order
        (a permutation of engine positions, one per trial); each updated
        agent broadcasts before the next one updates, over the edges the
        (T, 2|E|) delivery mask lets through (None: all).  Step s updates
        agent orders[t][s] of every trial t at once.  An inbox is summed left
        to right in CSR order, as in sync_round."""
        t, n, m = len(self.trials), self.n, len(self.src)
        agents = np.asarray(orders).T.ravel()           # step-major: (step, trial)
        rows = np.tile(np.arange(t), n)
        cells = rows * n + agents                       # flat (trial, agent)
        # every step's inboxes, concatenated (a ragged arange over indptr)
        deg = np.diff(self.indptr)[agents]
        ends = np.cumsum(deg)
        edge = np.repeat(self.indptr[agents] + deg - ends, deg) + np.arange(ends[-1])
        row = np.repeat(rows, deg)
        inbox = row * m + edge                          # flat (trial, edge)
        sig2, r = self.sig2[edge], self.r.reshape(-1)[inbox]
        bounds = np.concatenate([[0], ends[t - 1::t]])  # where each step starts
        # the reverse edges carry each new belief out, where it arrives
        out, sender, out_bounds = row * m + self.rev[edge], np.repeat(cells, deg), bounds
        if arrived is not None:
            keep = arrived.reshape(-1)[out]
            out, sender = out[keep], sender[keep]
            out_bounds = np.concatenate([[0], np.cumsum(keep)])[bounds]
        # flat views: every per-trial array is C-contiguous
        prec, mean = self.prec.reshape(-1), self.mean.reshape(-1)
        edge_prec, edge_mean = self.edge_prec.reshape(-1), self.edge_mean.reshape(-1)
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
            self.prec[:, self.ref] = self.reference_precision   # the reference only sends
            self.mean[:, self.ref] = self.reference_value
            lo, hi = out_bounds[s], out_bounds[s + 1]
            edge_prec[out[lo:hi]] = prec[sender[lo:hi]]
            edge_mean[out[lo:hi]] = mean[sender[lo:hi]]


# ---------------------------------------------------------------------------
# Estimator front end
# ---------------------------------------------------------------------------

class LinearScalingBP(MessagePassingEstimator):
    """Estimator-style front end for the broadcast algorithm, synchronous or
    asynchronous (a seeded random update order per round); see
    MessagePassingEstimator for fit() and the fitted attributes."""

    def __init__(self, init: str = ZERO_PRECISION, init_variance: float = 1.0,
                 init_mean: float = 0.0, max_iter: int = 1000,
                 mean_tol: float = DEFAULT_MEAN_TOL,
                 prec_tol: float = DEFAULT_PREC_TOL,
                 reference_precision: float = DEFAULT_REFERENCE_PRECISION,
                 schedule: str = "synchronous", seed: int = 0):
        self.init = init
        self.init_variance = init_variance
        self.init_mean = init_mean
        self.max_iter = max_iter
        self.mean_tol = mean_tol
        self.prec_tol = prec_tol
        self.reference_precision = reference_precision
        self.schedule = schedule
        self.seed = seed

    _param_names = ("init", "init_variance", "init_mean", "max_iter",
                    "mean_tol", "prec_tol", "reference_precision",
                    "schedule", "seed")

    def _start(self, graph: Graph, measurements: MeasurementSet,
               reference_value: float):
        if self.schedule not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        init = BeliefInit(mode=self.init, variance=self.init_variance,
                          mean=self.init_mean)
        engine = LsbpEngine(graph, measurements, init, reference_value,
                            self.reference_precision)
        if self.schedule == "synchronous":
            return engine, LsbpEngine.sync_round
        rng = np.random.default_rng(self.seed)
        return engine, lambda eng: eng.async_round([rng.permutation(eng.n)])
