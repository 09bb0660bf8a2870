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
from .edges import (DEFAULT_REFERENCE_PRECISION, DirectedEdges, EdgeEngine,
                    MessagePassingEstimator, message_precision)
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
    encodes an infinite-variance (flat) neighbor and inf a perfectly known
    one (all-inf maps to the update's upper bound, sum_j 1/sigma2_ij).  The
    reference agent is pinned at `ref_precision` and is not part of the
    vector.  Pure function, shared by the simulator's tests and the
    feasibility check.
    """
    edges = DirectedEdges(graph, meas)
    p = np.asarray(p, dtype=float)
    if len(p) != edges.n - 1:
        raise ValueError(f"expected {edges.n - 1} entries, got {len(p)}")
    if np.any(p < 0):
        raise ValueError("precisions must be >= 0")
    return _precision_update(edges, p, ref_precision)


def is_feasible_start(graph: Graph, meas: MeasurementSet, p0: np.ndarray,
                      ref_precision: float = DEFAULT_REFERENCE_PRECISION) -> bool:
    """True iff the precision update moves every coordinate of p0 the same
    way (elementwise >= or elementwise <=, with a slack of 1e-12), the start
    condition under which the variance trajectory is monotone."""
    diff = variance_map(graph, meas, p0, ref_precision) - np.asarray(p0)
    return bool(np.all(diff >= -1e-12) or np.all(diff <= 1e-12))


def variance_fixed_point(graph: Graph, meas: MeasurementSet,
                         ref_precision: float = DEFAULT_REFERENCE_PRECISION) -> np.ndarray:
    """Iterate the precision update from the flat start until no precision
    moves by more than 1e-14, within 100000 steps.  Returns precisions of
    non-reference agents in sorted-id order.  The first step that leaves a
    precision non-finite raises NumericError."""
    edges = DirectedEdges(graph, meas)
    p = np.zeros(edges.n - 1)
    for k in range(1, 100001):
        p_next = _precision_update(edges, p, ref_precision)
        moved = np.max(np.abs(p_next - p), initial=0.0)   # non-finite iff p_next is
        if moved <= 1e-14:
            return p_next
        if not math.isfinite(moved):
            raise NumericError(f"non-finite precision at variance step {k}")
        p = p_next
    raise NumericError("variance iteration did not settle within 100000 steps")


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
            self._deliver(None)

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "LsbpEngine":
        return LsbpEngine(graph, meas, self.init, self.reference_value,
                          self.reference_precision)

    def _payloads(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sender's current belief, along src."""
        return np.take(self.prec, self.src, axis=1), np.take(self.mean, self.src, axis=1)

    def _absorb(self) -> None:
        w = message_precision(self.sig2, self.edge_prec)
        self._set_beliefs(w, w * (self.r - self.edge_mean))

    def async_round(self, orders: Sequence[np.ndarray],
                    arrived: np.ndarray | None = None) -> None:
        """In each trial, agents update one at a time in that trial's order
        (a permutation of engine positions, one per trial), then all broadcast
        as in sync_round.  Step s updates agent orders[t][s] of every trial t
        at once.  An inbox entry reads its sender's new belief if the sender
        went first and the (T, 2|E|) delivery mask (None: all) lets it
        through, else its cache, and is summed in CSR order, as in sync_round."""
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
        bounds = np.concatenate([[0], ends[t - 1::t]]).tolist()   # where each step starts
        turn = np.argsort(cells) // t                   # each (trial, agent)'s step
        sender = row * n + self.src[edge]               # flat (trial, sender)
        fresh = turn[sender] < turn[np.repeat(cells, deg)]
        if arrived is not None:
            fresh &= arrived.reshape(-1)[inbox]
        at = np.flatnonzero(fresh)                      # the entries read off beliefs
        sender, news = sender[at], np.searchsorted(at, bounds).tolist()
        in_prec, in_mean = (a.reshape(-1)[inbox] for a in (self.edge_prec, self.edge_mean))
        # flat views: every per-trial array is C-contiguous
        prec, mean = self.prec.reshape(-1), self.mean.reshape(-1)
        for s in range(n):
            j = slice(news[s], news[s + 1])
            in_prec[at[j]], in_mean[at[j]] = prec[sender[j]], mean[sender[j]]
            lo, hi = bounds[s], bounds[s + 1]
            w = message_precision(sig2[lo:hi], in_prec[lo:hi])
            p = np.bincount(row[lo:hi], w, t)
            wm = np.bincount(row[lo:hi], w * (r[lo:hi] - in_mean[lo:hi]), t)
            step = cells[s * t:(s + 1) * t]
            prec[step] = p
            mean[step] = np.divide(wm, p, out=np.zeros(t), where=p > 0)
            self.prec[:, self.ref] = self.reference_precision   # the reference only sends
            self.mean[:, self.ref] = self.reference_value
        self._deliver(arrived)


# ---------------------------------------------------------------------------
# Estimator front end
# ---------------------------------------------------------------------------

@dataclass(kw_only=True, eq=False)
class LinearScalingBP(MessagePassingEstimator):
    """Estimator-style front end for the broadcast algorithm, synchronous or
    asynchronous (a seeded random update order per round); see
    MessagePassingEstimator for fit() and the fitted attributes."""

    init: str = ZERO_PRECISION
    init_variance: float = 1.0
    init_mean: float = 0.0
    schedule: str = "synchronous"
    seed: int = 0

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
