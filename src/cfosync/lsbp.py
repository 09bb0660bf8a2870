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
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .edges import (DEFAULT_REFERENCE_PRECISION, DirectedEdges, EdgeEngine,
                    message_precision)
from .gaussian import FLAT, Gaussian1D
from .graph import Graph
from .model import MeasurementSet

DEFAULT_MEAN_TOL = 1e-9
DEFAULT_PREC_TOL = 1e-12

ZERO_PRECISION = "zero_precision"
UNIFORM_VARIANCE = "uniform"


@dataclass(frozen=True)
class BeliefInit:
    """Initial belief for every non-reference agent.

    zero_precision starts flat (the always-feasible choice); uniform starts
    every agent at N(mean, variance), reproducing fixed-variance sweeps.
    """

    mode: str = ZERO_PRECISION
    variance: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        if self.mode not in (ZERO_PRECISION, UNIFORM_VARIANCE):
            raise ValueError(f"unknown init mode {self.mode!r}")
        if self.mode == UNIFORM_VARIANCE and self.variance <= 0:
            raise ValueError("uniform init requires variance > 0")

    def as_gaussian(self) -> Gaussian1D:
        if self.mode == ZERO_PRECISION:
            return FLAT
        return Gaussian1D.from_moments(self.mean, self.variance)


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
        g0 = init.as_gaussian()
        if not g0.is_flat:
            others = np.arange(self.n) != self.ref
            self.prec[others] = g0.precision
            self.mean[others] = g0.mean()
            # the reference's declared initial belief is its pin
            self.edge_prec = self.prec[self.src]
            self.edge_mean = self.mean[self.src]

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "LsbpEngine":
        return LsbpEngine(graph, meas, self.init, self.reference_value,
                          self.reference_precision)

    def sync_round(self, delivered: np.ndarray | None = None,
                   skip: np.ndarray | None = None) -> None:
        """One synchronous round: every non-skipped agent broadcasts its
        current belief, deliveries land in the caches, then all agents
        recompute from the cache snapshot."""
        arrived = self.delivery_mask(delivered, skip)
        if arrived is None:
            self.edge_prec, self.edge_mean = self.prec[self.src], self.mean[self.src]
        else:
            self.edge_prec = np.where(arrived, self.prec[self.src], self.edge_prec)
            self.edge_mean = np.where(arrived, self.mean[self.src], self.edge_mean)
        w = message_precision(self.sig2, self.edge_prec)
        self._set_beliefs(w, w * (self.r - self.edge_mean))

    def async_round(self, order: list[int],
                    delivered: np.ndarray | None = None,
                    skip: np.ndarray | None = None) -> None:
        """Agents update one at a time in `order` (agent ids); each updated
        agent broadcasts before the next one updates."""
        arrived = self.delivery_mask(delivered, None)
        for a in order:
            k = self.index[a]
            inbox = slice(self.indptr[k], self.indptr[k + 1])
            if k != self.ref:
                w = message_precision(self.sig2[inbox], self.edge_prec[inbox])
                p = w.sum()
                self.prec[k] = p
                self.mean[k] = (w * (self.r[inbox] - self.edge_mean[inbox])).sum() / p \
                    if p > 0 else 0.0
            if skip is not None and skip[k]:
                continue
            out = self.rev[inbox]
            if arrived is not None:
                out = out[arrived[out]]
            self.edge_prec[out] = self.prec[k]
            self.edge_mean[out] = self.mean[k]


# ---------------------------------------------------------------------------
# Convergence detection
# ---------------------------------------------------------------------------

def step_delta(prev: tuple[np.ndarray, np.ndarray],
               cur: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(max mean change, max precision change) between two snapshots.
    An agent switching between flat and informative counts as an infinite
    mean change; flat-to-flat contributes nothing."""
    m0, p0 = prev
    m1, p1 = cur
    dprec = float(np.max(np.abs(p1 - p0), initial=0.0))
    flat0, flat1 = p0 == 0, p1 == 0
    if np.any(flat0 != flat1):
        return math.inf, dprec
    both = ~flat0
    dmean = float(np.max(np.abs(m1[both] - m0[both]), initial=0.0))
    return dmean, dprec


def detect_convergence(snapshots, mean_tol: float = DEFAULT_MEAN_TOL,
                       prec_tol: float = DEFAULT_PREC_TOL) -> int | None:
    """First iteration from which the recorded trace stays converged: every
    later step changes means by less than mean_tol and precisions by less
    than prec_tol.  Returns None when the final step still moves (or fewer
    than two snapshots exist).

    `snapshots` is a sequence of (means, precisions) pairs as produced by
    the engines' snapshot(), indexed by iteration starting at 0.
    """
    if len(snapshots) < 2:
        return None
    settled_from = 1
    for l in range(1, len(snapshots)):
        dmean, dprec = step_delta(snapshots[l - 1], snapshots[l])
        if not (dmean < mean_tol and dprec < prec_tol):
            settled_from = l + 1
    if settled_from >= len(snapshots):
        return None
    return settled_from


# ---------------------------------------------------------------------------
# Estimator front end
# ---------------------------------------------------------------------------

class LinearScalingBP:
    """Estimator-style front end for lossless runs on a static graph.

    Parameters mirror the engine; fit() iterates rounds until the per-round
    change falls below the tolerances or max_iter is reached, then exposes
    estimates_ (dict id -> Hz, None while flat), variances_, n_iter_,
    converged_.
    """

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

    def get_params(self, deep: bool = True) -> dict:
        return {k: getattr(self, k) for k in self._param_names}

    def set_params(self, **params) -> "LinearScalingBP":
        for k, v in params.items():
            if k not in self._param_names:
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    def fit(self, graph: Graph, measurements: MeasurementSet,
            reference_value: float = 0.0) -> "LinearScalingBP":
        if self.schedule not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        init = BeliefInit(mode=self.init, variance=self.init_variance,
                          mean=self.init_mean)
        engine = LsbpEngine(graph, measurements, init, reference_value,
                            self.reference_precision)
        rng = np.random.default_rng(self.seed)
        prev = engine.snapshot()
        self.converged_ = False
        self.n_iter_ = 0
        for l in range(1, self.max_iter + 1):
            if self.schedule == "synchronous":
                engine.sync_round()
            else:
                order = [engine.ids[k] for k in rng.permutation(engine.n)]
                engine.async_round(order)
            cur = engine.snapshot()
            self.n_iter_ = l
            dmean, dprec = step_delta(prev, cur)
            if dmean < self.mean_tol and dprec < self.prec_tol and \
                    not engine.has_pending_information():
                self.converged_ = True
                break
            prev = cur
        self.estimates_ = engine.estimates()
        self.variances_ = engine.variances()
        self.engine_ = engine
        return self

    def _check_fitted(self):
        if not hasattr(self, "estimates_"):
            raise RuntimeError("estimator is not fitted; call fit() first")

    def predict(self) -> dict[int, float | None]:
        self._check_fitted()
        return dict(self.estimates_)
