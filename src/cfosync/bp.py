"""Standard Gaussian belief propagation with per-edge cavity messages.

Each directed edge j->i carries its own message: the product of everything
agent j has received except what came from i, pushed through the shared
measurement.  A synchronous round recomputes all 2|E| directed messages
from the previous round's snapshot, so on a fully connected graph one round
costs N(N-1) messages (versus N broadcasts for the linear-scaling variant).

Beliefs are exact on trees.  On graphs with cycles the pinned model is
walk-summable (I - |R| is a normalized Laplacian plus the reference pin), so
the means converge to the WLS solution under any schedule that updates every
message infinitely often (Malioutov, Johnson & Willsky, JMLR 2006).
"""

from __future__ import annotations

import numpy as np

from .edges import (DEFAULT_MEAN_TOL, DEFAULT_PREC_TOL, DEFAULT_REFERENCE_PRECISION,
                    EdgeEngine, MessagePassingEstimator, message_precision)
from .graph import Graph
from .model import MeasurementSet


class BpEngine(EdgeEngine):
    """Synchronous-round engine for standard BP.

    Directed edge j -> i holds the last message j -> i that receiver i
    actually got; under packet loss a dropped message leaves it untouched,
    mirroring the broadcast engine's caches.  All messages start flat.
    """

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "BpEngine":
        return BpEngine(graph, meas, self.reference_value, self.reference_precision)

    def _outgoing(self) -> tuple[np.ndarray, np.ndarray]:
        """New message on every directed edge from the current inboxes: the
        sender's cavity excludes what arrived over the reverse edge."""
        wm = self.edge_prec * self.edge_mean
        tot_prec = self._agent_sums(self.edge_prec)
        tot_wm = self._agent_sums(wm)
        cav_prec = np.maximum(tot_prec[:, self.src] - self.edge_prec[:, self.rev], 0.0)
        cav_wm = tot_wm[:, self.src] - wm[:, self.rev]
        cav_mean = np.divide(cav_wm, cav_prec, out=np.zeros_like(cav_wm),
                             where=cav_prec > 0)
        from_ref = np.flatnonzero(self.src == self.ref)
        cav_prec[:, from_ref] = self.reference_precision
        cav_mean[:, from_ref] = self.reference_value
        out_prec = message_precision(self.sig2, cav_prec)
        out_mean = np.where(out_prec > 0, self.r - cav_mean, 0.0)
        return out_prec, out_mean

    def sync_round(self, arrived: np.ndarray | None = None) -> None:
        """In every trial, recompute every directed message from the
        previous snapshot, deliver those the (T, 2|E|) delivery mask lets
        through (None: all), refresh beliefs."""
        out_prec, out_mean = self._outgoing()
        if arrived is not None:
            out_prec = np.where(arrived, out_prec, self.edge_prec)
            out_mean = np.where(arrived, out_mean, self.edge_mean)
        self.edge_prec, self.edge_mean = out_prec, out_mean
        self._set_beliefs(out_prec, out_prec * out_mean)


class BeliefPropagation(MessagePassingEstimator):
    """Estimator-style front end for synchronous BP; see
    MessagePassingEstimator for fit() and the fitted attributes."""

    def __init__(self, max_iter: int = 1000, mean_tol: float = DEFAULT_MEAN_TOL,
                 prec_tol: float = DEFAULT_PREC_TOL,
                 reference_precision: float = DEFAULT_REFERENCE_PRECISION):
        self.max_iter = max_iter
        self.mean_tol = mean_tol
        self.prec_tol = prec_tol
        self.reference_precision = reference_precision

    def _start(self, graph: Graph, measurements: MeasurementSet,
               reference_value: float):
        engine = BpEngine(graph, measurements, reference_value,
                          self.reference_precision)
        return engine, BpEngine.sync_round
