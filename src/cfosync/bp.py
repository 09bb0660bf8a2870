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

from functools import cached_property

import numpy as np

from .edges import EdgeEngine, MessagePassingEstimator, message_precision
from .graph import Graph
from .model import MeasurementSet


class BpEngine(EdgeEngine):
    """Synchronous-round engine for standard BP.

    Directed edge j -> i holds the last message j -> i that receiver i
    actually got; under packet loss a dropped message leaves it untouched,
    mirroring the broadcast engine's caches.  All messages start flat.
    """

    # the payloads' (T, n) inbox sums of precision and weighted mean, and
    # their (T, 2|E|) weighted means; None until summed
    _inbox: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "BpEngine":
        return BpEngine(graph, meas, self.reference_value, self.reference_precision)

    def take(self, rows: np.ndarray) -> "BpEngine":
        self._inbox = None
        return super().take(rows)

    @cached_property
    def _from_ref(self) -> np.ndarray:
        """The directed edges the reference sends over."""
        return np.flatnonzero(self.src == self.ref)

    @cached_property
    def _inbox_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _payloads(self) -> tuple[np.ndarray, np.ndarray]:
        """New message on every directed edge from the current inboxes: the
        sender's cavity excludes what arrived over the reverse edge.  A flat
        cavity (precision 0) sends a flat message: precision and mean 0."""
        if self._inbox is None:
            wm = self.edge_prec * self.edge_mean
            self._inbox = self._agent_sums(self.edge_prec), self._agent_sums(wm), wm
        tot_prec, tot_wm, wm = self._inbox
        # the cavity of edge j -> i is j's inbox total less its entry from i,
        # which sits at the reverse edge i -> j: each inbox row less its own
        # entry, in inbox order, then one gather by rev (np.take: a fancy
        # index on the edge axis gathers at half its speed)
        cav_prec = np.repeat(tot_prec, self._inbox_sizes, axis=1)
        cav_prec -= self.edge_prec
        cav_prec = np.take(cav_prec, self.rev, axis=1)
        np.maximum(cav_prec, 0.0, out=cav_prec)
        cav_mean = np.repeat(tot_wm, self._inbox_sizes, axis=1)
        cav_mean -= wm
        cav_mean = np.take(cav_mean, self.rev, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):   # flat cavities, zeroed below
            cav_mean /= cav_prec
        cav_prec[:, self._from_ref] = self.reference_precision
        cav_mean[:, self._from_ref] = self.reference_value
        out_prec = message_precision(self.sig2, cav_prec)
        out_mean = self.r - cav_mean
        flat = out_prec == 0.0
        if flat.any():
            out_mean[flat] = 0.0
        return out_prec, out_mean

    def _absorb(self) -> None:
        """The belief sums are the next round's inbox sums: only the
        reference's pinned precision differs, and its cavity is its pin."""
        wm = self.edge_prec * self.edge_mean
        self._inbox = (*self._set_beliefs(self.edge_prec, wm), wm)


class BeliefPropagation(MessagePassingEstimator):
    """Estimator-style front end for synchronous BP; see
    MessagePassingEstimator for fit() and the fitted attributes."""

    def _start(self, graph: Graph, measurements: MeasurementSet,
               reference_value: float):
        engine = BpEngine(graph, measurements, reference_value,
                          self.reference_precision)
        return engine, BpEngine.sync_round
