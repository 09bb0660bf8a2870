"""Directed-edge state shared by the two round engines.

Every undirected edge {i, j} becomes two directed edges, j -> i and i -> j.
The 2|E| directed edges are sorted by receiver, then sender (a CSR layout):
`dst[e]` receives what `src[e]` sends, agent k's inbox is the slice
indptr[k]:indptr[k+1], and `rev[e]` is the edge in the opposite direction.
Per-agent sums are one np.bincount over `dst`, so a round costs O(|E|)
however many agents there are.

The engines differ only in the payload a directed edge holds: the broadcast
engine keeps the receiver's cached copy of the sender's belief, per-edge BP
the last cavity message that arrived.

`iterate` is the one round loop and stop rule, shared by the simulator and
by both estimator front ends (`MessagePassingEstimator`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .gaussian import FLAT, Gaussian1D
from .graph import Graph
from .model import MeasurementSet, sorted_lookup

DEFAULT_REFERENCE_PRECISION = 1e12
DEFAULT_MEAN_TOL = 1e-9
DEFAULT_PREC_TOL = 1e-12


def message_precision(sig2: np.ndarray, sender_prec: np.ndarray) -> np.ndarray:
    """Precision of edge_message for each edge: 1 / (sigma2 + 1/p), and 0
    for a flat sender (p = 0)."""
    var = np.divide(1.0, sender_prec, out=np.full(np.shape(sender_prec), np.inf),
                    where=sender_prec > 0)
    return 1.0 / (sig2 + var)


class DirectedEdges:
    """The directed edges of a graph with their measurements `r` and noise
    variances `sig2`.  Agents are numbered by position in the sorted id
    list `ids`; `index` maps an id to its position."""

    def __init__(self, graph: Graph, meas: MeasurementSet):
        self.ids = sorted(graph.agents)
        self.index = {a: k for k, a in enumerate(self.ids)}
        n = self.n = len(self.ids)
        self.ref = self.index[graph.reference]

        pairs = graph.edge_array
        ends = np.searchsorted(self.ids, pairs)
        rows = meas.rows_of(pairs)
        m = len(pairs)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((src, dst))
        where = np.empty_like(order)
        where[order] = np.arange(2 * m)
        self.src, self.dst = src[order], dst[order]
        self.rev = where[(order + m) % max(2 * m, 1)]
        self.r = np.tile(meas.r_array[rows], 2)[order]
        self.sig2 = np.tile(meas.sigma2_array[rows], 2)[order]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(self.dst, minlength=n))])

    def edge(self, receiver: int, sender: int) -> int:
        """Position of the directed edge sender -> receiver (agent ids)."""
        k, j = self.index[receiver], self.index[sender]
        lo, hi = self.indptr[k], self.indptr[k + 1]
        pos = lo + int(np.searchsorted(self.src[lo:hi], j))
        if pos == hi or self.src[pos] != j:
            raise KeyError(f"no edge {sender} -> {receiver}")
        return pos


class EdgeEngine(DirectedEdges):
    """Round-engine state: belief precision/mean per agent, and per directed
    edge j -> i the payload `edge_prec`/`edge_mean` that receiver i holds.
    Payloads start flat and change only on a successful delivery, which is
    what keeps the update well-defined under packet loss.  The reference
    agent's belief is pinned."""

    # set by an engine whose beliefs blow up; iterate() stops on it
    diverged = False

    def __init__(self, graph: Graph, meas: MeasurementSet, reference_value: float,
                 reference_precision: float = DEFAULT_REFERENCE_PRECISION):
        super().__init__(graph, meas)
        self.graph = graph
        self.meas = meas
        self.reference_value = float(reference_value)
        self.reference_precision = float(reference_precision)
        self.prec = np.zeros(self.n)
        self.mean = np.zeros(self.n)
        self.prec[self.ref] = self.reference_precision
        self.mean[self.ref] = self.reference_value
        self.edge_prec = np.zeros(len(self.src))
        self.edge_mean = np.zeros(len(self.src))

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "EdgeEngine":
        """A new engine of the same kind and parameters on another graph."""
        raise NotImplementedError

    def delivery_mask(self, delivered: np.ndarray | None,
                      skip: np.ndarray | None) -> np.ndarray | None:
        """Per directed edge: does this round's message arrive?  Gathered from
        an (n, n) [receiver, sender] mask and per-agent skips; None when every
        message arrives."""
        arrived = None if delivered is None else delivered[self.dst, self.src]
        if skip is not None:
            sending = ~skip[self.src]
            arrived = sending if arrived is None else arrived & sending
        return arrived

    def _set_beliefs(self, msg_prec: np.ndarray, msg_wm: np.ndarray) -> None:
        """Every belief becomes the product of its incoming messages, given
        per edge as precision and precision-weighted mean; the reference
        stays pinned."""
        prec = np.bincount(self.dst, msg_prec, self.n)
        wm = np.bincount(self.dst, msg_wm, self.n)
        mean = np.divide(wm, prec, out=np.zeros(self.n), where=prec > 0)
        prec[self.ref] = self.reference_precision
        mean[self.ref] = self.reference_value
        self.prec, self.mean = prec, mean

    # -- state views --------------------------------------------------------

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(means with NaN at flat agents, precisions), aligned to self.ids."""
        means = self.mean.copy()
        means[self.prec == 0.0] = np.nan
        return means, self.prec.copy()

    def has_pending_information(self) -> bool:
        """True while some agent's belief is still flat even though its
        inbox holds an informative entry; a zero-delta round in that state
        is start-up lag, not convergence."""
        return bool(np.any(self.prec[self.dst[self.edge_prec > 0.0]] == 0.0))

    def estimates(self) -> dict[int, float | None]:
        return {a: (m if p > 0 else None)
                for a, m, p in zip(self.ids, self.mean.tolist(), self.prec.tolist())}

    def variances(self) -> dict[int, float]:
        return {a: (1.0 / p if p > 0 else math.inf)
                for a, p in zip(self.ids, self.prec.tolist())}

    def beliefs(self) -> dict[int, Gaussian1D]:
        return {a: (Gaussian1D(p, p * m) if p > 0 else FLAT)
                for a, m, p in zip(self.ids, self.mean.tolist(), self.prec.tolist())}

    # -- dynamic topology ----------------------------------------------------

    def rebuilt(self, graph: Graph, meas: MeasurementSet) -> "EdgeEngine":
        """Engine for a changed topology, carrying over the beliefs of the
        surviving agents and the payloads of the surviving directed edges.
        Departed agents' entries go with them; newly joined agents and their
        edges start as in a fresh engine."""
        new = self._fresh(graph, meas)
        old_ids, new_ids = np.array(self.ids), np.array(new.ids)
        at, kept = sorted_lookup(old_ids, new_ids)
        new.prec[kept] = self.prec[at[kept]]
        new.mean[kept] = self.mean[at[kept]]
        # (receiver id, sender id) pairs ascend along both edge arrays
        at, kept = sorted_lookup(np.column_stack([old_ids[self.dst], old_ids[self.src]]),
                                 np.column_stack([new_ids[new.dst], new_ids[new.src]]))
        new.edge_prec[kept] = self.edge_prec[at[kept]]
        new.edge_mean[kept] = self.edge_mean[at[kept]]
        return new


# -- the round loop -----------------------------------------------------------

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


def iterate(engine: EdgeEngine, step: Callable[[EdgeEngine], None],
            max_rounds: int, mean_tol: float, prec_tol: float,
            changes: Sequence[tuple[int, Callable[[EdgeEngine], EdgeEngine]]] = ()
            ) -> tuple[EdgeEngine, int, int | None]:
    """Run rounds `step(engine)` until the beliefs settle, the engine
    diverges, or `max_rounds` rounds have run.

    A round is settled when it moved every mean by less than mean_tol and
    every precision by less than prec_tol, and no agent still waits for
    information already in its inbox (a zero-delta round then is start-up
    lag, not convergence).  `changes` are (k, change) pairs in order of k:
    after round k, `change(engine)` returns the engine to go on with and the
    convergence test starts over.  The loop stops at the first settled round
    once no change is pending.

    Returns (engine, rounds run, first settled round since the last change,
    or None).
    """
    pending = list(changes)
    prev = engine.snapshot()
    settled_at = None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        while pending and pending[0][0] < rounds:
            _, change = pending.pop(0)
            engine = change(engine)
            prev, settled_at = engine.snapshot(), None
        step(engine)
        if engine.diverged:
            break
        cur = engine.snapshot()
        dmean, dprec = step_delta(prev, cur)
        prev = cur
        if settled_at is None and dmean < mean_tol and dprec < prec_tol and \
                not engine.has_pending_information():
            settled_at = rounds
        if settled_at is not None and not pending:
            break
    return engine, rounds, settled_at


# -- estimator front ends -----------------------------------------------------

class MessagePassingEstimator:
    """Estimator-style front end for lossless runs on a static graph.

    The constructor carries the parameters named in `_param_names`
    (get_params/set_params).  fit() runs rounds until the per-round change
    falls below mean_tol/prec_tol, the run diverges, or max_iter rounds have
    run, then exposes estimates_ (dict id -> Hz, None while flat),
    variances_, n_iter_, converged_ and diverged_.
    """

    _param_names: tuple[str, ...] = ()

    def _start(self, graph: Graph, measurements: MeasurementSet,
               reference_value: float
               ) -> tuple[EdgeEngine, Callable[[EdgeEngine], None]]:
        """(engine, step): a fresh engine and the round that fit() runs."""
        raise NotImplementedError

    def get_params(self, deep: bool = True) -> dict:
        return {k: getattr(self, k) for k in self._param_names}

    def set_params(self, **params) -> "MessagePassingEstimator":
        for k, v in params.items():
            if k not in self._param_names:
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    def fit(self, graph: Graph, measurements: MeasurementSet,
            reference_value: float = 0.0) -> "MessagePassingEstimator":
        engine, step = self._start(graph, measurements, reference_value)
        engine, self.n_iter_, settled_at = iterate(
            engine, step, self.max_iter, self.mean_tol, self.prec_tol)
        self.converged_ = settled_at is not None
        self.diverged_ = engine.diverged
        self.estimates_ = engine.estimates()
        self.variances_ = engine.variances()
        self.engine_ = engine
        return self

    def predict(self) -> dict[int, float | None]:
        if not hasattr(self, "estimates_"):
            raise RuntimeError("estimator is not fitted; call fit() first")
        return dict(self.estimates_)
