"""Directed-edge state shared by the two round engines.

Every undirected edge {i, j} becomes two directed edges, j -> i and i -> j.
The 2|E| directed edges are sorted by receiver, then sender (a CSR layout):
`dst[e]` receives what `src[e]` sends, agent k's inbox is the slice
indptr[k]:indptr[k+1], and `rev[e]` is the edge in the opposite direction.
Per-agent sums are one np.bincount over `dst`, so a round costs O(|E|)
however many agents there are.

The engines differ only in the payload a directed edge holds: the broadcast
engine keeps the receiver's cached copy of the sender's belief, per-edge BP
the last cavity message that arrived.  An engine advances a batch of T
Monte-Carlo trials on one topology: the edge structure is shared, and every
per-trial array has a leading trial axis (beliefs (T, n), payloads and
measurements (T, 2|E|)).  The estimator front ends run the T = 1 case.

`iterate` is the one round loop and stop rule, shared by the simulator and
by both estimator front ends (`MessagePassingEstimator`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import NumericError
from .graph import Graph
from .model import MeasurementSet, sorted_lookup

DEFAULT_REFERENCE_PRECISION = 1e12
DEFAULT_MEAN_TOL = 1e-9
DEFAULT_PREC_TOL = 1e-12


def message_precision(sig2: np.ndarray, sender_prec: np.ndarray) -> np.ndarray:
    """Precision of the message a sender belief of precision p implies
    through an edge of noise variance sigma2: 1 / (sigma2 + 1/p), and 0 for
    a flat sender (p = 0)."""
    var = np.divide(1.0, sender_prec, out=np.full(np.shape(sender_prec), np.inf),
                    where=sender_prec > 0)
    var += sig2   # in place: a batch's (T, 2|E|) temporaries cost peak memory
    return np.divide(1.0, var, out=var)


class DirectedEdges:
    """The directed edges of a graph with their noise variances `sig2` and,
    per trial, their measurements `r` (T, 2|E|): `meas` holds one row of
    measurements per trial over shared edges and variances (a 1-D set is one
    trial).  Agents are numbered by position in the sorted id list `ids`;
    `index` maps an id to its position."""

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
        self.r = np.take(np.tile(np.atleast_2d(meas.r_array)[:, rows], 2), order, axis=1)
        self.sig2 = np.tile(meas.sigma2_array[rows], 2)[order]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(self.dst, minlength=n))])


class EdgeEngine(DirectedEdges):
    """Round-engine state of a batch of trials: per trial, belief
    precision/mean per agent (T, n), and per directed edge j -> i the
    payload `edge_prec`/`edge_mean` (T, 2|E|) that receiver i holds.
    Payloads start flat and change only on a successful delivery, which is
    what keeps the update well-defined under packet loss.  The reference
    agent's belief is pinned.  Row k of every per-trial array belongs to
    trial `trials[k]`."""

    _per_trial = ("trials", "prec", "mean", "edge_prec", "edge_mean", "r")

    def __init__(self, graph: Graph, meas: MeasurementSet, reference_value: float,
                 reference_precision: float = DEFAULT_REFERENCE_PRECISION):
        super().__init__(graph, meas)
        self.reference_value = float(reference_value)
        self.reference_precision = float(reference_precision)
        self.trials = np.arange(len(self.r))
        self.prec, self.mean = np.zeros((2, len(self.r), self.n))
        self.prec[:, self.ref] = self.reference_precision
        self.mean[:, self.ref] = self.reference_value
        self.edge_prec, self.edge_mean = np.zeros((2, *self.r.shape))
        self.take(slice(None))

    def _fresh(self, graph: Graph, meas: MeasurementSet) -> "EdgeEngine":
        """A new engine of the same kind and parameters on another graph."""
        raise NotImplementedError

    def take(self, rows: np.ndarray) -> "EdgeEngine":
        """Keep only the trials at row positions `rows`, in that order."""
        for name in self._per_trial:
            setattr(self, name, getattr(self, name)[rows])
        self._bins = (self.dst + self.n * np.arange(len(self.trials))[:, None]).ravel()
        return self

    def _agent_sums(self, values: np.ndarray) -> np.ndarray:
        """(T, n) per-agent sums of (T, 2|E|) edge values: one bincount over
        dst + t*n, which adds each agent's terms in CSR order (float even
        without edges, where bincount gives integers)."""
        sums = np.bincount(self._bins, values.ravel(), len(self.trials) * self.n)
        return sums.reshape(len(self.trials), self.n).astype(float, copy=False)

    def _set_beliefs(self, msg_prec: np.ndarray, msg_wm: np.ndarray) -> None:
        """Every belief becomes the product of its incoming messages, given
        per edge as precision and precision-weighted mean; the reference
        stays pinned."""
        prec = self._agent_sums(msg_prec)
        wm = self._agent_sums(msg_wm)
        mean = np.divide(wm, prec, out=np.zeros_like(prec), where=prec > 0)
        prec[:, self.ref] = self.reference_precision
        mean[:, self.ref] = self.reference_value
        self.prec, self.mean = prec, mean

    # -- state views --------------------------------------------------------

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(means with NaN at flat agents, precisions), (T, n) aligned to
        self.ids."""
        means = self.mean.copy()
        means[self.prec == 0.0] = np.nan
        return means, self.prec.copy()

    def has_pending_information(self) -> np.ndarray:
        """Per trial: is some agent's belief still flat although its inbox
        holds an informative entry?  A zero-delta round in that state is
        start-up lag, not convergence."""
        return np.any((self.edge_prec > 0.0) & (self.prec[:, self.dst] == 0.0), axis=1)

    def estimates(self, row: int = 0) -> dict[int, float | None]:
        return {a: (m if p > 0 else None) for a, m, p in
                zip(self.ids, self.mean[row].tolist(), self.prec[row].tolist())}

    def variances(self, row: int = 0) -> dict[int, float]:
        return {a: (1.0 / p if p > 0 else math.inf)
                for a, p in zip(self.ids, self.prec[row].tolist())}

    # -- dynamic topology ----------------------------------------------------

    def rebuilt(self, graph: Graph, meas: MeasurementSet) -> "EdgeEngine":
        """Engine for a changed topology, carrying over the beliefs of the
        surviving agents and the payloads of the surviving directed edges.
        Departed agents' entries go with them; newly joined agents and their
        edges start as in a fresh engine.  `meas` holds a row for every
        trial; the new engine keeps this engine's trials."""
        new = self._fresh(graph, meas).take(self.trials)
        old_ids, new_ids = np.array(self.ids), np.array(new.ids)
        at, kept = sorted_lookup(old_ids, new_ids)
        new.prec[:, kept] = self.prec[:, at[kept]]
        new.mean[:, kept] = self.mean[:, at[kept]]
        # (receiver id, sender id) pairs ascend along both edge arrays
        at, kept = sorted_lookup(np.column_stack([old_ids[self.dst], old_ids[self.src]]),
                                 np.column_stack([new_ids[new.dst], new_ids[new.src]]))
        new.edge_prec[:, kept] = self.edge_prec[:, at[kept]]
        new.edge_mean[:, kept] = self.edge_mean[:, at[kept]]
        return new


# -- the round loop -----------------------------------------------------------

def step_delta(prev: tuple[np.ndarray, np.ndarray],
               cur: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per trial (the last axis holds the agents): (max mean change, max
    precision change) between two snapshots.  An agent switching between
    flat and informative counts as an infinite mean change; flat-to-flat
    contributes nothing."""
    m0, p0 = prev
    m1, p1 = cur
    dprec = np.max(np.abs(p1 - p0), axis=-1, initial=0.0)
    flat0 = p0 == 0
    dmean = np.max(np.abs(np.where(flat0, 0.0, m1 - m0)), axis=-1, initial=0.0)
    return np.where(np.any(flat0 != (p1 == 0), axis=-1), math.inf, dmean), dprec


def iterate(engine: EdgeEngine, step: Callable[[EdgeEngine], None],
            max_rounds: int, mean_tol: float, prec_tol: float,
            changes: Sequence[tuple[int, Callable[[EdgeEngine], EdgeEngine]]] = ()
            ) -> tuple[EdgeEngine, list[int], list[int | None]]:
    """Run rounds `step(engine)` on the engine's live trials until each
    trial's beliefs settle or `max_rounds` rounds have run.

    A trial's round is settled when it moved every mean by less than
    mean_tol and every precision by less than prec_tol, and no agent still
    waits for information already in its inbox (a zero-delta round then is
    start-up lag, not convergence).  `changes` are (k, change) pairs in order
    of k: after round k, `change(engine)` returns the engine to go on with
    and every trial's convergence test starts over.  A trial stops at its
    first settled round once no change is pending; its rows then leave the
    engine (the last trial's stay).  A non-finite belief after a round
    raises NumericError.

    Returns (engine, and per trial: rounds run, first settled round since
    the last change or None).
    """
    pending = list(changes)
    rounds, settled_at = np.zeros((2, len(engine.trials)), int)   # 0: not settled
    prev = engine.snapshot()
    for k in range(1, max_rounds + 1):
        while pending and pending[0][0] < k:
            _, change = pending.pop(0)
            engine = change(engine)
            prev = engine.snapshot()
            settled_at[engine.trials] = 0
        step(engine)
        if not (np.isfinite(engine.prec).all() and np.isfinite(engine.mean).all()):
            raise NumericError(f"non-finite belief after round {k}")
        cur = engine.snapshot()
        dmean, dprec = step_delta(prev, cur)
        live = engine.trials
        rounds[live] = k
        settled = (dmean < mean_tol) & (dprec < prec_tol) & ~engine.has_pending_information()
        settled_at[live] = np.where((settled_at[live] == 0) & settled, k, settled_at[live])
        stop = (settled_at[live] > 0) & (not pending)
        if stop.all():
            break
        if stop.any():
            engine.take(~stop)
            cur = (cur[0][~stop], cur[1][~stop])
        prev = cur
    return engine, rounds.tolist(), [s or None for s in settled_at.tolist()]


# -- estimator front ends -----------------------------------------------------

class MessagePassingEstimator:
    """Estimator-style front end for lossless runs on a static graph.

    The constructor carries the parameters named in `_param_names`
    (get_params/set_params).  fit() runs rounds until the per-round change
    falls below mean_tol/prec_tol or max_iter rounds have run, then exposes
    estimates_ (dict id -> Hz, None while flat), variances_, n_iter_ and
    converged_.
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
        engine, rounds, settled_at = iterate(
            engine, step, self.max_iter, self.mean_tol, self.prec_tol)
        self.n_iter_, self.converged_ = rounds[0], settled_at[0] is not None
        self.estimates_ = engine.estimates()
        self.variances_ = engine.variances()
        self.engine_ = engine
        return self

    def predict(self) -> dict[int, float | None]:
        if not hasattr(self, "estimates_"):
            raise RuntimeError("estimator is not fitted; call fit() first")
        return dict(self.estimates_)
