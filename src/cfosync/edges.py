"""Directed-edge state shared by the two round engines.

Every undirected edge {i, j} becomes two directed edges, j -> i and i -> j.
The graph lays them out once (`Graph.layout`), sorted by receiver, then
sender: `dst[e]` receives what `src[e]` sends, agent k's inbox is the slice
indptr[k]:indptr[k+1], and `rev[e]` is the edge in the opposite direction.
Per-agent sums are one np.bincount over `dst`, so a round costs O(|E|)
however many agents there are.

The engines differ only in the payload a directed edge holds (the broadcast
engine: the receiver's cached copy of the sender's belief; per-edge BP: the
last cavity message that arrived), and share one delivery rule.  An engine
advances a batch of T Monte-Carlo trials on one topology: the edge structure
is shared, and every per-trial array has a leading trial axis (beliefs
(T, n), payloads and measurements (T, 2|E|)).  The front ends run one trial.

`iterate` is the one round loop and stop rule, shared by the simulator and
by both estimator front ends (`MessagePassingEstimator`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

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
    with np.errstate(divide="ignore"):   # 1/0 = inf: a flat sender's message is 0
        var = 1.0 / sender_prec
    var += sig2   # in place: a batch's (T, 2|E|) temporaries cost peak memory
    return np.divide(1.0, var, out=var)


class DirectedEdges:
    """The directed edges of a graph (its `layout`) with their noise
    variances `sig2` and, per trial, their measurements `r` (T, 2|E|), one
    row per row of `meas.r_array`.  Agents are numbered by position in the
    sorted id list `ids`; `index` maps an id to its position."""

    def __init__(self, graph: Graph, meas: MeasurementSet):
        ids, self.src, self.dst, self.rev, self.indptr, pair = graph.layout
        self.ids = ids.tolist()
        self.index = {a: k for k, a in enumerate(self.ids)}
        self.n = len(self.ids)
        self.ref = self.index[graph.reference]
        rows = meas.rows_of(graph.edge_array)[pair]
        self.sig2 = meas.sigma2_array[rows]
        self._gather = meas, rows   # r's source, released once r is read
        self._bins = None   # of _agent_sums, made on first use

    @cached_property
    def r(self) -> np.ndarray:
        """Gathered on first read; np.take keeps r C-ordered, a fancy index would not."""
        meas, rows = self.__dict__.pop("_gather")
        return np.take(meas.r_array, rows, axis=1)

    def _agent_sums(self, values: np.ndarray) -> np.ndarray:
        """(T, n) per-agent sums of (T, 2|E|) edge values: one bincount over
        dst + t*n, which adds each agent's terms in CSR order (float even
        without edges, where bincount gives integers)."""
        if self._bins is None:
            self._bins = (self.dst + self.n * np.arange(len(self.r))[:, None]).ravel()
        sums = np.bincount(self._bins, values.ravel(), len(self.r) * self.n)
        return sums.reshape(len(self.r), self.n).astype(float, copy=False)


class EdgeEngine(DirectedEdges):
    """Round-engine state of a batch of trials: per trial, belief
    precision/mean per agent (T, n), and per directed edge j -> i the
    payload `edge_prec`/`edge_mean` (T, 2|E|) that receiver i holds.
    Payloads start flat and change only where a delivery lands, which keeps
    the update well-defined under packet loss.  An engine defines three
    hooks: `_payloads`, what every edge would carry now, `_absorb`, which
    recomputes the beliefs from the payloads held, and `_fresh`, a new
    engine of its kind and parameters on another graph.  The reference
    agent's belief is pinned.  Row k of every per-trial array belongs to trial `trials[k]`."""

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
        # the agents with a path to the reference: only their beliefs mean
        # anything, since nothing pins a cut-off component's means
        self.anchored = ~np.isin(self.ids, graph.unreachable_agents)

    def take(self, rows: np.ndarray) -> "EdgeEngine":
        """Keep only the trials at row positions `rows`, in that order."""
        for name in self._per_trial:
            setattr(self, name, getattr(self, name)[rows])
        self._bins = None
        return self

    def _set_beliefs(self, msg_prec: np.ndarray, msg_wm: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Every belief becomes the product of its incoming messages, given
        per edge as precision and precision-weighted mean; the reference
        stays pinned.  Returns the (T, n) sums of both: the precision sums
        are the new `prec`, the reference's pin included."""
        prec = self._agent_sums(msg_prec)
        wm = self._agent_sums(msg_wm)
        mean = np.divide(wm, prec, out=np.zeros_like(prec), where=prec > 0)
        prec[:, self.ref] = self.reference_precision
        mean[:, self.ref] = self.reference_value
        self.prec, self.mean = prec, mean
        return prec, wm

    def _deliver(self, arrived: np.ndarray | None) -> None:
        """Land the payloads where the (T, 2|E|) delivery mask lets them
        through (None: everywhere); elsewhere the held one stays."""
        out_prec, out_mean = self._payloads()
        if arrived is not None:
            out_prec = np.where(arrived, out_prec, self.edge_prec)
            out_mean = np.where(arrived, out_mean, self.edge_mean)
        self.edge_prec, self.edge_mean = out_prec, out_mean

    def sync_round(self, arrived: np.ndarray | None = None) -> None:
        """One synchronous round in every trial: deliver, then `_absorb`."""
        self._deliver(arrived)
        self._absorb()

    # -- state views --------------------------------------------------------

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, precisions), new (T, n) arrays by self.ids, in which an
        agent cut off from the reference has precision 0 and every flat
        agent's mean is NaN.  The engine still runs a cut-off agent, but
        what it holds anchors nothing."""
        prec = np.where(self.anchored, self.prec, 0.0)
        means = np.where(prec == 0.0, np.nan, self.mean)
        return means, prec

    def has_pending_information(self) -> np.ndarray:
        """Per trial: is some anchored agent's belief still flat?  Its path
        to the always-informative reference then holds a flat agent with an
        informative neighbour, whose next delivery carries information, so
        a zero-delta round in that state is start-up lag, not convergence."""
        return np.any((self.prec == 0.0) & self.anchored, axis=1)

    def estimates(self) -> dict[int, float | None]:
        means = self.snapshot()[0][0].tolist()
        return {a: (None if math.isnan(m) else m) for a, m in zip(self.ids, means)}

    def variances(self) -> dict[int, float]:
        prec = self.snapshot()[1][0].tolist()
        return {a: (1.0 / p if p > 0 else math.inf) for a, p in zip(self.ids, prec)}

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
    precision change) between two `snapshot`s, whose flat agents hold mean
    NaN and which the mean change skips.  An agent switching between flat
    and informative counts as an infinite mean change."""
    m0, p0 = prev
    m1, p1 = cur
    dmean = np.fmax.reduce(np.abs(m1 - m0), axis=-1, initial=0.0)
    dprec = np.max(np.abs(p1 - p0), axis=-1, initial=0.0)
    return np.where(np.any((p0 == 0) != (p1 == 0), axis=-1), math.inf, dmean), dprec


def iterate(engine: EdgeEngine, step: Callable[[EdgeEngine], None],
            max_rounds: int, mean_tol: float, prec_tol: float,
            changes: Sequence[tuple[int, Callable[[EdgeEngine], EdgeEngine]]] = ()
            ) -> tuple[EdgeEngine, list[int], list[int | None]]:
    """Run rounds `step(engine)` on the engine's live trials until each
    trial's beliefs settle or `max_rounds` rounds have run.

    `changes` are (k, change) pairs in order of k: after round k,
    `change(engine)` returns the engine to go on with.  Every k must be below
    max_rounds, so that every change fires (the simulator's timeline
    validation rejects any other stamp).  The stop rule runs only once no
    change is pending.  A trial
    stops at the first round that moved every mean by less than mean_tol
    and every precision by less than prec_tol, while no anchored agent is
    flat (a zero-delta round then is start-up lag, not convergence); its
    rows then leave the engine (the last trial's stay).  The rule compares
    the `snapshot`s before and after the round, so it watches only the
    agents with a path to the reference: a cut-off agent is flat in both
    and contributes nothing.  A non-finite belief after a round raises
    NumericError.

    Returns (engine, and per trial: rounds run, the round it stopped at or
    None).  A trial that never stopped ran all max_rounds rounds.
    """
    pending = list(changes)
    settled_at = np.zeros(len(engine.trials), int)   # 0: never stopped
    state = None   # the snapshot after the last round, once no change is pending
    for k in range(1, max_rounds + 1):
        while pending and pending[0][0] < k:
            engine = pending.pop(0)[1](engine)
        if state is None and not pending:
            state = engine.snapshot()
        step(engine)
        if not (np.isfinite(engine.prec).all() and np.isfinite(engine.mean).all()):
            raise NumericError(f"non-finite belief after round {k}")
        if pending:
            continue
        prev, state = state, engine.snapshot()
        dmean, dprec = step_delta(prev, state)
        stop = (dmean < mean_tol) & (dprec < prec_tol) & ~engine.has_pending_information()
        settled_at[engine.trials[stop]] = k
        if stop.all():
            break
        if stop.any():
            engine.take(~stop)
            state = tuple(a[~stop] for a in state)
    settled = settled_at.tolist()
    return engine, [s or max_rounds for s in settled], [s or None for s in settled]


# -- estimator front ends -----------------------------------------------------

@dataclass(kw_only=True, eq=False)
class MessagePassingEstimator:
    """Estimator-style front end for lossless runs on a static graph.

    The parameters are keyword-only fields.  fit() runs trial 0 of the
    measurement set until the per-round change falls below mean_tol/prec_tol
    or max_iter rounds have run, then exposes its estimates_ (dict id -> Hz,
    None where the agent is flat or has no path to the reference),
    variances_ (inf there), n_iter_ and converged_, all read off the
    engine's `snapshot`.  A subclass defines `_start(graph, measurements,
    reference_value)`, which returns a fresh engine and the round fit() runs.
    """

    max_iter: int = 1000
    mean_tol: float = DEFAULT_MEAN_TOL
    prec_tol: float = DEFAULT_PREC_TOL
    reference_precision: float = DEFAULT_REFERENCE_PRECISION

    def fit(self, graph: Graph, measurements: MeasurementSet,
            reference_value: float = 0.0) -> "MessagePassingEstimator":
        engine, step = self._start(graph, measurements, reference_value)
        engine, rounds, settled_at = iterate(
            engine.take([0]), step, self.max_iter, self.mean_tol, self.prec_tol)
        self.n_iter_, self.converged_ = rounds[0], settled_at[0] is not None
        self.estimates_ = engine.estimates()
        self.variances_ = engine.variances()
        return self
