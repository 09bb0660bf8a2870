"""Experiment orchestration: packet loss, dynamic topology, Monte-Carlo trials.

Every source of randomness flows through a named, seeded stream derived from
the master seed, so whole experiments are bit-reproducible:

    truth     [master_seed, 1]        shared by all trials
    noise     [master_seed, 2, trial] measurement noise, redrawn per trial
    loss      [master_seed, 3, trial] packet delivery and broadcast skips
    schedule  [master_seed, 4, trial] asynchronous update order
    joiners   [master_seed, 1, id]    true offset of an agent joining mid-run

Per round, a live trial's loss stream draws n uniforms if skip_prob > 0 (an
agent below skip_prob skips its broadcast, which its neighbors' caches turn
into a one-round delay), then 2|E| if pdr < 1, one per directed edge in the
engine's CSR order (a message below pdr arrives): O(|E|) draws a round.

Timeline semantics: an event stamped k fires at the boundary after round k
has been recorded, so its first visible effect is in row k+1.  A joining
agent broadcasts for the first time in round k+1.  The trials advance
together through one engine with a leading trial axis, each on its own
streams, and run their rounds through `edges.iterate`, the stop rule the
estimator front ends use: a trial stops early once its per-round change
falls below the configured tolerances and no timeline events remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bp import BpEngine
from .config import (ExperimentConfig, join_radius, parse_sigma_overrides,
                     parse_topology, validate_config)
from .edges import iterate
from .errors import ConfigError, NumericError
from .graph import Graph
from .lsbp import BeliefInit, LsbpEngine, variance_fixed_point
from .metrics import IterationRow, RunTrace
from .model import (GroundTruth, MeasurementSet, draw_joiner_offset,
                    generate_measurements, generate_truth)
from . import oracle as oracle_mod

STREAM_TRUTH = 1
STREAM_NOISE = 2
STREAM_LOSS = 3
STREAM_SCHEDULE = 4


@dataclass(frozen=True)
class TimelineEvent:
    iteration: int
    kind: str                       # "leave" | "join"
    agent: int | None = None        # leave target
    position: tuple[float, float] | None = None  # join placement


def parse_timeline(text: str) -> list[TimelineEvent]:
    events = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"bad timeline entry {part!r}")
        when, kind, payload = pieces
        try:
            iteration = int(when)
        except ValueError:
            raise ConfigError(f"bad timeline iteration {when!r}")
        if iteration < 0:
            raise ConfigError(f"timeline iteration must be >= 0: {part!r}")
        if kind == "leave":
            try:
                events.append(TimelineEvent(iteration, "leave", agent=int(payload)))
            except ValueError:
                raise ConfigError(f"bad leave target {payload!r}")
        elif kind == "join":
            try:
                x, y = (float(s) for s in payload.split(","))
            except ValueError:
                raise ConfigError(f"bad join position {payload!r}")
            events.append(TimelineEvent(iteration, "join", position=(x, y)))
        else:
            raise ConfigError(f"unknown timeline event kind {kind!r}")
    if any(b.iteration < a.iteration for a, b in zip(events, events[1:])):
        raise ConfigError("timeline iterations must be non-decreasing")
    return events


def validate_timeline(events: list[TimelineEvent], graph: Graph,
                      cfg: ExperimentConfig) -> None:
    """Replay the id evolution so bad leave targets fail before the run."""
    sim = graph
    for ev in events:
        if ev.kind == "leave":
            if ev.agent not in sim.agents:
                raise ConfigError(f"timeline removes unknown agent {ev.agent}")
            if ev.agent == sim.reference:
                raise ConfigError("timeline may not remove the reference agent")
            sim = sim.remove_agent(ev.agent)
        else:
            if sim.positions is None:
                raise ConfigError("timeline joins require a positioned topology")
            sim, _ = sim.add_agent(ev.position, join_radius(cfg))


@dataclass(frozen=True)
class MessageCounters:
    """One round's messages in each live trial, a (3, T) integer array of
    rows sends, deliveries and drops: sends in the algorithm's own unit
    (broadcasts for lsbp, directed sends for bp), deliveries and drops of
    the directed messages sent.  The named totals sum over the trials."""

    counts: np.ndarray

    sends = property(lambda self: int(self.counts[0].sum()))
    deliveries = property(lambda self: int(self.counts[1].sum()))
    drops = property(lambda self: int(self.counts[2].sum()))


def _make_engine(cfg: ExperimentConfig, graph: Graph, meas: MeasurementSet,
                 truth: GroundTruth):
    if cfg.algorithm == "lsbp":
        init = BeliefInit(mode=cfg.init_mode, variance=cfg.init_variance,
                          mean=cfg.init_mean)
        return LsbpEngine(graph, meas, init, truth.reference_value,
                          cfg.reference_precision)
    return BpEngine(graph, meas, truth.reference_value, cfg.reference_precision)


def avg_mse(means: np.ndarray, prec: np.ndarray, truth: np.ndarray,
            mse_normalization: float) -> np.ndarray:
    """metrics.mean_square_error of each trial's agents with precision > 0
    in (T, n) `means`/`prec`, summed pairwise; NaN for a trial without one.
    An overflow raises FloatingPointError.  The bench's tracer wraps it."""
    known = prec > 0
    with np.errstate(over="raise"):
        err = np.where(known, (means - truth) / mse_normalization, 0.0)
        total = (err * err).sum(axis=1)
    count = np.count_nonzero(known, axis=1)
    return np.divide(total, count, out=np.full(len(count), np.nan), where=count > 0)


class _Batch:
    """The Monte-Carlo trials of one run, advanced together through one
    engine.  They share the graph and truth, which each timeline event
    changes once for all of them, and hold one row each of the measurements.
    Per trial: its loss and schedule streams, and per round a record (ids,
    isolated, means, variances, scalars).  means and variances align to the
    engine's ids and are NaN while flat; scalars are (mse, sends,
    deliveries, drops, n_flat); ids and isolated are shared by the rounds of
    one topology."""

    def __init__(self, cfg: ExperimentConfig, graph: Graph, truth: GroundTruth):
        self.cfg, self.graph, self.truth = cfg, graph, truth
        self.meas = self._measure()
        self.loss_rngs, self.sched_rngs = (
            [np.random.default_rng([cfg.master_seed, stream, t]) for t in range(cfg.trials)]
            for stream in (STREAM_LOSS, STREAM_SCHEDULE))
        self.rows: list[list[tuple]] = [[] for _ in range(cfg.trials)]

    def _measure(self, *key: int, edges=None) -> MeasurementSet:
        """Every trial's measurements on the current graph (only on `edges`
        if given), trial t's noise drawn from [master_seed, 2, t, *key]."""
        cfg = self.cfg
        return MeasurementSet.stacked([generate_measurements(
            self.graph, self.truth, cfg.sigma, seed=[cfg.master_seed, STREAM_NOISE, t, *key],
            sigma_overrides=parse_sigma_overrides(cfg.sigma_overrides), edges=edges)
            for t in range(cfg.trials)])

    def run(self, events: list[TimelineEvent]) -> "_Batch":
        """Record the initial state as row 0, then run rounds through the
        timeline; sets rows and converged_at (per trial)."""
        cfg = self.cfg
        engine = _make_engine(cfg, self.graph, self.meas, self.truth)
        self._topology(engine)
        self._record(engine, MessageCounters(np.zeros((3, cfg.trials), int)))
        changes = [(ev.iteration, partial(self._apply_event, ev)) for ev in events]
        _, _, self.converged_at = iterate(
            engine, self._round, cfg.l_max, cfg.mean_tol, cfg.prec_tol, changes)
        return self

    def _topology(self, engine) -> None:
        """What the records of one topology share: the non-reference agents
        without a neighbor and the true offsets, in the engine's id order."""
        alone = np.flatnonzero(np.diff(engine.indptr) == 0)
        self.isolated = tuple(engine.ids[k] for k in alone if k != engine.ref)
        self.offsets = np.array([self.truth.offsets[a] for a in engine.ids])

    def _losses(self, engine) -> tuple[np.ndarray | None, np.ndarray | None]:
        """This round's (T, n) skips and (T, 2|E|) delivery mask, the skips
        folded in (None: no agent skips, or every message arrives)."""
        cfg, rngs = self.cfg, [self.loss_rngs[t] for t in engine.trials.tolist()]
        skips = np.array([rng.random(engine.n) < cfg.skip_prob for rng in rngs]) \
            if cfg.skip_prob > 0 else None
        arrived = np.array([rng.random(len(engine.src)) < cfg.pdr for rng in rngs]) \
            if cfg.pdr < 1.0 else None
        if skips is not None:
            sent = ~skips[:, engine.src]
            arrived = sent if arrived is None else sent & arrived
        return skips, arrived

    def _round(self, engine) -> None:
        """One lossy round of every live trial, recorded as their next rows."""
        cfg = self.cfg
        skips, arrived = self._losses(engine)
        if cfg.schedule == "asynchronous":   # lsbp only, by validate_config
            engine.async_round([self.sched_rngs[t].permutation(engine.n)
                                for t in engine.trials.tolist()], arrived)
        else:
            engine.sync_round(arrived)
        self._record(engine, _count_messages(cfg, engine, skips, arrived))

    def _record(self, engine, counters: MessageCounters) -> None:
        """Append each live trial's state after a round as its next record."""
        means, prec = engine.snapshot()
        with np.errstate(divide="ignore"):
            variances = 1.0 / prec
        variances[np.isinf(variances)] = np.nan
        n_flat = np.count_nonzero(np.isnan(means), axis=1).tolist()
        cfg = self.cfg
        try:
            mse = avg_mse(means, prec, self.offsets, cfg.mse_normalization).tolist()
        except FloatingPointError:
            raise NumericError(
                f"overflow computing the MSE (max_offset={cfg.max_offset!r}, "
                f"mse_normalization={cfg.mse_normalization!r})") from None
        sends, deliveries, drops = counters.counts.tolist()
        for row, t in enumerate(engine.trials.tolist()):
            self.rows[t].append((engine.ids, self.isolated, means[row], variances[row], (
                mse[row], sends[row], deliveries[row], drops[row], n_flat[row])))

    def _apply_event(self, ev: TimelineEvent, engine):
        """Apply one timeline event to the shared topology and to every
        trial's measurements; only the joiner's draw is per trial."""
        cfg = self.cfg
        if ev.kind == "leave":
            self.graph = self.graph.remove_agent(ev.agent)
            self.meas = self.meas.without_agent(ev.agent)
        else:
            self.graph, new_id = self.graph.add_agent(ev.position, join_radius(cfg))
            self.truth = self.truth.with_offset(
                new_id, draw_joiner_offset([cfg.master_seed, STREAM_TRUTH], new_id,
                                           cfg.max_offset))
            self.meas = self.meas.merged_with(self._measure(
                new_id, edges=[e for e in self.graph.edges if new_id in e]))
        engine = engine.rebuilt(self.graph, self.meas)
        self._topology(engine)
        return engine


def _count_messages(cfg: ExperimentConfig, engine, skips: np.ndarray | None,
                    arrived: np.ndarray | None) -> MessageCounters:
    """Every live trial's round, from the (T, n) skips and the (T, 2|E|)
    delivery mask (None: no agent skips, or every message arrives)."""
    t = len(engine.trials)
    intended = np.full(t, len(engine.src)) if skips is None else \
        np.count_nonzero(~skips[:, engine.src], axis=1)
    delivered = intended if arrived is None else np.count_nonzero(arrived, axis=1)
    sends = intended if cfg.algorithm == "bp" else \
        np.full(t, engine.n) if skips is None else np.count_nonzero(~skips, axis=1)
    return MessageCounters(np.stack([sends, delivered, intended - delivered]))


def _trial_mean(ids: list[int], arrays: list[np.ndarray]) -> dict[int, float | None]:
    """Per agent, the mean over trials of its entries in `arrays` (one array
    per trial, aligned to `ids`).  An agent flat (NaN) in some trials
    averages its informative trials only, and is None when flat in all.
    The trials are stacked as (agents, trials) so that each agent's values
    are summed as np.mean sums a list; an axis-0 mean would not be."""
    stack = np.stack(arrays, axis=1)
    out = stack.mean(axis=1)
    flat = np.isnan(stack)
    for a in np.flatnonzero(flat.any(axis=1) & ~flat.all(axis=1)):
        out[a] = np.mean(stack[a][~flat[a]])
    return {a: (None if math.isnan(v) else v) for a, v in zip(ids, out.tolist())}


def _aggregate(batch: _Batch, cfg: ExperimentConfig) -> RunTrace:
    horizon = max(len(rows) for rows in batch.rows)
    rows = []
    for l in range(horizon):
        # trials share row l's topology: a trial stops early only after its last event
        ids, isolated, means, variances, scalars = zip(
            *(trial[min(l, len(trial) - 1)] for trial in batch.rows))
        # (5, trials) in C order, so each scalar's trials are summed in order
        scalars = np.array(scalars, dtype=float).T.copy()
        mse, sends, deliveries, drops, n_flat = scalars.mean(axis=1).tolist()
        rows.append(IterationRow(
            iteration=l,
            means=_trial_mean(ids[0], means),
            variances=_trial_mean(ids[0], variances),
            avg_mse=mse,
            broadcasts=sends,
            deliveries=deliveries,
            drops=drops,
            n_flat=int(round(n_flat)),
            unobservable=isolated[0],
        ))
    per_conv = batch.converged_at
    converged_at = None if any(c is None for c in per_conv) else max(per_conv)
    return RunTrace(
        rows=rows,
        converged_at=converged_at,
        final_estimates=rows[-1].means if rows else {},
        per_trial_converged_at=per_conv,
        per_trial_final_mse=[trial[-1][4][0] for trial in batch.rows],  # scalars[0]: mse
    )


def _attach_oracle(trace: RunTrace, batch: _Batch, cfg: ExperimentConfig) -> None:
    """WLS means over the trials, CRLB and rho_K on the final topology: one
    linear system, whose normal matrix is solved once for every trial and
    inverted once for the CRLB."""
    graph, truth, meas = batch.graph, batch.truth, batch.meas
    if len(graph.agents) < 2:
        raise ConfigError("the oracle needs an agent besides the reference")
    pstar = variance_fixed_point(graph, meas, cfg.reference_precision)
    system = oracle_mod.build_linear_system(graph, meas, truth.reference_value)
    fps = oracle_mod.build_fixed_point_system(graph, meas, pstar, truth.reference_value,
                                              cfg.reference_precision)
    trace.oracle = {
        "rho_K": oracle_mod.spectral_radius(fps.K),
        "crlb": oracle_mod.crlb(system),
        "crlb_avg": oracle_mod.avg_crlb(system, cfg.mse_normalization),
        "wls_mean": {a: float(np.mean(v)) for a, v in oracle_mod.wls_solve(system).items()},
    }


def run_experiment(cfg: ExperimentConfig) -> RunTrace:
    """Run the configured experiment across its Monte-Carlo trials.

    Trials share the topology and true offsets; noise, loss, and schedule
    streams are trial-indexed.  Rows are averaged across trials (a trial
    that stopped early holds its final state).  The reported converged_at
    is the max over trials of each trial's first convergence after its last
    timeline event, or None if any trial never converged.
    """
    validate_config(cfg)
    graph = parse_topology(cfg)
    events = parse_timeline(cfg.timeline)
    validate_timeline(events, graph, cfg)
    overrides = parse_sigma_overrides(cfg.sigma_overrides)
    for edge in overrides:
        if edge not in graph.edges:
            raise ConfigError(f"sigma override for non-edge {edge}")
    truth = generate_truth(graph, cfg.max_offset,
                           seed=[cfg.master_seed, STREAM_TRUTH, 0])
    batch = _Batch(cfg, graph, truth).run(events)
    with np.errstate(over="raise"):   # a trial average beyond the float range
        trace = _aggregate(batch, cfg)
    if cfg.oracle:
        _attach_oracle(trace, batch, cfg)
    return trace
