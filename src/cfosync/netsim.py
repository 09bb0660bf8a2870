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

Timeline semantics: an event stamped k < l_max fires after round k is
recorded, so it first shows in row k+1, and a joiner first broadcasts in
round k+1.  The events of one stamp are one topology change and one engine
rebuild; a leave changes only the graph: the measurements only grow.
The trials advance together through one engine with a leading trial axis,
each on its own streams, and run their rounds through `edges.iterate`, the
stop rule the estimator front ends use: a trial stops early once its
per-round change falls below the configured tolerances and no timeline
events remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .bp import BpEngine
from .config import (ExperimentConfig, TimelineEvent, join_radius, parse_sigma_overrides,
                     parse_timeline, parse_topology, validate_config)
from .edges import iterate
from .errors import ConfigError, NumericError, UnobservableError
from .graph import Graph
from .lsbp import BeliefInit, LsbpEngine, variance_fixed_point
from .metrics import IterationRow, RunTrace, avg_mse
from .model import (GroundTruth, MeasurementSet, draw_joiner_offset,
                    generate_measurements, generate_truth, sorted_lookup)
from . import oracle as oracle_mod

STREAM_TRUTH = 1
STREAM_NOISE = 2
STREAM_LOSS = 3
STREAM_SCHEDULE = 4


def validate_timeline(events: list[TimelineEvent], graph: Graph,
                      cfg: ExperimentConfig) -> list[Graph]:
    """The graph after each event, replayed so that bad leave targets fail
    before the run; an event stamped at or past l_max never fires, and fails too."""
    graphs = []
    for ev in events:
        if ev.iteration >= cfg.l_max:
            raise ConfigError(f"timeline event at iteration {ev.iteration} never fires: "
                              f"the run ends after round l_max={cfg.l_max}")
        if ev.kind == "leave":
            if ev.agent not in graph.agents:
                raise ConfigError(f"timeline removes unknown agent {ev.agent}")
            if ev.agent == graph.reference:
                raise ConfigError("timeline may not remove the reference agent")
            graph = graph.remove_agent(ev.agent)
        else:
            if graph.positions is None:
                raise ConfigError("timeline joins require a positioned topology")
            graph, _ = graph.add_agent(ev.position, join_radius(cfg))
        graphs.append(graph)
    return graphs


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


class _Batch:
    """The Monte-Carlo trials of one run, advanced together through one
    engine.  They share the graph and truth, which each timeline event
    changes once for all of them, and hold one row each of the measurements.
    Per trial: its loss and schedule streams and its latest state, which a
    trial that stopped early holds to the end: means and variances (T, n),
    aligned to the engine's ids and NaN while flat, and the scalars (4, T)
    mse, sends, deliveries, drops.  Each round appends one row, the
    average of that state over the trials."""

    def __init__(self, cfg: ExperimentConfig, graph: Graph, truth: GroundTruth,
                 overrides: dict[tuple[int, int], float]):
        self.cfg, self.graph, self.truth = cfg, graph, truth
        self.overrides = overrides
        self.meas = self._measure()
        self.loss_rngs, self.sched_rngs = (
            [np.random.default_rng([cfg.master_seed, stream, t]) for t in range(cfg.trials)]
            for stream in (STREAM_LOSS, STREAM_SCHEDULE))
        self.scalars = np.zeros((4, cfg.trials))
        self.rows: list[IterationRow] = []

    def _measure(self, *key: int, edges=None) -> MeasurementSet:
        """Every trial's measurements on the current graph (only on the
        (k, 2) `edges` if given), trial t's noise drawn from
        [master_seed, 2, t, *key]."""
        cfg = self.cfg
        return generate_measurements(
            self.graph, self.truth, cfg.sigma, sigma_overrides=self.overrides, edges=edges,
            seeds=[[cfg.master_seed, STREAM_NOISE, t, *key] for t in range(cfg.trials)])

    def run(self, events: list[TimelineEvent], graphs: list[Graph]) -> "_Batch":
        """Record the initial state as row 0, then run rounds through the
        events and the graph after each; sets rows and converged_at (per trial)."""
        cfg = self.cfg
        engine = _make_engine(cfg, self.graph, self.meas, self.truth)
        self._topology(engine)
        self._record(engine, MessageCounters(np.zeros((3, cfg.trials), int)))
        changes = [(k, partial(self._apply_events, list(steps))) for k, steps in
                   groupby(zip(events, graphs), key=lambda step: step[0].iteration)]
        _, _, self.converged_at = iterate(
            engine, self._round, cfg.l_max, cfg.mean_tol, cfg.prec_tol, changes)
        return self

    def _topology(self, engine) -> None:
        """What the rows of one topology share: the engine's sorted ids, the
        agents without a path to the reference and the true offsets, in id
        order; and fresh held means and variances, which the next record
        fills for every trial, since no trial stops before the last timeline
        event."""
        self.agents = tuple(engine.ids)
        self.unobservable = self.graph.unreachable_agents
        self.offsets = np.array([self.truth.offsets[a] for a in engine.ids])
        self.means, self.variances = np.empty((2, self.cfg.trials, engine.n))

    def _losses(self, engine) -> tuple[np.ndarray | None, ...]:
        """This round's (T, n) skips, (T, 2|E|) mask of the messages sent,
        and (T, 2|E|) delivery mask, the skips folded in (None: no agent
        skips, or every message arrives)."""
        cfg, rngs = self.cfg, [self.loss_rngs[t] for t in engine.trials.tolist()]
        skips = np.array([rng.random(engine.n) < cfg.skip_prob for rng in rngs]) \
            if cfg.skip_prob > 0 else None
        arrived = np.array([rng.random(len(engine.src)) < cfg.pdr for rng in rngs]) \
            if cfg.pdr < 1.0 else None
        sent = None
        if skips is not None:
            sent = ~skips[:, engine.src]
            arrived = sent if arrived is None else sent & arrived
        return skips, sent, arrived

    def _round(self, engine) -> None:
        """One lossy round of every live trial, recorded as their next rows."""
        cfg = self.cfg
        skips, sent, arrived = self._losses(engine)
        if cfg.schedule == "asynchronous":   # lsbp only, by validate_config
            engine.async_round([self.sched_rngs[t].permutation(engine.n)
                                for t in engine.trials.tolist()], arrived)
        else:
            engine.sync_round(arrived)
        self._record(engine, _count_messages(cfg, engine, skips, sent, arrived))

    def _record(self, engine, counters: MessageCounters) -> None:
        """Hold each live trial's state after a round, as the engine's
        `snapshot` shows it (an agent cut off from the reference is flat),
        and append the average over the trials as the next row."""
        means, prec = engine.snapshot()
        with np.errstate(divide="ignore"):
            variances = 1.0 / prec
        variances[np.isinf(variances)] = np.nan
        cfg = self.cfg
        try:
            mse = avg_mse(means, prec, self.offsets, cfg.mse_normalization)
        except FloatingPointError:
            raise NumericError(
                f"overflow computing the MSE (max_offset={cfg.max_offset!r}, "
                f"mse_normalization={cfg.mse_normalization!r})") from None
        live = engine.trials
        self.means[live], self.variances[live] = means, variances
        self.scalars[0, live], self.scalars[1:, live] = mse, counters.counts
        with np.errstate(over="raise"):   # a trial average beyond the float range
            # each scalar's trials are summed in order along a C-order row
            mse, sends, deliveries, drops = self.scalars.mean(axis=1).tolist()
            self.rows.append(IterationRow(
                iteration=len(self.rows),
                agents=self.agents,
                means=_trial_mean(self.means),
                variances=_trial_mean(self.variances),
                avg_mse=mse,
                broadcasts=sends,
                deliveries=deliveries,
                drops=drops,
                unobservable=self.unobservable,
            ))

    def _apply_events(self, steps: list[tuple[TimelineEvent, Graph]], engine):
        """One stamp's events in order, then one engine rebuild: each joiner's
        measurements (the only per-trial draw) are drawn on the graph right
        after its join, and a leave changes only the graph."""
        cfg = self.cfg
        for ev, graph in steps:
            self.graph = graph
            if ev.kind == "join":   # new_id, the largest id, ends each of its edges
                new_id, edges = graph.next_id - 1, graph.edge_array
                self.truth = self.truth.with_offset(new_id, draw_joiner_offset(
                    [cfg.master_seed, STREAM_TRUTH], new_id, cfg.max_offset))
                self.meas = self.meas.merged_with(self._measure(
                    new_id, edges=edges[edges[:, 1] == new_id]))
        engine = engine.rebuilt(self.graph, self.meas)
        self._topology(engine)
        return engine


def _count_messages(cfg: ExperimentConfig, engine, skips: np.ndarray | None,
                    sent: np.ndarray | None, arrived: np.ndarray | None) -> MessageCounters:
    """Every live trial's round, from `_losses`' (T, n) skips and (T, 2|E|)
    sent and delivery masks (None: no agent skips, or every message arrives)."""
    t = len(engine.trials)
    intended = np.full(t, len(engine.src)) if sent is None else \
        np.count_nonzero(sent, axis=1)
    delivered = intended if arrived is None else np.count_nonzero(arrived, axis=1)
    sends = intended if cfg.algorithm == "bp" else \
        np.full(t, engine.n) if skips is None else np.count_nonzero(~skips, axis=1)
    return MessageCounters(np.stack([sends, delivered, intended - delivered]))


def _trial_mean(values: np.ndarray) -> np.ndarray:
    """Per agent, the mean over trials of its column of (T, n) `values`.
    An agent flat (NaN) in some trials averages its informative trials
    only, and is NaN when flat in all.  The trials are transposed to a
    C-order (agents, trials) copy so that each agent's values are summed as
    np.mean sums a list; an axis-0 mean would not be."""
    stack = values.T.copy()
    out = stack.mean(axis=1)
    known = ~np.isnan(stack)
    count = np.count_nonzero(known, axis=1)
    partly = np.flatnonzero((count > 0) & (count < stack.shape[1]))
    # the partly-flat agents with c informative trials: one C-order (k, c) mean
    for c in set(count[partly].tolist()):
        rows = partly[count[partly] == c]
        out[rows] = stack[rows][known[rows]].reshape(len(rows), c).mean(axis=1)
    return out


def _attach_oracle(trace: RunTrace, batch: _Batch, cfg: ExperimentConfig) -> None:
    """WLS means over the trials, CRLB and rho_K on the final topology: the
    three systems read the final graph's directed-edge layout, which the
    engine has already laid out, and one linear system's normal matrix is
    solved once for every trial and inverted once for the CRLB.  Arithmetic
    beyond the float range, or a value that is not finite, raises
    NumericError."""
    graph, truth, meas = batch.graph, batch.truth, batch.meas
    try:
        with np.errstate(over="raise", invalid="raise"):
            pstar = variance_fixed_point(graph, meas, cfg.reference_precision)
            system = oracle_mod.build_linear_system(graph, meas, truth.reference_value)
            fps = oracle_mod.build_fixed_point_system(
                graph, meas, pstar, truth.reference_value, cfg.reference_precision)
            oracle = {
                "rho_K": oracle_mod.spectral_radius(fps.K),
                "crlb": oracle_mod.crlb(system),
                "crlb_avg": oracle_mod.avg_crlb(system, cfg.mse_normalization),
                "wls_mean": {a: float(np.mean(v))
                             for a, v in oracle_mod.wls_solve(system).items()},
            }
    except FloatingPointError as exc:
        raise NumericError(f"{exc} in the oracle") from None
    values = [oracle["rho_K"], oracle["crlb_avg"], *oracle["crlb"].values(),
              *oracle["wls_mean"].values()]
    if not np.isfinite(values).all():
        raise NumericError("non-finite oracle value")
    trace.oracle = oracle


def _check_topologies(cfg: ExperimentConfig, overrides: dict[tuple[int, int], float],
                      topologies: list[Graph]) -> None:
    """Before round 1: every sigma override names an edge of some topology
    of the run (an id past every agent's becomes next_id, which no edge
    holds), and the oracle's final topology has an unknown besides the
    reference and anchors every agent."""
    final = topologies[-1]
    named = np.array([[min(a, final.next_id) for a in edge] for edge in overrides],
                     dtype=np.intp).reshape(-1, 2)
    found = np.any([sorted_lookup(g.edge_array, named)[1] for g in topologies], axis=0)
    if not found.all():
        raise ConfigError(f"sigma override for non-edge {list(overrides)[np.argmin(found)]}")
    if cfg.oracle and len(final.agents) < 2:
        raise ConfigError("the oracle needs an agent besides the reference")
    if cfg.oracle and final.unreachable_agents:
        raise UnobservableError(final.unreachable_agents)


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
    graphs = validate_timeline(events, graph, cfg)
    overrides = parse_sigma_overrides(cfg.sigma_overrides)
    _check_topologies(cfg, overrides, [graph, *graphs])
    truth = generate_truth(graph, cfg.max_offset,
                           seed=[cfg.master_seed, STREAM_TRUTH, 0])
    batch = _Batch(cfg, graph, truth, overrides).run(events, graphs)
    trace = RunTrace(rows=batch.rows, per_trial_converged_at=batch.converged_at)
    if cfg.oracle:
        _attach_oracle(trace, batch, cfg)
    return trace
