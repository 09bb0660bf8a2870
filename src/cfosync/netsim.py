"""Experiment orchestration: packet loss, dynamic topology, Monte-Carlo trials.

Every source of randomness flows through a named, seeded stream derived from
the master seed, so whole experiments are bit-reproducible:

    truth     [master_seed, 1]        shared by all trials
    noise     [master_seed, 2, trial] measurement noise, redrawn per trial
    loss      [master_seed, 3, trial] packet delivery and broadcast skips
    schedule  [master_seed, 4, trial] asynchronous update order
    joiners   [master_seed, 1, id]    true offset of an agent joining mid-run

Timeline semantics: an event stamped k fires at the boundary after round k
has been recorded, so its first visible effect is in row k+1.  A joining
agent broadcasts for the first time in round k+1.  Each trial runs its
rounds through `edges.iterate`, the stop rule the estimator front ends use:
it stops early once the per-round change falls below the configured
tolerances and no timeline events remain.
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
from .lsbp import BeliefInit, LsbpEngine
from .metrics import IterationRow, MetricError, RunTrace, avg_mse
from .model import (GroundTruth, MeasurementSet, draw_joiner_offset,
                    generate_measurements, generate_truth)
from . import oracle as oracle_mod
from .lsbp import variance_fixed_point

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
            join_radius(cfg)  # raises if unavailable
            sim, _ = sim.add_agent(ev.position, join_radius(cfg))


@dataclass
class MessageCounters:
    """One round's messages: `sends` in the algorithm's own unit (broadcasts
    for lsbp, directed sends for bp), and the directed deliveries and drops
    of the messages sent."""

    sends: int = 0
    deliveries: int = 0
    drops: int = 0


def _make_engine(cfg: ExperimentConfig, graph: Graph, meas: MeasurementSet,
                 truth: GroundTruth):
    if cfg.algorithm == "lsbp":
        init = BeliefInit(mode=cfg.init_mode, variance=cfg.init_variance,
                          mean=cfg.init_mean)
        return LsbpEngine(graph, meas, init, truth.reference_value,
                          cfg.reference_precision)
    return BpEngine(graph, meas, truth.reference_value, cfg.reference_precision)


def _isolated(engine) -> tuple[int, ...]:
    """Non-reference agents without a neighbor, in id order."""
    alone = np.flatnonzero(np.diff(engine.indptr) == 0)
    return tuple(engine.ids[k] for k in alone if k != engine.ref)


def draw_losses(rng: np.random.Generator, n: int, pdr: float, skip_prob: float
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One round's (skip, delivered): with probability skip_prob an agent
    skips its broadcast (a one-round staleness; the cache makes a delayed
    message equivalent to drop-then-deliver), and each (receiver, sender)
    pair is an independent Bernoulli(pdr) delivery.  None means no agent
    skips, or every message arrives."""
    skip = rng.random(n) < skip_prob if skip_prob > 0 else None
    delivered = rng.random((n, n)) < pdr if pdr < 1.0 else None
    return skip, delivered


class _Trial:
    """One Monte-Carlo trial: its graph, truth and measurements as the
    timeline changes them, and per round a record (ids, isolated, means,
    variances, scalars).  means and variances align to the engine's ids and
    are NaN while flat; scalars are (mse, sends, deliveries, drops, n_flat);
    ids and isolated are shared by the rounds of one topology."""

    def __init__(self, cfg: ExperimentConfig, graph: Graph, truth: GroundTruth,
                 trial: int):
        self.cfg, self.graph, self.truth, self.trial = cfg, graph, truth, trial
        self.meas = generate_measurements(
            graph, truth, cfg.sigma, seed=[cfg.master_seed, STREAM_NOISE, trial],
            sigma_overrides=parse_sigma_overrides(cfg.sigma_overrides))
        self.loss_rng = np.random.default_rng([cfg.master_seed, STREAM_LOSS, trial])
        self.sched_rng = np.random.default_rng([cfg.master_seed, STREAM_SCHEDULE, trial])

    def run(self, events: list[TimelineEvent]) -> "_Trial":
        """Record the initial state as row 0, then run rounds through the
        timeline; sets rows, converged_at and diverged."""
        cfg = self.cfg
        engine = _make_engine(cfg, self.graph, self.meas, self.truth)
        self.isolated = _isolated(engine)
        self.rows: list[tuple] = []
        self._record(engine, MessageCounters())
        changes = [(ev.iteration, partial(self._apply_event, ev)) for ev in events]
        engine, _, self.converged_at = iterate(
            engine, self._round, cfg.l_max, cfg.mean_tol, cfg.prec_tol, changes)
        self.diverged = engine.diverged
        return self

    def _round(self, engine) -> None:
        """One lossy round, recorded as the next row."""
        cfg = self.cfg
        skip, delivered = draw_losses(self.loss_rng, engine.n, cfg.pdr, cfg.skip_prob)
        if cfg.schedule == "asynchronous":   # lsbp only, by validate_config
            engine.async_round(self.sched_rng.permutation(engine.n), delivered, skip)
        else:
            engine.sync_round(delivered, skip)
        self._record(engine, _count_messages(cfg, engine, delivered, skip))

    def _record(self, engine, counters: MessageCounters) -> None:
        """Append the engine's state after a round as the next record."""
        means, prec = engine.snapshot()
        with np.errstate(divide="ignore"):
            variances = 1.0 / prec
        variances[np.isinf(variances)] = np.nan
        cfg = self.cfg
        try:
            mse = avg_mse(engine.estimates(), self.truth.offsets, cfg.mse_normalization)
        except MetricError:
            mse = float("nan")
        except OverflowError:    # Python's float ** raises where numpy gives inf
            raise NumericError(
                f"overflow computing the MSE (max_offset={cfg.max_offset!r}, "
                f"mse_normalization={cfg.mse_normalization!r})") from None
        n_flat = int(np.count_nonzero(np.isnan(means)))
        self.rows.append((engine.ids, self.isolated, means, variances, (
            mse, counters.sends, counters.deliveries, counters.drops, n_flat)))

    def _apply_event(self, ev: TimelineEvent, engine):
        cfg = self.cfg
        if ev.kind == "leave":
            self.graph = self.graph.remove_agent(ev.agent)
            self.meas = self.meas.without_agent(ev.agent)
        else:
            self.graph, new_id = self.graph.add_agent(ev.position, join_radius(cfg))
            self.truth = self.truth.with_offset(
                new_id, draw_joiner_offset([cfg.master_seed, STREAM_TRUTH], new_id,
                                           cfg.max_offset))
            new_edges = [e for e in self.graph.edges if new_id in e]
            fresh = generate_measurements(
                self.graph, self.truth, cfg.sigma,
                seed=[cfg.master_seed, STREAM_NOISE, self.trial, new_id],
                sigma_overrides=parse_sigma_overrides(cfg.sigma_overrides),
                edges=new_edges)
            self.meas = self.meas.merged_with(fresh)
        engine = engine.rebuilt(self.graph, self.meas)
        self.isolated = _isolated(engine)
        return engine


def _count_messages(cfg: ExperimentConfig, engine, delivered, skip) -> MessageCounters:
    intended = len(engine.src) if skip is None else int((~skip[engine.src]).sum())
    arrived = engine.delivery_mask(delivered, skip)
    n_delivered = intended if arrived is None else int(arrived.sum())
    if cfg.algorithm == "lsbp":
        sends = engine.n if skip is None else int((~skip).sum())
    else:
        sends = intended
    return MessageCounters(sends=sends, deliveries=n_delivered,
                           drops=intended - n_delivered)


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


def _aggregate(trials: list[_Trial], cfg: ExperimentConfig) -> RunTrace:
    horizon = max(len(t.rows) for t in trials)
    rows = []
    for l in range(horizon):
        # trials share row l's topology: a trial stops early only after its last event
        ids, isolated, means, variances, scalars = zip(
            *(t.rows[min(l, len(t.rows) - 1)] for t in trials))
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
    per_conv = [t.converged_at for t in trials]
    converged_at = None if any(c is None for c in per_conv) else max(per_conv)
    return RunTrace(
        rows=rows,
        converged_at=converged_at,
        diverged=any(t.diverged for t in trials),
        final_estimates=rows[-1].means if rows else {},
        per_trial_converged_at=per_conv,
        per_trial_final_mse=[t.rows[-1][4][0] for t in trials],  # scalars[0]: mse
    )


def _attach_oracle(trace: RunTrace, trials: list[_Trial],
                   cfg: ExperimentConfig) -> None:
    final_graph = trials[0].graph
    truth = trials[0].truth
    pstar = variance_fixed_point(final_graph, trials[0].meas,
                                 cfg.reference_precision)
    wls_acc: dict[int, list[float]] = {}
    for t in trials:
        sys = oracle_mod.build_linear_system(t.graph, t.meas,
                                             truth.reference_value)
        for a, v in oracle_mod.wls_solve(sys).items():
            wls_acc.setdefault(a, []).append(v)
    sys0 = oracle_mod.build_linear_system(final_graph, trials[0].meas,
                                          truth.reference_value)
    fps = oracle_mod.build_fixed_point_system(
        final_graph, trials[0].meas, pstar, truth.reference_value,
        cfg.reference_precision)
    trace.oracle = {
        "rho_K": oracle_mod.spectral_radius(fps.K),
        "crlb": oracle_mod.crlb(sys0),
        "crlb_avg": oracle_mod.avg_crlb(sys0, cfg.mse_normalization),
        "wls_mean": {a: float(np.mean(vs)) for a, vs in sorted(wls_acc.items())},
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
    trials = [_Trial(cfg, graph, truth, t).run(events) for t in range(cfg.trials)]
    trace = _aggregate(trials, cfg)
    if cfg.oracle:
        _attach_oracle(trace, trials, cfg)
    return trace
