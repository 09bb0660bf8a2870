"""Error metrics and run traces.

The headline metric is the normalized average mean-square error over agents
that currently hold an estimate: mean of ((estimate - truth)/B)^2 with a
configurable scale constant B.  Traces hold one record per iteration with
per-agent state, the metric, and message counters; they serialize to a CSV
whose floats round-trip exactly, plus a JSON summary.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MetricError, NumericError


def avg_mse(means: np.ndarray, prec: np.ndarray, truth: np.ndarray,
            mse_normalization: float) -> np.ndarray:
    """Per trial, the mean of ((estimate - truth)/B)^2 over the agents with
    precision > 0 in (T, n) `means`/`prec` against (n,) `truth`, summed
    pairwise; NaN for a trial without one.  An overflow raises
    FloatingPointError.  The simulator calls it by the name netsim imports,
    which the bench's tracer wraps."""
    known = prec > 0
    with np.errstate(over="raise"):
        err = np.where(known, (means - truth) / mse_normalization, 0.0)
        total = (err * err).sum(axis=1)
    count = np.count_nonzero(known, axis=1)
    return np.divide(total, count, out=np.full(len(count), np.nan), where=count > 0)


@dataclass
class IterationRow:
    """State after one iteration: `agents`, the topology's sorted ids, which
    every row of that topology shares; per-agent estimate and variance as
    (n,) float arrays aligned to `agents`, NaN while flat; the MSE over
    defined estimates; and message counters.  Counters are 'messages sent'
    in the algorithm's own unit: broadcasts for the linear-scaling variant,
    directed sends for per-edge BP."""

    iteration: int
    agents: Sequence[int]
    means: np.ndarray
    variances: np.ndarray
    avg_mse: float
    broadcasts: float = 0.0
    deliveries: float = 0.0
    drops: float = 0.0
    unobservable: tuple[int, ...] = ()


@dataclass
class RunTrace:
    """Complete record of one experiment (trial-averaged when the config
    requests Monte-Carlo trials).  converged_at is the max over trials of
    each trial's first convergence after its last timeline event, or None
    if any trial never converged."""

    rows: list[IterationRow] = field(default_factory=list)
    per_trial_converged_at: list[int | None] = field(default_factory=list)
    oracle: dict | None = None

    @property
    def converged_at(self) -> int | None:
        per_trial = self.per_trial_converged_at
        return None if None in per_trial else max(per_trial, default=None)

    @property
    def final_estimates(self) -> dict[int, float | None]:
        """The last row's means by agent, None where it has no estimate;
        a new dict on every read."""
        if not self.rows:
            return {}
        row = self.rows[-1]
        return {a: None if math.isnan(m) else m
                for a, m in zip(row.agents, row.means.tolist())}

    @property
    def final_mse(self) -> float:
        if not self.rows:
            raise MetricError("empty trace")
        return self.rows[-1].avg_mse


TRACE_COLUMNS = ("iteration", "agent", "mean", "variance", "avg_mse",
                 "broadcasts", "deliveries", "drops")


def _cells(values: np.ndarray | list[float]) -> list[str]:
    """The CSV cell of each value, in one pass: empty for NaN (no
    estimate), a whole number below 1e15 without its fraction, anything
    else by repr; an infinite value raises NumericError."""
    x = np.asarray(values, dtype=float)
    if np.isinf(x).any():
        raise NumericError(f"non-finite value {float(x[np.isinf(x)][0])!r} in the trace")
    whole = ((x == np.trunc(x)) & (np.abs(x) < 1e15)).tolist()
    return ["" if math.isnan(v) else str(int(v)) if w else repr(v)
            for v, w in zip(x.tolist(), whole)]


def _csv_blocks(trace: RunTrace) -> Iterator[str]:
    """The trace's CSV text: the header line, then one block of lines per
    row, so a writer holds one row's text at a time."""
    yield ",".join(TRACE_COLUMNS) + "\n"
    for row in trace.rows:
        if not len(row.agents):
            continue
        tail = ",".join([repr(float(row.avg_mse)), *_cells(
            [row.broadcasts, row.deliveries, row.drops])])
        cells = map(",".join, zip(map(str, row.agents), _cells(row.means),
                                  _cells(row.variances)))
        # an agent's line: the row's lead, the agent's three cells, the row's trail
        lead, trail = f"{row.iteration},", f",{tail}\n"
        yield lead + f"{trail}{lead}".join(cells) + trail


def trace_to_csv(trace: RunTrace) -> str:
    return "".join(_csv_blocks(trace))


def write_trace(trace: RunTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_csv_blocks(trace))


def summary_dict(trace: RunTrace) -> dict:
    out = {
        "final_estimates": {str(a): v for a, v in trace.final_estimates.items()},
        "converged_at": trace.converged_at,
        "diverged": False,   # kept for format compatibility; runs do not diverge
        "mse_avg": trace.final_mse if trace.rows else None,
        "iterations": trace.rows[-1].iteration if trace.rows else 0,
        "per_trial_converged_at": trace.per_trial_converged_at,
    }
    if trace.oracle is not None:
        out["rho_K"] = trace.oracle.get("rho_K")
        out["crlb_avg"] = trace.oracle.get("crlb_avg")
        out["wls_mean"] = {str(a): v for a, v in
                           sorted(trace.oracle.get("wls_mean", {}).items())}
        out["crlb"] = {str(a): v for a, v in
                       sorted(trace.oracle.get("crlb", {}).items())}
    return out


def write_summary(trace: RunTrace, path) -> None:
    text = json.dumps(summary_dict(trace), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")
