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
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MetricError, NumericError


def avg_mse(estimates: dict[int, float | None], truth: dict[int, float],
            mse_normalization: float = 1.0) -> float:
    """Average of ((estimate - truth)/B)^2 over agents with an estimate.

    Agents whose estimate is None (flat belief) are excluded.  Raises
    MetricError when no agent has an estimate.
    """
    return mean_square_error(((v, truth[a]) for a, v in estimates.items()
                              if v is not None), mse_normalization)


def mean_square_error(pairs: Iterable[tuple[float, float]],
                      mse_normalization: float = 1.0) -> float:
    """Average of ((estimate - truth)/B)^2 over (estimate, truth) pairs,
    summed left to right; MetricError when there are none."""
    if mse_normalization <= 0:
        raise MetricError("mse_normalization must be > 0")
    errs = [((v - f) / mse_normalization) ** 2 for v, f in pairs]
    if not errs:
        raise MetricError("no agent holds an estimate; metric undefined")
    return sum(errs) / len(errs)


@dataclass
class IterationRow:
    """State after one iteration: per-agent estimate/variance (None while
    flat), the MSE over defined estimates, and message counters.  Counters
    are 'messages sent' in the algorithm's own unit: broadcasts for the
    linear-scaling variant, directed sends for per-edge BP."""

    iteration: int
    means: dict[int, float | None]
    variances: dict[int, float | None]
    avg_mse: float
    broadcasts: float = 0.0
    deliveries: float = 0.0
    drops: float = 0.0
    n_flat: int = 0
    unobservable: tuple[int, ...] = ()


@dataclass
class RunTrace:
    """Complete record of one experiment (trial-averaged when the config
    requests Monte-Carlo trials)."""

    rows: list[IterationRow] = field(default_factory=list)
    converged_at: int | None = None
    final_estimates: dict[int, float | None] = field(default_factory=dict)
    per_trial_converged_at: list[int | None] = field(default_factory=list)
    per_trial_final_mse: list[float] = field(default_factory=list)
    oracle: dict | None = None

    @property
    def final_mse(self) -> float:
        if not self.rows:
            raise MetricError("empty trace")
        return self.rows[-1].avg_mse


TRACE_COLUMNS = ("iteration", "agent", "mean", "variance", "avg_mse",
                 "broadcasts", "deliveries", "drops")


def _cells(values: list) -> list[str]:
    """The CSV cell of each value, in one pass: empty for None, a whole
    number below 1e15 without its fraction, anything else by repr; a
    non-finite value raises NumericError."""
    x = np.array(values, dtype=float)          # None -> nan
    if np.isinf(x).any() or np.count_nonzero(np.isnan(x)) != values.count(None):
        bad = next(v for v in values if v is not None and not math.isfinite(v))
        raise NumericError(f"non-finite value {bad!r} in the trace")
    whole = ((x == np.trunc(x)) & (np.abs(x) < 1e15)).tolist()
    return ["" if v is None else str(int(v)) if w else repr(v)
            for v, w in zip(values, whole)]


def trace_to_csv(trace: RunTrace) -> str:
    lines = [",".join(TRACE_COLUMNS)]
    for row in trace.rows:
        tail = ",".join([repr(float(row.avg_mse)), *_cells(
            [float(row.broadcasts), float(row.deliveries), float(row.drops)])])
        agents = sorted(row.means)
        means = _cells([row.means[a] for a in agents])
        variances = _cells([row.variances[a] for a in agents])
        lines.extend(f"{row.iteration},{a},{m},{v},{tail}"
                     for a, m, v in zip(agents, means, variances))
    return "\n".join(lines) + "\n"


def write_trace(trace: RunTrace, path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")


def summary_dict(trace: RunTrace) -> dict:
    out = {
        "final_estimates": {str(a): trace.final_estimates[a]
                            for a in sorted(trace.final_estimates)},
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
