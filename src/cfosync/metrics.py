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
    """The CSV cell of each value: empty for NaN (no estimate), a whole
    number below 1e15 without its fraction, anything else by repr; an
    infinite value raises NumericError.  One orjson call prints the whole
    column with repr's shortest round-trip digits and NaN as null; only the
    cells whose notation differs from repr's are rewritten one by one: the
    whole numbers, and the values below 1e-4 or from 1e16 up, which repr
    writes with an exponent."""
    import orjson   # here, not at module level: a run's set-up never writes
    x = np.ascontiguousarray(values, dtype=float)
    if np.isinf(x).any():
        raise NumericError(f"non-finite value {float(x[np.isinf(x)][0])!r} in the trace")
    if not len(x):
        return []
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].replace(b"null", b"").decode().split(",")
    mag = np.abs(x)
    whole = (x == np.trunc(x)) & (mag < 1e15)
    for k in np.flatnonzero(whole | (mag < 1e-4) | (mag >= 1e16)).tolist():
        v = float(x[k])
        cells[k] = str(int(v)) if whole[k] else repr(v)
    return cells


def _csv_blocks(trace: RunTrace) -> Iterator[str]:
    """The trace's CSV text: the header line, then one block of lines per
    row, so a writer holds one row's text at a time."""
    yield ",".join(TRACE_COLUMNS) + "\n"
    agents = None
    for row in trace.rows:
        n = len(row.agents)
        if not n:
            continue
        if row.agents is not agents:   # the rows of one topology share their ids
            agents, names = row.agents, [f"{a}," for a in row.agents]
        tail = ",".join([repr(float(row.avg_mse)), *_cells(
            [row.broadcasts, row.deliveries, row.drops])])
        # an agent's line: the row's lead, the agent's id and two cells, the
        # row's trail; the pieces of all n lines are joined in one call
        lead, trail = f"{row.iteration},", f",{tail}\n"
        pieces = [","] * (5 * n)
        pieces[0::5] = names
        pieces[1::5] = _cells(row.means)
        pieces[3::5] = _cells(row.variances)
        pieces[4::5] = [trail + lead] * n
        pieces[-1] = trail
        yield lead + "".join(pieces)


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
