import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cfosync import ExperimentConfig, avg_mse, run_experiment
from cfosync.errors import MetricError, NumericError
from cfosync.metrics import (TRACE_COLUMNS, IterationRow, RunTrace, _cells, summary_dict,
                             trace_to_csv, write_trace)

from helpers import mean_square_error, read_trace_csv, scalar_cells


def _state(estimates: list[list[float | None]]) -> tuple[np.ndarray, np.ndarray]:
    """(T, n) means and precisions of per-trial estimates, None for flat,
    as EdgeEngine.snapshot gives them."""
    means = np.array(estimates, dtype=float)
    return means, np.where(np.isnan(means), 0.0, 1.0)


def test_avg_mse_perfect_estimates():
    truth = np.array([3.0, -1.0])
    assert avg_mse(*_state([[3.0, -1.0]]), truth, 1.0).tolist() == [0.0]


def test_avg_mse_normalization_definition():
    got = avg_mse(*_state([[2.0, 0.0], [2.0, None]]), np.zeros(2), 2.0)
    assert got.tolist() == [pytest.approx(0.5), pytest.approx(1.0)]


def test_avg_mse_excludes_flat_agents():
    got = avg_mse(*_state([[1.0, None]]), np.array([0.0, 100.0]), 1.0)
    assert got.tolist() == [pytest.approx(1.0)]


def test_avg_mse_undefined_without_estimates():
    # an all-flat trial scores NaN, beside a defined one
    got = avg_mse(*_state([[None, None], [1.0, None]]), np.zeros(2), 1.0)
    assert math.isnan(got[0]) and got[1] == 1.0
    with pytest.raises(MetricError):
        mean_square_error([])
    with pytest.raises(MetricError):
        mean_square_error([(1.0, 0.0)], mse_normalization=0.0)


@pytest.mark.parametrize("normalization", [1.0, 0.37, 250.0])
def test_batch_mse_matches_scalar_reference(normalization):
    # the simulator's one-reduction MSE over (trials, agents) against the
    # scalar sum of every row: flat agents excluded, NaN for an all-flat trial
    rng = np.random.default_rng(17)
    truth = rng.uniform(-500, 500, 40)
    means = truth + rng.normal(0, 3, (12, 40))
    prec = rng.uniform(0.1, 5.0, (12, 40))
    prec[rng.random((12, 40)) < 0.3] = 0.0
    prec[4] = 0.0
    means[prec == 0] = np.nan    # as EdgeEngine.snapshot gives them
    got = avg_mse(means, prec, truth, normalization)
    for row in range(12):
        pairs = [(m, f) for m, p, f in zip(means[row], prec[row], truth) if p > 0]
        try:
            want = mean_square_error(pairs, normalization)
        except MetricError:
            assert row == 4 and math.isnan(got[row])
            continue
        assert got[row] == pytest.approx(want, rel=1e-12, abs=0)
    assert np.flatnonzero(np.isnan(got)).tolist() == [4]


def test_batch_mse_overflow_raises_numeric_error():
    state = np.array([[0.0, 1e200]]), np.ones((1, 2)), np.zeros(2)
    with pytest.raises(FloatingPointError):
        avg_mse(*state, 1.0)
    # a 1e200 Hz offset error squares beyond the float range
    cfg = ExperimentConfig(topology="edges:1-2;1-3;2-3", max_offset=1e200, l_max=3)
    with pytest.raises(NumericError, match=r"overflow computing the MSE \(max_offset=1e\+200"):
        run_experiment(cfg)


def test_avg_mse_relabeling_invariance():
    # the same agents in another column order; the squared errors sum exactly
    truth = np.array([1.0, 2.0, 3.0])
    means, prec = _state([[1.5, 2.5, 2.0]])
    order = [2, 0, 1]
    assert avg_mse(means[:, order], prec[:, order], truth[order], 1.0) == \
        avg_mse(means, prec, truth, 1.0)


def _tiny_trace() -> RunTrace:
    rows = [
        IterationRow(iteration=0, agents=(1, 2), means=np.array([0.1 + 0.2, np.nan]),
                     variances=np.array([1e-12, np.nan]), avg_mse=0.0),
        IterationRow(iteration=1, agents=(1, 2), means=np.array([0.3, -1.23456789012345e-7]),
                     variances=np.array([1e-12, 0.5]), avg_mse=1.0 / 3.0,
                     broadcasts=2.0, deliveries=3.0, drops=1.0),
    ]
    return RunTrace(rows=rows, per_trial_converged_at=[1])


def test_trace_csv_round_trip_is_exact():
    # NaN is "no estimate": an empty cell, read back as None
    trace = _tiny_trace()
    trace.rows.append(IterationRow(iteration=2, agents=(), means=np.empty(0),
                                   variances=np.empty(0), avg_mse=0.5))
    cell = lambda x: None if math.isnan(x) else x
    expected = [(row.iteration, a, cell(m), cell(v), row.avg_mse,
                 row.broadcasts, row.deliveries, row.drops)
                for row in trace.rows
                for a, m, v in zip(row.agents, row.means.tolist(), row.variances.tolist())]
    parsed = read_trace_csv(trace_to_csv(trace))
    assert [tuple(rec[c] for c in TRACE_COLUMNS) for rec in parsed] == expected
    assert expected[1][2:4] == (None, None)


def test_trace_csv_rejects_non_finite_values():
    for column in ("means", "variances"):
        for value in (math.inf, -math.inf):
            trace = _tiny_trace()
            getattr(trace.rows[1], column)[1] = value
            with pytest.raises(NumericError, match=f"{value!r} in the trace"):
                trace_to_csv(trace)


def _cell_values() -> np.ndarray:
    """Floats where a column formatter may go wrong: random bit patterns,
    random magnitudes from 1e-8 to 1e18 and whole and half numbers up to
    2e16, the neighbours of 1e-4, 1e15 and 1e16, subnormals, the extremes,
    the zeros and NaN, each with both signs."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(float)
    bits = bits[~np.isnan(bits)]   # NaN payloads: a trace holds only np.nan
    spread = 10.0 ** rng.uniform(-8, 18, 100_000) * rng.uniform(1, 10, 100_000)
    whole = np.floor(10.0 ** rng.uniform(0, 16.3, 20_000))
    near = [np.nextafter(b, d) for b in (1e-4, 1e15, 1e16)
            for d in (0.0, np.inf) for b in [b, np.nextafter(b, d)]]
    near += [1e-4, 1e15, 1e16, 1e15 - 1, 1e15 - 0.5, 1e15 + 1, 1e15 + 2, 1e16 + 2,
             999999999999999.9, 1e16 - 2]
    special = [5e-324, 1e-310, np.finfo(float).tiny, np.finfo(float).tiny / 3,
               np.finfo(float).max, 0.0, np.nan, 1.0, 0.5, 1e-5, 123.456]
    x = np.concatenate([bits, spread, whole, whole + 0.5, near, special])
    x = np.concatenate([x, -x])
    return x[~np.isinf(x)]


def test_column_cells_match_the_per_value_reference():
    # one orjson call per column must print each cell as the per-value rule
    x = _cell_values()
    got, want = _cells(x), scalar_cells(x)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]
    assert _cells([-0.0, 0.0, np.nan, 1e15, 1e16]) == ["0", "0", "", "1000000000000000.0",
                                                      "1e+16"]


def test_column_cells_of_short_and_strided_columns():
    x = _cell_values()[:3000]
    for column in (np.empty(0), x[:1], x[::3], x[1::7], x.reshape(-1, 3)[:, 1],
                   x[::-1], [float(v) for v in x[:20]]):
        assert _cells(column) == scalar_cells(column)
    assert _cells(np.empty(0)) == []


def test_write_trace_holds_one_row_block_at_a_time(tmp_path):
    # 40 rows of 2000 agents, about 40 row blocks of CSV: the writer's peak
    # is bounded by one row's text and cell lists, not by the file
    rng = np.random.default_rng(3)
    agents = tuple(range(1, 2001))
    trace = RunTrace(rows=[IterationRow(
        iteration=k, agents=agents, means=rng.normal(0.0, 100.0, 2000),
        variances=rng.uniform(0.0, 1.0, 2000), avg_mse=float(rng.uniform()),
        broadcasts=2000.0, deliveries=1800.0, drops=200.0) for k in range(40)])
    text = trace_to_csv(trace)
    block = Counter()
    for line in text.splitlines(keepends=True)[1:]:
        block[line.split(",", 1)[0]] += len(line)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    assert peak < 8 * max(block.values()), (peak, max(block.values()), len(text))


def test_summary_reads_final_estimates_once(monkeypatch):
    # final_estimates builds a new dict on every read: a read per agent
    # would make summary_dict quadratic in the number of agents
    reads, real = [], RunTrace.final_estimates
    monkeypatch.setattr(RunTrace, "final_estimates",
                        property(lambda self: reads.append(1) or real.fget(self)))
    assert summary_dict(_tiny_trace())["final_estimates"] == {
        "1": 0.3, "2": -1.23456789012345e-7}
    assert len(reads) == 1


def test_trace_csv_header_checked():
    with pytest.raises(ValueError):
        read_trace_csv("a,b\n1,2\n")


def test_summary_mse_equals_last_row():
    trace = _tiny_trace()
    s = summary_dict(trace)
    assert s["mse_avg"] == trace.rows[-1].avg_mse
    assert s["converged_at"] == 1
    assert s["final_estimates"]["1"] == 0.3
    # the latest first convergence over the trials, None if one never settled
    trace.per_trial_converged_at = [1, 3]
    assert summary_dict(trace)["converged_at"] == 3
    trace.per_trial_converged_at = [1, None]
    assert summary_dict(trace)["converged_at"] is None
