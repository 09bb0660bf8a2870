import pytest

from cfosync import avg_mse
from cfosync.errors import MetricError, NumericError
from cfosync.metrics import (TRACE_COLUMNS, IterationRow, RunTrace,
                             summary_dict, trace_to_csv)

from helpers import read_trace_csv


def test_avg_mse_perfect_estimates():
    truth = {1: 3.0, 2: -1.0}
    assert avg_mse({1: 3.0, 2: -1.0}, truth) == 0.0


def test_avg_mse_normalization_definition():
    assert avg_mse({1: 2.0}, {1: 0.0}, mse_normalization=2.0) == pytest.approx(1.0)
    assert avg_mse({1: 2.0, 2: 0.0}, {1: 0.0, 2: 0.0},
                   mse_normalization=2.0) == pytest.approx(0.5)


def test_avg_mse_excludes_flat_agents():
    assert avg_mse({1: 1.0, 2: None}, {1: 0.0, 2: 100.0}) == pytest.approx(1.0)


def test_avg_mse_undefined_without_estimates():
    with pytest.raises(MetricError):
        avg_mse({1: None}, {1: 0.0})
    with pytest.raises(MetricError):
        avg_mse({1: 1.0}, {1: 0.0}, mse_normalization=0.0)


def test_avg_mse_relabeling_invariance():
    truth = {1: 1.0, 2: 2.0, 3: 3.0}
    ests = {1: 1.5, 2: 2.5, 3: 2.0}
    relabeled_truth = {10: 1.0, 20: 2.0, 30: 3.0}
    relabeled = {10: 1.5, 20: 2.5, 30: 2.0}
    assert avg_mse(ests, truth) == avg_mse(relabeled, relabeled_truth)


def _tiny_trace() -> RunTrace:
    rows = [
        IterationRow(iteration=0, means={1: 0.1 + 0.2, 2: None},
                     variances={1: 1e-12, 2: None}, avg_mse=0.0),
        IterationRow(iteration=1, means={1: 0.3, 2: -1.23456789012345e-7},
                     variances={1: 1e-12, 2: 0.5}, avg_mse=1.0 / 3.0,
                     broadcasts=2.0, deliveries=3.0, drops=1.0),
    ]
    return RunTrace(rows=rows, converged_at=1,
                    final_estimates=rows[-1].means)


def test_trace_csv_round_trip_is_exact():
    trace = _tiny_trace()
    parsed = read_trace_csv(trace_to_csv(trace))
    expected = [(row.iteration, a, row.means[a], row.variances[a], row.avg_mse,
                 row.broadcasts, row.deliveries, row.drops)
                for row in trace.rows for a in sorted(row.means)]
    assert [tuple(rec[c] for c in TRACE_COLUMNS) for rec in parsed] == expected


def test_trace_csv_rejects_non_finite_values():
    trace = _tiny_trace()
    trace.rows[1].means[2] = float("nan")
    with pytest.raises(NumericError):
        trace_to_csv(trace)


def test_trace_csv_header_checked():
    with pytest.raises(ValueError):
        read_trace_csv("a,b\n1,2\n")


def test_summary_mse_equals_last_row():
    trace = _tiny_trace()
    s = summary_dict(trace)
    assert s["mse_avg"] == trace.rows[-1].avg_mse
    assert s["converged_at"] == 1
    assert s["final_estimates"]["1"] == 0.3
