import math

import numpy as np
import pytest

from cfosync import ExperimentConfig, avg_mse, netsim, run_experiment
from cfosync.errors import MetricError, NumericError
from cfosync.metrics import (TRACE_COLUMNS, IterationRow, RunTrace,
                             mean_square_error, summary_dict, trace_to_csv)

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
    got = netsim.avg_mse(means, prec, truth, normalization)
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
        netsim.avg_mse(*state, 1.0)
    # a 1e200 Hz offset error squares beyond the float range
    cfg = ExperimentConfig(topology="edges:1-2;1-3;2-3", max_offset=1e200, l_max=3)
    with pytest.raises(NumericError, match=r"overflow computing the MSE \(max_offset=1e\+200"):
        run_experiment(cfg)


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
