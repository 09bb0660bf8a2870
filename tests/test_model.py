import numpy as np
import pytest

from cfosync import (Graph, LinearScalingBP, build_linear_system, generate_measurements,
                     generate_truth)
from cfosync.errors import InconsistentStateError
from cfosync.model import (DEFAULT_MAX_OFFSET_HZ, NOISELESS_SIGMA2,
                           GroundTruth, MeasurementSet, draw_joiner_offset)
from helpers import (meas_r, meas_sigma2, measurement_dict, measurements_from_csv,
                     measurements_to_csv, random_connected_graph,
                     scalar_measurements, truth_from_csv, truth_to_csv)

MOMENT_MEAN_TOL = 0.02
MOMENT_VAR_TOL = 0.05


def test_truth_determinism_and_range():
    g = Graph.from_edges(50, [(i, i + 1) for i in range(1, 50)])
    t1 = generate_truth(g, 200.0, seed=5)
    t2 = generate_truth(g, 200.0, seed=5)
    assert t1.offsets == t2.offsets
    assert all(-200 <= v <= 200 for v in t1.offsets.values())
    assert t1.reference_value == t1.offsets[1]


def test_truth_zero_max_offset():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    t = generate_truth(g, 0.0, seed=1)
    assert all(v == 0.0 for v in t.offsets.values())


def test_default_offset_matches_doppler_scale():
    # 30 m/s relative speed at a 2.4 GHz carrier: pairwise shift
    # v * f0 / c = 240 Hz, so the +/-200 Hz default produces pairwise sums
    # of comparable magnitude.
    pairwise = 30.0 * 2.4e9 / 3e8
    assert pairwise == pytest.approx(240.0)
    assert DEFAULT_MAX_OFFSET_HZ == 200.0
    assert pairwise / 2 < DEFAULT_MAX_OFFSET_HZ < pairwise * 2


def test_noiseless_measurement_is_exact_sum():
    g = Graph.from_edges(2, [(1, 2)])
    truth = GroundTruth(offsets={1: 10.0, 2: -3.0}, reference=1)
    ms = generate_measurements(g, truth, sigma=0.0, seeds=[0])
    assert meas_r(ms, 1, 2) == 7.0
    assert meas_sigma2(ms, 1, 2) == NOISELESS_SIGMA2


def test_measurement_symmetric_query():
    g = Graph.from_edges(2, [(1, 2)])
    truth = generate_truth(g, 10.0, seed=0)
    ms = generate_measurements(g, truth, sigma=1.0, seeds=[1])
    assert meas_r(ms, 1, 2) == meas_r(ms, 2, 1)
    assert meas_sigma2(ms, 2, 1) == 1.0


def test_generate_measurements_takes_seeds_only():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    truth = generate_truth(g, 10.0, seed=0)
    with pytest.raises(TypeError):
        generate_measurements(g, truth, 1.0, seed=1)
    default = generate_measurements(g, truth, 1.0)
    assert default.r_array.shape == (1, 2)   # the default seeds=(0,): one trial
    assert default.r_array.tobytes() == generate_measurements(
        g, truth, 1.0, seeds=[0]).r_array.tobytes()
    with pytest.raises(ValueError):   # no trial
        generate_measurements(g, truth, 1.0, seeds=())


def test_measurement_set_of_the_wrong_shape_raises():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    edges = g.edge_array
    MeasurementSet(edges, np.ones((3, 2)), np.ones(2))   # three trials on two edges
    for r, sigma2 in [(np.array([[1.0, 2.0, 3.0, 4.0]]), np.ones(2)),   # 4 values, 2 edges
                      (np.array([1.0, 2.0, 3.0, 4.0]), np.ones(2)),
                      (np.ones((1, 2)), np.ones(3)),                     # 3 variances
                      (np.ones(2), np.ones(2)),                          # 1-D: no trial axis
                      (np.ones((0, 2)), np.ones(2)),                     # no trial
                      (np.ones((1, 1, 2)), np.ones(2)),
                      (np.ones((1, 2)), np.ones((1, 2)))]:
        with pytest.raises(ValueError, match="need"):
            MeasurementSet(edges, r, sigma2)


@pytest.mark.parametrize("rows, match", [
    ([[2, 3], [1, 2]], "sorted and distinct"),   # descending
    ([[2, 1], [3, 2]], r"edge \(2,1\) not in canonical order"),
    ([[1, 2], [1, 2]], "sorted and distinct"),   # repeated
])
def test_measurement_set_of_unordered_edges_raises(rows, match):
    # the rows are looked up by binary search, so a set out of order would
    # report "no measurement" for an edge it holds
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=match):
        MeasurementSet(np.array(rows), np.array([[5.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="need edges"):   # not (m, 2)
        MeasurementSet(np.array([1, 2]), np.array([[5.0, 1.0]]), np.ones(2))
    ms = MeasurementSet(g.edge_array, np.array([[5.0, 1.0]]), np.ones(2))
    assert build_linear_system(g, ms, 0.0).target.shape == (1, 2)
    assert LinearScalingBP().fit(g, ms).converged_


def test_missing_measurement_raises():
    ms = MeasurementSet()
    with pytest.raises(InconsistentStateError):
        meas_r(ms, 1, 2)


def test_noise_moments_monte_carlo():
    # star with 10^5 edges; residual r - f_i - f_j should have mean ~0 and
    # variance ~sigma^2
    n = 100_001
    edges = [(1, k) for k in range(2, n + 1)]
    g = Graph.from_edges(n, edges)
    truth = generate_truth(g, 10.0, seed=3)
    ms = generate_measurements(g, truth, sigma=1.0, seeds=[4])
    resid = np.array([r - truth.offsets[i] - truth.offsets[j]
                      for (i, j), (r, _) in measurement_dict(ms).items()])
    assert abs(resid.mean()) < MOMENT_MEAN_TOL
    assert abs(resid.var() - 1.0) < MOMENT_VAR_TOL


def test_empty_edge_set_gives_empty_measurements():
    g = Graph.from_edges(1, [])
    truth = generate_truth(g, 10.0, seed=0)
    assert len(generate_measurements(g, truth, 1.0, seeds=[0])) == 0


def test_new_noise_seed_changes_measurements_not_truth():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    truth = generate_truth(g, 100.0, seed=9)
    m1 = generate_measurements(g, truth, 1.0, seeds=[1])
    m2 = generate_measurements(g, truth, 1.0, seeds=[2])
    assert meas_r(m1, 1, 2) != meas_r(m2, 1, 2)
    assert generate_truth(g, 100.0, seed=9).offsets == truth.offsets


def test_sigma_overrides():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    truth = generate_truth(g, 10.0, seed=0)
    ms = generate_measurements(g, truth, 1.0, seeds=[0],
                               sigma_overrides={(2, 3): 2.0})
    assert meas_sigma2(ms, 1, 2) == 1.0
    assert meas_sigma2(ms, 2, 3) == 4.0


def test_measurement_rejects_nonpositive_variance():
    g = Graph.from_edges(2, [(1, 2)])
    truth = generate_truth(g, 10.0, seed=0)
    with pytest.raises(ValueError):   # a positive std whose square underflows to 0
        generate_measurements(g, truth, 1.0, sigma_overrides={(1, 2): 1e-200})


def test_joiner_offset_deterministic():
    a = draw_joiner_offset([7, 1], 42, 200.0)
    b = draw_joiner_offset([7, 1], 42, 200.0)
    c = draw_joiner_offset([7, 1], 43, 200.0)
    assert a == b
    assert a != c
    assert -200 <= a <= 200


def test_csv_round_trips():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    truth = generate_truth(g, 100.0, seed=12)
    ms = generate_measurements(g, truth, 1.5, seeds=[13])
    t_back = truth_from_csv(truth_to_csv(truth))
    assert t_back.offsets == truth.offsets
    ms_back = measurements_from_csv(measurements_to_csv(ms))
    assert list(measurement_dict(ms_back).items()) == list(measurement_dict(ms).items())


def _assert_same(ms: MeasurementSet, expected: dict) -> None:
    assert list(measurement_dict(ms)) == sorted(expected)
    assert measurement_dict(ms) == expected      # exact: every r and sigma2 bit for bit


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vectorized_generation_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(8, 40)), extra_edge_frac=2.0)
    truth = generate_truth(g, 200.0, seed=seed + 10)
    edges = sorted(g.edges)
    overrides = {e: (0.0 if k % 3 == 0 else float(rng.uniform(0.1, 5.0)))
                 for k, e in enumerate(edges[::2])}
    subset = [e for e in edges if max(g.agents) in e]
    cases = [dict(sigma=1.0), dict(sigma=2.5), dict(sigma=0.0),
             dict(sigma=1.5, sigma_overrides=overrides),
             dict(sigma=0.0, sigma_overrides=overrides),
             dict(sigma=1.0, sigma_overrides=overrides, edges=subset)]
    for kw in cases:
        noise_seed = [seed, 2, 7]
        fast = generate_measurements(g, truth, seeds=[noise_seed], **kw)
        slow = scalar_measurements(g, truth, seed=noise_seed, **kw)
        _assert_same(fast, measurement_dict(slow))

    # a batch from T seeds in one call: row t is the one-row set of seed t
    for kw in cases:
        seeds = [[seed, 2, t, 5] for t in range(3)]
        batch = generate_measurements(g, truth, seeds=seeds, **kw)
        assert batch.r_array.shape == (3, len(batch))
        for t, noise_seed in enumerate(seeds):
            one = generate_measurements(g, truth, seeds=[noise_seed], **kw)
            assert np.array_equal(batch.edge_array, one.edge_array)
            assert batch.sigma2_array.tobytes() == one.sigma2_array.tobytes()
            assert batch.r_array[t].tobytes() == one.r_array[0].tobytes()

    # set operations against a dict reference
    ms = generate_measurements(g, truth, 1.0, seeds=[seed])
    ref = measurement_dict(ms)
    victim = int(rng.integers(2, max(g.agents) + 1))
    joiner = max(g.agents) + 1
    joined = truth.with_offset(joiner, 5.0)
    assert joiner not in truth.offsets   # the original truth is unchanged
    assert (joined.offsets, joined.reference) == ({**truth.offsets, joiner: 5.0}, 1)
    later = scalar_measurements(g, joined, 3.0, seed=seed + 99,
                                edges=edges[::3] + [(1, joiner), (victim, joiner)])
    merged = dict(ref)
    merged.update(measurement_dict(later))       # the later set wins on a shared edge
    _assert_same(ms.merged_with(later), merged)
    _assert_same(later.merged_with(ms), {**measurement_dict(later), **ref})
