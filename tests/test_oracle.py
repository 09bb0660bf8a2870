import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cfosync import (ExperimentConfig, Graph, LinearScalingBP, MeasurementSet, avg_crlb,
                     build_fixed_point_system, build_linear_system, crlb,
                     generate_measurements, generate_truth, is_feasible_start,
                     random_geometric, run_experiment, spectral_radius,
                     variance_fixed_point, variance_map, wls_solve)
from cfosync.edges import DirectedEdges
from cfosync.lsbp import LsbpEngine
from cfosync.errors import NumericError, UnobservableError

from helpers import (dense_linear_system, heterogeneous_measurements, meas_r,
                     measurement_set, random_connected_graph, random_tree,
                     scalar_fixed_point_system, seeded_instance, triangle)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
K_OFFDIAG = 1.0 - GOLDEN          # (1/(1+P*)) / (1 + 1/(1+P*)) at sigma2=1


def test_wls_single_edge():
    g = Graph.from_edges(2, [(1, 2)])
    ms = measurement_set({(1, 2): (7.0, 1.0)})
    sol = wls_solve(build_linear_system(g, ms, reference_value=2.0))
    assert sol[2] == pytest.approx(5.0)


def test_wls_triangle_closed_form():
    g, ms = triangle(r12=3.1, r13=-0.7, r23=1.9)
    mu1 = 0.5
    a, b, s = meas_r(ms, 1, 2) - mu1, meas_r(ms, 1, 3) - mu1, meas_r(ms, 2, 3)
    sol = wls_solve(build_linear_system(g, ms, mu1))
    assert sol[2] == pytest.approx((2 * a - b + s) / 3, rel=1e-12)
    assert sol[3] == pytest.approx((2 * b - a + s) / 3, rel=1e-12)


def test_wls_chain_middle_estimate_ignores_far_edge():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    for r23 in (-5.0, 0.0, 11.0):
        ms = measurement_set({(1, 2): (4.0, 1.0), (2, 3): (r23, 1.0)})
        sol = wls_solve(build_linear_system(g, ms, 0.0))
        assert sol[2] == pytest.approx(4.0, rel=1e-12)


def test_wls_residual_orthogonality():
    for seed in (1, 2, 3):
        g, truth, ms = seeded_instance(seed, 15)
        design, rhs, weights, columns = dense_linear_system(g, ms, truth.reference_value)
        sol = wls_solve(build_linear_system(g, ms, truth.reference_value))
        f = np.array([sol[a] for a in columns])
        resid = rhs - design @ f
        grad = design.T @ (weights * resid)
        scale = max(1.0, float(np.abs(design.T @ (weights * rhs)).max()))
        assert np.max(np.abs(grad)) / scale < 1e-8


def _oracle_case(seed: int) -> tuple[Graph, MeasurementSet, float]:
    """(graph, measurements, reference precision) of a seeded case; by
    seed % 5: uniform noise, per-edge variances with a reference other than
    agent 1, a tree, ids with a gap (a leave then a join), and a stacked
    batch of 5 trials over per-edge variances."""
    rng = np.random.default_rng(5000 + seed)
    kind = seed % 5
    n = int(rng.integers(4, 25))
    if kind == 3:
        g = random_geometric(n, 1000.0, 1000.0, radius=600.0, seed=seed)
        gone = next(a for a in sorted(g.agents - {1}) if not g.remove_agent(a).unreachable_agents())
        g, _ = g.remove_agent(gone).add_agent(g.positions[gone], 600.0)
    else:
        g = random_tree(rng, n) if kind == 2 else random_connected_graph(rng, n)
    if kind in (1, 3):
        g = dataclasses.replace(g, reference=int(rng.choice(sorted(g.agents - {1}))))
    if kind == 0:
        truth = generate_truth(g, 100.0, seed=seed)
        return g, generate_measurements(g, truth, 1.0, seed=seed), 1e12
    ms = heterogeneous_measurements(rng, g)
    if kind == 4:
        noise = rng.normal(0.0, np.sqrt(ms.sigma2_array), (5, len(ms)))
        ms = MeasurementSet(ms.edge_array, ms.r_array + noise, ms.sigma2_array)
    return g, ms, float(rng.choice([1e12, 1e6]))


def _assert_close(new, ref, rtol: float) -> None:
    """Agreement to rtol of the largest reference entry."""
    ref = np.asarray(ref)
    np.testing.assert_allclose(new, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


@pytest.mark.parametrize("seed", range(30))
def test_oracle_matches_dense_reference(seed):
    g, ms, ref_prec = _oracle_case(seed)
    ref_value = 17.25
    sys = build_linear_system(g, ms, ref_value)
    pstar = variance_fixed_point(g, ms, ref_prec)
    fps = build_fixed_point_system(g, ms, pstar, ref_value, ref_prec)
    wls, bound, mu = wls_solve(sys), crlb(sys), wls_solve(fps)
    for t, r in enumerate(np.atleast_2d(ms.r_array)):
        trial = MeasurementSet(ms.edge_array, r, ms.sigma2_array)
        design, rhs, weights, columns = dense_linear_system(g, trial, ref_value)
        normal = design.T @ (weights[:, None] * design)
        assert sys.columns == fps.columns == columns
        np.testing.assert_allclose(sys.normal, normal, rtol=1e-12, atol=0)
        sol = np.linalg.solve(normal, design.T @ (weights * rhs))
        _assert_close([np.atleast_1d(wls[a])[t] for a in columns], sol, 1e-10)
        _assert_close([bound[a] for a in columns], np.diag(np.linalg.inv(normal)), 1e-10)
        k_mat, eta, _ = scalar_fixed_point_system(g, trial, pstar, ref_value, ref_prec)
        np.testing.assert_allclose(fps.K, k_mat, rtol=1e-12, atol=0)
        _assert_close(np.atleast_2d(fps.target)[t] / np.diag(fps.normal), eta, 1e-12)
        _assert_close([np.atleast_1d(mu[a])[t] for a in columns],
                      np.linalg.solve(np.eye(len(columns)) + k_mat, eta), 1e-10)
    assert np.shape(sys.target) == np.shape(fps.target) == (*ms.r_array.shape[:-1], len(columns))


def test_fixed_point_system_on_stacked_set():
    g, truth, _ = seeded_instance(31, 14)
    trials = [generate_measurements(g, truth, 1.0, seed=[31, t]) for t in range(3)]
    pstar = variance_fixed_point(g, trials[0])
    fps = build_fixed_point_system(g, MeasurementSet.stacked(trials), pstar,
                                   truth.reference_value)
    mu = wls_solve(fps)
    for t, ms in enumerate(trials):
        one = build_fixed_point_system(g, ms, pstar, truth.reference_value)
        np.testing.assert_array_equal(fps.K, one.K)
        np.testing.assert_array_equal(fps.target[t], one.target)
        for a, v in wls_solve(one).items():
            assert mu[a][t] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_oracle_holds_no_edge_by_agent_array():
    # preset density (100 agents on 3 km x 4 km, 1 km radius) at N = 2000:
    # a dense |E| x (N-1) design alone would take ~377 MiB
    n = 2000
    scale = math.sqrt(n / 100)
    g = random_geometric(n, 3000 * scale, 4000 * scale, radius=1000.0, seed=7)
    truth = generate_truth(g, 100.0, seed=1)
    ms = generate_measurements(g, truth, 1.0, seed=2)
    tracemalloc.start()
    try:
        sys = build_linear_system(g, ms, truth.reference_value)
        wls_solve(sys)
        crlb(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 10 * n
    assert peak < 4 * (n - 1) ** 2 * 8


def test_oracle_factors_once_per_run(monkeypatch):
    calls = {"solve": 0, "inv": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           pdr=0.7, trials=12, l_max=25, master_seed=21, oracle=True)
    trace = run_experiment(cfg)
    assert len(trace.oracle["wls_mean"]) == 19
    assert calls == {"solve": 1, "inv": 1}


def test_precision_updates_read_no_measurements():
    # the precision-update functions read only the variances: they run
    # on a set that has no r_array, and agree with the full set
    g, _, ms = seeded_instance(44, 10)
    unread = MeasurementSet.__new__(MeasurementSet)   # reading r_array raises
    unread.edge_array, unread.sigma2_array = ms.edge_array, ms.sigma2_array
    pstar = variance_fixed_point(g, unread)
    np.testing.assert_array_equal(pstar, variance_fixed_point(g, ms))
    p0 = np.zeros(len(pstar))
    np.testing.assert_array_equal(variance_map(g, unread, p0), variance_map(g, ms, p0))
    known = np.full(len(pstar), np.inf)   # the update's upper bound
    np.testing.assert_array_equal(variance_map(g, unread, known), variance_map(g, ms, known))
    assert is_feasible_start(g, unread, p0) == is_feasible_start(g, ms, p0)


def test_oracle_run_gathers_the_measurements_twice(monkeypatch):
    # the engine gathers its measurements once; the oracle gathers them for
    # the WLS system's target and the fixed-point system's target, not for
    # the variance fixed point
    real, gathers = DirectedEdges.r.func, []
    monkeypatch.setattr(DirectedEdges.r, "func", lambda e: gathers.append(type(e)) or real(e))
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           pdr=0.7, trials=12, l_max=25, master_seed=21, oracle=True)
    run_experiment(cfg)
    assert gathers == [LsbpEngine, DirectedEdges, DirectedEdges]


def test_unobservable_component_raises_with_names():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    ms = measurement_set({(1, 2): (0.0, 1.0), (3, 4): (0.0, 1.0)})
    with pytest.raises(UnobservableError) as exc:
        build_linear_system(g, ms, 0.0)
    assert exc.value.agents == [3, 4]
    # the fixed-point system shares the builder, so it names them too
    with pytest.raises(UnobservableError) as exc:
        build_fixed_point_system(g, ms, variance_fixed_point(g, ms), 0.0)
    assert exc.value.agents == [3, 4]


def test_crlb_single_edge_and_triangle():
    g = Graph.from_edges(2, [(1, 2)])
    ms = measurement_set({(1, 2): (0.0, 1.0)})
    assert crlb(build_linear_system(g, ms, 0.0))[2] == pytest.approx(1.0)

    gt, mst = triangle(sigma2=1.0)
    # Fisher information [[2,1],[1,2]]; inverse diagonal = 2/3
    values = crlb(build_linear_system(gt, mst, 0.0))
    assert values[2] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert values[3] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_crlb_scales_linearly_with_noise():
    g, truth, ms = seeded_instance(44, 10)
    base = crlb(build_linear_system(g, ms, truth.reference_value))
    doubled = MeasurementSet(ms.edge_array, ms.r_array, 2 * ms.sigma2_array)
    scaled = crlb(build_linear_system(g, doubled, truth.reference_value))
    for a in base:
        assert scaled[a] == pytest.approx(2 * base[a], rel=1e-10)


def test_avg_crlb_normalization():
    g, ms = triangle(sigma2=1.0)
    sys = build_linear_system(g, ms, 0.0)
    assert avg_crlb(sys) == pytest.approx(2.0 / 3.0)
    assert avg_crlb(sys, mse_normalization=2.0) == pytest.approx(1.0 / 6.0)


def test_fixed_point_system_triangle():
    g, ms = triangle(sigma2=1.0)
    pstar = variance_fixed_point(g, ms)
    fps = build_fixed_point_system(g, ms, pstar, reference_value=0.0)
    assert fps.K[0, 1] == pytest.approx(K_OFFDIAG, abs=1e-9)
    assert fps.K[1, 0] == pytest.approx(K_OFFDIAG, abs=1e-9)
    assert fps.K[0, 0] == 0.0
    assert fps.K.sum(axis=1) == pytest.approx([K_OFFDIAG, K_OFFDIAG], abs=1e-9)


def test_fixed_point_system_star_has_zero_matrix():
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    ms = measurement_set({e: (1.0, 1.0) for e in [(1, 2), (1, 3), (1, 4)]})
    pstar = variance_fixed_point(g, ms)
    fps = build_fixed_point_system(g, ms, pstar, reference_value=0.0)
    assert np.all(fps.K == 0.0)
    assert spectral_radius(fps.K) == 0.0
    mu = wls_solve(fps)
    eta = fps.target / np.diag(fps.normal)
    for a, v in mu.items():
        assert v == pytest.approx(eta[fps.columns.index(a)])


def test_spectral_radius_triangle_and_cross_check():
    g, ms = triangle(sigma2=1.0)
    fps = build_fixed_point_system(g, ms, variance_fixed_point(g, ms), 0.0)
    rho = spectral_radius(fps.K)
    assert rho == pytest.approx(K_OFFDIAG, abs=1e-9)
    assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(fps.K))), abs=1e-9)


def test_spectral_radius_periodic_matrix():
    # antisymmetric sparsity pattern would stall naive power iteration
    k = np.array([[0.0, 2.0], [0.5, 0.0]])
    assert spectral_radius(k) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_random_nonnegative_cross_check():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        k = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.4)
        rho = spectral_radius(k)
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(k))), abs=1e-8)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        spectral_radius(np.array([[0.9, 0.5], [0.2, 0.3]]), tol=0.0, max_iter=3)


def test_mean_fixed_point_matches_engine_on_loopy_graph():
    g, truth, ms = seeded_instance(9, 11)
    pstar = variance_fixed_point(g, ms)
    fps = build_fixed_point_system(g, ms, pstar, truth.reference_value)
    mu = wls_solve(fps)
    est = LinearScalingBP(max_iter=20000, mean_tol=1e-13, prec_tol=1e-13)
    est.fit(g, ms, truth.reference_value)
    for a, v in mu.items():
        assert est.estimates_[a] == pytest.approx(v, abs=1e-8)


def test_mean_fixed_point_equals_wls_on_trees():
    rng = np.random.default_rng(14)
    for _ in range(5):
        g = random_tree(rng, int(rng.integers(4, 20)))
        truth = generate_truth(g, 100.0, seed=int(rng.integers(2**31)))
        ms = generate_measurements(g, truth, 1.0, seed=int(rng.integers(2**31)))
        fps = build_fixed_point_system(g, ms, variance_fixed_point(g, ms),
                                       truth.reference_value)
        mu = wls_solve(fps)
        wls = wls_solve(build_linear_system(g, ms, truth.reference_value))
        for a in wls:
            assert mu[a] == pytest.approx(wls[a], abs=1e-9)


def test_loopy_gap_between_fixed_point_and_wls_is_real():
    # On cyclic graphs the broadcast fixed point is generally NOT the WLS
    # solution; record the observed gap rather than asserting agreement.
    rng = np.random.default_rng(100)
    max_gap = 0.0
    n_loopy = 0
    for seed in range(100):
        g, truth, ms = seeded_instance(1000 + seed, int(rng.integers(5, 31)))
        if len(g.edges) == len(g.agents) - 1:
            continue   # tree: exact agreement expected
        n_loopy += 1
        fps = build_fixed_point_system(g, ms, variance_fixed_point(g, ms),
                                       truth.reference_value)
        mu = wls_solve(fps)
        wls = wls_solve(build_linear_system(g, ms, truth.reference_value))
        gap = max(abs(mu[a] - wls[a]) for a in wls)
        max_gap = max(max_gap, gap)
    assert n_loopy > 50
    assert math.isfinite(max_gap)
    assert max_gap > 1e-8   # the two estimators genuinely differ on cycles
    print(f"max |broadcast fixed point - WLS| over {n_loopy} loopy graphs: "
          f"{max_gap:.3e}")


def test_fixed_point_estimator_is_unbiased():
    # The broadcast fixed point differs from WLS realization by realization,
    # but as a linear estimator it is unbiased: K and the converged
    # variances depend only on the topology/noise levels, and the expected
    # constant term equals (I + K) applied to the truth.
    rng = np.random.default_rng(7700)
    g, truth, _ = seeded_instance(606, 12)
    sigma = 1.0
    pstar = None
    sums = None
    n_draws = 2000
    for _ in range(n_draws):
        recs = {}
        for (i, j) in sorted(g.edges):
            noise = float(rng.normal(0.0, sigma))
            recs[i, j] = (truth.offsets[i] + truth.offsets[j] + noise, sigma * sigma)
        ms = measurement_set(recs)
        if pstar is None:
            pstar = variance_fixed_point(g, ms)
        fps = build_fixed_point_system(g, ms, pstar, truth.reference_value)
        mu = wls_solve(fps)
        if sums is None:
            sums = {a: 0.0 for a in mu}
        for a, v in mu.items():
            sums[a] += v
    # per-agent standard error ~ sqrt(CRLB/n); allow 4 sigma
    for a, total in sums.items():
        bias = total / n_draws - truth.offsets[a]
        assert abs(bias) < 4.0 * math.sqrt(1.0 / n_draws), \
            f"agent {a} bias {bias:.4f}"


def test_row_sums_substochastic_on_connected_graphs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g, truth, ms = seeded_instance(int(rng.integers(2**31)),
                                       int(rng.integers(5, 20)))
        fps = build_fixed_point_system(g, ms, variance_fixed_point(g, ms),
                                       truth.reference_value)
        sums = fps.K.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        for k, a in enumerate(fps.columns):
            if g.reference in g.neighbors(a):
                assert sums[k] < 1.0
        assert spectral_radius(fps.K) < 1.0
