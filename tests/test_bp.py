import numpy as np
import pytest

from cfosync import (BeliefPropagation, Graph, LinearScalingBP, MeasurementSet,
                     build_linear_system, wls_solve)
from cfosync.bp import BpEngine
from cfosync.gaussian import FLAT, Gaussian1D
from cfosync.model import Measurement

from helpers import bp_message, random_tree, seeded_instance, triangle

TREE_TOL = 1e-9
LOOPY_WLS_TOL = 1e-6


def test_bp_message_from_leaf_is_flat():
    # leaf j has no neighbors besides i: empty cavity product
    out = bp_message(j=2, i=1, incoming={1: Gaussian1D.from_moments(0.0, 1.0)},
                     r=3.0, sigma2=1.0)
    assert out.is_flat


def test_bp_message_from_reference_uses_pin():
    pin = Gaussian1D.from_moments(2.0, 1e-12)
    out = bp_message(j=1, i=2, incoming={}, r=7.0, sigma2=1.0,
                     reference=1, reference_belief=pin)
    assert out.mean() == pytest.approx(5.0)
    assert out.variance() == pytest.approx(1.0, abs=1e-9)


def _chain():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    ms = MeasurementSet.from_measurements([Measurement(edge=(1, 2), r=4.0, sigma2=1.0),
                                           Measurement(edge=(2, 3), r=1.0, sigma2=1.0)])
    return g, ms


def test_chain_belief_is_tree_exact():
    g, ms = _chain()
    est = BeliefPropagation(max_iter=100).fit(g, ms, reference_value=0.0)
    # r23 - (r12 - mu1): confirmed by the WLS oracle below
    assert est.estimates_[3] == pytest.approx(-3.0, abs=TREE_TOL)
    wls = wls_solve(build_linear_system(g, ms, 0.0))
    assert est.estimates_[2] == pytest.approx(wls[2], abs=TREE_TOL)
    assert est.estimates_[3] == pytest.approx(wls[3], abs=TREE_TOL)


def test_first_round_messages_from_nonreference_leaves_are_flat():
    g, ms = _chain()
    eng = BpEngine(g, ms, reference_value=0.0)
    eng.sync_round()
    # message 3 -> 2 (leaf, non-reference) still flat after round 1
    assert eng.edge_prec[0, eng.edge(2, 3)] == 0.0
    # message 1 -> 2 (reference) informative immediately
    assert eng.edge_prec[0, eng.edge(2, 1)] > 0.0


def test_single_edge_one_round_estimate():
    g = Graph.from_edges(2, [(1, 2)])
    ms = MeasurementSet.from_measurements([Measurement(edge=(1, 2), r=7.0, sigma2=1.0)])
    eng = BpEngine(g, ms, reference_value=2.0)
    eng.sync_round()
    assert eng.estimates()[2] == pytest.approx(5.0)


def test_triangle_converged_matches_wls_closed_form():
    g, ms = triangle(r12=3.1, r13=-0.7, r23=1.9)
    mu1 = 0.5
    est = BeliefPropagation(max_iter=500, mean_tol=1e-12, prec_tol=1e-12)
    est.fit(g, ms, mu1)
    a = ms.r(1, 2) - mu1
    b = ms.r(1, 3) - mu1
    s = ms.r(2, 3)
    assert est.converged_
    assert est.estimates_[2] == pytest.approx((2 * a - b + s) / 3, abs=1e-9)
    assert est.estimates_[3] == pytest.approx((2 * b - a + s) / 3, abs=1e-9)


def test_converged_loopy_means_match_wls():
    # Gaussian BP means are exact whenever the iteration converges; the
    # broadcast variant is not mean-exact on cycles, which the oracle tests
    # quantify separately.
    for seed in (3, 17, 29, 41, 53):
        g, truth, ms = seeded_instance(seed, 12)
        est = BeliefPropagation(max_iter=3000, mean_tol=1e-11, prec_tol=1e-12)
        est.fit(g, ms, truth.reference_value)
        assert est.converged_, f"BP did not converge on seed {seed}"
        wls = wls_solve(build_linear_system(g, ms, truth.reference_value))
        for a, v in wls.items():
            assert est.estimates_[a] == pytest.approx(v, abs=LOOPY_WLS_TOL)


def test_trees_match_wls_exactly():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_tree(rng, int(rng.integers(4, 20)))
        from cfosync import generate_measurements, generate_truth
        truth = generate_truth(g, 100.0, seed=int(rng.integers(2**31)))
        ms = generate_measurements(g, truth, 1.0, seed=int(rng.integers(2**31)))
        est = BeliefPropagation(max_iter=200, mean_tol=1e-13, prec_tol=1e-13)
        est.fit(g, ms, truth.reference_value)
        wls = wls_solve(build_linear_system(g, ms, truth.reference_value))
        for a, v in wls.items():
            assert est.estimates_[a] == pytest.approx(v, abs=TREE_TOL)


def test_divergence_guard_flags_blowup():
    g, ms = triangle()
    eng = BpEngine(g, ms, reference_value=0.0)
    eng.sync_round()
    eng.edge_mean[0, eng.edge(2, 3)] = 1e13
    eng.edge_prec[0, eng.edge(2, 3)] = 1.0
    eng.sync_round()
    assert eng.diverged


def test_divergence_marks_estimator_not_converged():
    g, ms = triangle()
    est = BeliefPropagation(max_iter=50)
    est.fit(g, ms, reference_value=0.0)
    assert not est.diverged_   # this model does not diverge on its own
    assert est.converged_


def test_bp_and_lsbp_agree_on_trees_only():
    g, ms = _chain()
    bp = BeliefPropagation(max_iter=200, mean_tol=1e-13, prec_tol=1e-13)
    bp.fit(g, ms, 0.0)
    ls = LinearScalingBP(max_iter=5000, mean_tol=1e-13, prec_tol=1e-13)
    ls.fit(g, ms, 0.0)
    assert ls.estimates_[3] == pytest.approx(bp.estimates_[3], abs=1e-9)
