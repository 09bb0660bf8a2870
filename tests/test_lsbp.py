import math

import numpy as np
import pytest

from cfosync import (BeliefPropagation, Graph, LinearScalingBP, generate_measurements,
                     generate_truth, is_feasible_start, variance_fixed_point, variance_map)
from cfosync.edges import iterate, step_delta
from cfosync.errors import NumericError
from cfosync import lsbp
from cfosync.lsbp import BeliefInit, LsbpEngine

from helpers import (FLAT, Gaussian1D, beliefs, delivery_mask, directed_edge, edge_message,
                     meas_r, meas_sigma2, measurement_set, nonref_agents,
                     random_connected_graph, seeded_instance, triangle)

GOLDEN_VARIANCE = (math.sqrt(5.0) - 1.0) / 2.0   # positive root of P^2 + P = 1


def _uniform_precisions(graph, variance):
    return np.full(len(nonref_agents(graph)), 1.0 / variance)


# -- variance recursion -------------------------------------------------------

def test_variance_map_flat_neighbors_keep_reference_edge():
    g, ms = triangle()
    out = variance_map(g, ms, np.zeros(2))
    # flat neighbors contribute nothing; only the pinned reference edge counts
    assert out == pytest.approx([1.0, 1.0], abs=1e-9)


def test_variance_map_isolated_agent_is_zero():
    g = Graph.from_edges(3, [(1, 2)])
    ms = measurement_set({(1, 2): (0.0, 1.0)})
    out = variance_map(g, ms, np.zeros(2))
    assert out[1] == 0.0  # agent 3 has no neighbors


def test_variance_map_rejects_negative_precision():
    g, ms = triangle()
    with pytest.raises(ValueError):
        variance_map(g, ms, np.array([-1.0, 0.0]))


def test_golden_ratio_fixed_point():
    g, ms = triangle(sigma2=1.0)
    pstar = variance_fixed_point(g, ms)
    # independent oracle: scalar fixed-point iteration of 1/P = 1 + 1/(1+P)
    p = 1.0
    for _ in range(200):
        p = 1.0 / (1.0 + 1.0 / (1.0 + p))
    assert p == pytest.approx(GOLDEN_VARIANCE, abs=1e-12)
    assert 1.0 / pstar[0] == pytest.approx(GOLDEN_VARIANCE, abs=1e-10)
    assert 1.0 / pstar[1] == pytest.approx(GOLDEN_VARIANCE, abs=1e-10)


def test_feasible_start_zero_precision():
    g, ms = triangle()
    assert is_feasible_start(g, ms, np.zeros(2))


def test_feasible_start_image_of_zero():
    g, ms = triangle()
    p1 = variance_map(g, ms, np.zeros(2))
    assert is_feasible_start(g, ms, p1)


def test_infeasible_start_from_perturbed_fixed_point():
    g, ms = triangle()
    pstar = variance_fixed_point(g, ms)
    p0 = pstar * np.array([1.5, 0.5])   # one coordinate above, one below
    assert not is_feasible_start(g, ms, p0)


def test_variance_bound_dominates_map():
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 12)
    truth = generate_truth(g, 10.0, seed=1)
    ms = generate_measurements(g, truth, 1.0, seeds=[2])
    ub = variance_map(g, ms, np.full(len(nonref_agents(g)), np.inf))   # known neighbours
    for _ in range(20):
        p = 10.0 ** rng.uniform(-2, 2, len(nonref_agents(g)))
        fp = variance_map(g, ms, p)
        assert np.all(fp > 0)
        assert np.all(fp <= ub + 1e-12)


def test_fixed_point_unique_across_uniform_inits():
    g, truth, ms = seeded_instance(31, 14)
    ref = variance_fixed_point(g, ms)
    for p0_var in (100.0, 10.0, 1.0, 0.1, 0.01):
        p = _uniform_precisions(g, p0_var)
        trajectory = [p]
        for _ in range(300):
            trajectory.append(variance_map(g, ms, trajectory[-1]))
        final = trajectory[-1]
        assert np.allclose(final, ref, rtol=1e-10)
        if is_feasible_start(g, ms, trajectory[0]):
            arr = np.array(trajectory)
            diffs = np.diff(arr, axis=0)
            for col in range(arr.shape[1]):
                d = diffs[:, col]
                assert np.all(d >= -1e-9) or np.all(d <= 1e-9)


# -- scalar message/belief operations ----------------------------------------

def test_incoming_message_golden_case():
    cached = Gaussian1D.from_moments(0.0, GOLDEN_VARIANCE)
    out = edge_message(0.0, 1.0, cached)
    assert out.variance() == pytest.approx(1.0 + GOLDEN_VARIANCE, rel=1e-12)
    assert out.mean() == pytest.approx(0.0)


def test_incoming_message_from_reference_pin():
    cached = Gaussian1D.from_moments(2.0, 1e-12)
    out = edge_message(7.0, 1.0, cached)
    assert out.mean() == pytest.approx(5.0)
    assert out.variance() == pytest.approx(1.0, abs=1e-9)


def test_incoming_message_flat_cached():
    assert edge_message(1.0, 1.0, FLAT).is_flat


def test_combine_incoming_precision_weighted_average():
    a = Gaussian1D.from_moments(5.0, 1.0)
    b = Gaussian1D.from_moments(5.0, 1.0 + GOLDEN_VARIANCE)
    belief = a * b
    assert belief.variance() == pytest.approx(GOLDEN_VARIANCE, abs=1e-12)
    assert belief.mean() == pytest.approx(5.0)
    assert math.prod([], start=FLAT).is_flat
    assert (FLAT * FLAT).is_flat


# -- engine -------------------------------------------------------------------

def _engine(graph, meas, mu1=0.0, init=None):
    return LsbpEngine(graph, meas, init or BeliefInit(), reference_value=mu1)


def test_single_edge_one_round():
    g = Graph.from_edges(2, [(1, 2)])
    ms = measurement_set({(1, 2): (7.0, 2.0)})
    eng = _engine(g, ms, mu1=2.0)
    eng.sync_round()
    assert eng.estimates()[2] == pytest.approx(5.0)
    assert eng.variances()[2] == pytest.approx(2.0, abs=1e-9)


def test_engine_round_matches_scalar_operations():
    g, truth, ms = seeded_instance(77, 9)
    eng = _engine(g, ms, truth.reference_value)
    eng.sync_round()   # caches now hold round-1 broadcasts
    before = beliefs(eng)
    eng.sync_round()
    after = beliefs(eng)
    for i in g.agents:
        if i == g.reference:
            continue
        msgs = [edge_message(meas_r(ms, i, j), meas_sigma2(ms, i, j), before[j])
                for j in sorted(g.neighbors(i))]
        expect = math.prod(msgs, start=FLAT)
        got = after[i]
        assert got.precision == pytest.approx(expect.precision, rel=1e-12)
        if not expect.is_flat:
            assert got.mean() == pytest.approx(expect.mean(), rel=1e-9)


def test_zero_pdr_freezes_inboxes():
    g, truth, ms = seeded_instance(13, 8)
    eng = _engine(g, ms, truth.reference_value)
    nothing = delivery_mask(eng, [(np.random.default_rng(0), 0.0, 0.0)])
    assert not nothing.any()
    for _ in range(4):
        eng.sync_round(nothing)
    ests = eng.estimates()
    assert all(v is None for a, v in ests.items() if a != g.reference)


def test_sync_and_async_reach_same_fixed_point():
    g, truth, ms = seeded_instance(55, 12)
    sync = LinearScalingBP(max_iter=5000, mean_tol=1e-12, prec_tol=1e-13)
    sync.fit(g, ms, truth.reference_value)
    asyn = LinearScalingBP(max_iter=5000, mean_tol=1e-12, prec_tol=1e-13,
                           schedule="asynchronous", seed=5)
    asyn.fit(g, ms, truth.reference_value)
    assert sync.converged_ and asyn.converged_
    for a in g.agents:
        assert asyn.estimates_[a] == pytest.approx(sync.estimates_[a], abs=1e-9)


def test_uniform_init_seeds_caches_with_declared_beliefs():
    g, ms = triangle()
    init = BeliefInit(mode="uniform", variance=4.0, mean=1.5)
    eng = _engine(g, ms, mu1=0.0, init=init)
    e23 = directed_edge(eng, 2, 3)
    assert eng.edge_prec[0, e23] == pytest.approx(0.25)
    assert eng.edge_mean[0, e23] == pytest.approx(1.5)
    # the reference's declared initial belief is its pin
    assert eng.edge_prec[0, directed_edge(eng, 2, 1)] == eng.reference_precision


def test_uniform_start_is_the_information_form_mean_bit_for_bit():
    g, ms = triangle()
    rng = np.random.default_rng(12)
    pairs = [(0.1, 3.0), *zip(rng.normal(0, 100, 200).tolist(),
                              rng.uniform(0.01, 10, 200).tolist())]
    # the pin bites: for some pairs (p0 * m) / p0 is not m in floating point
    assert any((m * (1 / v)) / (1 / v) != m for m, v in pairs)
    for m, v in pairs:
        eng = _engine(g, ms, init=BeliefInit("uniform", v, m))
        p0 = 1.0 / v
        others = np.arange(eng.n) != eng.ref
        sent = others[eng.src]
        assert np.all(eng.prec[0, others] == p0) and np.all(eng.edge_prec[0, sent] == p0)
        want = (p0 * m) / p0
        assert np.all(eng.mean[0, others] == want) and np.all(eng.edge_mean[0, sent] == want)


@pytest.mark.parametrize("variance, mean", [(1e-320, 0.0), (0.5, 1e308), (1e-300, 1e10)])
def test_uniform_start_needs_finite_information_form(variance, mean):
    g, ms = triangle()
    est = LinearScalingBP(init="uniform", init_variance=variance, init_mean=mean)
    with pytest.raises(ValueError, match="finite"):
        est.fit(g, ms)


def test_uniform_start_rejects_infinite_variance():
    # 1/inf = 0 passes a finiteness check, but it is the flat start
    g, ms = triangle()
    with pytest.raises(ValueError, match="positive"):
        LinearScalingBP(init="uniform", init_variance=math.inf).fit(g, ms)


def test_rebuilt_purges_leaver_and_carries_survivors():
    g, truth, ms = seeded_instance(91, 10)
    eng = _engine(g, ms, truth.reference_value)
    for _ in range(3):
        eng.sync_round()
    victim = max(a for a in g.agents if a != g.reference)
    g2 = g.remove_agent(victim)
    eng2 = eng.rebuilt(g2, ms)   # a leave changes only the graph
    assert victim not in eng2.index
    for a in g2.agents:
        assert eng2.prec[0, eng2.index[a]] == eng.prec[0, eng.index[a]]


def test_async_nan_mean_raises_numeric_error():
    g, ms = triangle()
    eng = _engine(g, ms, mu1=0.0)
    eng.r[0, eng.dst == eng.index[2]] = np.nan   # agent 2's inbox measurements
    rng = np.random.default_rng(4)
    with pytest.raises(NumericError, match="non-finite belief after round"):
        iterate(eng, lambda e: e.async_round([rng.permutation(e.n)]), 50, 1e-9, 1e-12)


# -- convergence detection ----------------------------------------------------

def _snap(means, precs):
    return np.asarray(means, dtype=float), np.asarray(precs, dtype=float)


def test_flat_transition_counts_as_change():
    # snapshots: a flat agent's mean is NaN, which the mean change skips
    flat = _snap([math.nan], [0.0])
    info = _snap([1.0], [2.0])
    assert step_delta(flat, info)[0] == math.inf
    assert step_delta(info, flat)[0] == math.inf
    assert step_delta(flat, flat) == (0.0, 0.0)
    assert step_delta(_snap([math.nan, 1.0], [0.0, 2.0]), _snap([math.nan, 1.5], [0.0, 2.0])) \
        == (0.5, 0.0)


def test_agents_without_a_path_to_the_reference_are_flat_to_the_front_end():
    # from the uniform start the cut-off triangle 3-4-5 is informative, but
    # nothing pins its means: a fit that watched them ran all 500 rounds and
    # reported -131.8, 194.3 and -62.5 Hz for agents anchored to nothing
    g = Graph.from_edges(6, [(1, 2), (1, 6), (3, 4), (4, 5), (3, 5)])
    truth = generate_truth(g, seed=1)
    est = LinearScalingBP(init="uniform", max_iter=500).fit(
        g, generate_measurements(g, truth, seeds=[2]), truth.reference_value)
    assert est.converged_ and est.n_iter_ < 500
    assert [est.estimates_[a] for a in (3, 4, 5)] == [None] * 3
    assert [est.variances_[a] for a in (3, 4, 5)] == [math.inf] * 3
    assert None not in [est.estimates_[a] for a in (1, 2, 6)]


def test_triangle_converges_within_expected_iterations():
    g, ms = triangle(r12=4.0, r13=-1.0, r23=2.0)
    est = LinearScalingBP(max_iter=100, mean_tol=1e-9, prec_tol=1e-12)
    est.fit(g, ms, reference_value=0.0)
    # contraction rate ~0.382 per round implies convergence well under 60
    assert est.converged_ and est.n_iter_ <= 60


def test_variance_fixed_point_stops_at_its_first_non_finite_step(monkeypatch):
    # a noise std of 1e-160 squares to a subnormal variance: the precisions
    # grow until one overflows, and the iteration stops at that step instead
    # of running out its 100000 steps on non-finite values
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    ms = generate_measurements(g, generate_truth(g, 100.0, seed=0), sigma=1e-160)
    finite, update = [], lsbp._precision_update

    def counted(*args):
        p = update(*args)
        finite.append(bool(np.isfinite(p).all()))
        return p
    monkeypatch.setattr(lsbp, "_precision_update", counted)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
        variance_fixed_point(g, ms)
    assert finite[-1] is False and all(finite[:-1]) and len(finite) < 10000
    assert str(info.value) == f"non-finite precision at variance step {len(finite)}"


def test_fit_reports_trial_0_of_a_batch():
    g, truth, _ = seeded_instance(4, 10)
    batch = generate_measurements(g, truth, 1.0, seeds=[[4, t] for t in range(3)])
    first = generate_measurements(g, truth, 1.0, seeds=[[4, 0]])
    for make in (lambda: LinearScalingBP(schedule="asynchronous", seed=3),
                 lambda: LinearScalingBP(init="uniform", init_variance=4.0),
                 BeliefPropagation):
        got = make().fit(g, batch, truth.reference_value)
        want = make().fit(g, first, truth.reference_value)
        assert (got.estimates_, got.variances_, got.n_iter_, got.converged_) == \
            (want.estimates_, want.variances_, want.n_iter_, want.converged_)
