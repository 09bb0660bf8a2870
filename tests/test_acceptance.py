"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 is expected to FAIL and is kept faithful on purpose: on a
3-cycle the broadcast algorithm's converged mean is a different linear
unbiased estimate than weighted least squares (messages reuse full neighbor
beliefs, so evidence echoes around the cycle).  The test asserts the stated
equality anyway and reports the measured gap; the surrounding true facts
(WLS matches the closed form, the simulator matches the fixed-point oracle)
are asserted in criteria 3/5 and the oracle tests.
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from cfosync import (BeliefPropagation, Graph, LinearScalingBP, build_fixed_point_system,
                     build_linear_system, generate_measurements, generate_truth,
                     is_feasible_start, run_experiment, spectral_radius,
                     variance_fixed_point, variance_map, wls_solve)
from cfosync.cli import main as cli_main
from cfosync.config import ExperimentConfig, parse_topology
from cfosync.presets import SWEEP_VARIANCES, preset_configs

from helpers import (meas_r, measurement_set, nonref_agents, random_connected_graph,
                     random_tree, triangle)

ELEMENTWISE_SLACK = 1e-12          # criterion 1
SWEEP_COMMON_REL = 1e-8            # criterion 2
SWEEP_MAX_ITERS = 100
GOLDEN_TOL = 1e-10                 # criterion 3
ROWSUM_SLACK = 1e-12               # criterion 4
RHO_MARGIN = 1e-6
MEAN0_AGREEMENT = 1e-6
TREE_TOL = 1e-8                    # criterion 5
TRIANGLE_TOL = 1e-9                # criterion 6
MSE_CRLB_REL = 0.25                # criteria 7 and 9
CONVERGENCE_BOUND = 100            # criterion 7

GOLDEN_VARIANCE = (math.sqrt(5.0) - 1.0) / 2.0


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _random_instance(rng, n):
    graph = random_connected_graph(rng, n)
    recs = {}
    truth = generate_truth(graph, 100.0, seed=int(rng.integers(2**31)))
    for (i, j) in sorted(graph.edges):
        s2 = float(rng.uniform(0.25, 4.0))
        noise = float(rng.normal(0.0, math.sqrt(s2)))
        recs[i, j] = (truth.offsets[i] + truth.offsets[j] + noise, s2)
    return graph, truth, measurement_set(recs)


def test_criterion_01_variance_map_properties():
    rng = np.random.default_rng(1001)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        graph, _, ms = _random_instance(rng, n)
        m = len(nonref_agents(graph))
        bound = variance_map(graph, ms, np.full(m, np.inf))   # known neighbours
        ref_nbrs = graph.neighbors(graph.reference)
        ids = nonref_agents(graph)
        for _ in range(20):
            p = 10.0 ** rng.uniform(-2.0, 2.0, m)
            fp = variance_map(graph, ms, p)
            # P1-1: positive limited range
            if not np.all(fp > 0.0):
                violations += 1
            if not np.all(fp <= bound + ELEMENTWISE_SLACK):
                violations += 1
            for k, a in enumerate(ids):
                nbr_entries = [p[ids.index(j)] for j in graph.neighbors(a)
                               if j != graph.reference]
                if any(e > 0 for e in nbr_entries) and not bound[k] > fp[k]:
                    violations += 1
            # P1-2: scalability
            for alpha in (1.5, 2.0, 10.0):
                if not np.all(alpha * fp > variance_map(graph, ms, alpha * p)
                              - ELEMENTWISE_SLACK):
                    violations += 1
        # P1-3: monotonicity on ordered pairs
        for _ in range(20):
            p = 10.0 ** rng.uniform(-2.0, 2.0, m)
            q = p * rng.uniform(0.0, 1.0, m)
            if not np.all(variance_map(graph, ms, p)
                          >= variance_map(graph, ms, q) - ELEMENTWISE_SLACK):
                violations += 1
    ok = violations == 0
    _report(1, "variance-update properties (positivity/scalability/monotonicity)",
            ok, f"violations={violations}")
    assert ok


def test_criterion_02_variance_sweep_monotone_common_fixed_point():
    batch = preset_configs("variance-sweep")
    cfg0 = batch[0][1]
    graph = parse_topology(cfg0)
    truth = generate_truth(graph, cfg0.max_offset, seed=[cfg0.master_seed, 1, 0])
    meas = generate_measurements(graph, truth, cfg0.sigma,
                                 seeds=[[cfg0.master_seed, 2, 0]])
    m = len(nonref_agents(graph))
    for p0_var in SWEEP_VARIANCES:
        assert is_feasible_start(graph, meas, np.full(m, 1.0 / p0_var)), \
            f"P0={p0_var} is not a feasible start on the sweep topology"

    finals = []
    monotone_ok = True
    iters_ok = True
    for label, cfg in batch:
        trace = run_experiment(cfg)
        iters_ok &= (trace.rows[-1].iteration <= SWEEP_MAX_ITERS)
        # no timeline: every row holds the same agents
        stack = np.array([row.variances for row in trace.rows])
        series = {a: stack[:, k] for k, a in enumerate(trace.rows[0].agents)
                  if a != cfg.reference}
        for a, s in series.items():
            d = np.diff(s)
            slack = ELEMENTWISE_SLACK * float(np.max(s))
            if not (np.all(d <= slack) or np.all(d >= -slack)):
                monotone_ok = False
        finals.append(np.array([s[-1] for s in series.values()]))
    spread = max(float(np.max(np.abs(f - finals[0]) / finals[0]))
                 for f in finals[1:])
    common_ok = spread <= SWEEP_COMMON_REL
    ok = monotone_ok and common_ok and iters_ok
    _report(2, "variance sweep monotone and converging to one fixed point", ok,
            f"max relative spread={spread:.2e}, monotone={monotone_ok}, "
            f"within {SWEEP_MAX_ITERS} iters={iters_ok}")
    assert ok


def test_criterion_03_golden_ratio_fixed_point():
    g, ms = triangle(sigma2=1.0, r12=1.3, r13=-2.1, r23=0.4)
    est = LinearScalingBP(max_iter=200, mean_tol=1e-12, prec_tol=1e-13)
    est.fit(g, ms, reference_value=0.0)
    dev = max(abs(est.variances_[2] - GOLDEN_VARIANCE),
              abs(est.variances_[3] - GOLDEN_VARIANCE))
    ok = est.converged_ and dev <= GOLDEN_TOL
    _report(3, "triangle converged variance hits the golden-ratio root", ok,
            f"max deviation={dev:.2e}")
    assert ok


def test_criterion_04_mean_iteration_contracts_and_forgets_init():
    rng = np.random.default_rng(4004)
    worst_rho = 0.0
    worst_gap = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(5, 31))
        graph, truth, ms = _random_instance(rng, n)
        pstar = variance_fixed_point(graph, ms)
        fps = build_fixed_point_system(graph, ms, pstar, truth.reference_value)
        sums = fps.K.sum(axis=1)
        ok &= bool(np.all(sums <= 1.0 + ROWSUM_SLACK))
        for k, a in enumerate(fps.columns):
            if graph.reference in graph.neighbors(a):
                ok &= bool(sums[k] < 1.0)
        rho = spectral_radius(fps.K)
        worst_rho = max(worst_rho, rho)
        ok &= rho < 1.0 - RHO_MARGIN

        fits = []
        for mean0 in (0.0, 1e6):
            est = LinearScalingBP(init="uniform", init_variance=10.0,
                                  init_mean=mean0, max_iter=60000,
                                  mean_tol=1e-10, prec_tol=1e-12)
            est.fit(graph, ms, truth.reference_value)
            ok &= est.converged_
            fits.append(est.estimates_)
        gap = max(abs(fits[0][a] - fits[1][a]) for a in graph.agents)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= MEAN0_AGREEMENT
    _report(4, "mean update substochastic, contracting, init-independent", ok,
            f"max rho={worst_rho:.6f}, max init gap={worst_gap:.2e}")
    assert ok


def test_criterion_05_tree_exactness_both_algorithms():
    rng = np.random.default_rng(5005)
    worst = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(4, 26))
        graph = random_tree(rng, n)
        truth = generate_truth(graph, 100.0, seed=int(rng.integers(2**31)))
        ms = generate_measurements(graph, truth, 1.0,
                                   seeds=[int(rng.integers(2**31))])
        wls = wls_solve(build_linear_system(graph, ms, truth.reference_value))
        bp = BeliefPropagation(max_iter=500, mean_tol=1e-12, prec_tol=1e-12)
        bp.fit(graph, ms, truth.reference_value)
        ls = LinearScalingBP(max_iter=60000, mean_tol=1e-12, prec_tol=1e-13)
        ls.fit(graph, ms, truth.reference_value)
        ok &= bp.converged_ and ls.converged_
        for a, (v,) in wls.items():   # the one trial's estimate
            worst = max(worst, abs(bp.estimates_[a] - v),
                        abs(ls.estimates_[a] - v))
    ok &= worst <= TREE_TOL
    _report(5, "converged estimates equal WLS on trees (both algorithms)", ok,
            f"max |estimate - WLS|={worst:.2e} over 50 trees")
    assert ok


def test_criterion_06_triangle_closed_form():
    g, ms = triangle(sigma2=1.0, r12=3.1, r13=-0.7, r23=1.9)
    mu1 = 0.5
    a = meas_r(ms, 1, 2) - mu1
    b = meas_r(ms, 1, 3) - mu1
    s = meas_r(ms, 2, 3)
    closed_form = (2 * a - b + s) / 3
    wls = wls_solve(build_linear_system(g, ms, mu1))
    est = LinearScalingBP(max_iter=2000, mean_tol=1e-13, prec_tol=1e-13)
    est.fit(g, ms, mu1)
    got = est.estimates_[2]
    wls_matches_closed = abs(wls[2][0] - closed_form) <= TRIANGLE_TOL
    lsbp_matches = (abs(got - closed_form) <= TRIANGLE_TOL
                    and abs(got - wls[2][0]) <= TRIANGLE_TOL)
    ok = wls_matches_closed and lsbp_matches
    _report(6, "triangle converged mean equals (2a-b+s)/3 and WLS", ok,
            f"lsbp={got:.9f}, wls={wls[2][0]:.9f}, closed={closed_form:.9f}, "
            f"gap={abs(got - wls[2][0]):.3e}; broadcast beliefs reuse full "
            f"neighbor beliefs, so cycle evidence echoes and the fixed point "
            f"is a different unbiased estimate than WLS")
    assert wls_matches_closed
    assert lsbp_matches   # cannot hold on a cycle; kept faithful, see docstring


def test_criterion_07_mse_approaches_crlb_under_packet_loss():
    ok = True
    details = []
    for label, cfg in preset_configs("pdr-sweep"):
        if cfg.algorithm != "lsbp":
            continue
        trace = run_experiment(cfg)
        worst_conv = max((c if c is not None else math.inf)
                         for c in trace.per_trial_converged_at)
        rel = abs(trace.final_mse - trace.oracle["crlb_avg"]) / trace.oracle["crlb_avg"]
        ok &= worst_conv <= CONVERGENCE_BOUND and rel <= MSE_CRLB_REL
        details.append(f"{label}: converged by {worst_conv}, "
                       f"mse={trace.final_mse:.4f}, "
                       f"crlb={trace.oracle['crlb_avg']:.4f}, rel={rel:.3f}")
    _report(7, "N=100 MSE within 25% of CRLB average at PDR 0.6/0.8", ok,
            "; ".join(details))
    assert ok


def test_criterion_08_message_count_scaling():
    edges = "edges:" + ";".join(f"{i}-{j}" for i in range(1, 11)
                                for j in range(i + 1, 11))
    counts = {}
    for algo in ("lsbp", "bp"):
        cfg = ExperimentConfig(topology=edges, algorithm=algo, l_max=3,
                               master_seed=1)
        trace = run_experiment(cfg)
        counts[algo] = sorted({row.broadcasts for row in trace.rows[1:]})
    ok = counts["lsbp"] == [10.0] and counts["bp"] == [90.0]
    _report(8, "fully connected N=10 message counters read 10 vs 90", ok,
            f"lsbp={counts['lsbp']}, bp={counts['bp']}")
    assert ok


def test_criterion_09_dynamic_topology_mse_dip_and_recovery():
    cfg = dict(preset_configs("dynamic-topology"))["lsbp"]
    trace = run_experiment(cfg)
    mse = [row.avg_mse for row in trace.rows]
    rise = mse[6] > mse[5]
    rel = abs(trace.final_mse - trace.oracle["crlb_avg"]) / trace.oracle["crlb_avg"]
    ok = rise and rel <= MSE_CRLB_REL
    _report(9, "leave@5 raises MSE at iteration 6; final MSE near final CRLB",
            ok, f"mse[5]={mse[5]:.4f}, mse[6]={mse[6]:.4f}, "
                f"final rel gap={rel:.3f}")
    assert ok


def test_criterion_10_bit_identical_reruns(tmp_path):
    cfg_text = "\n".join([
        "topology = random:n=20,width=1000,height=1000,radius=420,seed=6",
        "algorithm = lsbp",
        "pdr = 0.7",
        "l_max = 15",
        "trials = 2",
        "master_seed = 12",
        "timeline = 4:leave:5;8:join:500.0,500.0",
        "oracle = true",
    ]) + "\n"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg_text)
    outputs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        rc = cli_main(["--config", str(cfg_file), "--out", str(outdir)])
        assert rc == 0
        outputs.append(((outdir / "trace.csv").read_bytes(),
                        (outdir / "summary.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    _report(10, "identical seeds give byte-identical trace.csv/summary.json",
            ok, f"trace bytes={len(outputs[0][0])}")
    assert ok
    # sanity: the summary parses and carries the oracle columns
    summary = json.loads(outputs[0][1])
    assert "rho_K" in summary and summary["mse_avg"] >= 0.0
