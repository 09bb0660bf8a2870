import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from cfosync import (BeliefPropagation, ExperimentConfig, LinearScalingBP,
                     generate_measurements, generate_truth, run_experiment)
from cfosync.errors import ConfigError
from cfosync.metrics import summary_dict, trace_to_csv
from cfosync.netsim import _Batch, _make_engine, parse_timeline, validate_timeline
from cfosync.config import parse_topology, validate_config

from helpers import preset_density_graph

BERNOULLI_TOL = 0.005

TRIANGLE = "edges:1-2;1-3;2-3"
COMPLETE10 = "edges:" + ";".join(f"{i}-{j}" for i in range(1, 11)
                                 for j in range(i + 1, 11))


def test_network_model_validation():
    with pytest.raises(ValueError):
        validate_config(ExperimentConfig(pdr=1.5))
    with pytest.raises(ValueError):
        validate_config(ExperimentConfig(skip_prob=1.0))


def _batch(cfg, graph=None):
    """A simulator batch of cfg's trials and its engine on its topology
    (or on `graph`), before any round."""
    graph = graph or parse_topology(cfg)
    truth = generate_truth(graph, cfg.max_offset, seed=[cfg.master_seed, 1, 0])
    batch = _Batch(cfg, graph, truth)
    engine = _make_engine(cfg, graph, batch.meas, truth)
    batch._topology(engine)
    return batch, engine


@pytest.mark.parametrize("pdr, skip_prob", [(0.7, 0.0), (0.7, 0.2), (1.0, 0.2), (1.0, 0.0)])
def test_loss_stream_draws_per_directed_edge(pdr, skip_prob):
    # per trial and round: n skip uniforms if skip_prob > 0, then one
    # uniform per directed edge in CSR order if pdr < 1; nothing lossless
    cfg = ExperimentConfig(topology=COMPLETE10, pdr=pdr, skip_prob=skip_prob, trials=3,
                           master_seed=5)
    batch, engine = _batch(cfg)
    n, m = engine.n, len(engine.src)
    assert m == 90
    skips, arrived = batch._losses(engine)
    for t in range(3):
        stream = np.random.default_rng([5, 3, t])
        skip = stream.random(n) < skip_prob if skip_prob > 0 else np.zeros(n, bool)
        delivered = stream.random(m) < pdr if pdr < 1 else np.ones(m, bool)
        assert stream.bit_generator.state == batch.loss_rngs[t].bit_generator.state
        if skips is not None:
            assert np.array_equal(skips[t], skip)
        if arrived is not None:
            assert np.array_equal(arrived[t], delivered & ~skip[engine.src])
    assert (skips is None) == (skip_prob == 0)
    assert (arrived is None) == (pdr == 1 and skip_prob == 0)


def test_loss_stream_delivery_rate_and_independent_directions():
    cfg = ExperimentConfig(topology=COMPLETE10, pdr=0.8, trials=50, master_seed=1)
    batch, engine = _batch(cfg)
    arrived = np.concatenate([batch._losses(engine)[1] for _ in range(100)])
    assert arrived.size >= 100_000
    assert abs(arrived.mean() - 0.8) < BERNOULLI_TOL
    # j -> i and i -> j are separate draws: they disagree at rate 2 p (1 - p)
    one_way = engine.src < engine.dst
    disagree = arrived[:, one_way] != arrived[:, engine.rev[one_way]]
    assert abs(disagree.mean() - 2 * 0.8 * 0.2) < BERNOULLI_TOL


def test_zero_pdr_delivers_nothing():
    cfg = ExperimentConfig(topology=COMPLETE10, pdr=0.0, skip_prob=0.3, trials=4)
    batch, engine = _batch(cfg)
    for _ in range(5):
        assert not batch._losses(engine)[1].any()


@pytest.mark.parametrize("algorithm", ["lsbp", "bp"])
def test_lossy_round_memory_is_linear_in_edges(algorithm):
    # the whole round (loss draws, engine round, record) at N = 2000 stays
    # below n^2 bytes; an (n, n) float draw alone takes 8 n^2
    n = 2000
    cfg = ExperimentConfig(algorithm=algorithm, pdr=0.8, skip_prob=0.1, master_seed=2)
    batch, engine = _batch(cfg, preset_density_graph(n, seed=5))
    assert 20 * n < len(engine.src) < 30 * n   # preset density
    batch._round(engine)
    tracemalloc.start()
    try:
        batch._round(engine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, f"{peak / 2**20:.1f} MiB"


def test_parse_timeline():
    evs = parse_timeline("5:leave:4;10:join:1500.0,2000.0")
    assert evs[0].iteration == 5 and evs[0].kind == "leave" and evs[0].agent == 4
    assert evs[1].position == (1500.0, 2000.0)
    assert parse_timeline("") == []
    for bad in ("5:leave", "x:leave:4", "5:dance:4", "5:join:oops",
                "9:leave:4;5:leave:3"):
        with pytest.raises(ConfigError):
            parse_timeline(bad)


def test_validate_timeline_rejects_unknown_and_reference():
    cfg = ExperimentConfig(topology=TRIANGLE)
    g = parse_topology(cfg)
    with pytest.raises(ConfigError, match="unknown agent"):
        validate_timeline(parse_timeline("3:leave:9"), g, cfg)
    with pytest.raises(ConfigError, match="reference"):
        validate_timeline(parse_timeline("3:leave:1"), g, cfg)
    with pytest.raises(ConfigError, match="positioned"):
        validate_timeline(parse_timeline("3:join:0,0"), g, cfg)


def test_run_zero_iterations_records_initial_state_only():
    cfg = ExperimentConfig(topology=TRIANGLE, l_max=0, master_seed=4)
    trace = run_experiment(cfg)
    assert len(trace.rows) == 1
    assert trace.rows[0].iteration == 0
    assert trace.rows[0].n_flat == 2   # zero-precision init, only ref defined


def test_run_is_deterministic():
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           pdr=0.7, l_max=12, trials=2, master_seed=99)
    t1, t2 = run_experiment(cfg), run_experiment(cfg)
    assert trace_to_csv(t1) == trace_to_csv(t2)
    assert summary_dict(t1) == summary_dict(t2)


def test_trace_bytes_are_pinned():
    # 12 trials (numpy's pairwise sum blocks above 8 values), agents flat in
    # some trials but not all, a leave and a join.  A deliberate change of
    # the random streams or of the summation order updates these digests.
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           pdr=0.7, trials=12, l_max=25, master_seed=21,
                           timeline="6:leave:5;9:join:250,250", oracle=True)
    trace = run_experiment(cfg)
    csv = trace_to_csv(trace).encode()
    summary = (json.dumps(summary_dict(trace), indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(csv).hexdigest() == \
        "26e0d7b1c4beac758e2261bc9a445dac31a8cb12546f767dacba516464e4d12a"
    assert hashlib.sha256(summary).hexdigest() == \
        "6924889b5eae1ea559f59ac994f8f38306f919f2e9f10e91443184f33d620073"


def test_async_trace_bytes_are_pinned():
    # asynchronous LSBP with skips and losses over 12 trials, a leave and a
    # join.  Each inbox is summed left to right in CSR order, as in the
    # synchronous round; a change of that order or of the update schedule
    # updates these digests.
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           schedule="asynchronous", pdr=0.7, skip_prob=0.1, trials=12,
                           l_max=25, master_seed=21, timeline="6:leave:5;9:join:250,250",
                           oracle=True)
    trace = run_experiment(cfg)
    csv = trace_to_csv(trace).encode()
    summary = (json.dumps(summary_dict(trace), indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(csv).hexdigest() == \
        "d2b1612cf091fdc9086c8f8aeb1662e733552b7a797fbedb80843f49dddda363"
    assert hashlib.sha256(summary).hexdigest() == \
        "1fc81fce23d65cf95d3fb2e3134a8912bc20c4628e7dcd770931543658f0178e"


@pytest.mark.parametrize("algorithm, estimator",
                         [("lsbp", LinearScalingBP), ("bp", BeliefPropagation)])
def test_simulator_and_front_end_share_the_stop_rule(algorithm, estimator):
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           algorithm=algorithm, master_seed=8, mean_tol=1e-9,
                           prec_tol=1e-9, l_max=3000)
    trace = run_experiment(cfg)
    g = parse_topology(cfg)
    truth = generate_truth(g, cfg.max_offset, seed=[8, 1, 0])
    meas = generate_measurements(g, truth, cfg.sigma, seed=[8, 2, 0])
    est = estimator(max_iter=cfg.l_max, mean_tol=cfg.mean_tol,
                    prec_tol=cfg.prec_tol).fit(g, meas, truth.reference_value)
    assert est.converged_
    assert trace.per_trial_converged_at[0] == est.n_iter_
    assert trace.final_estimates == est.estimates_


def test_message_counts_complete_graph():
    for algo, expected in (("lsbp", 10.0), ("bp", 90.0)):
        cfg = ExperimentConfig(topology=COMPLETE10, algorithm=algo, l_max=3,
                               master_seed=1)
        trace = run_experiment(cfg)
        assert [r.broadcasts for r in trace.rows[1:]] == [expected] * 3


def test_deliveries_plus_drops_equals_intended():
    cfg = ExperimentConfig(topology=COMPLETE10, pdr=0.6, l_max=5, master_seed=2)
    trace = run_experiment(cfg)
    for row in trace.rows[1:]:
        assert row.deliveries + row.drops == 90.0
        assert row.drops > 0


def test_skip_prob_reduces_broadcasts():
    cfg = ExperimentConfig(topology=COMPLETE10, skip_prob=0.5, l_max=20,
                           mean_tol=1e-15, master_seed=3)
    trace = run_experiment(cfg)
    sent = [r.broadcasts for r in trace.rows[1:]]
    assert min(sent) < 10.0
    assert all(s <= 10.0 for s in sent)


def test_leave_event_fires_after_its_iteration():
    cfg = ExperimentConfig(topology=TRIANGLE, l_max=5, timeline="2:leave:3",
                           master_seed=5, mean_tol=1e-15)
    trace = run_experiment(cfg)
    assert 3 in trace.rows[2].means       # still present in row 2
    assert 3 not in trace.rows[3].means   # gone from row 3 on


def test_join_event_adds_fresh_id_and_estimate():
    topo = "random:n=6,width=100,height=100,radius=200,seed=2"
    cfg = ExperimentConfig(topology=topo, l_max=8, timeline="3:join:50,50",
                           master_seed=6, mean_tol=1e-15)
    trace = run_experiment(cfg)
    assert 7 not in trace.rows[3].means
    assert 7 in trace.rows[4].means        # joins before round 4, broadcasts there
    assert trace.rows[4].means[7] is not None
    assert trace.final_estimates[7] is not None


def test_events_beyond_horizon_never_fire():
    cfg = ExperimentConfig(topology=TRIANGLE, l_max=3, timeline="7:leave:3",
                           master_seed=7, mean_tol=1e-15)
    trace = run_experiment(cfg)
    assert 3 in trace.rows[-1].means


def test_sigma_override_for_missing_edge_rejected():
    cfg = ExperimentConfig(topology=TRIANGLE, sigma_overrides="1-9:2.0")
    with pytest.raises(ConfigError, match="non-edge"):
        run_experiment(cfg)


def test_oracle_attachment():
    cfg = ExperimentConfig(topology=TRIANGLE, l_max=60, master_seed=8,
                           oracle=True, mean_tol=1e-10, prec_tol=1e-12)
    trace = run_experiment(cfg)
    assert trace.oracle is not None
    assert trace.oracle["rho_K"] == pytest.approx(0.3819660112501051, abs=1e-6)
    assert set(trace.oracle["wls_mean"]) == {2, 3}
    assert trace.oracle["crlb_avg"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_leave_isolating_an_agent_flags_it_unobservable():
    cfg = ExperimentConfig(topology="edges:1-2;2-3", l_max=6,
                           timeline="2:leave:2", master_seed=11,
                           mean_tol=1e-12)
    trace = run_experiment(cfg)
    row = trace.rows[3]   # first row after the leave fires
    assert row.unobservable == (3,)
    assert row.means[3] is None   # empty neighborhood resets the belief


def test_dynamic_mse_recovers_after_joins():
    from cfosync.presets import preset_configs
    cfg = dict(preset_configs("dynamic-topology", {"trials": 20}))["lsbp"]
    trace = run_experiment(cfg)
    mse = [r.avg_mse for r in trace.rows]
    assert mse[6] > mse[5]          # leaves bite
    assert min(mse[13:]) < mse[11]  # joiners' measurements help


def test_asynchronous_schedule_runs_and_converges():
    cfg = ExperimentConfig(topology=TRIANGLE, schedule="asynchronous",
                           l_max=200, master_seed=9, mean_tol=1e-10)
    sync_cfg = dataclasses.replace(cfg, schedule="synchronous")
    t_async = run_experiment(cfg)
    t_sync = run_experiment(sync_cfg)
    assert t_async.converged_at is not None
    for a in (2, 3):
        assert t_async.final_estimates[a] == pytest.approx(
            t_sync.final_estimates[a], abs=1e-8)


def test_async_with_packet_loss_reaches_lossless_fixed_point():
    # asynchronous order + dropped broadcasts only delay the iteration; the
    # fixed point is the lossless synchronous one
    topo = "random:n=15,width=800,height=800,radius=350,seed=4"
    lossless = ExperimentConfig(topology=topo, schedule="synchronous",
                                l_max=4000, master_seed=17,
                                mean_tol=1e-11, prec_tol=1e-12)
    lossy = dataclasses.replace(lossless, schedule="asynchronous", pdr=0.7)
    t_ref = run_experiment(lossless)
    t_lossy = run_experiment(lossy)
    assert t_ref.converged_at is not None
    assert t_lossy.converged_at is not None
    for a, v in t_ref.final_estimates.items():
        assert t_lossy.final_estimates[a] == pytest.approx(v, abs=1e-7)
