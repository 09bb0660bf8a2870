import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from cfosync import (BeliefPropagation, ExperimentConfig, Graph, LinearScalingBP,
                     generate_measurements, generate_truth, run_experiment)
import cfosync.netsim as netsim
from cfosync.bp import BpEngine
from cfosync.errors import ConfigError, UnobservableError
from cfosync.lsbp import LsbpEngine
from cfosync.metrics import RunTrace, summary_dict, trace_to_csv
from cfosync.netsim import (_Batch, _make_engine, _trial_mean, parse_timeline,
                            validate_timeline)
from cfosync.config import parse_sigma_overrides, parse_topology, validate_config

from helpers import loop_trial_mean, preset_density_graph

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
    batch = _Batch(cfg, graph, truth, parse_sigma_overrides(cfg.sigma_overrides))
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
    skips, sent, arrived = batch._losses(engine)
    for t in range(3):
        stream = np.random.default_rng([5, 3, t])
        skip = stream.random(n) < skip_prob if skip_prob > 0 else np.zeros(n, bool)
        delivered = stream.random(m) < pdr if pdr < 1 else np.ones(m, bool)
        assert stream.bit_generator.state == batch.loss_rngs[t].bit_generator.state
        if skips is not None:
            assert np.array_equal(skips[t], skip)
            assert np.array_equal(sent[t], ~skip[engine.src])
        if arrived is not None:
            assert np.array_equal(arrived[t], delivered & ~skip[engine.src])
    assert (skips is None) == (sent is None) == (skip_prob == 0)
    assert (arrived is None) == (pdr == 1 and skip_prob == 0)


def test_loss_stream_delivery_rate_and_independent_directions():
    cfg = ExperimentConfig(topology=COMPLETE10, pdr=0.8, trials=50, master_seed=1)
    batch, engine = _batch(cfg)
    arrived = np.concatenate([batch._losses(engine)[2] for _ in range(100)])
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
        assert not batch._losses(engine)[2].any()


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


def test_record_memory_does_not_grow_with_trials_times_rounds():
    # the run holds each trial's latest state, not each trial's every round:
    # from 2 to 40 trials the peak grows by less than one (n,) float array
    # per extra trial per round (the engine's own per-trial state fits)
    cfg = ExperimentConfig(topology="random:n=30,width=3000,height=4000,radius=1000,seed=7",
                           pdr=0.7, l_max=100, master_seed=3, mean_tol=1e-300,
                           prec_tol=1e-300)
    run_experiment(dataclasses.replace(cfg, trials=2))   # warm-up
    peaks = []
    for trials in (2, 40):
        tracemalloc.start()
        try:
            trace = run_experiment(dataclasses.replace(cfg, trials=trials))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(trace.rows) == 101
    bound = 8 * 30 * (40 - 2) * len(trace.rows)
    assert peaks[1] - peaks[0] < bound, f"{(peaks[1] - peaks[0]) / 2**20:.2f} MiB"


def test_parse_timeline():
    evs = parse_timeline("5:leave:4;10:join:1500.0,2000.0")
    assert evs[0].iteration == 5 and evs[0].kind == "leave" and evs[0].agent == 4
    assert evs[1].position == (1500.0, 2000.0)
    assert parse_timeline("") == []
    for bad, reason in (("5:leave", "bad timeline entry '5:leave'"),
                        ("x:leave:4", "bad timeline entry 'x:leave:4'"),
                        ("5:leave:x", "bad timeline entry '5:leave:x'"),
                        ("5:join:oops", "bad timeline entry '5:join:oops'"),
                        ("-1:join:1,2", "timeline iteration must be >= 0: '-1:join:1,2'"),
                        ("5:dance:4", "unknown timeline event kind 'dance'"),
                        ("9:leave:4;5:leave:3", "timeline iterations must be non-decreasing")):
        with pytest.raises(ConfigError) as info:
            parse_timeline(bad)
        assert str(info.value) == reason


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
    # zero-precision init, only ref defined
    row = trace.rows[0]
    assert [a for a, m in zip(row.agents, row.means) if np.isnan(m)] == [2, 3]


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


def test_bp_trace_bytes_are_pinned():
    # per-edge BP with skips and losses on the pinned-digest config: the
    # cavity sums, reverse-edge lookups and rebuilds after the leave and the
    # join all feed these bytes
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           algorithm="bp", pdr=0.7, skip_prob=0.1, trials=12, l_max=25,
                           master_seed=21, timeline="6:leave:5;9:join:250,250", oracle=True)
    trace = run_experiment(cfg)
    csv = trace_to_csv(trace).encode()
    summary = (json.dumps(summary_dict(trace), indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(csv).hexdigest() == \
        "ded1aab5e83349bf26aef3312e8d35f59ea458c57ba243ea4b743cb31bd808a3"
    assert hashlib.sha256(summary).hexdigest() == \
        "76e96374b43c6ffdc0dd0444d7ab188f942aabe0253fae13b626d5070b55045a"


@pytest.mark.parametrize("options, csv_digest, summary_digest", [
    ({}, "21007003f66915196083565c6f80ff513aa6c47189331ac02a5dc4f386168c65",
     "021ea3940db7a136ba7a3b72cf97f3aa6a56799638ca5061c8c37f6b5ee28a55"),
    ({"schedule": "asynchronous"},
     "71e5a19b9dd08507fbae8a72c29903fa5a779cba5e4fa06760c9c7830aeab3e7",
     "8ed0265e296398f4a1269ed58409c55f14ddcf120af263ba667038bd832dbfe1"),
    ({"algorithm": "bp"},
     "305394bb4972a748ae9afbe93e3b1938fdcc21f28ff906a9144463dc4c8864a3",
     "8d2b26655f43477c582ac87b29b25dc96b7ae7ef2ee9a52a4db550bd3325ef38"),
])
def test_same_round_events_bytes_are_pinned(options, csv_digest, summary_digest):
    # several events share a stamp: two joiners whose neighbours leave in
    # the joiners' own round, then a joiner leaving in a later round next
    # to a join and another leave.  Each joiner's measurements are drawn on
    # the graph right after its own join, so these bytes also pin how many
    # normals each joiner's stream gives up.
    cfg = ExperimentConfig(
        topology="random:n=30,width=3000,height=4000,radius=1500,seed=7",
        timeline="3:join:1500.0,2000.0;3:leave:4;3:join:1510.0,2010.0;3:leave:5;"
                 "6:leave:31;6:join:100.0,100.0;6:leave:2",
        pdr=0.8, skip_prob=0.1, trials=7, master_seed=11, l_max=30, mean_tol=0.1,
        oracle=True, **options)
    trace = run_experiment(cfg)
    csv = trace_to_csv(trace).encode()
    summary = (json.dumps(summary_dict(trace), indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(csv).hexdigest() == csv_digest
    assert hashlib.sha256(summary).hexdigest() == summary_digest


def test_final_estimates_are_none_exactly_where_the_last_mean_is_nan():
    # the pinned-digest config, whose early rows hold agents flat in every
    # trial; every prefix of its rows is read as a trace of its own
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           pdr=0.7, trials=12, l_max=25, master_seed=21,
                           timeline="6:leave:5;9:join:250,250")
    rows, nones = run_experiment(cfg).rows, 0
    for k, row in enumerate(rows):
        finals = RunTrace(rows=rows[:k + 1]).final_estimates
        flat = np.isnan(row.means)
        assert list(finals) == list(row.agents)
        assert [v is None for v in finals.values()] == flat.tolist()
        assert [v for v in finals.values() if v is not None] == row.means[~flat].tolist()
        nones += int(flat.sum())
    assert nones > 0


def test_trial_mean_averages_informative_trials_only():
    nan = np.nan
    trials = np.array([[1.0, nan, nan, 2.0], [3.0, 4.0, nan, 2.5]])
    np.testing.assert_array_equal(_trial_mean(trials), [2.0, 4.0, nan, 2.25])


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 16, 30, 200])
def test_trial_mean_matches_the_per_agent_loop(trials):
    # trial counts on both sides of numpy's pairwise-sum blocks (8 unrolled,
    # 128 per block); each agent has its own share of flat trials, from none
    # to all of them
    rng = np.random.default_rng(trials)
    values = rng.normal(0.0, 1.0, (trials, 300)) * 10.0 ** rng.uniform(-3, 3, (trials, 300))
    share = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 298)])
    values[rng.random((trials, 300)) < share] = np.nan
    got, want = _trial_mean(values), loop_trial_mean(values)
    assert got.tobytes() == want.tobytes()


def _dynamic_topology_lsbp():
    from cfosync.presets import preset_configs
    return dict(preset_configs("dynamic-topology", {"trials": 3}))["lsbp"]


@pytest.mark.parametrize("cfg, event_rounds", [
    (ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                      pdr=0.7, trials=3, l_max=25, master_seed=21,
                      timeline="6:leave:5;9:join:250,250", oracle=True), 2),
    (_dynamic_topology_lsbp(), 3),   # 8 events: four leaves, then joins in two rounds
], ids=["leave-join", "dynamic-topology"])
def test_oracle_lays_out_the_directed_edges_once(monkeypatch, cfg, event_rounds):
    # only the graphs an engine runs on are laid out, each once: the first
    # and one per round of timeline events, which rebuilds the engine once;
    # validating the timeline lays out none, and the oracle reads the final
    # graph's layout, which the engine has already built
    real, layouts = Graph.layout.func, []
    monkeypatch.setattr(Graph.layout, "func", lambda g: layouts.append(g) or real(g))
    # patched on each engine class, not on their base: a class that holds
    # its own `rebuilt` (as a tracer's uninstall can leave it) would hide a
    # patch of the base's
    rebuilds = []
    for engine_cls in (LsbpEngine, BpEngine):
        monkeypatch.setattr(engine_cls, "rebuilt", lambda e, *args, rebuilt=engine_cls.rebuilt:
                            rebuilds.append(e) or rebuilt(e, *args))
    counted = {}

    def counting(name):
        inner = getattr(netsim, name)

        def wrapper(*args):
            before = len(layouts)
            out = inner(*args)
            counted[name] = len(layouts) - before
            return out
        return wrapper

    for name in ("validate_timeline", "_attach_oracle"):
        monkeypatch.setattr(netsim, name, counting(name))
    trace = run_experiment(cfg)
    assert len(layouts) == event_rounds + 1 and len({id(g) for g in layouts}) == len(layouts)
    assert len(rebuilds) == event_rounds
    assert counted == {"validate_timeline": 0, "_attach_oracle": 0}
    assert trace.oracle["crlb_avg"] > 0


@pytest.mark.parametrize("cfg, topologies", [
    (ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                      pdr=0.7, trials=3, l_max=25, master_seed=21, oracle=True), 1),
    (ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                      pdr=0.7, trials=3, l_max=25, master_seed=21,
                      timeline="6:leave:5;9:join:250,250", oracle=True), 3),
    (_dynamic_topology_lsbp(), 4),   # the first, then three rounds of events
], ids=["static", "leave-join", "dynamic-topology"])
def test_one_reachability_search_per_topology(monkeypatch, cfg, topologies):
    # the generator's connectivity check, the oracle's precondition, each
    # topology's rows and both oracle systems share one search per graph
    real, searched = Graph.unreachable_agents.func, []
    monkeypatch.setattr(Graph.unreachable_agents, "func",
                        lambda g: searched.append(g) or real(g))
    run_experiment(cfg)
    assert len(searched) == topologies and len({id(g) for g in searched}) == topologies


@pytest.mark.parametrize("algorithm, estimator",
                         [("lsbp", LinearScalingBP), ("bp", BeliefPropagation)])
def test_simulator_and_front_end_share_the_stop_rule(algorithm, estimator):
    cfg = ExperimentConfig(topology="random:n=20,width=500,height=500,radius=200,seed=3",
                           algorithm=algorithm, master_seed=8, mean_tol=1e-9,
                           prec_tol=1e-9, l_max=3000)
    trace = run_experiment(cfg)
    g = parse_topology(cfg)
    truth = generate_truth(g, cfg.max_offset, seed=[8, 1, 0])
    meas = generate_measurements(g, truth, cfg.sigma, seeds=[[8, 2, 0]])
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
    assert 3 in trace.rows[2].agents       # still present in row 2
    assert 3 not in trace.rows[3].agents   # gone from row 3 on


def test_join_event_adds_fresh_id_and_estimate():
    topo = "random:n=6,width=100,height=100,radius=200,seed=2"
    cfg = ExperimentConfig(topology=topo, l_max=8, timeline="3:join:50,50",
                           master_seed=6, mean_tol=1e-15)
    trace = run_experiment(cfg)
    assert 7 not in trace.rows[3].agents
    row = trace.rows[4]
    assert 7 in row.agents                 # joins before round 4, broadcasts there
    assert not np.isnan(row.means[row.agents.index(7)])
    assert trace.final_estimates[7] is not None


def test_events_beyond_horizon_never_fire():
    # an event stamped at or past l_max would never fire: it is rejected
    for when in (7, 3):
        cfg = ExperimentConfig(topology=TRIANGLE, l_max=3, timeline=f"{when}:leave:3",
                               master_seed=7, mean_tol=1e-15)
        with pytest.raises(ConfigError, match="never fires"):
            run_experiment(cfg)
    cfg = dataclasses.replace(cfg, timeline="2:leave:3")
    assert 3 not in run_experiment(cfg).rows[-1].agents


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
    assert np.isnan(row.means[row.agents.index(3)])   # empty neighborhood resets the belief


def test_leave_cutting_off_a_component_flags_it_unobservable():
    # agents 3 and 4 keep their edge but lose every path to the reference
    cfg = ExperimentConfig(topology="edges:1-2;2-3;3-4", l_max=8, pdr=0.5,
                           timeline="2:leave:2", master_seed=11, mean_tol=1e-12)
    rows = run_experiment(cfg).rows
    assert [r.unobservable for r in rows[:3]] == [()] * 3
    assert [r.unobservable for r in rows[3:]] == [(3, 4)] * (len(rows) - 3)


@pytest.mark.parametrize("seed", [1, 3])
def test_agents_cut_off_from_the_reference_are_flat_and_unscored(seed):
    # at these seeds the cut-off pair 3-4 still trades beliefs after the
    # leave; what it holds is anchored to nothing, so rows report it flat
    cfg = ExperimentConfig(topology="edges:1-2;2-3;3-4", l_max=8, pdr=0.5,
                           timeline="2:leave:2", master_seed=seed, mean_tol=1e-12)
    trace = run_experiment(cfg)
    for row in trace.rows[3:]:
        assert row.agents == (1, 3, 4)
        assert np.isnan(row.means[1:]).all() and np.isnan(row.variances[1:]).all()
        assert row.avg_mse == 0.0   # only the reference is scored
    assert trace.final_estimates[3] is None and trace.final_estimates[4] is None


PATH5 = "edges:1-2;2-3;3-4;4-5"


@pytest.mark.parametrize("algorithm", ["lsbp", "bp"])
def test_no_trial_stops_before_the_information_front_reaches_it(algorithm):
    # agent 5 is 4 hops from the reference, so no trial can settle before
    # round 5; a round that delivers nothing new to a flat agent while a
    # neighbour is informative is start-up lag (half the trials stopped at
    # round 1 with only the reference scored, mse 0.19 against crlb 2.5)
    cfg = ExperimentConfig(topology=PATH5, algorithm=algorithm, pdr=0.5, trials=20,
                           l_max=200, oracle=True)
    trace = run_experiment(cfg)
    assert all(k is not None and k >= 5 for k in trace.per_trial_converged_at), \
        trace.per_trial_converged_at
    assert not np.isnan(trace.rows[-1].means).any()
    assert trace.final_mse > 0.3 * trace.oracle["crlb_avg"]


@pytest.mark.parametrize("algorithm", ["lsbp", "bp"])
def test_nothing_delivered_never_converges(algorithm):
    cfg = ExperimentConfig(topology=PATH5, algorithm=algorithm, pdr=0.0, trials=3, l_max=12)
    trace = run_experiment(cfg)
    assert trace.per_trial_converged_at == [None] * 3 and trace.converged_at is None
    assert len(trace.rows) == 13
    assert np.isnan(trace.rows[-1].means[1:]).all()


def test_settled_trials_hold_no_flat_agent(monkeypatch):
    # a seeded sweep of lossy runs on small geometric graphs: every trial
    # that settled holds an estimate at every agent with a path to the
    # reference (under the rule that read only the inboxes, 159 of these 288
    # trials settled with an agent still flat)
    batches, run = [], _Batch.run
    monkeypatch.setattr(_Batch, "run", lambda self, *args: batches.append(self) or run(self, *args))
    rng = np.random.default_rng(30)
    variants = [dict(algorithm="lsbp"),
                dict(algorithm="lsbp", schedule="asynchronous", skip_prob=0.3),
                dict(algorithm="bp", skip_prob=0.3)]
    for _ in range(12):
        topology = (f"random:n={rng.integers(6, 18)},width=1500,height=1500,radius=600,"
                    f"seed={rng.integers(1000)}")
        for options in variants:
            run_experiment(ExperimentConfig(topology=topology, pdr=0.4, trials=8,
                                            master_seed=int(rng.integers(1000)), **options))
    settled = 0
    for batch in batches:
        for t, k in enumerate(batch.converged_at):
            if k is not None:
                settled += 1
                assert not np.isnan(batch.means[t][~batch.cut_off]).any(), (batch.cfg, t)
    assert settled > 150


JOIN_CFG = ExperimentConfig(topology=TRIANGLE, positions="1:0,0;2:100,0;3:0,100",
                            radius=150.0, timeline="2:join:5,5", l_max=6, master_seed=3)


def test_sigma_override_may_name_a_joiners_edge(monkeypatch):
    # agent 4 joins at (5, 5), in range of all three; its edge {1, 4} is in
    # no topology before the join
    batches, run = [], _Batch.run
    monkeypatch.setattr(_Batch, "run", lambda self, *args: batches.append(self) or run(self, *args))
    run_experiment(dataclasses.replace(JOIN_CFG, sigma_overrides="1-4:3.0"))
    meas = batches[0].meas
    sig2 = meas.sigma2_array[meas.rows_of(np.array([[1, 4], [2, 4], [3, 4], [1, 2]]))]
    assert sig2.tolist() == [9.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("overrides, named", [
    ("2-4:1.0;4-5:2.0", "(4, 5)"),                             # 5 never joins
    ("1-99999999999999999999:2.0", "(1, 99999999999999999999)"),  # beyond int64
])
def test_sigma_override_naming_no_edge_of_any_topology_rejected(overrides, named):
    cfg = dataclasses.replace(JOIN_CFG, sigma_overrides=overrides)
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == f"sigma override for non-edge {named}"


@pytest.mark.parametrize("topology, timeline, error, match", [
    ("edges:1-2;2-3;3-4", "2:leave:2", UnobservableError, r"reference: \[3, 4\]$"),
    ("edges:1-2", "1:leave:2", ConfigError, "an agent besides the reference"),
])
def test_oracle_preconditions_fail_before_round_1(monkeypatch, topology, timeline, error,
                                                  match):
    rounds = []
    monkeypatch.setattr(_Batch, "_round", lambda self, engine: rounds.append(engine))
    cfg = ExperimentConfig(topology=topology, timeline=timeline, l_max=50000, oracle=True)
    with pytest.raises(error, match=match):
        run_experiment(cfg)
    assert rounds == []


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
