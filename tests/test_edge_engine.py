"""Both directed-edge engines against a scalar reference built from
edge_message and Gaussian1D products (tests/helpers.py), on seeded lossy
graphs with skips (per-edge delivery masks from tests/helpers.py),
both init modes and a leave/join rebuild; a batch of trials against the
same trials run one engine each, with a flat agent's mean 0 after every
round and no stop rule before the last timeline change; the batched asynchronous round's array
layout, summation order and calls per round; the graph's directed-edge
layout against a lexsort reference; one rebuild against one per event;
the BP round and message precisions against their masked references, the
asynchronous round against the one that scatters each new belief, the
pending-information test's fast path against its formula; plus the
O(|E|) state check."""

import math
import time

import numpy as np
import pytest

from cfosync import Graph, MeasurementSet, lsbp, random_geometric
from cfosync.bp import BpEngine
from cfosync.lsbp import BeliefInit, LsbpEngine
from cfosync.edges import DirectedEdges, iterate, message_precision, step_delta

from helpers import (FLAT, Gaussian1D, bp_message, delivery_mask, directed_edge,
                     edge_message, heterogeneous_measurements, lexsort_directed_edges,
                     masked_bp_round, masked_message_precision, meas_r, meas_sigma2,
                     measurement_set, preset_density_graph, random_connected_graph,
                     scatter_async_round, stacked)

TOL = 1e-12          # means absolute (Hz), precisions relative
REF_PREC = 1e12


class ScalarEngine:
    """Dict-of-Gaussians model of one engine: `belief[a]`, and the payload
    `box[(i, j)]` that receiver i holds for the directed edge j -> i."""

    def __init__(self, algo, graph, meas, ref_value, init=FLAT):
        self.algo, self.init, self.ref_value = algo, init, ref_value
        self.pin = Gaussian1D(REF_PREC, REF_PREC * ref_value)
        self.belief, self.box = {}, {}
        self._retopologize(graph, meas)

    def _declared(self, a):
        return self.pin if a == self.graph.reference else self.init

    def _retopologize(self, graph, meas):
        """Keep surviving beliefs and payloads; new ones start fresh."""
        self.graph, self.meas = graph, meas
        self.belief = {a: self.belief.get(a, self._declared(a)) for a in graph.agents}
        start = (lambda j: FLAT) if self.algo == "bp" or self.init.is_flat \
            else self._declared
        self.box = {(i, j): self.box.get((i, j), start(j))
                    for i in graph.agents for j in graph.neighbors(i)}

    def _message(self, i, j):
        """Message j -> i that j would send now."""
        r, s2 = meas_r(self.meas, i, j), meas_sigma2(self.meas, i, j)
        if self.algo == "lsbp":
            return edge_message(r, s2, self.belief[j])
        incoming = {k: self.box[(j, k)] for k in self.graph.neighbors(j)}
        return bp_message(j, i, incoming, r, s2, self.graph.reference, self.pin)

    def _update(self, i):
        if i == self.graph.reference:
            return
        if self.algo == "lsbp":
            msgs = [edge_message(meas_r(self.meas, i, j), meas_sigma2(self.meas, i, j),
                                 self.box[(i, j)]) for j in sorted(self.graph.neighbors(i))]
        else:
            msgs = [self.box[(i, j)] for j in sorted(self.graph.neighbors(i))]
        self.belief[i] = math.prod(msgs, start=FLAT)

    @staticmethod
    def _arrives(edges, i, j, arrived):
        """Does j -> i arrive under the engine's one-trial (1, 2|E|) mask?"""
        return arrived is None or arrived[0, directed_edge(edges, i, j)]

    def sync_round(self, edges, arrived):
        new = {(i, j): self._message(i, j) if self.algo == "bp" else self.belief[j]
               for (i, j) in self.box if self._arrives(edges, i, j, arrived)}
        self.box.update(new)
        for i in self.graph.agents:
            self._update(i)

    def async_round(self, edges, order, arrived):
        for a in order:
            self._update(a)
            for i in self.graph.neighbors(a):
                if self._arrives(edges, i, a, arrived):
                    self.box[(i, a)] = self.belief[a]


def _close(got_prec, got_mean, want: Gaussian1D) -> bool:
    if want.is_flat:
        return got_prec == 0.0
    return abs(got_prec - want.precision) <= TOL * want.precision and \
        abs(got_mean - want.mean()) <= TOL


def _assert_matches(engine, ref: ScalarEngine, where: str):
    for a, k in engine.index.items():
        assert _close(engine.prec[0, k], engine.mean[0, k], ref.belief[a]), \
            f"{where}: belief of agent {a}"
    for (i, j), want in ref.box.items():
        e = directed_edge(engine, i, j)
        assert _close(engine.edge_prec[0, e], engine.edge_mean[0, e], want), \
            f"{where}: payload {j} -> {i}"


def _instance(seed):
    g = random_geometric(n=14, width=900, height=900, radius=400, seed=seed)
    rng = np.random.default_rng(seed)
    return g, heterogeneous_measurements(rng, g), rng


def _leave_and_join(g, ms, rng):
    """Remove the highest non-reference id, then add an agent at its old
    place with fresh measurements to its new neighbors."""
    victim = max(g.agents - {g.reference})
    pos = g.positions[victim]
    g, new_id = g.remove_agent(victim).add_agent(pos, 400)
    fresh = measurement_set({e: (float(rng.normal(0, 50)), float(rng.uniform(0.25, 4.0)))
                             for e in sorted(g.edges) if new_id in e})
    return g, ms.merged_with(fresh)


def _run(engine, ref, g, ms, rng, schedule, skip_prob, rounds=12, rebuild_at=6):
    sched = np.random.default_rng(rng.integers(2**31))
    _assert_matches(engine, ref, "init")
    for l in range(1, rounds + 1):
        if l == rebuild_at:
            g, ms = _leave_and_join(g, ms, rng)
            engine = engine.rebuilt(g, ms)
            ref._retopologize(g, ms)
            _assert_matches(engine, ref, f"rebuilt before round {l}")
        arrived = delivery_mask(engine, [(rng, 0.7, skip_prob)])
        if schedule == "asynchronous":
            order = sched.permutation(engine.n)
            engine.async_round([order], arrived)
            ref.async_round(engine, [engine.ids[k] for k in order], arrived)
        else:
            engine.sync_round(arrived)
            ref.sync_round(engine, arrived)
        _assert_matches(engine, ref, f"round {l}")


@pytest.mark.parametrize("schedule", ["synchronous", "asynchronous"])
@pytest.mark.parametrize("init", [BeliefInit(), BeliefInit("uniform", 4.0, 1.5)])
@pytest.mark.parametrize("seed", [3, 11])
def test_lsbp_engine_matches_scalar_reference(schedule, init, seed):
    g, ms, rng = _instance(seed)
    ref_value = float(rng.uniform(-200, 200))
    engine = LsbpEngine(g, ms, init, ref_value, REF_PREC)
    ref = ScalarEngine("lsbp", g, ms, ref_value, FLAT if init.mode == "zero_precision"
                       else Gaussian1D.from_moments(init.mean, init.variance))
    _run(engine, ref, g, ms, rng, schedule, skip_prob=0.2)


@pytest.mark.parametrize("skip_prob", [0.0, 0.2])
@pytest.mark.parametrize("seed", [3, 11])
def test_bp_engine_matches_scalar_reference(skip_prob, seed):
    g, ms, rng = _instance(seed)
    ref_value = float(rng.uniform(-200, 200))
    engine = BpEngine(g, ms, ref_value, REF_PREC)
    ref = ScalarEngine("bp", g, ms, ref_value)
    _run(engine, ref, g, ms, rng, "synchronous", skip_prob)


# -- a batch of trials against one engine per trial ---------------------------

BATCH_TRIALS = 4
BATCH_CASES = [("lsbp", "synchronous", BeliefInit()),
               ("lsbp", "asynchronous", BeliefInit()),
               ("lsbp", "synchronous", BeliefInit("uniform", 4.0, 1.5)),
               ("lsbp", "asynchronous", BeliefInit("uniform", 4.0, 1.5)),
               ("bp", "synchronous", None)]


def _per_trial_measurements(g, rng, edges=None):
    """One measurement set per trial over the same edges and variances."""
    pairs = g.edge_array if edges is None else np.array(sorted(edges)).reshape(-1, 2)
    sig2 = rng.uniform(0.25, 4.0, len(pairs))
    return [MeasurementSet(pairs, rng.normal(0, 50, (1, len(pairs))), sig2)
            for _ in range(BATCH_TRIALS)]


def _batch_run(engine, trial_ids, timeline, schedule):
    """iterate() over an engine whose rows run the trials `trial_ids`, each
    on its own loss and order streams (trial 0 lossless, the others lossy
    with skips), through the (k, graph, per-trial sets) timeline.  Returns
    per trial iterate's (rounds, settled_at) and its (prec, mean,
    edge_prec, edge_mean) after every round."""
    streams = {t: (np.random.default_rng([21, t]), np.random.default_rng([21, t, 1]))
               for t in trial_ids}
    states = {t: [] for t in trial_ids}

    def step(eng):
        # the stop rule compares raw means: every path leaves a flat agent's at 0
        assert (eng.mean[eng.prec == 0] == 0).all(), "flat mean before a round"
        live = [trial_ids[row] for row in eng.trials.tolist()]
        arrived = delivery_mask(eng, [(streams[t][0], 1.0 if t == 0 else 0.7,
                                       0.0 if t == 0 else 0.2) for t in live])
        if schedule == "asynchronous":
            eng.async_round([streams[t][1].permutation(eng.n) for t in live], arrived)
        else:
            eng.sync_round(arrived)
        assert (eng.mean[eng.prec == 0] == 0).all(), "flat mean after a round"
        for row, t in enumerate(live):
            states[t].append(tuple(a[row].copy() for a in (
                eng.prec, eng.mean, eng.edge_prec, eng.edge_mean)))

    changes = [(k, lambda eng, g=g, sets=sets: eng.rebuilt(
        g, stacked([sets[t] for t in trial_ids])))
        for k, g, sets in timeline]
    _, *results = iterate(engine, step, 300, 1e-6, 1e-9, changes)
    return {t: tuple(r[row] for r in results) for row, t in enumerate(trial_ids)}, states


@pytest.mark.parametrize("seed", range(6))
def test_directed_edges_match_the_lexsort_reference(seed):
    # the graph's one layout and the measurements gathered along it, exactly
    # as one lexsort by receiver, then sender lays them out: on connected
    # graphs, after a leave and a join, without edges, for one-trial and batch sets
    rng = np.random.default_rng(seed)
    g0 = random_geometric(n=25, width=900, height=900, radius=350, seed=seed)
    victim = int(rng.choice(sorted(g0.agents - {g0.reference})))
    g1 = g0.remove_agent(victim)
    g2, _ = g1.add_agent(g0.positions[victim], 350)
    bare = Graph(agents=frozenset({1, 2, 3}), edge_array=np.empty((0, 2), np.intp))
    for g in (g0, g1, g2, random_connected_graph(rng, 12), bare):
        sets = _per_trial_measurements(g, rng)
        for meas in (sets[0], stacked(sets)):
            edges = DirectedEdges(g, meas)
            want = lexsort_directed_edges(g, meas)
            for name, w in zip(("src", "dst", "rev", "indptr", "r", "sig2"), want):
                got = getattr(edges, name)
                assert got.dtype == w.dtype and np.array_equal(got, w), name


def _batch_case(algo, init):
    """(engine(trial_ids), timeline): a batch case's engine on the trials
    `trial_ids`, and its timeline of a leave after round 3 and a join at
    the same place after round 5."""
    g0 = random_geometric(n=14, width=900, height=900, radius=400, seed=7)
    rng = np.random.default_rng(8)
    ref_value = float(rng.uniform(-200, 200))
    sets0 = _per_trial_measurements(g0, rng)
    victim = max(g0.agents - {g0.reference})
    g1 = g0.remove_agent(victim)
    g2, new_id = g1.add_agent(g0.positions[victim], 400)
    sets2 = [m.merged_with(f) for m, f in zip(
        sets0, _per_trial_measurements(g2, rng, [e for e in g2.edges if new_id in e]))]
    timeline = [(3, g1, sets0), (5, g2, sets2)]   # leave, then a join at its place

    def engine(trial_ids):
        meas = stacked([sets0[t] for t in trial_ids])
        if algo == "bp":
            return BpEngine(g0, meas, ref_value, REF_PREC)
        return LsbpEngine(g0, meas, init, ref_value, REF_PREC)

    return engine, timeline


@pytest.mark.parametrize("algo,schedule,init", BATCH_CASES)
def test_batch_matches_independent_trials(algo, schedule, init):
    engine, timeline = _batch_case(algo, init)
    trials = list(range(BATCH_TRIALS))
    batch, batch_states = _batch_run(engine(trials), trials, timeline, schedule)
    for t in trials:
        alone, states = _batch_run(engine([t]), [t], timeline, schedule)
        assert batch[t] == alone[t], f"trial {t}: (rounds, settled_at)"
        assert len(batch_states[t]) == len(states[t]) == batch[t][0]
        for k, (got, want) in enumerate(zip(batch_states[t], states[t])):
            for name, x, y in zip(("prec", "mean", "edge_prec", "edge_mean"), got, want):
                assert np.array_equal(x, y), f"trial {t} round {k + 1}: {name}"
    stopped = [batch[t][0] for t in trials]
    assert len(set(stopped)) > 2, f"trials should stop at different rounds: {stopped}"


@pytest.mark.parametrize("algo,schedule,init", BATCH_CASES)
def test_stop_rule_waits_for_the_timeline(algo, schedule, init, monkeypatch):
    # no trial can stop while a change is pending, so the stop rule first
    # runs in round 6, after the changes of rounds 3 and 5, then once a round
    engine, timeline = _batch_case(algo, init)
    trials = list(range(BATCH_TRIALS))
    want, _ = _batch_run(engine(trials), trials, timeline, schedule)
    cls, name = (BpEngine if algo == "bp" else LsbpEngine,
                 "async_round" if schedule == "asynchronous" else "sync_round")
    round_of_cls, rounds_run, calls = getattr(cls, name), [], []

    def counted_round(eng, *args):
        rounds_run.append(1)
        return round_of_cls(eng, *args)

    def counted_step_delta(prev, cur):
        calls.append(len(rounds_run))
        return step_delta(prev, cur)

    monkeypatch.setattr(cls, name, counted_round)
    monkeypatch.setattr("cfosync.edges.step_delta", counted_step_delta)
    got, _ = _batch_run(engine(trials), trials, timeline, schedule)
    assert got == want
    last = max(rounds for rounds, _ in got.values())
    assert calls[0] == 6 and calls == list(range(6, last + 1)), calls


def _batch_engine(init, trials, seed=9):
    """(graph, measurements, engine, rng): an LSBP engine of `trials`
    trials on a dense geometric graph, whose largest inboxes hold more
    edges than numpy's unrolled pairwise-sum block (8)."""
    g = random_geometric(n=24, width=900, height=900, radius=450, seed=seed)
    rng = np.random.default_rng(seed)
    pairs = g.edge_array
    sig2 = rng.uniform(0.25, 4.0, len(pairs))
    meas = stacked([MeasurementSet(pairs, rng.normal(0, 50, (1, len(pairs))), sig2)
                    for _ in range(trials)])
    engine = LsbpEngine(g, meas, init, float(rng.uniform(-200, 200)), REF_PREC)
    return g, meas, engine, rng


def _lossy(engine, rng):
    """A delivery mask with losses (pdr 0.7) and skips (0.2) in every trial."""
    return delivery_mask(engine, [(rng, 0.7, 0.2)] * len(engine.trials))


@pytest.mark.parametrize("init", [BeliefInit(), BeliefInit("uniform", 4.0, 1.5)])
def test_per_trial_arrays_stay_c_contiguous(init):
    # async_round reads and writes the per-trial arrays through flat views
    g, meas, engine, rng = _batch_engine(init, trials=4)

    def check(eng, when):
        for name in eng._per_trial:
            assert getattr(eng, name).flags.c_contiguous, f"{name} after {when}"

    check(engine, "init")
    engine.sync_round(_lossy(engine, rng))
    check(engine, "a sync round")
    engine.async_round([rng.permutation(engine.n) for _ in engine.trials], _lossy(engine, rng))
    check(engine, "an async round")
    engine.take(np.array([True, False, True, True]))
    check(engine, "take")
    victim = max(g.agents - {g.reference})
    engine = engine.rebuilt(g.remove_agent(victim), meas)
    check(engine, "rebuilt")


@pytest.mark.parametrize("algo, init", [("lsbp", BeliefInit("uniform", 4.0, 1.5)),
                                         ("lsbp", BeliefInit()), ("bp", None)])
def test_rebuilds_compose(algo, init):
    # one rebuild onto the graph after a leave and a join (and a leave of a
    # joiner's neighbour) reaches the state of one rebuild per event: ids
    # never return, an edge between survivors is in every graph between,
    # and a joiner starts fresh either way.  The simulator relies on this to
    # rebuild once per stamp of timeline events.
    g0 = random_geometric(n=16, width=900, height=900, radius=400, seed=12)
    rng = np.random.default_rng(12)
    sets0 = _per_trial_measurements(g0, rng)
    ref_value = float(rng.uniform(-200, 200))
    meas0 = stacked(sets0)
    engine = BpEngine(g0, meas0, ref_value, REF_PREC) if algo == "bp" else \
        LsbpEngine(g0, meas0, init, ref_value, REF_PREC)
    for _ in range(3):
        engine.sync_round(delivery_mask(engine, [(rng, 0.7, 0.2)] * len(engine.trials)))
    engine.take(np.array([True, False, True, True]))
    victim = max(g0.agents - {g0.reference})
    g1 = g0.remove_agent(victim)
    g2, new_id = g1.add_agent(g0.positions[victim], 400)
    meas2 = stacked([m.merged_with(f) for m, f in zip(
        sets0, _per_trial_measurements(g2, rng, [e for e in g2.edges if new_id in e]))])
    neighbour = min(g2.neighbors(new_id) - {g2.reference})
    g3 = g2.remove_agent(neighbour)
    once = engine.rebuilt(g3, meas2)
    stepwise = engine.rebuilt(g1, meas0).rebuilt(g2, meas2).rebuilt(g3, meas2)
    assert once.ids == stepwise.ids and new_id in once.ids
    for name in ("trials", "prec", "mean", "edge_prec", "edge_mean"):
        assert np.array_equal(getattr(once, name), getattr(stepwise, name)), name
    assert once.trials.tolist() == [0, 2, 3]


def test_async_update_sums_like_sync_round():
    # the first agent of each trial's order reads caches no update has
    # touched, so its belief is the sync round's per-agent sums, bit for bit
    *_, engine, rng = _batch_engine(BeliefInit("uniform", 4.0, 1.5), trials=5)
    for _ in range(3):
        engine.sync_round(_lossy(engine, rng))
    w = message_precision(engine.sig2, engine.edge_prec)
    prec = engine._agent_sums(w)
    wm = engine._agent_sums(w * (engine.r - engine.edge_mean))
    mean = np.divide(wm, prec, out=np.zeros_like(wm), where=prec > 0)
    deg = np.diff(engine.indptr)
    firsts = [k for k in np.argsort(-deg, kind="stable") if k != engine.ref][:5]
    assert deg[firsts].min() > 8   # beyond numpy's unrolled pairwise block
    orders = [np.concatenate([[k], np.setdiff1d(np.arange(engine.n), [k])])
              for k in firsts]
    engine.async_round(orders, _lossy(engine, rng))
    for row, k in enumerate(firsts):
        assert prec[row, k] > 0
        assert engine.prec[row, k] == prec[row, k]
        assert engine.mean[row, k] == mean[row, k]


def test_async_round_work_does_not_grow_with_trials(monkeypatch):
    *_, engine, rng = _batch_engine(BeliefInit("uniform", 4.0, 1.5), trials=8)
    calls = []

    def counted(*args):
        calls.append(1)
        return message_precision(*args)

    monkeypatch.setattr(lsbp, "message_precision", counted)
    engine.async_round([rng.permutation(engine.n) for _ in engine.trials], _lossy(engine, rng))
    assert 0 < len(calls) <= engine.n


def test_engine_state_is_linear_in_edges():
    n = 3000
    g = preset_density_graph(n, seed=5)
    ms = measurement_set({(i, j): (0.5 * (i % 7) - j % 5, 1.0) for (i, j) in g.edges})
    rng = np.random.default_rng(6)
    engines = [LsbpEngine(g, ms, BeliefInit(), 0.0), BpEngine(g, ms, 0.0)]
    masks = [delivery_mask(engines[0], [(rng, 0.8, 0.1)]) for _ in range(3)]
    t0 = time.perf_counter()
    for engine in engines:
        for arrived in masks:
            engine.sync_round(arrived)
    elapsed = time.perf_counter() - t0
    for engine in engines:
        assert 20 * n < len(engine.src) < 30 * n   # preset density
        sizes = {k: v.size for k, v in vars(engine).items()
                 if isinstance(v, np.ndarray)}
        assert max(sizes.values()) < n * n, sizes
        assert np.count_nonzero(engine.prec) > 1   # the rounds spread information
    assert elapsed < 2.0, f"3 rounds of both engines took {elapsed:.2f} s"


@pytest.mark.parametrize("seed", range(3))
def test_bp_round_matches_the_masked_reference(seed):
    # the round that reuses the last belief sums as its inbox sums and
    # divides unmasked, against the round that sums the payloads anew and
    # masks its divides: bit for bit, through flat start-up, lossless and
    # lossy rounds with skips, trials stopping (take) and a rebuild
    g0 = random_geometric(n=16, width=900, height=900, radius=400, seed=30 + seed)
    rng = np.random.default_rng(seed)
    sets0 = _per_trial_measurements(g0, rng)
    ref_value = float(rng.uniform(-200, 200))
    victim = max(g0.agents - {g0.reference})
    g1, new_id = g0.remove_agent(victim).add_agent(g0.positions[victim], 400)
    meas1 = stacked([m.merged_with(f) for m, f in zip(
        sets0, _per_trial_measurements(g1, rng, [e for e in g1.edges if new_id in e]))])
    fast, slow = (BpEngine(g0, stacked(sets0), ref_value, REF_PREC)
                  for _ in range(2))
    for k in range(1, 15):
        if k == 5:
            fast.take(np.array([True, False, True, True]))
            slow.take(np.array([True, False, True, True]))
        if k == 8:
            fast, slow = fast.rebuilt(g1, meas1), slow.rebuilt(g1, meas1)
        arrived = delivery_mask(fast, [(rng, 0.7, 0.2)] * len(fast.trials)) if k % 3 else None
        fast.sync_round(arrived)
        masked_bp_round(slow, arrived)
        for name in ("prec", "mean", "edge_prec", "edge_mean"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                f"round {k}: {name}"
    assert (fast.prec > 0).all()


@pytest.mark.parametrize("init", [BeliefInit(), BeliefInit("uniform", 4.0, 1.5)])
@pytest.mark.parametrize("seed", range(3))
def test_async_round_matches_the_scatter_reference(init, seed):
    # turns that read an earlier sender's new belief, then one delivery,
    # against turns that each scatter the new beliefs into the caches they
    # reach: bit for bit, through flat start-up, lossy rounds with skips,
    # lossless rounds, trials stopping (take), a leave and a join
    g0 = random_geometric(n=16, width=900, height=900, radius=400, seed=40 + seed)
    rng = np.random.default_rng(seed)
    sets0 = _per_trial_measurements(g0, rng)
    ref_value = float(rng.uniform(-200, 200))
    victim = max(g0.agents - {g0.reference})
    g1 = g0.remove_agent(victim)
    g2, new_id = g1.add_agent(g0.positions[victim], 400)
    meas2 = stacked([m.merged_with(f) for m, f in zip(
        sets0, _per_trial_measurements(g2, rng, [e for e in g2.edges if new_id in e]))])
    fast, slow = (LsbpEngine(g0, stacked(sets0), init, ref_value, REF_PREC)
                  for _ in range(2))
    assert len(fast.trials) == 4
    for k in range(1, 16):
        if k == 5:
            fast.take(np.array([True, False, True, True]))
            slow.take(np.array([True, False, True, True]))
        if k in (8, 11):
            g, meas = (g1, stacked(sets0)) if k == 8 else (g2, meas2)
            fast, slow = fast.rebuilt(g, meas), slow.rebuilt(g, meas)
        arrived = delivery_mask(fast, [(rng, 0.7, 0.2)] * len(fast.trials)) if k % 3 else None
        orders = [rng.permutation(fast.n) for _ in fast.trials]
        fast.async_round(orders, arrived)
        scatter_async_round(slow, orders, arrived)
        for name in ("prec", "mean", "edge_prec", "edge_mean"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                f"round {k}: {name}"
    assert (fast.prec > 0).all() and new_id in fast.ids


def test_message_precision_matches_the_masked_form():
    # 1/0 = inf gives a flat sender the message precision 0, as the mask did
    tiny = np.finfo(float).tiny
    p = np.array([0.0, 5e-324, tiny / 3, tiny, 1e-300, 1e-12, 1.0, 1e12, np.inf])
    for sig2 in (np.full(len(p), 2.5), np.full(len(p), 1e-12), np.linspace(0.1, 1e6, len(p))):
        for prec in (p, np.stack([p, p[::-1]])):
            with np.errstate(over="ignore"):   # 1/p of a subnormal p, in both forms
                got = message_precision(sig2[:prec.shape[-1]], prec)
                want = masked_message_precision(sig2[:prec.shape[-1]], prec)
            assert got.tobytes() == want.tobytes()
            assert (got[prec == 0.0] == 0.0).all()


@pytest.mark.parametrize("seed", range(4))
def test_pending_information_fast_path_matches_the_formula(seed):
    # with no flat agent in any trial the answer is all False without the
    # (T, 2|E|) gather; with flat agents it is the full formula
    *_, engine, rng = _batch_engine(BeliefInit(), trials=5, seed=seed)
    shape, m = engine.prec.shape, len(engine.src)
    for flat_share in (0.0, 0.02, 0.3, 1.0):
        for payload_share in (0.0, 0.5, 1.0):
            engine.prec = np.where(rng.random(shape) < flat_share, 0.0,
                                   rng.uniform(0.1, 2.0, shape))
            engine.edge_prec = np.where(rng.random((shape[0], m)) < payload_share,
                                        rng.uniform(0.1, 2.0, (shape[0], m)), 0.0)
            want = np.any((engine.prec[:, engine.src] > 0.0)
                          & (engine.prec[:, engine.dst] == 0.0), axis=1)
            got = engine.has_pending_information()
            assert got.dtype == bool and got.tolist() == want.tolist()
