"""Both directed-edge engines against a scalar reference built from
edge_message and Gaussian1D products, on seeded lossy graphs with skips,
both init modes and a leave/join rebuild; plus the O(|E|) state check."""

import math
import time

import numpy as np
import pytest

from cfosync import Graph, random_geometric
from cfosync.bp import BpEngine, bp_message
from cfosync.gaussian import FLAT, Gaussian1D, edge_message
from cfosync.lsbp import BeliefInit, LsbpEngine
from cfosync.model import Measurement, MeasurementSet
from cfosync.netsim import draw_losses

from helpers import heterogeneous_measurements

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
        r, s2 = self.meas.r(i, j), self.meas.sigma2(i, j)
        if self.algo == "lsbp":
            return edge_message(r, s2, self.belief[j])
        incoming = {k: self.box[(j, k)] for k in self.graph.neighbors(j)}
        return bp_message(j, i, incoming, r, s2, self.graph.reference, self.pin)

    def _update(self, i):
        if i == self.graph.reference:
            return
        if self.algo == "lsbp":
            msgs = [edge_message(self.meas.r(i, j), self.meas.sigma2(i, j), self.box[(i, j)])
                    for j in sorted(self.graph.neighbors(i))]
        else:
            msgs = [self.box[(i, j)] for j in sorted(self.graph.neighbors(i))]
        self.belief[i] = math.prod(msgs, start=FLAT)

    def _arrives(self, ids, i, j, delivered, skip):
        k = {a: x for x, a in enumerate(ids)}
        return (delivered is None or delivered[k[i], k[j]]) and \
            (skip is None or not skip[k[j]])

    def sync_round(self, ids, delivered, skip):
        new = {(i, j): self._message(i, j) if self.algo == "bp" else self.belief[j]
               for (i, j) in self.box if self._arrives(ids, i, j, delivered, skip)}
        self.box.update(new)
        for i in self.graph.agents:
            self._update(i)

    def async_round(self, ids, order, delivered, skip):
        for a in order:
            self._update(a)
            for i in self.graph.neighbors(a):
                if self._arrives(ids, i, a, delivered, skip):
                    self.box[(i, a)] = self.belief[a]


def _close(got_prec, got_mean, want: Gaussian1D) -> bool:
    if want.is_flat:
        return got_prec == 0.0
    return abs(got_prec - want.precision) <= TOL * want.precision and \
        abs(got_mean - want.mean()) <= TOL


def _assert_matches(engine, ref: ScalarEngine, where: str):
    for a, k in engine.index.items():
        assert _close(engine.prec[k], engine.mean[k], ref.belief[a]), \
            f"{where}: belief of agent {a}"
    for (i, j), want in ref.box.items():
        e = engine.edge(i, j)
        assert _close(engine.edge_prec[e], engine.edge_mean[e], want), \
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
    g, ms = g.remove_agent(victim), ms.without_agent(victim)
    g, new_id = g.add_agent(pos, 400)
    fresh = MeasurementSet.from_measurements(
        Measurement(edge=e, r=float(rng.normal(0, 50)),
                    sigma2=float(rng.uniform(0.25, 4.0)))
        for e in sorted(g.edges) if new_id in e)
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
        skip, delivered = draw_losses(rng, engine.n, 0.7, skip_prob)
        if schedule == "asynchronous":
            order = sched.permutation(engine.n)
            engine.async_round(order, delivered, skip)
            ref.async_round(engine.ids, [engine.ids[k] for k in order],
                            delivered, skip)
        else:
            engine.sync_round(delivered, skip)
            ref.sync_round(engine.ids, delivered, skip)
        _assert_matches(engine, ref, f"round {l}")


@pytest.mark.parametrize("schedule", ["synchronous", "asynchronous"])
@pytest.mark.parametrize("init", [BeliefInit(), BeliefInit("uniform", 4.0, 1.5)])
@pytest.mark.parametrize("seed", [3, 11])
def test_lsbp_engine_matches_scalar_reference(schedule, init, seed):
    g, ms, rng = _instance(seed)
    ref_value = float(rng.uniform(-200, 200))
    engine = LsbpEngine(g, ms, init, ref_value, REF_PREC)
    ref = ScalarEngine("lsbp", g, ms, ref_value, init.as_gaussian())
    _run(engine, ref, g, ms, rng, schedule, skip_prob=0.2)


@pytest.mark.parametrize("skip_prob", [0.0, 0.2])
@pytest.mark.parametrize("seed", [3, 11])
def test_bp_engine_matches_scalar_reference(skip_prob, seed):
    g, ms, rng = _instance(seed)
    ref_value = float(rng.uniform(-200, 200))
    engine = BpEngine(g, ms, ref_value, REF_PREC)
    ref = ScalarEngine("bp", g, ms, ref_value)
    _run(engine, ref, g, ms, rng, "synchronous", skip_prob)
    assert not engine.diverged


def _preset_density_graph(n: int, seed: int) -> Graph:
    """n agents on the pdr-sweep area scaled to keep its mean degree (~25)
    at radius 1000, without an n x n distance matrix."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(n / 100)
    pos = rng.uniform(0.0, 1.0, (n, 2)) * [3000 * scale, 4000 * scale]
    edges = []
    for lo in range(0, n, 500):
        d = np.linalg.norm(pos[lo:lo + 500, None, :] - pos[None, :, :], axis=2)
        ii, jj = np.nonzero(d <= 1000.0)
        ii += lo
        keep = ii < jj
        edges += zip((ii[keep] + 1).tolist(), (jj[keep] + 1).tolist())
    return Graph.from_edges(n, edges)


def test_engine_state_is_linear_in_edges():
    n = 3000
    g = _preset_density_graph(n, seed=5)
    ms = MeasurementSet.from_measurements(
        Measurement(edge=(i, j), r=0.5 * (i % 7) - j % 5, sigma2=1.0)
        for (i, j) in g.edges)
    rng = np.random.default_rng(6)
    masks = [draw_losses(rng, n, 0.8, 0.1) for _ in range(3)]
    engines = [LsbpEngine(g, ms, BeliefInit(), 0.0), BpEngine(g, ms, 0.0)]
    t0 = time.perf_counter()
    for engine in engines:
        for skip, delivered in masks:
            engine.sync_round(delivered, skip)
    elapsed = time.perf_counter() - t0
    for engine in engines:
        assert 20 * n < len(engine.src) < 30 * n   # preset density
        sizes = {k: v.size for k, v in vars(engine).items()
                 if isinstance(v, np.ndarray)}
        assert max(sizes.values()) < n * n, sizes
        assert np.count_nonzero(engine.prec) > 1   # the rounds spread information
    assert elapsed < 2.0, f"3 rounds of both engines took {elapsed:.2f} s"
