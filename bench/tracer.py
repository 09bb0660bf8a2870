"""Spans and counts around the calls into each cfosync layer.

Wrappers are installed from the benchmark's own files at the name the caller
looks up (for example `cfosync.netsim.generate_measurements`, which netsim
imported by name, rather than `cfosync.model.generate_measurements`), and
removed again after each traced pass.  A hook whose target no longer exists
is recorded as absent with its name instead of raising, so the traced run
keeps working when the program's modules are reorganised.

Spans (name, start, end, parent) are kept in memory and written out when the
benchmark ends.  A span's self time is its duration minus the time covered by
its child spans; the layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module the caller reads the name from, attribute path, span name)
SPAN_HOOKS = (
    ("cfosync.cli", "load_config", "config.load_config"),
    ("cfosync.cli", "run_experiment", "netsim.run_experiment"),
    ("cfosync.cli", "write_trace", "metrics.write_trace"),
    ("cfosync.cli", "write_summary", "metrics.write_summary"),
    ("cfosync.netsim", "validate_config", "config.validate_config"),
    ("cfosync.netsim", "parse_topology", "config.parse_topology"),
    ("cfosync.config", "random_geometric", "graph.random_geometric"),
    ("cfosync.graph", "Graph.remove_agent", "graph.mutate"),
    ("cfosync.graph", "Graph.add_agent", "graph.mutate"),
    ("cfosync.netsim", "generate_truth", "model.generate_truth"),
    ("cfosync.netsim", "generate_measurements", "model.generate_measurements"),
    ("cfosync.lsbp", "LsbpEngine.__init__", "lsbp.init"),
    ("cfosync.lsbp", "LsbpEngine.sync_round", "lsbp.sync_round"),
    ("cfosync.lsbp", "LsbpEngine.async_round", "lsbp.async_round"),
    ("cfosync.lsbp", "LsbpEngine.rebuilt", "lsbp.rebuilt"),
    ("cfosync.lsbp", "LsbpEngine.snapshot", "lsbp.views"),
    ("cfosync.lsbp", "LsbpEngine.estimates", "lsbp.views"),
    ("cfosync.lsbp", "LsbpEngine.variances", "lsbp.views"),
    ("cfosync.lsbp", "LsbpEngine.has_pending_information", "lsbp.views"),
    ("cfosync.netsim", "variance_fixed_point", "lsbp.variance_fixed_point"),
    ("cfosync.bp", "BpEngine.__init__", "bp.init"),
    ("cfosync.bp", "BpEngine.sync_round", "bp.sync_round"),
    ("cfosync.bp", "BpEngine.rebuilt", "bp.rebuilt"),
    ("cfosync.bp", "BpEngine.snapshot", "bp.views"),
    ("cfosync.bp", "BpEngine.estimates", "bp.views"),
    ("cfosync.bp", "BpEngine.variances", "bp.views"),
    ("cfosync.bp", "BpEngine.has_pending_information", "bp.views"),
    ("cfosync.oracle", "build_linear_system", "oracle.build_linear_system"),
    ("cfosync.oracle", "wls_solve", "oracle.wls_solve"),
    ("cfosync.oracle", "crlb", "oracle.crlb"),
    ("cfosync.oracle", "avg_crlb", "oracle.avg_crlb"),
    ("cfosync.oracle", "build_fixed_point_system",
     "oracle.build_fixed_point_system"),
    ("cfosync.oracle", "spectral_radius", "oracle.spectral_radius"),
    ("cfosync.netsim", "avg_mse", "metrics.avg_mse"),
)

# Calls too frequent for a span: counted only.
COUNT_HOOKS = (
    ("cfosync.graph", "Graph.degree", "graph.degree.calls"),
)

# Per-round message counters, read from the value netsim computes.
MESSAGE_HOOK = ("cfosync.netsim", "_count_messages")
# Size of the parsed topology, read from the graph it returns.
EDGES_HOOK = ("cfosync.netsim", "parse_topology")

# Entry point the benchmark calls; its span is the root of every pass.
ROOT_SPAN = "cli.main"


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1] = t0
                spans[idx][2] = clock()
                stack.pop()
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _messages(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            c = fn(*args, **kwargs)
            counts["netsim.messages_sent"] += int(getattr(c, "sends", 0))
            counts["netsim.deliveries"] += int(getattr(c, "deliveries", 0))
            counts["netsim.drops"] += int(getattr(c, "drops", 0))
            return c
        return counted

    def _edges(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            g = fn(*args, **kwargs)
            counts["graph.edges"] = max(counts["graph.edges"], len(g.edges))
            return g
        return counted

    # -- installation ----------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent[f"{module}.{path}"] = "hook target not found"
            return
        owner, attr, orig = found
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self) -> None:
        for module, path, name in SPAN_HOOKS:
            self._patch(module, path, lambda f, n=name: self.wrap(n, f))
        for module, path, name in COUNT_HOOKS:
            self._patch(module, path, lambda f, n=name: self._count(n, f))
        self._patch(*MESSAGE_HOOK, self._messages)
        self._patch(*EDGES_HOOK, self._edges)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------

    def summarise(self) -> dict:
        """Per span name: calls, summed seconds, self seconds, durations of
        round spans; plus counts and absent hooks."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        for k, (name, t0, t1, parent) in enumerate(self.spans):
            d = t1 - t0
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child[k]
            if name.endswith("_round"):
                durations[name].append(d)
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "durations": dict(durations),
                "counts": dict(self.counts), "absent": dict(self.absent)}
