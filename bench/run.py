"""cfosync benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload mc-dense --seed 0 --seconds 35 --trace 0

Writes the workload's seeded `.cfg` inputs under `.bench_work/`, times the
set-up of SETUP_PROBES fresh processes, then runs the workload in a fresh
worker process (bench/worker.py) for --seconds.  Prints a readable report
and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  Exits 2 without a result when the
program's sources are missing or the worker cannot run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
# Steadier timings on a shared machine; recorded in baseline.json.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# The sum of all self times must cover the traced pass time to this share.
SELF_TIME_COVERAGE = 0.02


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    return {**os.environ, **CHILD_ENV}


def setup_times(cfgs: list[Path]) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(ROOT),
             *map(str, cfgs)],
            env=_env(), timeout=PROBE_TIMEOUT_S, capture_output=True,
            text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_worker(work: Path, seconds: float, trace: int) -> dict:
    result, log_path = work / "result.json", work / "worker.log"
    with log_path.open("w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT),
             str(work / "plan.json"), str(seconds), str(trace), str(result)],
            env=_env(), timeout=WORKER_TIMEOUT_S, stdout=log,
            stderr=subprocess.STDOUT, cwd=ROOT)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{log_path.read_text()[-2000:]}")
    return json.loads(result.read_text())


# -- accounting ----------------------------------------------------------------

def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Runs attempted, runs failed, and why.  A run fails on any output
    check, or when its digests differ from the first pass's for its config."""
    first = {r["label"]: r.get("digests") for r in passes[0]["runs"]}
    attempted, failed, why = 0, 0, []
    for k, p in enumerate(passes):
        for r in p["runs"]:
            attempted += 1
            problems = list(r["problems"])
            if r.get("digests") != first[r["label"]]:
                problems.append("output digests differ from pass 0")
            if problems:
                failed += 1
                why.append(f"pass {k} {r['label']}: " + "; ".join(problems))
    return attempted, failed, why


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it; the median when there are too few samples."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50))


def end_to_end(passes: list[dict], setup: list[float], peak_rss_kb: int
               ) -> dict:
    run_s = statistics.median(p["wall_s"] for p in passes)
    agent_rounds = sum(r.get("agent_rounds", 0) for r in passes[0]["runs"])
    return {
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "agent_rounds_per_s": (agent_rounds / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


# name -> (unit, how to read it from one traced pass); a time that is zero
# in a traced pass is reported absent: the layer did not run on this workload
# or its hook is missing
def _span_total(*names):
    return lambda t: sum(t["total_s"].get(n, 0.0) for n in names)


def _count(name):
    return lambda t: t["counts"].get(name)


def _calls(*names):
    return lambda t: sum(t["calls"].get(n, 0) for n in names)


def _oracle_calls(t):
    return sum(v for k, v in t["calls"].items() if k.startswith("oracle."))


def _ratio(t):
    d, x = t["counts"].get("netsim.deliveries"), t["counts"].get("netsim.drops")
    return d / (d + x) if d is not None and x is not None and d + x else None


PER_PASS = {
    "config.load_config.s": ("s", _span_total("config.load_config")),
    "config.parse_topology.s": ("s", _span_total("config.parse_topology")),
    "graph.random_geometric.s": ("s", _span_total("graph.random_geometric")),
    "graph.edges": ("count", _count("graph.edges")),
    "graph.degree.calls": ("count", _count("graph.degree.calls")),
    "graph.mutate.s": ("s", _span_total("graph.mutate")),
    "model.generate_measurements.s":
        ("s", _span_total("model.generate_measurements")),
    "model.generate_measurements.calls":
        ("count", _calls("model.generate_measurements")),
    "lsbp.init.s": ("s", _span_total("lsbp.init")),
    "lsbp.rounds": ("count", _calls("lsbp.sync_round", "lsbp.async_round")),
    "lsbp.round.s": ("s", _span_total("lsbp.sync_round", "lsbp.async_round")),
    "lsbp.rebuilt.s": ("s", _span_total("lsbp.rebuilt")),
    "lsbp.views.s": ("s", _span_total("lsbp.views")),
    "lsbp.variance_fixed_point.s":
        ("s", _span_total("lsbp.variance_fixed_point")),
    "bp.init.s": ("s", _span_total("bp.init")),
    "bp.rounds": ("count", _calls("bp.sync_round")),
    "bp.sync_round.s": ("s", _span_total("bp.sync_round")),
    "bp.rebuilt.s": ("s", _span_total("bp.rebuilt")),
    "bp.views.s": ("s", _span_total("bp.views")),
    "netsim.run_experiment.s": ("s", _span_total("netsim.run_experiment")),
    "netsim.self_s": ("s", lambda t: t["self_s"].get("netsim.run_experiment")),
    "netsim.messages_sent": ("count", _count("netsim.messages_sent")),
    "netsim.deliveries": ("count", _count("netsim.deliveries")),
    "netsim.drops": ("count", _count("netsim.drops")),
    "netsim.delivery_ratio": ("ratio", _ratio),
    "oracle.build_linear_system.s":
        ("s", _span_total("oracle.build_linear_system")),
    "oracle.wls_solve.s": ("s", _span_total("oracle.wls_solve")),
    "oracle.crlb.s": ("s", _span_total("oracle.crlb")),
    "oracle.build_fixed_point_system.s":
        ("s", _span_total("oracle.build_fixed_point_system")),
    "oracle.spectral_radius.s": ("s", _span_total("oracle.spectral_radius")),
    "oracle.calls": ("count", _oracle_calls),
    "metrics.avg_mse.s": ("s", _span_total("metrics.avg_mse")),
    "metrics.avg_mse.calls": ("count", _calls("metrics.avg_mse")),
    "metrics.write_trace.s": ("s", _span_total("metrics.write_trace")),
    "metrics.write_summary.s": ("s", _span_total("metrics.write_summary")),
    "cli.self_s": ("s", lambda t: t["self_s"].get("cli.main")),
}
# round-duration metric -> the round spans it pools; lsbp.round covers
# whichever schedule the workload's LSBP config uses
ROUND_SPANS = {
    "lsbp.sync_round": ("lsbp.sync_round",),
    "lsbp.async_round": ("lsbp.async_round",),
    "bp.sync_round": ("bp.sync_round",),
    "lsbp.round": ("lsbp.sync_round", "lsbp.async_round"),
}


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes: (name -> (value, unit, note)),
    and the names of counts that differed between traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out, mismatched = {}, []
    for name, (unit, read) in PER_PASS.items():
        values = [read(p["trace"]) for p in traced]
        if unit == "s" and not all(values):
            out[name] = (None, unit, "absent: layer not called on this "
                                     "workload or hook missing")
        elif unit == "s":
            out[name] = (statistics.median(values), unit, "")
        else:
            values = [0 if v is None else v for v in values]
            if unit == "count" and len(set(values)) > 1:
                mismatched.append(name)
            out[name] = (values[0], unit, "")
    for name, spans in ROUND_SPANS.items():
        durations = [d for p in traced for s in spans
                     for d in p["trace"]["durations"].get(s, [])]
        if not durations:
            for key in ("ms_p50", "ms_tail"):
                out[f"{name}.{key}"] = (None, "ms", "absent: no rounds of "
                                                    "this kind on this workload")
            continue
        p, v = tail(durations)
        out[f"{name}.ms_p50"] = (1e3 * statistics.median(durations), "ms",
                                 f"n={len(durations)}")
        out[f"{name}.ms_tail"] = (1e3 * v, "ms", f"p{p:g}, n={len(durations)}")
    # read from the checked run records rather than from spans
    for name, key, agg in (("netsim.converged_at_max", "rounds_max", max),
                           ("metrics.trace_bytes", "trace_bytes", sum)):
        values = [agg(r.get(key, 0) for r in p["runs"]) for p in traced]
        if len(set(values)) > 1:
            mismatched.append(name)
        out[name] = (values[0], "count" if key == "rounds_max" else "B", "")
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain))
    out["trace.overhead"] = (overhead, "ratio", "traced / untraced run_s")
    return out, mismatched


def self_time_by_layer(passes: list[dict]) -> tuple[dict, float]:
    """Median self seconds per layer and per span name over traced passes,
    and the median share of the pass time that all self times cover."""
    traced = [p for p in passes if p["traced"]]
    names = sorted({n for p in traced for n in p["trace"]["self_s"]})
    by_name = {n: statistics.median(p["trace"]["self_s"].get(n, 0.0)
                                    for p in traced) for n in names}
    layers: dict = {}
    for n, v in by_name.items():
        layers[n.split(".")[0]] = layers.get(n.split(".")[0], 0.0) + v
    share = statistics.median(sum(p["trace"]["self_s"].values()) / p["wall_s"]
                              for p in traced)
    return {"layers": layers, "spans": by_name}, share


def rationale(workload: str, spans: dict) -> tuple[str, bool] | None:
    """The claim each workload was chosen for, checked on the traced run."""
    g = lambda *names: sum(spans.get(n, 0.0) for n in names)  # noqa: E731
    if workload == "large-n":
        rounds = max(g("lsbp.sync_round"), g("bp.sync_round"))
        others = max(v for k, v in spans.items()
                     if k not in ("lsbp.sync_round", "bp.sync_round"))
        return ("a sync_round span has the largest self time "
                f"({rounds:.3f} s vs next {others:.3f} s)", rounds > others)
    if workload == "mc-dense":
        support = g("netsim.run_experiment") + sum(
            v for k, v in spans.items()
            if k.startswith(("model.", "oracle.")))
        rounds = g("lsbp.sync_round", "bp.sync_round")
        return ("netsim + model + oracle self time exceeds engine rounds "
                f"({support:.3f} s vs {rounds:.3f} s)", support > rounds)
    if workload == "dynamic-async":
        lead = g("lsbp.async_round", "lsbp.rebuilt", "bp.rebuilt")
        bp = g("bp.sync_round")
        return ("lsbp.async_round + rebuilt self time exceeds bp.sync_round "
                f"({lead:.3f} s vs {bp:.3f} s)", lead > bp)
    return None


# -- the run ---------------------------------------------------------------------

def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` list."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()) if path.exists() else {}


def report_digests(name: str, seed: int, passes: list[dict]) -> None:
    expected = (load_baseline().get("digests", {}).get(name, {})
                if seed == 0 else {})
    for r in passes[0]["runs"]:
        d = r.get("digests") or {}
        base = expected.get(r["label"])
        verdict = ("no baseline for this seed" if base is None else
                   "same as seed baseline" if base == d else
                   "DIFFERS from seed baseline (reported, not failed)")
        for f, h in sorted(d.items()):
            print(f"digest {r['label']}/{f} sha256={h}")
        print(f"digest {r['label']}: {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2


def run(name: str, seed: int, seconds: float, trace: int, workload=None
        ) -> int:
    if not (ROOT / "src" / "cfosync" / "__init__.py").is_file():
        raise BenchError(f"no cfosync sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = workload or make_workload(name, seed)
    cfgs = workload.write(work / "cfg")
    plan = {
        "configs": [{"label": s.label, "agents": s.agents, "l_max": s.l_max,
                     "path": str(p)} for s, p in zip(workload.configs, cfgs)],
        "cli_args": list(workload.cli_args),
        "checks": dataclasses.asdict(workload.checks),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    print(f"workload {name}: seed {seed}, {seconds:g} s, trace {trace}")
    print("why: " + next((w["why"] for w in benchmark_spec()["workloads"]
                          if w["name"] == name), ""))

    setup = setup_times(cfgs) if not trace else []
    res = run_worker(work, seconds, trace)
    passes = res["passes"]
    attempted, failed, why = count_failures(passes)

    timed = [p for p in passes if not p["traced"]]
    print(f"passes: {len(timed)} untraced, {len(passes) - len(timed)} traced; "
          f"{len(workload.configs)} configs each")
    for r in passes[0]["runs"]:
        for key, unit in (("mse_to_crlb", "ratio"), ("wls_gap_hz", "Hz"),
                          ("algo_gap_hz", "Hz")):
            if key in r:
                print(f"{key}[{r['label']}] = {r[key]!r} {unit}")
    report_digests(name, seed, passes)

    if trace:
        metrics, mismatched = per_layer(passes)
        for m in mismatched:
            why.append(f"count {m} differs between traced passes")
        failed += len(mismatched)
        selfs, share = self_time_by_layer(passes)
        for layer, v in sorted(selfs["layers"].items()):
            print(f"self_s[{layer}] = {v!r} s")
        print(f"self-time coverage = {share!r} of the traced pass time "
              f"(must lie within {SELF_TIME_COVERAGE:g} of 1)")
        if abs(1 - share) > SELF_TIME_COVERAGE:
            why.append(f"self times cover {share:.4f} of the traced pass")
            failed += 1
        claim = rationale(name, selfs["spans"])
        if claim:
            print(f"rationale: {claim[0]}: {'holds' if claim[1] else 'DOES NOT HOLD'}")
        absent = next(p for p in passes if p["traced"])["trace"]["absent"]
        for hook, reason in sorted(absent.items()):
            print(f"hook {hook}: absent ({reason})")
    else:
        metrics = {k: (v, u, "") for k, (v, u) in
                   end_to_end(passes, setup, res["peak_rss_kb"]).items()}
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
        walls = sorted(p["wall_s"] for p in timed)
        print(f"run_s samples: {', '.join(f'{t:.4f}' for t in walls)}")

    for k, (v, unit, note) in metrics.items():
        shown = "absent" if v is None else repr(v)
        print(f"{k} = {shown} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_runs = {failed} of {attempted} count")
    for w in why:
        print(f"failed: {w}")

    # the result carries exactly the metrics BENCHMARK.json names
    declared = benchmark_metrics("per_layer" if trace else "end_to_end")
    out = {}
    for k, unit in declared.items():
        v, u, _ = metrics.get(k, (None, unit, ""))
        if u != unit:
            raise BenchError(f"metric {k} has unit {u}, declared {unit}")
        out[k] = {"value": 0 if v is None else v, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
