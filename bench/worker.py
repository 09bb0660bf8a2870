"""Workload process: runs one workload's configs through `cfosync.cli.main`,
pass after pass, in a fresh process, and writes what it measured as JSON.

Usage: python3 bench/worker.py ROOT PLAN_JSON SECONDS TRACE RESULT_JSON

A pass runs every config of the plan once, one after another.  Passes run
while the next one still fits in SECONDS, and at least MIN_PASSES of each
kind; the report takes medians over passes, so the first pass of a fresh
process, which pays one-time costs, does not set the result.  With TRACE 1
the passes alternate between untraced and traced, so that the tracing
overhead is the ratio of their medians.  Each pass is timed around the cli
calls only; checking outputs and hashing files happen outside that interval.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_pass, check_run  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import Checks, ConfigSpec  # noqa: E402

MIN_PASSES = 3          # passes in an untraced run
MIN_TRACED_PASSES = 2   # of each kind in a traced run
HARD_STOP_S = 120.0     # no new pass after this, whatever the minimums


def load_plan(path: Path):
    plan = json.loads(path.read_text())
    specs = [(ConfigSpec(label=c["label"], text="", agents=c["agents"],
                         l_max=c["l_max"]), Path(c["path"]))
             for c in plan["configs"]]
    checks = Checks(**{k: (tuple(v) if isinstance(v, list) else v)
                       for k, v in plan["checks"].items()})
    return specs, tuple(plan["cli_args"]), checks


def run_config(main, cfg: Path, outdir: Path, cli_args) -> tuple:
    for name in ("trace.csv", "summary.json"):
        (outdir / name).unlink(missing_ok=True)
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = main(["--config", str(cfg), "--out", str(outdir), *cli_args])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc(limit=4)
    return rc, error, time.perf_counter() - t0, time.process_time() - c0


def run_pass(cli, specs, cli_args, checks, outroot: Path, traced: bool,
             tracers: list) -> dict:
    tracer = Tracer() if traced else None
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.wrap(ROOT_SPAN, cli.main)
    records, wall, cpu = [], 0.0, 0.0
    started = time.perf_counter()
    try:
        for spec, cfg in specs:
            outdir = outroot / spec.label
            rc, error, w, c = run_config(main, cfg, outdir, cli_args)
            wall += w
            cpu += c
            rec = check_run(outdir, spec, checks, rc)
            if error:
                rec["problems"].append(f"exception: {error}")
            rec["wall_s"], rec["cpu_s"] = w, c
            records.append(rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    check_pass(records, checks)
    for rec in records:
        rec.pop("estimates", None)
    out = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "runs": records,
           "elapsed_s": time.perf_counter() - started}
    if tracer is not None:
        out["trace"] = tracer.summarise()
        tracers.append(tracer)
    return out


def write_spans(tracers: list, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("pass,span,name,start,end,parent\n")
        for p, tracer in enumerate(tracers):
            for k, (name, t0, t1, parent) in enumerate(tracer.spans):
                fh.write(f"{p},{k},{name},{t0!r},{t1!r},{parent}\n")


def main(argv: list[str]) -> int:
    root, plan_path, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import cfosync
    import cfosync.cli as cli
    if Path(cfosync.__file__).resolve().parent.parent != src:
        print(f"cfosync imported from {cfosync.__file__}, not {src}",
              file=sys.stderr)
        return 2

    specs, cli_args, checks = load_plan(Path(plan_path))
    outroot = Path(result_path).parent / "out"
    tracers: list = []
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        if trace:
            enough = min(n_plain, n_traced) >= MIN_TRACED_PASSES
        else:
            enough = n_plain >= MIN_PASSES
        elapsed = time.perf_counter() - start
        next_s = max((p["elapsed_s"] for p in passes[-2:]), default=0.0)
        if elapsed > HARD_STOP_S or (enough and elapsed + next_s > seconds):
            break
        traced = trace and n_traced < n_plain
        passes.append(run_pass(cli, specs, cli_args, checks, outroot, traced,
                               tracers))

    if tracers:
        write_spans(tracers, Path(result_path).parent / "spans.csv")
    import numpy
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cfosync": cfosync.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
