"""Self-test of the benchmark at tiny sizes.

Run from the repo root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import (HELDOUT_SEED, dynamic_async, large_n,  # noqa: E402
                       make_workload, mc_dense)

TINY = {
    "mc-dense": lambda seed: mc_dense(seed, trials=4),
    "large-n": lambda seed: large_n(seed, n=60),
    "dynamic-async": lambda seed: dynamic_async(seed, trials=4),
}
# printed by name in the report of an untraced run, beyond BENCHMARK.json's
REPORT_ONLY = {"mse_to_crlb": "ratio", "failed_runs": "count"}
TABLE_ONLY = ("graph.edges", "graph.mutate.s", "lsbp.sync_round.ms_p50",
              "lsbp.sync_round.ms_tail", "lsbp.async_round.ms_p50",
              "lsbp.async_round.ms_tail", "lsbp.rebuilt.s",
              "lsbp.variance_fixed_point.s", "bp.rebuilt.s",
              "netsim.deliveries", "netsim.drops", "netsim.delivery_ratio",
              "netsim.converged_at_max", "oracle.build_linear_system.s",
              "oracle.wls_solve.s", "oracle.crlb.s",
              "oracle.build_fixed_point_system.s", "oracle.spectral_radius.s",
              "metrics.trace_bytes")


def _result(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(name, trace, capsys):
    assert run.run(name, 7, 0.1, trace, workload=TINY[name](7)) == 0
    out, res = _result(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = run.benchmark_metrics(kind)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    lines = out.splitlines()
    for k, unit in declared.items():
        value = res["metrics"][k]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(ln.startswith(f"{k} = ") and f" {unit}" in ln
                   for ln in lines), k
    extra = TABLE_ONLY if trace else (
        [k for k in REPORT_ONLY if name != "large-n" or k != "mse_to_crlb"])
    for k in extra:
        assert any(ln.startswith((f"{k} = ", f"{k}[")) for ln in lines), k


def test_corrupted_summary_counts_as_failed(tmp_path):
    import cfosync.cli

    wl = TINY["mc-dense"](0)
    cfgs = wl.write(tmp_path / "cfg")

    class CorruptingCli:
        @staticmethod
        def main(argv):
            rc = cfosync.cli.main(argv)
            summary = Path(argv[argv.index("--out") + 1]) / "summary.json"
            if "lsbp" in str(summary):
                data = json.loads(summary.read_text())
                data["final_estimates"]["2"] = float("nan")
                summary.write_text(json.dumps(data))
            return rc

    specs = list(zip(wl.configs, cfgs))
    good = worker.run_pass(cfosync.cli, specs, wl.cli_args, wl.checks,
                           tmp_path / "out", False, [])
    bad = worker.run_pass(CorruptingCli, specs, wl.cli_args, wl.checks,
                          tmp_path / "out", False, [])
    attempted, failed, why = run.count_failures([good, bad])
    assert (attempted, failed) == (4, 1)
    assert "non-finite final estimates" in why[0]
    assert "digests differ" in why[0]


def test_default_seed_reproduces_presets():
    from cfosync.config import config_to_text
    from cfosync.presets import preset_configs

    dense = dict(preset_configs("pdr-sweep"))
    wl = make_workload("mc-dense", 0)
    assert [s.text for s in wl.configs] == [
        config_to_text(dense["lsbp-pdr80"]), config_to_text(dense["bp-pdr80"])]

    import dataclasses
    dyn = dict(preset_configs("dynamic-topology"))
    lsbp = dataclasses.replace(dyn["lsbp"], schedule="asynchronous",
                               skip_prob=0.1)
    wl = make_workload("dynamic-async", 0)
    assert [s.text for s in wl.configs] == [
        config_to_text(lsbp), config_to_text(dyn["bp"])]


def test_seed_changes_inputs_and_repeats():
    for name in TINY:
        a, b = make_workload(name, 0), make_workload(name, HELDOUT_SEED)
        assert a == make_workload(name, 0)
        assert [s.text for s in a.configs] != [s.text for s in b.configs]


def test_absent_hook_is_reported_not_raised(monkeypatch):
    import tracer

    hooks = tracer.SPAN_HOOKS + (("cfosync.netsim", "no_such_function",
                                  "netsim.none"),)
    monkeypatch.setattr(tracer, "SPAN_HOOKS", hooks)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == {"cfosync.netsim.no_such_function":
                        "hook target not found"}


def test_missing_sources_exit_without_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-dense", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
