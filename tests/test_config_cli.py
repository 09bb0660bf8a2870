import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfosync

from cfosync import ExperimentConfig, parse_config_text
from cfosync.cli import main
from cfosync.config import (FINITE_FIELDS, config_to_text, join_radius,
                            parse_positions, parse_sigma_overrides,
                            parse_topology, validate_config)
from cfosync.errors import ConfigError, NumericError
from cfosync.lsbp import LsbpEngine

TRIANGLE_CFG = """
topology = edges:1-2;1-3;2-3
algorithm = lsbp
l_max = 60
mean_tol = 1e-10
master_seed = 8
"""


def test_config_text_round_trip():
    cfg = ExperimentConfig(pdr=0.75, trials=3, timeline="2:leave:5",
                           oracle=True)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_unknown_key_fails_closed():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("pdrr = 0.5\n")


def test_duplicate_and_malformed_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("pdr = 0.5\npdr = 0.6\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("l_max = soon\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config_text("# a comment\n\npdr = 0.5  # trailing\n")
    assert cfg.pdr == 0.5


def test_parse_topology_variants():
    g = parse_topology(ExperimentConfig(topology="edges:1-2;2-3"))
    assert g.agents == {1, 2, 3}
    g2 = parse_topology(ExperimentConfig(
        topology="random:n=12,width=100,height=100,radius=60,seed=1"))
    assert len(g2.agents) == 12 and not g2.unreachable_agents
    for bad in ("grid:3x3", "random:n=5", "edges:", "edges:1_2",
                "random:n=12,width=100,height=100,sead=1"):
        with pytest.raises(ConfigError):
            parse_topology(ExperimentConfig(topology=bad))
    spaced = "random:n=12, width=100, height=100, radius=60, seed=1"
    assert join_radius(ExperimentConfig(topology=spaced)) == 60.0
    blank = "random:n=12, ,width=100,height=100,radius=60,seed=1,"
    assert parse_topology(ExperimentConfig(topology=blank)).edges == g2.edges


def test_validate_config_rules():
    validate_config(ExperimentConfig())
    bad = [
        dict(algorithm="gossip"),
        dict(schedule="sometimes"),
        dict(algorithm="bp", schedule="asynchronous"),
        dict(init_mode="warm"),
        dict(init_mode="uniform", init_variance=0.0),
        dict(pdr=-0.1),
        dict(skip_prob=1.0),
        dict(l_max=-1),
        dict(trials=0),
        dict(mse_normalization=0.0),
        dict(sigma=-1.0),
        dict(sigma=1e200),      # variance overflows to inf
        dict(sigma=1e-200),     # variance underflows to 0
        dict(reference_precision=1e-320),   # subnormal: 1/p overflows to inf
        dict(master_seed=-1),
        dict(mean_tol=0.0),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(**kw))


def test_parse_sigma_overrides():
    assert parse_sigma_overrides("1-2:2.0;4-3:0.5") == {(1, 2): 2.0, (3, 4): 0.5}
    assert parse_sigma_overrides("1-2:0") == {(1, 2): 0.0}
    for bad in ("1-2", "1-2:-1", "1-2:nan", "1-2:inf", "1-2:1e200", "1-2:1e-200"):
        with pytest.raises(ConfigError):
            parse_sigma_overrides(bad)
    with pytest.raises(ConfigError, match=r"^bad sigma override '1-1:-5'$"):
        parse_sigma_overrides("1-1:-5")


def test_parse_positions():
    assert parse_positions(" ;1:0,0; ;2:5,5;") == {1: (0.0, 0.0), 2: (5.0, 5.0)}
    for bad in ("1:0", "1:0,0,0", "x:0,0", "1:0:0"):
        with pytest.raises(ConfigError, match=f"^bad position entry '{bad}'$"):
            parse_positions(f"2:1,1;{bad}")


@pytest.mark.parametrize("fields, reason", [
    pytest.param("topology = random:n=2.5,width=100,height=100,radius=60",
                 "bad topology parameter 'n=2.5'", id="fractional-n"),
    pytest.param("topology = random:n=12,width=100,height=100,radius=60,seed=1.9",
                 "bad topology parameter 'seed=1.9'", id="fractional-seed"),
    pytest.param("topology = random:n=12,width=100,height=100,radius=60,retries=2.5",
                 "bad topology parameter 'retries=2.5'", id="fractional-retries"),
    pytest.param("topology = random:n=30,width=100,height=100,radius=60,seed=1,n=12",
                 "duplicate topology parameter 'n=12'", id="repeated-random-key"),
    pytest.param("topology = edges:1-2;1-3;2-3\npositions = 1:0,0;2:100,0;3:0,100;2:900,900",
                 "duplicate position entry '2:900,900'", id="repeated-position"),
    pytest.param("topology = edges:1-2;1-3;2-3\nsigma_overrides = 1-2:1.0;2-1:3.0",
                 "duplicate sigma override '2-1:3.0'", id="repeated-sigma-override"),
    # a random topology places its own agents; its positions used to be ignored
    pytest.param("topology = random:n=5,width=100,height=100,radius=200,seed=1\n"
                 "positions = 1:0,0;2:1e6,1e6",
                 "positions apply only to an edges: topology", id="positions-on-random"),
    # a position of an id outside an edges: topology used to be ignored, or
    # taken over by the joiner that got that id
    pytest.param("topology = edges:1-2;2-3\npositions = 1:0,0;2:100,0;3:200,0;9:5,5",
                 "invalid topology 'edges:1-2;2-3': positions for agents not in graph [9]",
                 id="position-of-no-agent"),
    pytest.param("topology = edges:1-2;2-3\npositions = 1:0,0;2:100,0;3:200,0;4:5,5\n"
                 "radius = 150\ntimeline = 2:join:300,0",
                 "invalid topology 'edges:1-2;2-3': positions for agents not in graph [4]",
                 id="position-of-a-joiner"),
])
def test_cli_rejects_fractional_counts_and_duplicate_entries(tmp_path, capsys, fields, reason):
    cfg = _write_cfg(tmp_path, f"{fields}\nl_max = 10\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: code=2 kind=validation reason={reason}"]
    assert not (tmp_path / "o").exists()


# -- CLI ----------------------------------------------------------------------

def _write_cfg(tmp_path, text=TRIANGLE_CFG):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"topology = edges:1-2\n# caf\xff\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: code=2 kind=validation reason=config file is not UTF-8 text")
    assert not (tmp_path / "o").exists()


def test_cli_oracle_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--oracle", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rho_K"] == pytest.approx(0.3819660112501051, abs=1e-6)
    assert (out / "trace.csv").exists()
    assert "rho_K" in capsys.readouterr().out


JOIN_CFG = TRIANGLE_CFG + "positions = 1:0,0;2:100,0;3:0,100\nradius = 150\ntimeline = 2:join:5,5\n"


@pytest.mark.parametrize("override, code", [("1-4:3.0", 0), ("1-5:3.0", 2)])
def test_cli_sigma_override_on_a_joiners_edge(tmp_path, capsys, override, code):
    # the joiner gets id 4: {1, 4} is an edge of the run's last topology, {1, 5} of none
    cfg = _write_cfg(tmp_path, JOIN_CFG + f"sigma_overrides = {override}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    assert err == ([] if code == 0 else [
        "error: code=2 kind=validation reason=sigma override for non-edge (1, 5)"])


def test_cli_unobservable_oracle_run_fails_before_round_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "topology = edges:1-2;2-3;3-4\ntimeline = 2:leave:2\n"
                               "l_max = 50000\noracle = true\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: code=2 kind=validation reason=agents not anchored to the reference: [3, 4]"]
    assert not (tmp_path / "o").exists()


def test_cli_zero_iterations(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--iters", "0", "--out", str(out)])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert all(ln.startswith("0,") for ln in lines[1:])


def test_cli_validation_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "timeline = 2:leave:1\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: code=2 kind=validation")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FINITE_FIELDS)
def test_cli_rejects_non_finite_float(tmp_path, capsys, field, value):
    kept = [ln for ln in TRIANGLE_CFG.splitlines()
            if not ln.startswith(f"{field} ")]
    cfg = _write_cfg(tmp_path, "\n".join(kept) + f"\n{field} = {value}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=validation")
    assert f"{field} must be finite" in err[0]


def test_cli_rejects_infinite_uniform_variance(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "init_mode = uniform\ninit_variance = inf\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=validation")


def test_cli_rejects_negative_radius(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "radius = -5\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=validation")
    assert "radius must be >= 0" in err[0]


def test_cli_rejects_timeline_event_past_l_max(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "timeline = 60:leave:3\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=")
    assert "iteration 60 never fires" in err[0]


@pytest.mark.parametrize("topology, reason", [
    # squared distances beyond the float range
    ("random:n=2,width=1e308,height=1,radius=inf", "overflow encountered"),
    # floor(position / cell) far beyond the int64 range
    ("random:n=4,width=1e12,height=1e12,radius=1e-8,retries=2",
     "no connected placement within 2 attempts"),
])
def test_cli_unmeasurable_placement_exits_validation(tmp_path, capsys, topology, reason):
    cfg = _write_cfg(tmp_path, f"topology = {topology}\nl_max = 5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=validation reason=invalid topology")
    assert reason in err[0]


def test_cli_rejects_subnormal_reference_precision(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "reference_precision = 1e-320\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=2 kind=validation")
    assert "reference_precision must be > 0 with a finite reciprocal" in err[0]


def test_cli_unknown_key_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, "pdrr = 0.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_requires_exactly_one_source(tmp_path):
    assert main([]) == 2
    cfg = _write_cfg(tmp_path)
    assert main(["--config", str(cfg), "--preset", "pdr-sweep"]) == 2


def test_cli_override_flags(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--algo", "bp", "--pdr", "0.9",
               "--seed", "5", "--trials", "2", "--iters", "20",
               "--out", str(out), "--emit", "json"])
    assert rc == 0
    assert not (out / "trace.csv").exists()
    run_cfg = (out / "run.cfg").read_text()
    assert "algorithm = bp" in run_cfg and "pdr = 0.9" in run_cfg
    assert "master_seed = 5" in run_cfg and "trials = 2" in run_cfg


def test_cli_non_finite_belief_exits_numeric(tmp_path, monkeypatch, capsys):
    sync_round = LsbpEngine.sync_round

    def poisoned(engine, arrived=None):
        sync_round(engine, arrived)
        engine.mean[:, engine.index[3]] = float("nan")
    monkeypatch.setattr(LsbpEngine, "sync_round", poisoned)
    cfg = _write_cfg(tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: code=4 kind=numeric reason=non-finite belief after round 1"]


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise NumericError("power iteration exceeded its cap")
    monkeypatch.setattr("cfosync.cli.run_experiment", boom)
    cfg = _write_cfg(tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("error: code=4 kind=numeric")


def test_cli_overflow_exits_numeric(tmp_path, capsys):
    # squaring a 1e200 Hz estimation error overflows in the MSE
    cfg = _write_cfg(tmp_path, TRIANGLE_CFG + "max_offset = 1e200\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: code=4 kind=numeric")
    assert "overflow computing the MSE (max_offset=1e+200" in err[0]


@pytest.mark.parametrize("field, code, reason", [
    ("sigma_overrides = 1-2:1e-160", 4, "overflow encountered in divide in the oracle"),
    ("sigma = 1e-154", 4, "overflow encountered in multiply in the oracle"),
    ("sigma = 1e-160", 4, "non-finite precision at variance step 1967"),
    ("sigma = 1e-150", 0, None),
])
def test_cli_oracle_beyond_the_float_range_exits_numeric(tmp_path, capsys, field, code, reason):
    # 1/sigma^2 or a WLS right-hand side overflows, or the precisions grow
    # past the float range, which once wrote NaN to summary.json or ran out
    # the variance iteration's 100000 steps
    cfg = _write_cfg(tmp_path, f"topology = edges:1-2;2-3;3-1;3-4\noracle = true\n{field}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
        assert "NaN" not in (tmp_path / "o" / "summary.json").read_text()
    else:
        assert err == [f"error: code=4 kind=numeric reason={reason}"]
        assert not (tmp_path / "o").exists()


def test_cli_preset_expansion(tmp_path):
    # the joins are stamped 10 and 11, so they fire within 12 rounds
    rc = main(["--preset", "dynamic-topology", "--trials", "2", "--iters", "12",
               "--out", str(tmp_path / "batch")])
    assert rc == 0
    assert (tmp_path / "batch" / "lsbp" / "summary.json").exists()
    assert (tmp_path / "batch" / "bp" / "trace.csv").exists()


# -- presets ------------------------------------------------------------------

# sha256 of every output file of the three presets, pdr-sweep cut to 20
# trials; a deliberate change of a random stream, a summation order or a
# solver updates these digests
PRESET_DIGESTS = {
    "dynamic-topology/bp/summary.json":
        "ff96911c8a7b77411ab20ee1ff3dfa100212eeda6da3e65cb9d613b092ab162a",
    "dynamic-topology/bp/trace.csv":
        "a6d4eb2b0a58c0c4478d43697e46f604d3a9e10e32493ecc89064e730a525307",
    "dynamic-topology/lsbp/summary.json":
        "56c8eaf382f713d5ea0eb9747dfa5f66f3f152b5d7a35df5a10bbc8d22c76542",
    "dynamic-topology/lsbp/trace.csv":
        "4395b351abca29e61c75a5f89a729f95a64fee76e947590b558fe5d8c8ccff37",
    "pdr-sweep/bp-pdr60/summary.json":
        "1ea03f0524f80e74846d7ad1ef25e31efe24f5a6d5cae280edc4ff974f63cf45",
    "pdr-sweep/bp-pdr60/trace.csv":
        "071e36f4c01a3b64153651d05a3ed624ae12be2eb40116d6719a0eb2634dba10",
    "pdr-sweep/bp-pdr80/summary.json":
        "2e2fd625362e5041939b632b887f0df4f59d49a81cf1558cfcf43b4c6de2dcf7",
    "pdr-sweep/bp-pdr80/trace.csv":
        "716a7fa394efa26baf5b48b8737aa16321f7df82afef7ff6f9e29244b3a4d8d0",
    "pdr-sweep/lsbp-pdr60/summary.json":
        "6cbffeda1723ce9e0d00515c235ff2b92498c49c810ca1532cf4aff635db1b54",
    "pdr-sweep/lsbp-pdr60/trace.csv":
        "0ce91fd372da8d3dfa785087b928ad35f0adbfe06e959ace8e69d2a919745606",
    "pdr-sweep/lsbp-pdr80/summary.json":
        "128e415282ded562e9aeb122ed4f11fc5b49567a1264e536faa1123e833df0f9",
    "pdr-sweep/lsbp-pdr80/trace.csv":
        "c23ecd74b777091bd1e77d6b3892859147c31aa77bd7ac70819bc987c32f902c",
    "variance-sweep/p0-0.01/summary.json":
        "473d84b7930c06f5c60d12a320e171ad78d8f39e1acb0c95854de6670296c30d",
    "variance-sweep/p0-0.01/trace.csv":
        "cdd97badb62f1425bf84c1748bb9f0515bce652ad8b7abf7a269778be7f0f32b",
    "variance-sweep/p0-0.1/summary.json":
        "b460d47bc7865a54807522fd27924fe1bae4a33936b6a69e7a878cd8d8d11830",
    "variance-sweep/p0-0.1/trace.csv":
        "61886459cac46642d7148c10dea8009022464df82acf20705ea6443eeddea4eb",
    "variance-sweep/p0-1/summary.json":
        "40f6300dc7f38d32646c8422e3512dc1617d4d4e1596189c3fe3cc3e72059600",
    "variance-sweep/p0-1/trace.csv":
        "e0a69558436fb0a64a96604136d59f78cb541c86ea7916c564b21c5897b95373",
    "variance-sweep/p0-10/summary.json":
        "9c3e90f8ed288d2ec63c14a9186be10aeacba80ef07f879d3987f88cdd442707",
    "variance-sweep/p0-10/trace.csv":
        "f6b5b23ba8ca40affc2b3b2066050af9ea253cac16bfdb669b5ac9ea5ef2041b",
    "variance-sweep/p0-100/summary.json":
        "56502360bb7b0cc96a982d7c318092055447ae42c23c3d73f93cd698649746bb",
    "variance-sweep/p0-100/trace.csv":
        "0469c40ce6a2e68bb2bb547caaa313f43dacfb406bb0e191be83bafc3f38d8d9",
}


def test_preset_output_bytes_are_pinned(tmp_path):
    for preset, extra in (("dynamic-topology", []), ("variance-sweep", []),
                          ("pdr-sweep", ["--trials", "20"])):
        assert main(["--preset", preset, *extra, "--out", str(tmp_path / preset)]) == 0
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.name in ("trace.csv", "summary.json")}
    assert written == PRESET_DIGESTS


def test_variance_sweep_configs_differ_only_in_init_variance():
    from cfosync.presets import preset_configs
    batch = preset_configs("variance-sweep")
    assert len(batch) == 5
    variances = [cfg.init_variance for _, cfg in batch]
    assert variances == [100.0, 10.0, 1.0, 0.1, 0.01]
    stripped = [dataclasses_replace_no_variance(cfg) for _, cfg in batch]
    assert all(s == stripped[0] for s in stripped)


def dataclasses_replace_no_variance(cfg):
    import dataclasses
    return dataclasses.replace(cfg, init_variance=0.5)


def test_pdr_sweep_covers_both_algorithms_and_rates():
    from cfosync.presets import preset_configs
    batch = preset_configs("pdr-sweep")
    combos = {(cfg.algorithm, cfg.pdr) for _, cfg in batch}
    assert combos == {("lsbp", 0.6), ("lsbp", 0.8), ("bp", 0.6), ("bp", 0.8)}


def test_dynamic_preset_overrides_keep_timeline():
    from cfosync.presets import preset_configs
    batch = dict(preset_configs("dynamic-topology", {"l_max": 20}))
    cfg = batch["lsbp"]
    assert cfg.l_max == 20
    assert "5:leave:4" in cfg.timeline and ":join:" in cfg.timeline


def test_unknown_preset_rejected():
    from cfosync.presets import preset_configs
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_configs("fig42")


@pytest.mark.parametrize("topology", ["random:n=20,width=500,height=500,radius=200,seed=3",
                                      "edges:1-2;1-3;2-3;3-4"])
def test_cli_run_does_not_import_numpy_ma(tmp_path, topology):
    # importing numpy.ma costs ~13 ms of every CLI process; a plain np.unique
    # pulls it in
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology = {topology}\npdr = 0.7\ntrials = 3\nl_max = 10\noracle = true\n")
    code = ("import sys\nfrom cfosync.cli import main\n"
            f"assert main(['--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cfosync.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
