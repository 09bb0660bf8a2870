import json

import pytest

from cfosync import ExperimentConfig, parse_config_text
from cfosync.cli import main
from cfosync.config import (FINITE_FIELDS, config_to_text, join_radius,
                            parse_sigma_overrides, parse_topology,
                            validate_config)
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
    assert g2.num_agents == 12 and g2.is_connected()
    for bad in ("grid:3x3", "random:n=5", "edges:", "edges:1_2",
                "random:n=12,width=100,height=100,sead=1"):
        with pytest.raises(ConfigError):
            parse_topology(ExperimentConfig(topology=bad))
    spaced = "random:n=12, width=100, height=100, radius=60, seed=1"
    assert join_radius(ExperimentConfig(topology=spaced)) == 60.0


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


# -- CLI ----------------------------------------------------------------------

def _write_cfg(tmp_path, text=TRIANGLE_CFG):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


def test_cli_oracle_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--oracle", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rho_K"] == pytest.approx(0.3819660112501051, abs=1e-6)
    assert (out / "trace.csv").exists()
    assert "rho_K" in capsys.readouterr().out


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


def test_cli_preset_expansion(tmp_path):
    rc = main(["--preset", "dynamic-topology", "--trials", "2", "--iters", "8",
               "--out", str(tmp_path / "batch")])
    assert rc == 0
    assert (tmp_path / "batch" / "lsbp" / "summary.json").exists()
    assert (tmp_path / "batch" / "bp" / "trace.csv").exists()


# -- presets ------------------------------------------------------------------

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
