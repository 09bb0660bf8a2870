"""Experiment configuration: a flat key = value text format.

Every key is exactly a field name of ExperimentConfig; unknown keys are
rejected so typos fail closed.  Values with structure (topology, timeline,
per-edge noise overrides) are packed into single-line strings with their
own small grammars, documented on the fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .edges import DEFAULT_MEAN_TOL, DEFAULT_PREC_TOL, DEFAULT_REFERENCE_PRECISION
from .errors import ConfigError, GenerationError
from .graph import (DEFAULT_COMM_RADIUS, DEFAULT_RETRY_BUDGET, Graph, canonical_edge,
                    random_geometric)
from .lsbp import BeliefInit
from .model import DEFAULT_MAX_OFFSET_HZ


@dataclass
class ExperimentConfig:
    # "random:n=100,width=3000,height=4000,radius=1000,seed=0" or
    # "edges:1-2;1-3;2-3"
    topology: str = "random:n=100,width=3000,height=4000,radius=1000,seed=0"
    # agent positions for edges topologies, "1:x,y;2:x,y"; random topologies
    # carry their own
    positions: str = ""
    # communication radius used when agents join mid-run; 0 means "use the
    # random topology's radius"
    radius: float = 0.0
    reference: int = 1
    algorithm: str = "lsbp"              # "bp" | "lsbp"
    schedule: str = "synchronous"        # "synchronous" | "asynchronous"
    init_mode: str = "zero_precision"    # "zero_precision" | "uniform"
    init_variance: float = 1.0
    init_mean: float = 0.0
    max_offset: float = DEFAULT_MAX_OFFSET_HZ
    sigma: float = 1.0
    # per-edge noise std overrides, "1-2:2.0;2-3:0.5"
    sigma_overrides: str = ""
    pdr: float = 1.0
    skip_prob: float = 0.0
    # "5:leave:4;10:join:1500,2000" (iteration:kind:payload)
    timeline: str = ""
    l_max: int = 100
    mean_tol: float = DEFAULT_MEAN_TOL
    prec_tol: float = DEFAULT_PREC_TOL
    mse_normalization: float = 1.0
    trials: int = 1
    master_seed: int = 0
    reference_precision: float = DEFAULT_REFERENCE_PRECISION
    oracle: bool = False


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, text: str):
    kind = _FIELDS[name].type
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value for {name}: {text!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, val)
    return ExperimentConfig(**values)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# -- structured field grammars ------------------------------------------------

def _random_params(text: str) -> dict[str, float]:
    """The parameters of a 'random:k=v,...' topology: n, width and height
    are required, radius, seed and retries have defaults, and any other key
    is an error."""
    params = {"radius": DEFAULT_COMM_RADIUS, "seed": 0.0, "retries": DEFAULT_RETRY_BUDGET}
    for part in text[len("random:"):].split(","):
        if not part:
            continue
        k, _, v = (s.strip() for s in part.partition("="))
        if k not in ("n", "width", "height", "radius", "seed", "retries"):
            raise ConfigError(f"unknown random topology key {k!r}")
        try:
            params[k] = float(v)
        except ValueError:
            raise ConfigError(f"bad topology parameter {part!r}")
    for req in ("n", "width", "height"):
        if req not in params:
            raise ConfigError(f"random topology needs {req}=")
    return params


def parse_topology(cfg: ExperimentConfig) -> Graph:
    """The configured graph; a topology the graph constructors reject (a
    self loop, a reference or position outside the graph, a placement that
    cannot be drawn or connected) is a ConfigError."""
    try:
        return _build_topology(cfg, cfg.topology.strip())
    except ConfigError:
        raise
    except (ValueError, ArithmeticError, GenerationError) as exc:
        raise ConfigError(f"invalid topology {cfg.topology!r}: {exc}") from None


def _build_topology(cfg: ExperimentConfig, text: str) -> Graph:
    if text.startswith("random:"):
        params = _random_params(text)
        return random_geometric(
            n=int(params["n"]), width=params["width"], height=params["height"],
            radius=params["radius"], seed=int(params["seed"]),
            retry_budget=int(params["retries"]), reference=cfg.reference)
    if text.startswith("edges:"):
        # "i-j" pairs; a malformed one fails as a ValueError in parse_topology
        edges = [tuple(map(int, part.split("-")))
                 for part in text[len("edges:"):].split(";") if part.strip()]
        if not edges:
            raise ConfigError("edges topology has no edges")
        positions = parse_positions(cfg.positions) if cfg.positions else None
        return Graph.from_edges(max(map(max, edges)), edges, reference=cfg.reference,
                                positions=positions)
    raise ConfigError(f"topology must start with 'random:' or 'edges:', "
                      f"got {text!r}")


def parse_positions(text: str) -> dict[int, tuple[float, float]]:
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            ident, coords = part.split(":")
            x, y = (float(s) for s in coords.split(","))
            out[int(ident)] = (x, y)
        except ValueError:
            raise ConfigError(f"bad position entry {part!r}")
    return out


def parse_sigma_overrides(text: str) -> dict[tuple[int, int], float]:
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            edge, val = part.split(":")
            i, j = (int(s) for s in edge.split("-"))
            out[canonical_edge(i, j)] = float(val)
        except ValueError:
            raise ConfigError(f"bad sigma override {part!r}")
        _check_noise_std(f"sigma override {edge}", out[canonical_edge(i, j)])
    return out


def _check_noise_std(name: str, std: float) -> None:
    """A noise std is 0 or positive with a variance std**2 that is neither 0
    nor inf (generation would otherwise fail or flatten every belief)."""
    if not (std == 0 or std > 0 and 0.0 < std * std < math.inf):
        raise ConfigError(f"{name} must be 0 or a positive std whose square is "
                          f"finite and nonzero, got {std!r}")


def join_radius(cfg: ExperimentConfig) -> float:
    if cfg.radius > 0:
        return cfg.radius
    text = cfg.topology.strip()
    if text.startswith("random:"):
        return _random_params(text)["radius"]
    raise ConfigError("timeline joins on an edges topology require radius=")


# float fields that must be finite; pdr and skip_prob fail their range checks
FINITE_FIELDS = ("radius", "sigma", "max_offset", "mean_tol", "prec_tol",
                 "reference_precision", "init_variance", "init_mean",
                 "mse_normalization")


def validate_config(cfg: ExperimentConfig) -> None:
    for name in FINITE_FIELDS:
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)!r}")
    if cfg.algorithm not in ("bp", "lsbp"):
        raise ConfigError(f"algorithm must be bp or lsbp, got {cfg.algorithm!r}")
    if cfg.schedule not in ("synchronous", "asynchronous"):
        raise ConfigError(f"unknown schedule {cfg.schedule!r}")
    if cfg.algorithm == "bp" and cfg.schedule == "asynchronous":
        raise ConfigError("asynchronous scheduling is only defined for lsbp")
    try:
        BeliefInit(cfg.init_mode, cfg.init_variance, cfg.init_mean)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if not 0.0 <= cfg.pdr <= 1.0:
        raise ConfigError("pdr must lie in [0, 1]")
    if not 0.0 <= cfg.skip_prob < 1.0:
        raise ConfigError("skip_prob must lie in [0, 1)")
    if cfg.l_max < 0:
        raise ConfigError("l_max must be >= 0")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.mse_normalization <= 0:
        raise ConfigError("mse_normalization must be > 0")
    if cfg.radius < 0:
        raise ConfigError("radius must be >= 0")
    _check_noise_std("sigma", cfg.sigma)
    if cfg.max_offset < 0:
        raise ConfigError("max_offset must be >= 0")
    if cfg.master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    if cfg.mean_tol <= 0 or cfg.prec_tol <= 0:
        raise ConfigError("tolerances must be > 0")
    # a subnormal precision has no finite variance 1/p
    if not (cfg.reference_precision > 0 and math.isfinite(1.0 / cfg.reference_precision)):
        raise ConfigError(f"reference_precision must be > 0 with a finite reciprocal, "
                          f"got {cfg.reference_precision!r}")
