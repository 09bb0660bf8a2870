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
    # agent positions for edges topologies, "1:x,y;2:x,y"; a random topology
    # places its own and rejects them
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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {exc}") from None


# -- structured field grammars ------------------------------------------------

def _entries(text: str, what: str, parse, sep: str = ";", keyed: bool = True):
    """What `parse` makes of each non-empty, stripped entry of a
    `sep`-separated list: a dict of the (key, value) pairs it returns, in
    which a repeated key is an error, or with keyed=False a list.  A
    ValueError in `parse` becomes ConfigError("bad {what} {entry!r}")."""
    out = {} if keyed else []
    for entry in filter(None, (s.strip() for s in text.split(sep))):
        try:
            item = parse(entry)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad {what} {entry!r}") from None
        if not keyed:
            out.append(item)
        elif item[0] in out:
            raise ConfigError(f"duplicate {what} {entry!r}")
        else:
            out[item[0]] = item[1]
    return out


def _random_param(entry: str) -> tuple[str, float]:
    key, _, value = (s.strip() for s in entry.partition("="))
    if key not in ("n", "width", "height", "radius", "seed", "retries"):
        raise ConfigError(f"unknown random topology key {key!r}")
    if key in ("n", "seed", "retries") and not float(value).is_integer():
        raise ValueError(f"{key} must be a whole number")
    return key, float(value)


def _random_params(text: str) -> dict[str, float]:
    """The parameters of a 'random:k=v,...' topology: n, width and height
    are required, radius, seed and retries have defaults, n, seed and
    retries are whole numbers, and any other key is an error."""
    params = {"radius": DEFAULT_COMM_RADIUS, "seed": 0.0, "retries": DEFAULT_RETRY_BUDGET,
              **_entries(text[len("random:"):], "topology parameter", _random_param, ",")}
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
        if cfg.positions.strip():
            raise ConfigError("positions apply only to an edges: topology")
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


def _position(entry: str) -> tuple[int, tuple[float, float]]:
    ident, coords = entry.split(":")
    x, y = map(float, coords.split(","))
    return int(ident), (x, y)


def parse_positions(text: str) -> dict[int, tuple[float, float]]:
    return _entries(text, "position entry", _position)


def _sigma_override(entry: str) -> tuple[tuple[int, int], float]:
    edge, value = entry.split(":")
    i, j = map(int, edge.split("-"))
    key, std = canonical_edge(i, j), float(value)
    _check_noise_std(f"sigma override {edge}", std)
    return key, std


def parse_sigma_overrides(text: str) -> dict[tuple[int, int], float]:
    return _entries(text, "sigma override", _sigma_override)


@dataclass(frozen=True)
class TimelineEvent:
    iteration: int
    kind: str                       # "leave" | "join"
    agent: int | None = None        # leave target
    position: tuple[float, float] | None = None  # join placement


def _timeline_event(entry: str) -> TimelineEvent:
    when, kind, payload = entry.split(":")
    iteration = int(when)
    if iteration < 0:
        raise ConfigError(f"timeline iteration must be >= 0: {entry!r}")
    if kind == "leave":
        return TimelineEvent(iteration, "leave", agent=int(payload))
    if kind == "join":
        x, y = map(float, payload.split(","))
        return TimelineEvent(iteration, "join", position=(x, y))
    raise ConfigError(f"unknown timeline event kind {kind!r}")


def parse_timeline(text: str) -> list[TimelineEvent]:
    events = _entries(text, "timeline entry", _timeline_event, keyed=False)
    if any(b.iteration < a.iteration for a, b in zip(events, events[1:])):
        raise ConfigError("timeline iterations must be non-decreasing")
    return events


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
