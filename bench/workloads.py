"""Benchmark workloads: seeded generation of the `.cfg` inputs.

Each workload is a list of configs that the benchmark feeds, one after
another in one process (a closed loop with a single client), to
`cfosync.cli.main`.  The topology of every workload is fixed; the seed picks
the run's master seed, so it redraws the true offsets, the measurement
noise, the packet losses and the asynchronous update order while the amount
of work per config stays the same.  Seed 0 reproduces the presets' master
seeds; HELDOUT_SEED is the seed kept back for checking a claimed gain on
inputs that were not used while the change was written.

The cfg text is written here, not through `cfosync.config.config_to_text`,
so that the parent and the child of a change receive byte-identical inputs.
For seed 0 the `mc-dense` text equals `config_to_text` of the `pdr-sweep`
preset's `lsbp-pdr80` and `bp-pdr80` configs (the self-test checks this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
HELDOUT_SEED = 99991
SEED_RANGE = 1_000_000

# Field order and defaults of ExperimentConfig, as config_to_text writes them.
CFG_DEFAULTS = (
    ("topology", "random:n=100,width=3000,height=4000,radius=1000,seed=0"),
    ("positions", ""),
    ("radius", 0.0),
    ("reference", 1),
    ("algorithm", "lsbp"),
    ("schedule", "synchronous"),
    ("init_mode", "zero_precision"),
    ("init_variance", 1.0),
    ("init_mean", 0.0),
    ("max_offset", 200.0),
    ("sigma", 1.0),
    ("sigma_overrides", ""),
    ("pdr", 1.0),
    ("skip_prob", 0.0),
    ("timeline", ""),
    ("l_max", 100),
    ("mean_tol", 1e-9),
    ("prec_tol", 1e-12),
    ("mse_normalization", 1.0),
    ("trials", 1),
    ("master_seed", 0),
    ("reference_precision", 1e12),
    ("oracle", False),
)

# pdr-sweep preset: 100 agents, mean degree ~25
DENSE_TOPOLOGY = "random:n=100,width=3000,height=4000,radius=1000,seed=7"
DENSE_MASTER_SEED = 202
# dynamic-topology preset: 30 agents, four leave at round 5 and rejoin
SMALL_TOPOLOGY = "random:n=30,width=3000,height=4000,radius=1500,seed=7"
SMALL_MASTER_SEED = 303
SMALL_LEAVERS = (4, 5, 8, 10)
# large-n: the dense topology's area scaled so the mean degree stays ~25
LARGE_N = 800
LARGE_MASTER_SEED = 404
LARGE_L_MAX = 30
FLOOR_MEAN_TOL = 0.1


@dataclass(frozen=True)
class Checks:
    """Output bands a run must meet (see checks.py)."""

    # final mse_avg / crlb_avg, oracle workloads only
    mse_to_crlb: tuple[float, float] | None = None
    # max over agents |final estimate - wls_mean| in Hz, oracle workloads only
    wls_gap_hz: float | None = None
    # max over agents |lsbp estimate - bp estimate| in Hz between the
    # workload's two configs, for the workload without the oracle
    algo_gap_hz: float | None = None


@dataclass(frozen=True)
class ConfigSpec:
    label: str
    text: str
    agents: int          # agents at the start of the run
    l_max: int


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[ConfigSpec, ...]
    # extra cli arguments, applied to every config
    cli_args: tuple[str, ...] = ()
    checks: Checks = field(default_factory=Checks)

    def write(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for spec in self.configs:
            path = directory / f"{spec.label}.cfg"
            path.write_text(spec.text, encoding="utf-8")
            paths.append(path)
        return paths


def cfg_text(**values) -> str:
    """Render a config the way config_to_text does: every field, in order."""
    unknown = set(values) - {k for k, _ in CFG_DEFAULTS}
    if unknown:
        raise KeyError(f"unknown config fields {sorted(unknown)}")
    lines = []
    for key, default in CFG_DEFAULTS:
        v = values.get(key, default)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _spec(label: str, agents: int, **values) -> ConfigSpec:
    return ConfigSpec(label=label, text=cfg_text(**values), agents=agents,
                      l_max=values.get("l_max", 100))


def mc_dense(seed: int, trials: int = 20) -> Workload:
    """Many small oracle trials: per-trial bookkeeping, measurement draws and
    WLS rebuilds outweigh the engine rounds."""
    base = dict(topology=DENSE_TOPOLOGY, sigma=1.0, l_max=100, trials=200,
                master_seed=DENSE_MASTER_SEED + seed,
                mean_tol=FLOOR_MEAN_TOL, oracle=True, pdr=0.8)
    return Workload(
        name="mc-dense",
        configs=tuple(_spec(f"{algo}-pdr80", 100, algorithm=algo, **base)
                      for algo in ("lsbp", "bp")),
        cli_args=("--trials", str(trials)),
        checks=Checks(mse_to_crlb=(0.7, 1.4), wls_gap_hz=0.05),
    )


def large_n(seed: int, n: int = LARGE_N) -> Workload:
    """The scale case: the dense NxN engine round dominates; trial batching
    and the oracle are bypassed."""
    scale = math.sqrt(n / 100)
    topology = (f"random:n={n},width={3000 * scale!r},"
                f"height={4000 * scale!r},radius=1000,seed=7")
    # Every seed stops at l_max: the 0.1 Hz tolerance is met only after
    # 34-38 rounds, while the estimates already sit at the noise floor by
    # round 30.  A fixed round count keeps the work per pass the same for
    # every seed.
    base = dict(topology=topology, pdr=0.8, l_max=LARGE_L_MAX, trials=1,
                master_seed=LARGE_MASTER_SEED + seed, mean_tol=FLOOR_MEAN_TOL)
    return Workload(
        name="large-n",
        configs=tuple(_spec(algo, n, algorithm=algo, **base)
                      for algo in ("lsbp", "bp")),
        checks=Checks(algo_gap_hz=0.5),
    )


def dynamic_async(seed: int, trials: int = 30) -> Workload:
    """Agents leave and rejoin while LSBP updates one agent at a time with
    skips: async rounds and engine rebuilds lead."""
    from cfosync.config import ExperimentConfig, parse_topology

    pos = parse_topology(ExperimentConfig(topology=SMALL_TOPOLOGY)).positions
    entries = [f"5:leave:{a}" for a in SMALL_LEAVERS]
    for when, agent in zip((10, 10, 11, 11), SMALL_LEAVERS):
        x, y = pos[agent]
        entries.append(f"{when}:join:{x!r},{y!r}")
    base = dict(topology=SMALL_TOPOLOGY, sigma=1.0, pdr=0.8, l_max=40,
                trials=100, master_seed=SMALL_MASTER_SEED + seed,
                mean_tol=FLOOR_MEAN_TOL, oracle=True,
                timeline=";".join(entries))
    return Workload(
        name="dynamic-async",
        configs=(
            _spec("lsbp", 30, algorithm="lsbp", schedule="asynchronous",
                  skip_prob=0.1, **base),
            _spec("bp", 30, algorithm="bp", **base),
        ),
        cli_args=("--trials", str(trials)),
        checks=Checks(mse_to_crlb=(0.7, 1.4), wls_gap_hz=0.05),
    )


WORKLOADS = {"mc-dense": mc_dense, "large-n": large_n,
             "dynamic-async": dynamic_async}


def make_workload(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed % SEED_RANGE)
