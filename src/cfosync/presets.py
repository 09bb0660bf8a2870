"""Named experiment presets.

Each preset expands to a batch of (label, ExperimentConfig) pairs that
reproduce one of the package's headline experiments:

variance-sweep   one sparse random topology (degrees 2..10 so that every
                 start below is a feasible one), packet delivery 0.8, five
                 runs differing only in the uniform initial belief variance
                 (100, 10, 1, 0.1, 0.01): per-agent variance trajectories
                 are monotone and meet at one fixed point.
pdr-sweep        the 100-agent / 3 km x 4 km / 1 km-radius topology, both
                 algorithms at delivery ratios 0.6 and 0.8, 200 noise
                 trials, centralized reference columns attached: MSE
                 converges near the Cramer-Rao average.
dynamic-topology a 30-agent graph over the same area; agents 4, 5, 8, 10
                 leave at iteration 5 and replacements join at their former
                 positions at iterations 10 and 11: the error rises after
                 the leaves and recovers once the joiners' measurements
                 arrive.  Small enough that the estimator is statistically
                 converged before the leaves, which is what makes the rise
                 visible over the convergence transient.

Convergence tolerances for the 1 km-radius runs are set at the estimator's
statistical noise floor (0.1 Hz mean change): the mean iteration on that
topology contracts at spectral radius ~0.993 per round, so micro-Hz
per-round deltas are not reachable inside the 100-round horizon, while at
0.1 Hz detection lands within ~10-50 rounds at both delivery ratios.
"""

from __future__ import annotations

from dataclasses import replace

from .config import ExperimentConfig, parse_topology
from .errors import ConfigError

SWEEP_VARIANCES = (100.0, 10.0, 1.0, 0.1, 0.01)
SWEEP_TOPOLOGY = "random:n=100,width=3000,height=4000,radius=500,seed=78"
DENSE_TOPOLOGY = "random:n=100,width=3000,height=4000,radius=1000,seed=7"
SMALL_TOPOLOGY = "random:n=30,width=3000,height=4000,radius=1500,seed=7"
FLOOR_MEAN_TOL = 0.1
LEAVERS = (4, 5, 8, 10)


def variance_sweep(overrides: dict | None = None) -> list[tuple[str, ExperimentConfig]]:
    base = ExperimentConfig(
        topology=SWEEP_TOPOLOGY, algorithm="lsbp", pdr=0.8,
        init_mode="uniform", init_mean=0.0, sigma=1.0,
        l_max=100, trials=1, master_seed=101, mean_tol=FLOOR_MEAN_TOL)
    base = replace(base, **(overrides or {}))
    return [(f"p0-{v:g}", replace(base, init_variance=v)) for v in SWEEP_VARIANCES]


def pdr_sweep(overrides: dict | None = None) -> list[tuple[str, ExperimentConfig]]:
    base = ExperimentConfig(
        topology=DENSE_TOPOLOGY, sigma=1.0, l_max=100, trials=200,
        master_seed=202, mean_tol=FLOOR_MEAN_TOL, oracle=True)
    base = replace(base, **(overrides or {}))
    return [(f"{algo}-pdr{int(pdr * 100)}", replace(base, algorithm=algo, pdr=pdr))
            for algo in ("lsbp", "bp") for pdr in (0.6, 0.8)]


def dynamic_topology(overrides: dict | None = None) -> list[tuple[str, ExperimentConfig]]:
    base = ExperimentConfig(
        topology=SMALL_TOPOLOGY, sigma=1.0, pdr=0.8, l_max=40, trials=100,
        master_seed=303, mean_tol=FLOOR_MEAN_TOL, oracle=True)
    base = replace(base, **(overrides or {}))
    graph = parse_topology(base)
    pos = graph.positions
    entries = [f"5:leave:{a}" for a in LEAVERS]
    for when, agent in zip((10, 10, 11, 11), LEAVERS):
        x, y = pos[agent]
        entries.append(f"{when}:join:{x!r},{y!r}")
    base = replace(base, timeline=";".join(entries))
    return [(algo, replace(base, algorithm=algo)) for algo in ("lsbp", "bp")]


PRESETS = {"variance-sweep": variance_sweep, "pdr-sweep": pdr_sweep,
           "dynamic-topology": dynamic_topology}
PRESET_NAMES = tuple(PRESETS)


def preset_configs(name: str, overrides: dict | None = None
                   ) -> list[tuple[str, ExperimentConfig]]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return PRESETS[name](overrides)
