"""Distributed carrier-frequency-offset estimation on network graphs.

Agents on an undirected graph each hold an unknown pre-compensation shift;
every edge observes the noisy sum of its endpoints' shifts, and one
reference agent's shift is known.  The package provides two distributed
estimators (per-edge Gaussian belief propagation and a broadcast variant
whose per-round message count is linear in the number of agents), a lossy
network simulator with dynamic topology, and a centralized WLS / CRLB
reference for verifying them.
"""

from .bp import BeliefPropagation, BpEngine
from .config import ExperimentConfig, load_config, parse_config_text
from .graph import Graph, random_geometric
from .lsbp import (BeliefInit, LinearScalingBP, LsbpEngine, is_feasible_start,
                   variance_fixed_point, variance_map)
from .metrics import RunTrace, avg_mse
from .model import (GroundTruth, MeasurementSet, generate_measurements,
                    generate_truth)
from .netsim import TimelineEvent, run_experiment
from .oracle import (FixedPointSystem, LinearSystem, avg_crlb,
                     build_fixed_point_system, build_linear_system, crlb,
                     mean_fixed_point, spectral_radius, wls_solve)
from .presets import preset_configs

__all__ = [
    "BeliefInit", "BeliefPropagation", "BpEngine", "ExperimentConfig",
    "FixedPointSystem", "Graph", "GroundTruth", "LinearScalingBP",
    "LinearSystem", "LsbpEngine", "MeasurementSet", "RunTrace",
    "TimelineEvent", "avg_crlb", "avg_mse", "build_fixed_point_system",
    "build_linear_system", "crlb", "generate_measurements", "generate_truth",
    "is_feasible_start", "load_config", "mean_fixed_point", "parse_config_text",
    "preset_configs", "random_geometric", "run_experiment", "spectral_radius",
    "variance_fixed_point", "variance_map", "wls_solve",
]

__version__ = "0.1.0"
