"""Centralized reference machinery.

Everything the distributed algorithms are judged against lives here: the
weighted-least-squares estimator over the stacked edge measurements, the
Cramer-Rao bound for the linear Gaussian model, and the system that
governs the broadcast algorithm's belief means once variances have settled
(iteration matrix, spectral radius, fixed point).  Both are one weighted
`LinearSystem` read off the engines' `DirectedEdges`: WLS weighs each
measurement by 1/sigma^2, the broadcast fixed point by the converged
message precision.  On a stacked measurement set (one row per trial) the
results hold a length-T array per agent.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .edges import DirectedEdges, message_precision
from .errors import NumericError, UnobservableError
from .graph import Graph
from .lsbp import DEFAULT_REFERENCE_PRECISION, nonref_agents
from .model import MeasurementSet


def _reduced_matrix(edges: DirectedEdges, w: np.ndarray) -> np.ndarray:
    """Dense matrix over the non-reference agents in id order: w[e] at
    [dst[e], src[e]] and each agent's summed inbox weights on the diagonal;
    the reference's row and column are dropped."""
    n, ref = edges.n, edges.ref
    at = np.arange(n) - (np.arange(n) > ref)   # position once ref is dropped
    off = (edges.src != ref) & (edges.dst != ref)
    mat = np.zeros((n - 1, n - 1))
    mat[at[edges.dst[off]], at[edges.src[off]]] = w[off]
    np.fill_diagonal(mat, np.delete(np.bincount(edges.dst, w, n), ref))
    return mat


def _inbox_sums(edges: DirectedEdges, w: np.ndarray, reference_value: float,
                stacked: bool) -> np.ndarray:
    """Per trial and non-reference agent i: the sum over its inbox of
    w[e] * r[e], with the known reference value taken out of the reference's
    measurements.  (T, N-1) on a stacked set, else (N-1,)."""
    terms = w * (edges.r - np.where(edges.src == edges.ref, reference_value, 0.0))
    sums = np.delete(edges._agent_sums(terms), edges.ref, axis=1)
    return sums if stacked else sums[0]


def _by_agent(ids: tuple[int, ...], values: np.ndarray) -> dict[int, float | np.ndarray]:
    """Per agent id: a float, or a length-T array for a (N-1, T) result."""
    return dict(zip(ids, values.tolist() if values.ndim == 1 else values))


@dataclass(frozen=True)
class LinearSystem:
    """Normal equations `normal` f = `target` over the non-reference unknowns,
    directed edge j -> i weighted by w: w at [i, j], i's summed inbox weights
    at [i, i], and in `target` ((N-1,) or (T, N-1)) the weighted sum of i's
    measurements, the reference's value taken out.  w = 1/sigma2 gives WLS,
    and `normal` is then the Fisher information; the converged message
    precisions give the broadcast algorithm's mean fixed point."""

    normal: np.ndarray
    target: np.ndarray
    columns: tuple[int, ...]   # agent id per unknown

    @cached_property
    def covariance(self) -> np.ndarray:
        """The inverse Fisher information, factored once per system."""
        try:
            return np.linalg.inv(self.normal)
        except np.linalg.LinAlgError as exc:
            raise UnobservableError(self.columns) from exc

    @cached_property
    def K(self) -> np.ndarray:
        """Iteration matrix of mu <- target / diag(normal) - K mu: `normal`'s
        off-diagonal, each row divided by that row's diagonal entry."""
        k_mat = self.normal / np.diag(self.normal)[:, None]
        np.fill_diagonal(k_mat, 0.0)
        return k_mat


def _weighted_system(graph: Graph, meas: MeasurementSet, reference_value: float,
                     weight: Callable[[DirectedEdges], np.ndarray]) -> LinearSystem:
    """The system whose directed edge e weighs weight(edges)[e].  Agents
    without a path to the reference raise UnobservableError."""
    unreachable = graph.unreachable_agents()
    if unreachable:
        raise UnobservableError(unreachable)
    edges = DirectedEdges(graph, meas)
    w = weight(edges)
    return LinearSystem(
        normal=_reduced_matrix(edges, w),
        target=_inbox_sums(edges, w, reference_value, meas.r_array.ndim == 2),
        columns=tuple(nonref_agents(graph)))


def build_linear_system(graph: Graph, meas: MeasurementSet,
                        reference_value: float) -> LinearSystem:
    """The WLS normal equations: each measurement weighs 1/sigma2."""
    return _weighted_system(graph, meas, reference_value, lambda edges: 1.0 / edges.sig2)


def build_fixed_point_system(graph: Graph, meas: MeasurementSet,
                             converged_precisions: np.ndarray,
                             reference_value: float,
                             reference_precision: float = DEFAULT_REFERENCE_PRECISION
                             ) -> LinearSystem:
    """The broadcast belief means at converged precisions (vector over
    non-reference agents in sorted-id order): directed edge j -> i weighs the
    message precision 1/(sigma2 + 1/p_j).  wls_solve gives the fixed point,
    and `K` the mean update's iteration matrix."""
    if len(converged_precisions) != len(graph.agents) - 1:
        raise ValueError("converged_precisions misaligned with non-reference agents")

    def weight(edges: DirectedEdges) -> np.ndarray:
        prec = np.insert(converged_precisions, edges.ref, reference_precision)
        return message_precision(edges.sig2, prec[edges.src])
    return _weighted_system(graph, meas, reference_value, weight)


def wls_solve(sys: LinearSystem) -> dict[int, float | np.ndarray]:
    """The normal equations solved for every trial at once: the WLS estimate,
    or on a fixed-point system the broadcast fixed point.  Per agent a float,
    on a stacked set a length-T array."""
    try:
        sol = np.linalg.solve(sys.normal, sys.target.T)
    except np.linalg.LinAlgError as exc:
        raise UnobservableError(sys.columns) from exc
    return _by_agent(sys.columns, sol)


def crlb(sys: LinearSystem) -> dict[int, float]:
    """Per-agent minimum estimator variance: diagonal of the inverse Fisher
    information of the stacked linear Gaussian model, in Hz^2."""
    return _by_agent(sys.columns, np.diag(sys.covariance))


def avg_crlb(sys: LinearSystem, mse_normalization: float = 1.0) -> float:
    """Mean of the per-agent bounds, scaled by the same constant as the
    MSE metric so the two curves are directly comparable."""
    return float(np.mean(list(crlb(sys).values()))) / mse_normalization ** 2


def spectral_radius(k_mat: np.ndarray, tol: float = 1e-10,
                    max_iter: int = 100000) -> float:
    """Perron root of a non-negative matrix by power iteration.

    Iterates on K + I (same eigenvectors, spectrum shifted by one) so that
    periodic structure cannot stall the iteration, then subtracts the shift.
    """
    k_mat = np.asarray(k_mat, dtype=float)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise ValueError("K must be square")
    if np.any(k_mat < 0):
        raise ValueError("K must be non-negative")
    n = k_mat.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n)
    lam = 1.0
    for _ in range(max_iter):
        y = k_mat @ x + x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        lam_new = norm / np.linalg.norm(x)
        x = y / norm
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return float(lam_new - 1.0)
        lam = lam_new
    raise NumericError(f"power iteration did not converge in {max_iter} steps")
