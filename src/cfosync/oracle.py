"""Centralized reference machinery.

Everything the distributed algorithms are judged against lives here: the
weighted-least-squares estimator over the stacked edge measurements, the
Cramer-Rao bound for the linear Gaussian model, and the linear system that
governs the broadcast algorithm's belief means once variances have settled
(iteration matrix, constant term, spectral radius, fixed point).  Both
are read off the engines' `DirectedEdges`; on a stacked measurement set
(one row per trial) the results hold a length-T array per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .edges import DirectedEdges, message_precision
from .errors import NumericError, UnobservableError
from .graph import Graph
from .lsbp import DEFAULT_REFERENCE_PRECISION, nonref_agents
from .model import MeasurementSet


def _reduced_matrix(edges: DirectedEdges, w: np.ndarray, diag=None) -> np.ndarray:
    """Dense matrix over the non-reference agents in id order: w[e] at
    [dst[e], src[e]] and `diag` (per agent, default 0) on the diagonal; the
    reference's row and column are dropped."""
    n, ref = edges.n, edges.ref
    at = np.arange(n) - (np.arange(n) > ref)   # position once ref is dropped
    off = (edges.src != ref) & (edges.dst != ref)
    mat = np.zeros((n - 1, n - 1))
    mat[at[edges.dst[off]], at[edges.src[off]]] = w[off]
    if diag is not None:
        np.fill_diagonal(mat, np.delete(diag, ref))
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
    """Normal equations `normal` f = `target` of the stacked edge measurements
    A f = rhs (r = f_i + f_j + n, the reference's value folded into rhs)
    over the non-reference unknowns, W = diag(1/sigma2): normal = A^T W A,
    the Fisher information; target = A^T W rhs, (N-1,) or (T, N-1)."""

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


def build_linear_system(graph: Graph, meas: MeasurementSet,
                        reference_value: float) -> LinearSystem:
    """The normal equations.  Agents without a path to the reference raise
    UnobservableError."""
    unreachable = graph.unreachable_agents()
    if unreachable:
        raise UnobservableError(unreachable)
    edges = DirectedEdges(graph, meas)
    w = 1.0 / edges.sig2
    return LinearSystem(
        normal=_reduced_matrix(edges, w, np.bincount(edges.dst, w, edges.n)),
        target=_inbox_sums(edges, w, reference_value, meas.r_array.ndim == 2),
        columns=tuple(nonref_agents(graph)))


def wls_solve(sys: LinearSystem) -> dict[int, float | np.ndarray]:
    """argmin of the weighted squared residual via the normal equations, all
    trials in one solve: per agent a float, on a stacked set a length-T
    array."""
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


@dataclass(frozen=True)
class FixedPointSystem:
    """Belief-mean update at converged variances: mu <- eta - K mu over
    non-reference agents.  K[i, j] is the weight agent `rows[i]` puts on
    neighbor `rows[j]`'s previous mean: the neighbor's converged message
    precision divided by the agent's total incoming precision.  eta folds
    the measurements and the known reference mean: (N-1,), or (T, N-1) on a
    stacked set."""

    K: np.ndarray
    eta: np.ndarray
    rows: tuple[int, ...]


def build_fixed_point_system(graph: Graph, meas: MeasurementSet,
                             converged_precisions: np.ndarray,
                             reference_value: float,
                             reference_precision: float = DEFAULT_REFERENCE_PRECISION
                             ) -> FixedPointSystem:
    """Materialize (K, eta) from converged belief precisions (vector over
    non-reference agents in sorted-id order)."""
    edges = DirectedEdges(graph, meas)
    if len(converged_precisions) != edges.n - 1:
        raise ValueError("converged_precisions misaligned with non-reference agents")
    prec = np.insert(converged_precisions, edges.ref, reference_precision)
    c = message_precision(edges.sig2, prec[edges.src])
    w = c / np.bincount(edges.dst, c, edges.n)[edges.dst]
    return FixedPointSystem(
        K=_reduced_matrix(edges, w),
        eta=_inbox_sums(edges, w, reference_value, meas.r_array.ndim == 2),
        rows=tuple(nonref_agents(graph)))


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


def mean_fixed_point(sys: FixedPointSystem) -> dict[int, float | np.ndarray]:
    """The broadcast fixed point: mu = eta - K mu, solved directly for every
    trial at once (a length-T array per agent on a stacked set)."""
    return _by_agent(sys.rows, np.linalg.solve(np.eye(sys.K.shape[0]) + sys.K, sys.eta.T))
