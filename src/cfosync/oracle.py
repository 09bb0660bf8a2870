"""Centralized reference machinery.

Everything the distributed algorithms are judged against lives here: the
weighted-least-squares estimator over the edge measurements, the
Cramer-Rao bound for the linear Gaussian model, and the system that
governs the broadcast algorithm's belief means once variances have settled
(iteration matrix, spectral radius, fixed point).  Both are one weighted
`LinearSystem`: the engines' `DirectedEdges` and a weight per directed
edge.  WLS weighs each measurement by 1/sigma^2, the broadcast fixed point
by the converged message precision.  A system builds its matrices on first
read, so a run, which reads only `K` of the fixed-point system, gathers the
measurements once, for the WLS target.  Every measurement set holds T >= 1
trials, and a solve holds a length-T array per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .edges import DEFAULT_REFERENCE_PRECISION, DirectedEdges, message_precision
from .errors import NumericError, UnobservableError
from .graph import Graph
from .model import MeasurementSet


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Normal equations `normal` f = `target` over the non-reference unknowns
    `columns`, directed edge e of `edges` weighted by w[e].  w = 1/sigma2
    gives WLS, and `normal` is then the Fisher information; the converged
    message precisions give the broadcast algorithm's mean fixed point.
    Each matrix is built on first read: `K` alone gathers no measurements."""

    edges: DirectedEdges
    w: np.ndarray
    reference_value: float

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """The agent id per unknown: every id but the reference's."""
        return tuple(a for k, a in enumerate(self.edges.ids) if k != self.edges.ref)

    @cached_property
    def normal(self) -> np.ndarray:
        """Dense matrix over the non-reference agents in id order: w[e] at
        [dst[e], src[e]] and each agent's summed inbox weights on the
        diagonal; the reference's row and column are dropped."""
        e, w, n, ref = self.edges, self.w, self.edges.n, self.edges.ref
        at = np.arange(n) - (np.arange(n) > ref)   # position once ref is dropped
        off = (e.src != ref) & (e.dst != ref)
        mat = np.zeros((n - 1, n - 1))
        mat[at[e.dst[off]], at[e.src[off]]] = w[off]
        np.fill_diagonal(mat, np.delete(np.bincount(e.dst, w, n), ref))
        return mat

    @cached_property
    def target(self) -> np.ndarray:
        """(T, N-1): per trial and non-reference agent i, the sum over its
        inbox of w[e] * r[e], with the known reference value taken out of
        the reference's measurements."""
        e = self.edges
        terms = self.w * (e.r - np.where(e.src == e.ref, self.reference_value, 0.0))
        return np.delete(e._agent_sums(terms), e.ref, axis=1)

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


def _anchored_edges(graph: Graph, meas: MeasurementSet) -> DirectedEdges:
    """The graph's directed edges; an agent cut off from the reference raises."""
    if graph.unreachable_agents:
        raise UnobservableError(graph.unreachable_agents)
    return DirectedEdges(graph, meas)


def build_linear_system(graph: Graph, meas: MeasurementSet,
                        reference_value: float) -> LinearSystem:
    """The WLS normal equations: each measurement weighs 1/sigma2."""
    edges = _anchored_edges(graph, meas)
    return LinearSystem(edges, 1.0 / edges.sig2, reference_value)


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
    edges = _anchored_edges(graph, meas)
    prec = np.insert(converged_precisions, edges.ref, reference_precision)
    return LinearSystem(edges, message_precision(edges.sig2, prec[edges.src]),
                        reference_value)


def wls_solve(sys: LinearSystem) -> dict[int, np.ndarray]:
    """The normal equations solved for every trial at once: the WLS estimate,
    or on a fixed-point system the broadcast fixed point.  Per agent a
    length-T array, entry t for trial t."""
    try:
        sol = np.linalg.solve(sys.normal, sys.target.T)
    except np.linalg.LinAlgError as exc:
        raise UnobservableError(sys.columns) from exc
    return dict(zip(sys.columns, sol))


def crlb(sys: LinearSystem) -> dict[int, float]:
    """Per-agent minimum estimator variance: diagonal of the inverse Fisher
    information of the linear Gaussian model, in Hz^2."""
    return dict(zip(sys.columns, np.diag(sys.covariance).tolist()))


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
