"""Centralized reference machinery.

Everything the distributed algorithms are judged against lives here: the
weighted-least-squares estimator over the stacked edge measurements, the
Cramer-Rao bound for the linear Gaussian model, and the linear system that
governs the broadcast algorithm's belief means once variances have settled
(iteration matrix, constant term, spectral radius, fixed point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, UnobservableError
from .graph import Graph
from .lsbp import DEFAULT_REFERENCE_PRECISION, nonref_agents
from .model import MeasurementSet


@dataclass(frozen=True)
class LinearSystem:
    """Stacked edge measurements r = f_i + f_j + n as A f = rhs over the
    non-reference unknowns; reference contributions are folded into rhs.

    design: (|E|, N-1) with +1 per non-reference endpoint per row.
    weights: 1/sigma2 per edge.
    rhs: (|E|,), or (T, |E|) with one row per trial of a batch.
    """

    design: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray
    columns: tuple[int, ...]   # agent id per design column

    @cached_property
    def normal(self) -> np.ndarray:
        """A^T W A: the normal matrix, which is also the Fisher information."""
        return self.design.T @ (self.weights[:, None] * self.design)


def build_linear_system(graph: Graph, meas: MeasurementSet,
                        reference_value: float) -> LinearSystem:
    unreachable = graph.unreachable_agents()
    if unreachable:
        raise UnobservableError(unreachable)
    cols = nonref_agents(graph)
    pairs = graph.edge_array
    rows = meas.rows_of(pairs)
    rhs = meas.r_array[..., rows]
    rhs[..., np.any(pairs == graph.reference, axis=1)] -= reference_value
    weights = 1.0 / meas.sigma2_array[rows]
    a_mat = np.zeros((len(pairs), len(cols)))
    edge, end = np.nonzero(pairs != graph.reference)
    a_mat[edge, np.searchsorted(cols, pairs[edge, end])] = 1.0
    return LinearSystem(design=a_mat, rhs=rhs, weights=weights,
                        columns=tuple(cols))


def wls_solve(sys: LinearSystem, rhs: np.ndarray | None = None) -> dict[int, float]:
    """argmin of the weighted squared residual via the normal equations, for
    one right-hand side: `rhs` (one trial's row), by default sys.rhs."""
    rhs = sys.rhs if rhs is None else rhs
    target = sys.design.T @ (sys.weights * rhs)
    try:
        sol = np.linalg.solve(sys.normal, target)
    except np.linalg.LinAlgError as exc:
        raise UnobservableError(sys.columns) from exc
    return {a_id: float(v) for a_id, v in zip(sys.columns, sol)}


def crlb(sys: LinearSystem) -> dict[int, float]:
    """Per-agent minimum estimator variance: diagonal of the inverse Fisher
    information of the stacked linear Gaussian model, in Hz^2."""
    try:
        cov = np.linalg.inv(sys.normal)
    except np.linalg.LinAlgError as exc:
        raise UnobservableError(sys.columns) from exc
    return {a_id: float(v) for a_id, v in zip(sys.columns, np.diag(cov))}


def avg_crlb(sys: LinearSystem, mse_normalization: float = 1.0) -> float:
    """Mean of the per-agent bounds, scaled by the same constant as the
    MSE metric so the two curves are directly comparable."""
    values = crlb(sys)
    return float(np.mean(list(values.values()))) / mse_normalization ** 2


@dataclass(frozen=True)
class FixedPointSystem:
    """Belief-mean update at converged variances: mu <- eta - K mu over
    non-reference agents.

    K[i, j] is the weight agent `rows[i]` puts on neighbor `rows[j]`'s
    previous mean: the neighbor's converged message precision divided by the
    agent's total incoming precision.  eta folds the measurement term xi and
    the known reference mean.
    """

    K: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    rows: tuple[int, ...]
    belief_variance: dict[int, float]


def build_fixed_point_system(graph: Graph, meas: MeasurementSet,
                             converged_precisions: np.ndarray,
                             reference_value: float,
                             reference_precision: float = DEFAULT_REFERENCE_PRECISION
                             ) -> FixedPointSystem:
    """Materialize (K, xi, eta) from converged belief precisions (vector
    over non-reference agents in sorted-id order)."""
    ids = nonref_agents(graph)
    if len(converged_precisions) != len(ids):
        raise ValueError("converged_precisions misaligned with non-reference agents")
    pstar = {a: 1.0 / p for a, p in zip(ids, converged_precisions)}
    pstar[graph.reference] = 1.0 / reference_precision
    idx = {a: k for k, a in enumerate(ids)}
    n = len(ids)
    k_mat = np.zeros((n, n))
    xi = np.zeros(n)
    eta = np.zeros(n)
    belief_var = {}
    for a in ids:
        row = idx[a]
        inv_c = {}
        for j in graph.neighbors(a):
            inv_c[j] = 1.0 / (meas.sigma2(a, j) + pstar[j])
        tot = sum(inv_c.values())
        belief_var[a] = 1.0 / tot
        xi[row] = sum(ic * meas.r(a, j) for j, ic in inv_c.items()) / tot
        eta[row] = xi[row]
        for j, ic in inv_c.items():
            if j == graph.reference:
                eta[row] -= (ic / tot) * reference_value
            else:
                k_mat[row, idx[j]] = ic / tot
    return FixedPointSystem(K=k_mat, xi=xi, eta=eta, rows=tuple(ids),
                            belief_variance=belief_var)


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


def mean_fixed_point(sys: FixedPointSystem) -> dict[int, float]:
    """The broadcast fixed point: mu = eta - K mu, solved directly."""
    direct = np.linalg.solve(np.eye(sys.K.shape[0]) + sys.K, sys.eta)
    return {a: float(v) for a, v in zip(sys.rows, direct)}
