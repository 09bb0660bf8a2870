import math

import numpy as np
import pytest

from helpers import FLAT, Gaussian1D, edge_message

REL_TOL = 1e-12
QUADRATURE_REL_TOL = 1e-6


def test_product_adds_precisions_and_weighted_means():
    a = Gaussian1D(precision=1.0, weighted_mean=2.0)
    b = Gaussian1D(precision=1.0, weighted_mean=4.0)
    c = a * b
    assert c.precision == 2.0
    assert c.weighted_mean == 6.0
    assert c.mean() == pytest.approx(3.0)
    assert c.variance() == pytest.approx(0.5)


def test_flat_is_identity():
    g = Gaussian1D.from_moments(1.7, 0.3)
    assert g * FLAT == g
    assert FLAT * g == g
    assert FLAT.is_flat and FLAT.variance() == math.inf


def test_product_of_k_copies_scales_precision():
    g = Gaussian1D.from_moments(4.2, 1.0)
    prod = FLAT
    for _ in range(5):
        prod = prod * g
    assert prod.precision == pytest.approx(5.0)
    assert prod.mean() == pytest.approx(4.2)


def test_product_commutative_associative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        gs = [Gaussian1D.from_moments(rng.normal(0, 10), rng.uniform(0.1, 10))
              for _ in range(3)]
        ab = (gs[0] * gs[1]) * gs[2]
        ba = gs[0] * (gs[2] * gs[1])
        assert ab.precision == pytest.approx(ba.precision, rel=REL_TOL)
        assert ab.weighted_mean == pytest.approx(ba.weighted_mean, rel=REL_TOL)


def test_flat_requires_zero_weighted_mean():
    with pytest.raises(ValueError):
        Gaussian1D(precision=0.0, weighted_mean=1.0)
    with pytest.raises(ValueError):
        Gaussian1D(precision=-1.0)
    with pytest.raises(ValueError):
        FLAT.mean()


def test_edge_message_near_delta_input():
    # r = 7, neighbor pinned at 2: the implied value is r - 2 = 5
    g = Gaussian1D.from_moments(2.0, 1e-15)
    out = edge_message(7.0, 1.0, g)
    assert out.mean() == pytest.approx(5.0, abs=1e-9)
    assert out.variance() == pytest.approx(1.0, abs=1e-9)


def test_edge_message_adds_variances():
    out = edge_message(0.0, 2.0, Gaussian1D.from_moments(0.0, 3.0))
    assert out.variance() == pytest.approx(5.0)
    assert out.mean() == pytest.approx(0.0)


def test_edge_message_flat_in_flat_out():
    assert edge_message(3.0, 1.0, FLAT).is_flat


def test_edge_message_rejects_bad_sigma2():
    with pytest.raises(ValueError):
        edge_message(0.0, 0.0, Gaussian1D.from_moments(0.0, 1.0))
    with pytest.raises(ValueError):
        edge_message(0.0, -1.0, FLAT)


def _density(g: Gaussian1D, x: np.ndarray) -> np.ndarray:
    m, v = g.mean(), g.variance()
    return np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)


def test_closed_form_matches_quadrature_and_max_marginal():
    # For Gaussians, integrating the pair potential against the neighbor
    # belief and maximizing over the neighbor give the same (normalized)
    # shape; both must match the closed form (mean r - mu, var sigma2 + P).
    rng = np.random.default_rng(11)
    for _ in range(10):
        r = rng.normal(0, 5)
        sigma2 = rng.uniform(0.2, 3.0)
        mu = rng.normal(0, 5)
        var = rng.uniform(0.2, 3.0)
        nb = Gaussian1D.from_moments(mu, var)
        closed = edge_message(r, sigma2, nb)

        span = 8 * math.sqrt(sigma2 + var)
        fj = np.linspace(mu - span, mu + span, 20001)
        fi = closed.mean() + np.linspace(-2, 2, 7) * math.sqrt(closed.variance())
        pair = np.exp(-0.5 * (r - fi[:, None] - fj[None, :]) ** 2 / sigma2)
        integrand = pair * _density(nb, fj)[None, :]

        integral = np.trapezoid(integrand, fj, axis=1)
        integral /= integral.max()
        maxed = integrand.max(axis=1)
        maxed /= maxed.max()
        expected = _density(closed, fi)
        expected /= expected.max()
        assert np.allclose(integral, expected, rtol=QUADRATURE_REL_TOL)
        assert np.allclose(maxed, expected, rtol=QUADRATURE_REL_TOL)
