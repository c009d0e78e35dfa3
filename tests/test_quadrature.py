"""Unit tests for the batched adaptive Gauss-Kronrod integrator."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from aerialfl import QuadratureError
from aerialfl.quadrature import integrate_batch


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.exp(-x), 0.0, 50.0),
        (lambda x: 1.0 / (1.0 + x**2), 0.0, 1000.0),
        (lambda x: np.sin(10.0 * x), 0.0, np.pi),
        (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
        (lambda x: x**1.5 * np.exp(-0.01 * x), 0.0, 2000.0),
    ],
)
def test_integrate_matches_scipy(f, lo, hi):
    ours = integrate_batch(
        lambda x, _own: f(x), np.array([lo]), np.array([hi]), rel_tol=1e-10, abs_tol=1e-13
    )[0]
    oracle, _ = scipy.integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500)
    assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_batch_matches_scalar_loop():
    rates = np.array([0.1, 1.0, 3.0, 10.0])

    def f(x, owner):
        return np.exp(-rates[owner] * x)

    lower = np.zeros_like(rates)
    upper = np.full_like(rates, 40.0)
    batch = integrate_batch(f, lower, upper, rel_tol=1e-10, abs_tol=1e-13)
    singles = [
        integrate_batch(lambda x, _own, r=r: np.exp(-r * x), np.zeros(1),
                        np.full(1, 40.0), rel_tol=1e-10, abs_tol=1e-13)[0]
        for r in rates
    ]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)
    exact = (1.0 - np.exp(-rates * 40.0)) / rates
    np.testing.assert_allclose(batch, exact, rtol=1e-9)


def test_degenerate_interval_is_zero():
    out = integrate_batch(
        lambda x, o: np.exp(x), np.array([1.0, 2.0]), np.array([1.0, 0.5])
    )
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_blowup_raises_quadrature_error():
    with pytest.raises(QuadratureError):
        integrate_batch(
            lambda x, _own: np.sin(1e4 * x),
            np.zeros(1),
            np.full(1, 1000.0),
            rel_tol=1e-14,
            abs_tol=1e-16,
            max_subdivisions=4,
        )


def test_nonfinite_integrand_raises():
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
        integrate_batch(lambda x, _own: 1.0 / (x - 0.5), np.zeros(1), np.ones(1))


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    lo=st.floats(-10, 10),
    width=st.floats(0.1, 20),
)
def test_polynomials_integrate_exactly(coeffs, lo, width):
    # A 15-point Kronrod rule is exact for polynomials of degree <= 22,
    # so adaptive refinement never even kicks in.
    poly = np.polynomial.Polynomial(coeffs)
    antider = poly.integ()
    hi = lo + width
    ours = integrate_batch(
        lambda x, _own: poly(x), np.array([lo]), np.array([hi]), rel_tol=1e-12, abs_tol=1e-12
    )[0]
    truth = antider(hi) - antider(lo)
    assert ours == pytest.approx(truth, rel=1e-10, abs=1e-9)


def test_owner_isolation():
    # A hard owner must not poison an easy owner's result.
    def f(x, owner):
        hard = np.cos(37.0 * x) * np.exp(-x)
        easy = np.full_like(x, 2.0)
        return np.where(owner == 0, hard, easy)

    out = integrate_batch(
        f, np.zeros(2), np.array([30.0, 5.0]), rel_tol=1e-10, abs_tol=1e-12
    )
    oracle, _ = scipy.integrate.quad(
        lambda x: np.cos(37.0 * x) * np.exp(-x), 0.0, 30.0, epsabs=1e-13, limit=400
    )
    assert out[0] == pytest.approx(oracle, abs=1e-9)
    assert out[1] == pytest.approx(10.0, rel=1e-12)
