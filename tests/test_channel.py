"""Unit tests for the propagation layer: LOS model, gains, fading CCDFs."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from aerialfl import LinkType, db_to_linear, eta
from aerialfl.channel import (
    GainPattern,
    build_gain_pattern,
    gamma_ccdf_exact,
    link_params,
    los_probability,
)
from aerialfl.montecarlo import _interferer_field


def test_link_params(table_params):
    assert link_params(table_params, LinkType.LOS) == (2.1, 3)
    assert link_params(table_params, LinkType.NLOS) == (3.6, 1)


def test_los_probability_anchors(table_params):
    a, b = table_params.env_a, table_params.env_b
    # Directly overhead the elevation angle is 90 degrees.
    overhead = 1.0 / (1.0 + a * math.exp(-b * (90.0 - a)))
    assert los_probability(0.0, 120.0, a, b) == pytest.approx(overhead, rel=1e-12)
    # The LOS probability approaches a positive floor at grazing angles,
    # which is what makes the far interference field heavy-tailed.
    floor = 1.0 / (1.0 + a * math.exp(a * b))
    assert los_probability(1e9, 120.0, a, b) == pytest.approx(floor, rel=1e-5)
    assert floor > 0.02


def test_los_probability_monotone_in_distance(table_params):
    r = np.linspace(0.0, 5000.0, 200)
    p = los_probability(r, 120.0, table_params.env_a, table_params.env_b)
    assert np.all(np.diff(p) <= 1e-15)
    assert np.all((p > 0) & (p <= 1))


def test_gain_pattern_structure(table_params):
    pattern = build_gain_pattern(table_params)
    assert pattern.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert pattern.gains[0] == pytest.approx(table_params.g0, rel=1e-12)
    assert np.all(pattern.gains[0] >= pattern.gains)
    # Mean gain factorizes over the two independent lobes.
    fu = table_params.beamwidth_uav / (2 * math.pi)
    fd = table_params.beamwidth_device / (2 * math.pi)
    mean_u = fu * table_params.gain_main_uav + (1 - fu) * table_params.gain_side_uav
    mean_d = fd * table_params.gain_main_device + (1 - fd) * table_params.gain_side_device
    assert pattern.gains @ pattern.probs == pytest.approx(mean_u * mean_d, rel=1e-12)


def test_worked_link_budget_example(table_params):
    # Both antennas on side lobes: G = -1 dB - 3 dB = 10^-0.4.
    gain = table_params.gain_side_uav * table_params.gain_side_device
    assert gain == pytest.approx(db_to_linear(-4.0), rel=1e-12)
    assert build_gain_pattern(table_params).gains[3] == pytest.approx(
        db_to_linear(-4.0), rel=1e-12
    )


def test_nakagami_moments(table_params, rng):
    # The interferer fading of the channel engine is unit-mean Nakagami-m
    # power. env_a = 0 makes every link LOS and a flat gain pattern removes
    # the antenna draw, so each owner's field is P * fading * d^-alpha.
    unit_gain = GainPattern(gains=np.ones(4), probs=np.full(4, 0.25))
    n = 200_000
    for m in (1, 3):
        params = table_params.with_(env_a=0.0, m_los=m)
        field = _interferer_field(
            np.full(n, 300.0), np.arange(n), n, params.p_uav, params,
            unit_gain, rng, device_offset=False,
        )
        path = (300.0**2 + params.height**2) ** (-params.alpha_los / 2.0)
        samples = field / (params.p_uav * path)
        assert samples.mean() == pytest.approx(1.0, abs=0.02)
        assert samples.var() == pytest.approx(1.0 / m, rel=0.05)


def gamma_ccdf_alzer(m: int, eta: float, x):
    """Tight exponential-family bound 1 - (1 - e^(-eta*x))^m for the Gamma CCDF.

    Exact for m = 1 with eta = 1; for larger m it is the approximation whose
    binomial expansion makes the coverage expression tractable (the
    binomial sums of `analytic`).
    """
    x = np.asarray(x, dtype=float)
    out = 1.0 - (1.0 - np.exp(-eta * x)) ** m
    return out if out.ndim else float(out)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_gamma_ccdf_exact_against_scipy(m):
    x = np.linspace(0.0, 6.0, 50)
    oracle = scipy.stats.gamma.sf(m * x, a=m)
    np.testing.assert_allclose(gamma_ccdf_exact(m, x), oracle, atol=1e-12)


@pytest.mark.parametrize("bad", [True, 3.0, 0])
def test_gamma_ccdf_exact_rejects_non_integer_m(bad):
    # True used to be read as m = 1.
    with pytest.raises(ValueError, match="positive integer"):
        gamma_ccdf_exact(bad, 1.0)


def test_alzer_bound_properties():
    # m = 1 with eta(1) = 1 is exact (Rayleigh power).
    x = np.linspace(0.0, 8.0, 30)
    np.testing.assert_allclose(
        gamma_ccdf_alzer(1, eta(1), x), np.exp(-x), rtol=1e-12
    )
    assert eta(1) == pytest.approx(1.0)
    assert eta(2) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert eta(3) == pytest.approx(1.650963624447314, rel=1e-12)
    # For m = 3 the approximation stays within a few percent of the truth,
    # which is the error budget the coverage tolerance absorbs.
    approx = gamma_ccdf_alzer(3, eta(3), x)
    exact = gamma_ccdf_exact(3, x)
    assert np.max(np.abs(approx - exact)) < 0.06


@given(st.integers(1, 5), st.floats(0.0, 10.0))
def test_gamma_ccdf_bounds(m, x):
    exact = gamma_ccdf_exact(m, x)
    approx = gamma_ccdf_alzer(m, eta(m), x)
    assert 0.0 <= exact <= 1.0
    assert 0.0 <= approx <= 1.0
