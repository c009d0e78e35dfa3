"""Unit tests for the parameter layer: conversions, defaults, validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aerialfl import ENVIRONMENT_PRESETS, NetworkParams, db_to_linear


def test_db_to_linear_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)


@given(st.floats(-60, 60), st.floats(-60, 60))
def test_db_to_linear_is_multiplicative(a, b):
    assert db_to_linear(a + b) == pytest.approx(
        db_to_linear(a) * db_to_linear(b), rel=1e-12
    )


def test_default_derived_quantities(table_params):
    # Boresight gain combines both main lobes: 10 dB + 5 dB.
    assert table_params.g0 == pytest.approx(db_to_linear(15.0), rel=1e-12)
    assert table_params.scheduling_probability == pytest.approx(0.9)
    expected_window = 10.0 / math.sqrt(math.pi * table_params.lam)
    assert table_params.window_radius == pytest.approx(expected_window, rel=1e-12)
    # Two cluster heads per 150 m disk on average.
    assert table_params.lam * math.pi * 150.0**2 == pytest.approx(2.0, rel=1e-12)


def test_window_radius_override():
    params = NetworkParams(sim_window_radius=500.0)
    assert params.window_radius == 500.0


def test_with_returns_modified_copy(table_params):
    changed = table_params.with_(height=60.0)
    assert changed.height == 60.0
    assert table_params.height == 120.0
    assert changed.cluster_radius == table_params.cluster_radius


def test_environment_presets_table():
    # ``env-compare`` writes its rows in this order.
    assert list(ENVIRONMENT_PRESETS) == [
        "suburban", "urban", "dense-urban", "high-rise",
    ]
    for a, b in ENVIRONMENT_PRESETS.values():
        assert a > 0 and b > 0
    urban = NetworkParams().with_environment("urban")
    assert (urban.env_a, urban.env_b) == (9.61, 0.16)


def test_unknown_environment_lists_presets():
    with pytest.raises(ValueError, match="urban"):
        NetworkParams().with_environment("lunar")


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_resource_blocks": 101},          # M > N
        {"alpha_los": 2.0},                  # exponent must exceed 2
        {"m_los": 1.5},                      # Nakagami m must be integer
        {"tau_dl": -1.0},                    # negative threshold
        {"beamwidth_uav": 7.0},              # wider than 2*pi
        {"gain_main_uav": 0.1, "gain_side_uav": 0.5},  # side above main
        {"height": 0.0},
        {"lam": 0.0},
        {"noise_power": 0.0},
        {"sim_window_radius": -5.0},
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ValueError):
        NetworkParams(**overrides)


def test_zero_thresholds_allowed():
    params = NetworkParams(tau_dl=0.0, tau_ul=0.0)
    assert params.tau_dl == 0.0 and params.tau_ul == 0.0


def test_params_are_immutable(table_params):
    with pytest.raises(AttributeError):
        table_params.height = 10.0
