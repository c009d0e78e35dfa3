"""Monte-Carlo reference simulators: coverage, Laplace oracle, round channels."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerialfl.analytic import laplace_arguments, laplace_ul
from aerialfl.channel import Direction, LinkType, build_gain_pattern, los_probability
from aerialfl.geometry import sample_topology
from aerialfl.params import db_to_linear
from aerialfl.montecarlo import (
    _BATCH,
    CoverageEstimate,
    RoundChannel,
    _batches,
    _coverage_batch,
    _draw_gains,
    _draw_los,
    _interferer_field,
    _link_success,
    _map_batches,
    _parent_radii,
    binomial_half_width,
    estimate_coverage,
    laplace_oracle,
    realize_round,
)


def test_binomial_half_width_anchor():
    assert binomial_half_width(0.5, 400) == pytest.approx(0.049, rel=1e-12)
    assert binomial_half_width(0.0, 100) == 0.0
    assert binomial_half_width(1.0, 100) == 0.0


@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    trials=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_binomial_half_width_bounds(p, trials):
    width = binomial_half_width(p, trials)
    assert 0.0 <= width <= 1.96 * 0.5 / math.sqrt(trials) + 1e-15


def _estimate(p_joint, p_ul, p_dl, trials):
    return CoverageEstimate(p_joint=p_joint, p_ul=p_ul, p_dl=p_dl, trials=trials)


def test_coverage_estimate_validation():
    est = _estimate(0.4, 0.7, 0.5, 1000)
    assert est.half_width_95 == binomial_half_width(0.4, 1000)
    with pytest.raises(ValueError, match="Frechet"):
        _estimate(0.6, 0.7, 0.5, 1000)
    with pytest.raises(ValueError, match="Frechet"):
        _estimate(0.1, 0.9, 0.9, 1000)
    with pytest.raises(ValueError, match="probabilities"):
        _estimate(-0.1, 0.7, 0.5, 1000)
    with pytest.raises(ValueError, match="trials"):
        _estimate(0.4, 0.7, 0.5, 0)
    for bad in (True, 1000.0):
        with pytest.raises(ValueError, match="trials must be an integer"):
            _estimate(0.4, 0.7, 0.5, bad)


@pytest.mark.parametrize("n", [1, 904, 2048, 204_808])
@pytest.mark.parametrize("beamwidth_uav", [None, 2.0 * math.pi])
def test_gain_draw_matches_rng_choice(table_params, n, beamwidth_uav):
    """The gain draw pins what ``rng.choice`` draws on the installed numpy.

    numpy does not promise ``choice``'s algorithm, so this is the check that
    the field draws still match it; an omnidirectional UAV antenna gives a
    pattern with zero-probability entries.
    """
    params = table_params
    if beamwidth_uav is not None:
        params = params.with_(beamwidth_uav=beamwidth_uav)
    pattern = build_gain_pattern(params)
    assert (pattern.probs == 0.0).any() == (beamwidth_uav is not None)
    by_choice, by_count = np.random.default_rng(n), np.random.default_rng(n)
    expected = by_choice.choice(pattern.gains, size=n, p=pattern.probs)
    drawn = _draw_gains(pattern, n, by_count)
    assert drawn.dtype == expected.dtype
    np.testing.assert_array_equal(drawn, expected)
    assert by_count.random() == by_choice.random()


def test_interferer_field_empty_and_mean(table_params, rng):
    pattern = build_gain_pattern(table_params)
    empty = _interferer_field(
        np.array([]), np.array([], dtype=int), 5, 1.0, table_params, pattern,
        rng, device_offset=False,
    )
    np.testing.assert_array_equal(empty, np.zeros(5))
    # Monte-Carlo mean against the analytic first moment at fixed distances:
    # E[I] = P * E[G] * sum_i E_class[d_i^(-alpha)] (unit-mean fading).
    distances = np.array([200.0, 500.0, 900.0])
    p_los = los_probability(
        distances, table_params.height, table_params.env_a, table_params.env_b
    )
    d3sq = distances**2 + table_params.height**2
    per = p_los * d3sq ** (-table_params.alpha_los / 2) + (1 - p_los) * d3sq ** (
        -table_params.alpha_nlos / 2
    )
    expected = table_params.p_uav * (pattern.gains @ pattern.probs) * per.sum()
    owners = 4000
    draws = _interferer_field(
        np.tile(distances, owners), np.repeat(np.arange(owners), distances.size),
        owners, table_params.p_uav, table_params, pattern, rng,
        device_offset=False,
    )
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - expected) < 5 * se


def test_interferer_field_both_directions_finite(table_params, rng):
    params = table_params.with_(sim_window_radius=800.0)
    pattern = build_gain_pattern(params)
    radii, owner = _parent_radii(50, params, rng)
    for offset in (False, True):
        field = _interferer_field(
            radii, owner, 50, params.p_device, params, pattern, rng,
            device_offset=offset,
        )
        assert field.shape == (50,)
        assert np.all(np.isfinite(field)) and np.all(field >= 0.0)


def _expression_field(parent_radii, owner, n_owners, tx_power, params, pattern, rng,
                      *, device_offset):
    """The interference field written as one expression per quantity.

    The reference that the in-place :func:`_interferer_field` must match
    bit for bit: the same draws, and each product and sum evaluated left to
    right.
    """
    n = parent_radii.size
    if n == 0:
        return np.zeros(n_owners)
    if device_offset:
        member = params.cluster_radius * np.sqrt(rng.random(n))
        psi = rng.uniform(0.0, 2.0 * math.pi, n)
        dist_sq = parent_radii**2 + member**2 + 2.0 * parent_radii * member * np.cos(psi)
        dist = np.sqrt(np.maximum(dist_sq, 0.0))
    else:
        dist = parent_radii
    is_los = _draw_los(dist, params, rng)
    gains = _draw_gains(pattern, n, rng)
    fading = np.empty(n)
    n_los = int(is_los.sum())
    if n_los:
        fading[is_los] = rng.gamma(params.m_los, 1.0 / params.m_los, n_los)
    if n - n_los:
        fading[~is_los] = rng.gamma(params.m_nlos, 1.0 / params.m_nlos, n - n_los)
    alpha = np.where(is_los, params.alpha_los, params.alpha_nlos)
    received = tx_power * gains * fading * (dist**2 + params.height**2) ** (-alpha / 2.0)
    return np.bincount(owner, weights=received, minlength=n_owners)


@pytest.mark.parametrize("n", [0, 1, 904, 204_808])
@pytest.mark.parametrize("device_offset", [False, True])
@pytest.mark.parametrize("integer_settings", [False, True])
def test_interferer_field_matches_the_expression_form(
    table_params, n, device_offset, integer_settings
):
    """In-place arithmetic gives the field's bits and leaves the radii alone.

    Integer gains and powers make an integer gain pattern, which the
    in-place products must still turn into a float field.
    """
    params = table_params.with_(height=45.0)
    if integer_settings:
        params = params.with_(gain_main_uav=10, gain_main_device=3, gain_side_uav=1,
                              gain_side_device=1, p_uav=1, p_device=1)
    pattern = build_gain_pattern(params)
    tx_power = params.p_device if device_offset else params.p_uav
    setup = np.random.default_rng(n)
    n_owners = max(n // 100, 1)
    radii = params.window_radius * np.sqrt(setup.random(n))
    owner = np.sort(setup.integers(0, n_owners, n))
    kept = radii.copy()
    by_expression, in_place = np.random.default_rng(7), np.random.default_rng(7)
    expected = _expression_field(radii, owner, n_owners, tx_power, params, pattern,
                                 by_expression, device_offset=device_offset)
    field = _interferer_field(radii, owner, n_owners, tx_power, params, pattern,
                              in_place, device_offset=device_offset)
    assert field.dtype == expected.dtype == np.float64
    assert np.array_equal(field, expected)
    assert in_place.random() == by_expression.random()
    np.testing.assert_array_equal(radii, kept)


def test_coverage_batch_memory_ceiling(table_params):
    """One batch's peak allocation, which each batch in flight adds to RSS."""
    params = table_params.with_(height=45.0)
    tracemalloc.start()
    try:
        _coverage_batch(params, _BATCH, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 10.2 MB in place; 21.6 MB with a temporary per operation.
    assert peak < 13e6


def test_link_success_sinr_arithmetic(table_params):
    """Replays the documented draw order with the SINR written out by hand."""
    # Thresholds near the median SINR of each direction here, so about half
    # the links succeed and a wrong power or threshold shows.
    params = table_params.with_(
        sim_window_radius=600.0, tau_dl=db_to_linear(7.0), tau_ul=db_to_linear(5.0)
    )
    r = np.linspace(1.0, 99.0, 64)
    serving_los = np.arange(64) % 3 > 0
    radii, owner = _parent_radii(r.size, params, np.random.default_rng(1))
    dl_ok, ul_ok = _link_success(
        r, serving_los, radii, owner, params, np.random.default_rng(2)
    )
    rng = np.random.default_rng(2)
    pattern = build_gain_pattern(params)
    fields = [
        _interferer_field(radii, owner, r.size, power, params, pattern, rng,
                          device_offset=offset)
        for power, offset in ((params.p_uav, False), (params.p_device, True))
    ]
    m = np.where(serving_los, params.m_los, params.m_nlos)
    alpha = np.where(serving_los, params.alpha_los, params.alpha_nlos)
    d_alpha = (r**2 + params.height**2) ** (-alpha / 2.0)
    for ok, power, tau, field in zip(
        (dl_ok, ul_ok), (params.p_uav, params.p_device),
        (params.tau_dl, params.tau_ul), fields,
    ):
        fading = rng.standard_gamma(m) / m
        sinr = power * params.g0 * fading * d_alpha / (field + params.noise_power)
        assert 0.25 < ok.mean() < 0.75
        np.testing.assert_array_equal(ok, sinr > tau)
    # Thresholds of zero admit every link; an unreachable one admits none.
    lax = params.with_(tau_dl=0.0, tau_ul=0.0)
    dl_ok, ul_ok = _link_success(r, serving_los, radii, owner, lax, rng)
    assert dl_ok.all() and ul_ok.all()
    strict = params.with_(tau_dl=1e30, tau_ul=1e30)
    dl_ok, ul_ok = _link_success(r, serving_los, radii, owner, strict, rng)
    assert not dl_ok.any() and not ul_ok.any()


def test_estimate_coverage_is_deterministic(table_params):
    # 2049 trials: two batches, the second a ragged single trial.
    first = estimate_coverage(table_params, 2049, np.random.default_rng(42))
    second = estimate_coverage(table_params, 2049, np.random.default_rng(42))
    assert first == second
    assert 0.0 <= first.p_joint <= min(first.p_ul, first.p_dl)
    # Batch b draws from child stream b, so 2049 trials are a lone batch of
    # 2048 plus one trial drawn from the second child.
    whole = estimate_coverage(table_params, 2048, np.random.default_rng(42))
    ragged = _coverage_batch(table_params, 1, np.random.default_rng(42).spawn(2)[1])

    def counts(est):
        return [round(p * est.trials) for p in (est.p_joint, est.p_dl, est.p_ul)]

    assert counts(first) == [a + b for a, b in zip(counts(whole), ragged)]
    with pytest.raises(ValueError):
        estimate_coverage(table_params, 0, np.random.default_rng(0))


def test_zero_ul_threshold_makes_uplink_certain(table_params):
    """With tau_ul = 0 every uplink succeeds, so joint equals downlink."""
    params = table_params.with_(tau_ul=0.0)
    est = estimate_coverage(params, 800, np.random.default_rng(3))
    assert est.p_ul == 1.0
    assert est.p_joint == est.p_dl


def test_laplace_oracle_degenerate_argument(table_params):
    mean, half = laplace_oracle(
        table_params, Direction.DL, 0.0, 500, np.random.default_rng(0)
    )
    assert mean == 1.0
    assert half == 0.0


def test_laplace_oracle_accepts_direction_strings(table_params):
    by_enum = laplace_oracle(
        table_params, Direction.UL, 1e3, 400, np.random.default_rng(11)
    )
    by_name = laplace_oracle(
        table_params, "ul", 1e3, 400, np.random.default_rng(11)
    )
    assert by_enum == by_name
    with pytest.raises(ValueError):
        laplace_oracle(
            table_params, "sideways", 1e3, 400, np.random.default_rng(11)
        )


def test_laplace_oracle_monotone_in_argument(table_params):
    base = laplace_arguments(table_params, 50.0, "ul", LinkType.LOS)[0]
    small, _ = laplace_oracle(
        table_params, Direction.UL, 0.1 * base, 2000, np.random.default_rng(5)
    )
    large, _ = laplace_oracle(
        table_params, Direction.UL, 10.0 * base, 2000, np.random.default_rng(5)
    )
    assert small > large


def test_laplace_oracle_agrees_with_closed_form(table_params, fast_quad):
    s = float(laplace_arguments(table_params, 50.0, "ul", LinkType.LOS)[0])
    closed = laplace_ul(s, table_params, fast_quad)
    mc, half = laplace_oracle(
        table_params, Direction.UL, s, 20_000, np.random.default_rng(17)
    )
    assert abs(closed - mc) <= 0.01 * mc + 2.0 * half


def _serial_coverage(params, trials, rng):
    """:func:`estimate_coverage` with its batches run one after another."""
    joint = dl = ul = 0
    for n, stream in _batches(trials, rng):
        bj, bd, bu = _coverage_batch(params, n, stream)
        joint += bj
        dl += bd
        ul += bu
    return CoverageEstimate(p_joint=joint / trials, p_ul=ul / trials,
                            p_dl=dl / trials, trials=trials)


def _serial_laplace(params, direction, s, trials, rng):
    """:func:`laplace_oracle` with its batches run one after another."""
    pattern = build_gain_pattern(params)
    tx_power = params.p_uav if direction is Direction.DL else params.p_device
    total = total_sq = 0.0
    for n, stream in _batches(trials, rng):
        radii, owner = _parent_radii(n, params, stream)
        field = _interferer_field(radii, owner, n, tx_power, params, pattern, stream,
                                  device_offset=direction is Direction.UL)
        values = np.exp(-s * field)
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    return mean, 1.96 * math.sqrt(max(total_sq / trials - mean**2, 0.0) / trials)


@pytest.mark.parametrize("trials", [1, 2048, 2049, 20_000])
@pytest.mark.parametrize("cores", [None, 1, 8, "unknown"])
def test_batches_in_flight_match_a_serial_loop(table_params, monkeypatch, trials, cores):
    """Neither the thread count nor the finishing order moves a result.

    ``cores`` is the affinity mask's size: the machine's, one CPU, more
    threads than this machine has cores, or a platform without
    ``sched_getaffinity``.
    """
    if cores == "unknown":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    elif cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    params = table_params.with_(height=45.0)
    assert estimate_coverage(params, trials, np.random.default_rng(trials)) == (
        _serial_coverage(params, trials, np.random.default_rng(trials)))
    for direction in Direction:
        assert laplace_oracle(params, direction, 1e3, trials, np.random.default_rng(trials)) == (
            _serial_laplace(params, direction, 1e3, trials, np.random.default_rng(trials)))


def test_map_batches_keeps_batch_order_and_reraises():
    sizes = _map_batches(lambda n, stream: n, 2 * _BATCH + 1, np.random.default_rng(0))
    assert sizes == [_BATCH, _BATCH, 1]

    def fail_batch_2(n, stream):
        if stream.bit_generator.seed_seq.spawn_key == (2,):
            raise FloatingPointError("batch 2 failed")
        return n

    with pytest.raises(FloatingPointError, match="batch 2 failed"):
        _map_batches(fail_batch_2, 5 * _BATCH, np.random.default_rng(0))


def test_laplace_oracle_validation(table_params):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        laplace_oracle(table_params, Direction.DL, -1.0, 100, rng)
    with pytest.raises(ValueError):
        laplace_oracle(table_params, Direction.DL, 1.0, 0, rng)


def test_realize_round_deterministic_and_aligned(table_params):
    topology = sample_topology(table_params, np.random.default_rng(2))
    schedule = np.array([0, 3, 7])
    first = realize_round(
        topology, schedule, table_params, np.random.default_rng(9)
    )
    second = realize_round(
        topology, schedule, table_params, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(first.device_ids, schedule)
    np.testing.assert_array_equal(first.dl_success, second.dl_success)
    np.testing.assert_array_equal(first.ul_success, second.ul_success)
    np.testing.assert_array_equal(
        first.joint_success, first.dl_success & first.ul_success
    )


@pytest.mark.parametrize("bad", [True, 2.5, 2048.0, np.float64(3.0)])
def test_monte_carlo_trials_must_be_integers(table_params, bad):
    # Before, True ran one trial, 2048.0 ran a batch and 2.5 died inside
    # ``SeedSequence.spawn``.
    with pytest.raises(ValueError, match="trials must be an integer"):
        estimate_coverage(table_params, bad, np.random.default_rng(0))
    with pytest.raises(ValueError, match="trials must be an integer"):
        laplace_oracle(table_params, "dl", 1e-3, bad, np.random.default_rng(0))


@pytest.mark.parametrize(
    "schedule", [[0.7, 1.2, 2.9], np.array([1.0, 3.0]), [True, False]]
)
def test_realize_round_rejects_non_integer_schedules(table_params, schedule):
    # Before, floats were truncated to device ids and booleans read as 1 and 0.
    topology = sample_topology(table_params, np.random.default_rng(2))
    with pytest.raises(ValueError, match="integer device ids"):
        realize_round(topology, schedule, table_params, np.random.default_rng(0))


def test_realize_round_accepts_any_integer_dtype(table_params):
    topology = sample_topology(table_params, np.random.default_rng(2))
    by_kind = [
        realize_round(topology, np.array([0, 3, 7], dtype=dtype), table_params,
                      np.random.default_rng(9))
        for dtype in (np.int64, np.int32, np.uint8)
    ]
    for channel in by_kind:
        assert channel.device_ids.dtype == np.int64
        np.testing.assert_array_equal(channel.dl_success, by_kind[0].dl_success)
        np.testing.assert_array_equal(channel.ul_success, by_kind[0].ul_success)


def test_realize_round_rejects_bad_schedules(table_params):
    topology = sample_topology(table_params, np.random.default_rng(2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        realize_round(topology, np.array([], dtype=int), table_params, rng)
    with pytest.raises(ValueError):
        realize_round(topology, np.array([-1]), table_params, rng)
    with pytest.raises(ValueError):
        realize_round(
            topology, np.array([table_params.n_devices]), table_params, rng
        )


def test_round_channel_validation():
    ids = np.array([0, 1])
    ok = np.array([True, False])
    channel = RoundChannel(device_ids=ids, dl_success=ok, ul_success=~ok)
    np.testing.assert_array_equal(channel.joint_success, [False, False])
    with pytest.raises(ValueError, match="align"):
        RoundChannel(
            device_ids=ids,
            dl_success=ok,
            ul_success=np.array([True]),
        )
    with pytest.raises(ValueError, match="distinct"):
        RoundChannel(
            device_ids=np.array([1, 1]),
            dl_success=ok,
            ul_success=ok,
        )
