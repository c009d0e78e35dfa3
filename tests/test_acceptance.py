"""End-to-end acceptance gate.

One test per headline claim, each printing a single PASS line with the
measured numbers (visible with ``pytest -s``; ``-v`` shows pass/fail per
criterion).  The expensive fixtures (analytic sweep, Monte-Carlo sweep,
desk-scale federated runs) are module-scoped and shared across criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aerialfl.analytic import (
    QuadratureSpec,
    SuccessProfile,
    cluster_average_success,
    eta,
    laplace_arguments,
    laplace_dl,
    laplace_ul,
    success_profiles,
)
from aerialfl.channel import LinkType, link_params
from aerialfl.data import synthetic_blobs
from aerialfl.fl import (
    AggregatorKind,
    ModelState,
    TrainConfig,
    aggregate,
    train,
)
from aerialfl.models import mlp_one_hidden, multinomial_logistic
from aerialfl.montecarlo import (
    RoundChannel,
    binomial_half_width,
    estimate_coverage,
    laplace_oracle,
)
from aerialfl.params import ENVIRONMENT_PRESETS, NetworkParams

SEED = 2024

#: Height grid shared by the analytic and Monte-Carlo sweeps: the six
#: reference heights, the uplink anchor at 100 m, and extra points around
#: the coverage peak so unimodality is observable.
REFERENCE_HEIGHTS = (20.0, 45.0, 70.0, 95.0, 120.0, 145.0)
EXTRA_HEIGHTS = (35.0, 40.0, 50.0, 55.0, 60.0, 100.0)
GRID = tuple(sorted(REFERENCE_HEIGHTS + EXTRA_HEIGHTS))

MC_TRIALS = 5000

#: Published analytic curve values at the table parameters.
JOINT_REFERENCE = {20.0: 0.2894, 45.0: 0.5088, 120.0: 0.0777}
UL_REFERENCE = {20.0: 0.3488, 100.0: 0.9766, 120.0: 0.9753}

DESK_SEEDS = (0, 1, 2)
DESK_PARAMS = NetworkParams(n_devices=20, n_resource_blocks=18)
EPOCHS = (1, 2, 3, 5, 10)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence((SEED, *key)))


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def analytic_sweep():
    """Analytic averages on the height grid; times the reference subset."""
    params = NetworkParams()
    quad = QuadratureSpec()
    start = time.perf_counter()
    out = {
        h: cluster_average_success(params.with_(height=h), quad)
        for h in REFERENCE_HEIGHTS
    }
    elapsed = time.perf_counter() - start
    for h in EXTRA_HEIGHTS:
        out[h] = cluster_average_success(params.with_(height=h), quad)
    return out, elapsed


@pytest.fixture(scope="module")
def mc_sweep():
    params = NetworkParams()
    start = time.perf_counter()
    out = {
        h: estimate_coverage(params.with_(height=h), MC_TRIALS, _rng(0, i))
        for i, h in enumerate(GRID)
    }
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_bundle():
    return synthetic_blobs(10_000, 2_000, np.random.default_rng(12345))


@pytest.fixture(scope="module")
def desk_runner(desk_bundle):
    timings = {}

    def run(seed, kind, *, epochs=2, params=DESK_PARAMS):
        cfg = TrainConfig(
            epochs=epochs, batch_size=64, eta0=0.05, rounds=60, seed=seed
        )
        start = time.perf_counter()
        result = train(cfg, params, kind, desk_bundle)
        timings[(seed, kind.value, epochs, params.height, params.env_a)] = (
            time.perf_counter() - start
        )
        return result

    run.timings = timings
    return run


@pytest.fixture(scope="module")
def desk_runs(desk_runner):
    """Seed x aggregator training results at the frozen desk-scale setup."""
    return {
        (seed, kind): desk_runner(seed, kind)
        for seed in DESK_SEEDS
        for kind in AggregatorKind
    }


# ------------------------------------------------------------- criteria 1-2


def test_criterion_1_analytic_reference_curve(analytic_sweep):
    sweep, elapsed = analytic_sweep
    errors = {}
    for h, expected in JOINT_REFERENCE.items():
        errors[f"joint@{h:g}"] = sweep[h].j_joint - expected
    for h, expected in UL_REFERENCE.items():
        errors[f"ul@{h:g}"] = sweep[h].j_ul - expected
    worst = max(abs(e) for e in errors.values())
    assert worst <= 0.015, errors
    assert elapsed < 60.0
    print(
        f"[criterion 1] analytic curve matches the published values: PASS "
        f"(max |err|={worst:.4f} <= 0.015, sweep {elapsed:.1f}s)"
    )


def test_criterion_2_analytic_matches_monte_carlo(analytic_sweep, mc_sweep):
    sweep, _ = analytic_sweep
    estimates, elapsed = mc_sweep
    worst = 0.0
    for h in GRID:
        diff = abs(sweep[h].j_joint - estimates[h].p_joint)
        budget = 0.02 + binomial_half_width(estimates[h].p_joint, MC_TRIALS)
        assert diff <= budget, f"h={h}: |diff|={diff:.4f} > {budget:.4f}"
        worst = max(worst, diff)
    assert elapsed < 300.0
    print(
        f"[criterion 2] analytic vs Monte-Carlo coverage: PASS "
        f"(max |diff|={worst:.4f} within 0.02+CI at {len(GRID)} heights, "
        f"{MC_TRIALS} trials in {elapsed:.1f}s)"
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_laplace_transforms_match_oracle():
    params_by_height = {h: NetworkParams().with_(height=h) for h in (45.0, 120.0)}
    transforms = {"dl": laplace_dl, "ul": laplace_ul}
    quad = QuadratureSpec()
    trials = 100_000
    checked = 0
    worst_rel = 0.0
    for h, params in params_by_height.items():
        for direction, closed_form in transforms.items():
            for link in (LinkType.LOS, LinkType.NLOS):
                for j, s in enumerate(
                    laplace_arguments(params, 50.0, direction, link), start=1
                ):
                    checked += 1
                    closed = float(closed_form(float(s), params, quad))
                    mc, half = laplace_oracle(
                        params, direction, float(s), trials, _rng(1, checked)
                    )
                    label = f"{direction} h={h:g} {link.name} j={j}"
                    if mc > 50.0 * half:
                        worst_rel = max(worst_rel, abs(closed - mc) / mc)
                        assert abs(closed - mc) <= 0.01 * mc + 2.0 * half, (
                            f"{label}: closed={closed:.6g} mc={mc:.6g} "
                            f"half={half:.2g}"
                        )
                    else:
                        # The oracle cannot resolve these rare-event values
                        # (CI comparable to the mean); hold the closed form
                        # to an absolute scale that is negligible for any
                        # probability instead of a meaningless relative one.
                        assert abs(closed - mc) <= max(3.0 * half, 1e-4), (
                            f"{label}: closed={closed:.6g} mc={mc:.6g} "
                            f"half={half:.2g}"
                        )
    print(
        f"[criterion 3] Laplace closed forms vs oracle: PASS "
        f"({checked} arguments, worst resolvable rel err {worst_rel:.4f} "
        f"<= 1% + CI)"
    )


# --------------------------------------------------------------- criterion 4


def _noise_only_joint(params, r):
    """Joint success with no interferers: Alzer noise terms only."""
    from aerialfl.channel import los_probability

    p_los = float(
        los_probability(r, params.height, params.env_a, params.env_b)
    )
    per_class = {}
    for link in (LinkType.LOS, LinkType.NLOS):
        _, m = link_params(params, link)
        product = 1.0
        for direction in ("dl", "ul"):
            s1 = float(laplace_arguments(params, r, direction, link)[0])
            product *= 1.0 - (1.0 - math.exp(-s1 * params.noise_power)) ** m
        per_class[link] = product
    return (
        p_los * per_class[LinkType.LOS]
        + (1.0 - p_los) * per_class[LinkType.NLOS]
    )


def test_criterion_4_degenerate_identities():
    params = NetworkParams()
    quad = QuadratureSpec()
    radii = (0.0, params.cluster_radius / 2.0, params.cluster_radius)

    assert laplace_dl(0.0, params, quad) == pytest.approx(1.0, abs=1e-9)
    assert laplace_ul(0.0, params, quad) == pytest.approx(1.0, abs=1e-9)

    certain = params.with_(tau_dl=0.0, tau_ul=0.0)
    for j_joint in success_profiles(np.array(radii), certain, quad).j_joint:
        assert j_joint == pytest.approx(1.0, abs=1e-9)

    pinned = QuadratureSpec(
        truncation_radius=quad.resolve_truncation(params)
    )
    sparse = params.with_(lam=1e-30)
    worst = 0.0
    noise_only = success_profiles(np.array(radii), sparse, pinned)
    for r, got in zip(radii, noise_only.j_joint):
        expected = _noise_only_joint(sparse, float(r))
        worst = max(worst, abs(got - expected))
        assert got == pytest.approx(expected, abs=1e-9)
    print(
        "[criterion 4] degenerate identities (L(0)=1, tau=0, lambda->0): "
        f"PASS (all within 1e-9, worst noise-only gap {worst:.2e})"
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_joint_aggregation_is_unbiased():
    """Two-device scalar experiment: inverse weighting removes the bias."""
    j_values = (0.3, 0.9)
    profiles = SuccessProfile(
        j_joint=np.array(j_values), j_dl=np.array(j_values), j_ul=np.ones(2)
    )
    v = (np.array([1.0]), np.array([2.0]))
    p = np.array([0.5, 0.5])
    state = ModelState(weights=np.zeros(1), round=0)
    target = float(p @ np.array([1.0, 2.0]))  # sum_k p_k (v_k - w), w = 0

    rounds = 100_000
    rng = _rng(5)
    scheduled = rng.integers(0, 2, size=rounds)  # q_k = 1/2 each round
    survived = rng.random(rounds) < np.array(j_values)[scheduled]

    sums = {AggregatorKind.JOINT: 0.0, AggregatorKind.FEDAVG: 0.0}
    for k, ok in zip(scheduled, survived):
        channel = RoundChannel(
            device_ids=np.array([k]),
            dl_success=np.array([bool(ok)]),
            ul_success=np.array([True]),
        )
        updates = {int(k): v[int(k)]}
        for kind in sums:
            out = aggregate(state, updates, channel, profiles, 0.5, p, kind)
            sums[kind] += float(out.weights[0])

    joint_mean = sums[AggregatorKind.JOINT] / rounds
    fedavg_mean = sums[AggregatorKind.FEDAVG] / rounds
    joint_rel = abs(joint_mean - target) / target
    fedavg_rel = abs(fedavg_mean - target) / target
    assert joint_rel <= 0.01
    assert fedavg_rel > 0.05
    print(
        "[criterion 5] aggregation bias: PASS "
        f"(joint mean {joint_mean:.4f} within {joint_rel:.2%} of {target}; "
        f"fedavg mean {fedavg_mean:.4f} off by {fedavg_rel:.2%})"
    )


# ------------------------------------------------------------- criteria 6-7


def test_criterion_6_joint_beats_uncorrected_aggregators(desk_runs, desk_runner):
    margins = []
    for seed in DESK_SEEDS:
        joint = desk_runs[(seed, AggregatorKind.JOINT)]
        ul_only = desk_runs[(seed, AggregatorKind.UL_ONLY)]
        fedavg = desk_runs[(seed, AggregatorKind.FEDAVG)]
        assert joint.final_test_accuracy > ul_only.final_test_accuracy, seed
        assert joint.final_test_accuracy > fedavg.final_test_accuracy, seed
        margins.append(
            joint.final_test_accuracy - ul_only.final_test_accuracy
        )
        losses = {r.round: r.loss for r in joint.records}
        assert losses[50] < losses[1], seed
    mean_margin = float(np.mean(margins))
    assert mean_margin >= 0.05
    slowest = max(desk_runner.timings.values())
    assert slowest < 600.0
    print(
        "[criterion 6] joint > ul-only and > fedavg on all "
        f"{len(DESK_SEEDS)} seeds: PASS (mean joint-ulonly margin "
        f"{mean_margin:.3f} >= 0.05, slowest run {slowest:.0f}s)"
    )


def test_criterion_7_epoch_sweep_trend(desk_runs, desk_runner):
    accuracy = {}
    for epochs in EPOCHS:
        for kind in (AggregatorKind.JOINT, AggregatorKind.UL_ONLY):
            if epochs == 2:
                result = desk_runs[(0, kind)]
            else:
                result = desk_runner(0, kind, epochs=epochs)
            accuracy[(epochs, kind)] = result.final_test_accuracy
    assert (
        accuracy[(2, AggregatorKind.JOINT)]
        >= accuracy[(10, AggregatorKind.JOINT)]
    )
    for epochs in EPOCHS:
        assert (
            accuracy[(epochs, AggregatorKind.JOINT)]
            >= accuracy[(epochs, AggregatorKind.UL_ONLY)]
        ), epochs
    print(
        "[criterion 7] epoch sweep: PASS (joint E=2 "
        f"{accuracy[(2, AggregatorKind.JOINT)]:.3f} >= E=10 "
        f"{accuracy[(10, AggregatorKind.JOINT)]:.3f}; joint >= ul-only at "
        f"E in {EPOCHS})"
    )


# --------------------------------------------------------------- criterion 8


def _assert_unimodal(heights, values, *, slack):
    peak = int(np.argmax(values))
    assert 40.0 <= heights[peak] <= 55.0, heights[peak]
    rising = values[: heights.index(40.0) + 1]
    falling = values[heights.index(55.0):]
    assert np.all(np.diff(rising) > -slack), rising
    assert np.all(np.diff(falling) < slack), falling
    return heights[peak]


def test_criterion_8_height_and_environment_trends(
    analytic_sweep, mc_sweep, desk_runs, desk_runner
):
    sweep, _ = analytic_sweep
    estimates, _ = mc_sweep
    heights = list(GRID)
    analytic_curve = [sweep[h].j_joint for h in heights]
    mc_curve = [estimates[h].p_joint for h in heights]
    analytic_peak = _assert_unimodal(heights, analytic_curve, slack=0.0)
    mc_slack = 2.0 * binomial_half_width(0.5, MC_TRIALS)
    mc_peak = _assert_unimodal(heights, mc_curve, slack=mc_slack)

    def accuracy(seed, *, height, env=None):
        params = DESK_PARAMS.with_(height=height)
        if env is not None:
            a, b = ENVIRONMENT_PRESETS[env]
            params = params.with_(env_a=a, env_b=b)
        if env is None and height == DESK_PARAMS.height:
            return desk_runs[(seed, AggregatorKind.JOINT)].final_test_accuracy
        return desk_runner(
            seed, AggregatorKind.JOINT, params=params
        ).final_test_accuracy

    for seed in DESK_SEEDS:
        urban = {h: accuracy(seed, height=h) for h in (25.0, 50.0, 120.0)}
        assert urban[50.0] >= urban[25.0], (seed, urban)
        assert urban[50.0] >= urban[120.0], (seed, urban)
        low = accuracy(seed, height=25.0, env="suburban")
        high = accuracy(seed, height=120.0, env="suburban")
        assert low > high, (seed, low, high)
        low = accuracy(seed, height=25.0, env="high-rise")
        high = accuracy(seed, height=120.0, env="high-rise")
        assert high > low, (seed, low, high)
    print(
        "[criterion 8] height/environment trends: PASS "
        f"(coverage peaks at h={analytic_peak:g} analytic / h={mc_peak:g} MC; "
        "urban best at 50 m, suburban prefers 25 m, high-rise prefers 120 m "
        f"on all {len(DESK_SEEDS)} seeds)"
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_gradients_match_finite_differences():
    rng = _rng(9)
    x = rng.normal(size=(40, 10))
    y = rng.integers(4, size=40)
    worst = 0.0
    for model in (
        multinomial_logistic(10, 4),
        mlp_one_hidden(10, 4, n_hidden=12),
    ):
        for _ in range(10):
            w = model.init(rng) + rng.normal(scale=0.3, size=model.n_params)
            _, grad = model.loss_and_grad(w, x, y)
            direction = rng.normal(size=model.n_params)
            direction /= np.linalg.norm(direction)
            eps = 1e-6
            plus, _ = model.loss_and_grad(w + eps * direction, x, y)
            minus, _ = model.loss_and_grad(w - eps * direction, x, y)
            numeric = (plus - minus) / (2.0 * eps)
            analytic = float(grad @ direction)
            rel = abs(numeric - analytic) / max(abs(analytic), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-6, (model.name, rel)
    print(
        "[criterion 9] gradient checks: PASS (20 random points, worst "
        f"relative error {worst:.2e} <= 1e-6; invariant suites covered by "
        "the unit tests)"
    )
