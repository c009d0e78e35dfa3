"""Federated training loop: partitioning, local SGD, and aggregation rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerialfl.analytic import SuccessProfile
from aerialfl.data import DataBundle, synthetic_blobs
from aerialfl.fl import (
    AggregatorKind,
    DeviceDataset,
    ModelState,
    TrainConfig,
    aggregate,
    global_loss,
    local_update,
    partition_noniid,
    schedule,
    train,
)
from aerialfl.models import Model, multinomial_logistic
from aerialfl.montecarlo import RoundChannel


def _profiles(j_joint, j_ul=None):
    """Success arrays indexed by device id; the uplink is certain unless given."""
    j_joint = np.asarray(j_joint, dtype=float)
    j_ul = np.ones_like(j_joint) if j_ul is None else np.asarray(j_ul, dtype=float)
    return SuccessProfile(j_joint=j_joint, j_dl=np.ones_like(j_joint), j_ul=j_ul)


def _channel(ids, dl, ul):
    return RoundChannel(
        device_ids=np.asarray(ids, dtype=int),
        dl_success=np.asarray(dl, dtype=bool),
        ul_success=np.asarray(ul, dtype=bool),
    )


def _squared_loss_model():
    """f(w, x) = (w - x)^2 / 2 on scalar features; gradient is w - x."""

    def loss_and_grad(w, x, y):
        diff = w[0] - x[:, 0]
        return 0.5 * float((diff**2).mean()), np.array([diff.mean()])

    return Model(
        name="squared",
        n_features=1,
        n_classes=1,
        n_params=1,
        init=lambda rng=None: np.zeros(1),
        loss_and_grad=loss_and_grad,
        predict=lambda w, x: np.zeros(x.shape[0], dtype=int),
    )


# ---------------------------------------------------------------- partition


def test_partition_conserves_samples(rng):
    labels = np.repeat(np.arange(10), 100)
    features = np.arange(1000, dtype=float)[:, None]
    parts = partition_noniid(features, labels, 10, 2, rng)
    assert len(parts) == 10
    assert sum(part.n_k for part in parts) == 1000
    assert sum(part.p_k for part in parts) == pytest.approx(1.0, abs=1e-12)
    pooled = np.sort(np.concatenate([part.features.ravel() for part in parts]))
    np.testing.assert_array_equal(pooled, np.arange(1000, dtype=float))
    for part in parts:
        assert part.p_k == part.n_k / 1000


def test_partition_produces_label_skew(rng):
    """Contiguous label-sorted shards give each device few distinct labels."""
    labels = np.repeat(np.arange(10), 100)
    features = np.zeros((1000, 2))
    parts = partition_noniid(features, labels, 10, 2, rng)
    for part in parts:
        assert np.unique(part.labels).size <= 4  # two shards, two labels each


def test_partition_insufficient_data_raises(rng):
    with pytest.raises(ValueError, match="shards"):
        partition_noniid(np.zeros((5, 1)), np.zeros(5, dtype=int), 3, 2, rng)


@given(
    n_devices=st.integers(min_value=1, max_value=5),
    shards_per_device=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=60, deadline=None)
def test_partition_properties(n_devices, shards_per_device, extra, seed):
    rng = np.random.default_rng(seed)
    n = n_devices * shards_per_device + extra
    labels = rng.integers(0, 6, size=n)
    features = np.arange(n, dtype=float)[:, None]
    parts = partition_noniid(features, labels, n_devices, shards_per_device, rng)
    assert len(parts) == n_devices
    assert sum(part.n_k for part in parts) == n
    assert sum(part.p_k for part in parts) == pytest.approx(1.0, abs=1e-12)
    pooled = np.sort(np.concatenate([part.features.ravel() for part in parts]))
    np.testing.assert_array_equal(pooled, np.arange(n, dtype=float))


# ----------------------------------------------------------------- schedule


def test_schedule_shape_and_marginals(rng):
    n_devices, n_scheduled, rounds = 10, 4, 2000
    hits = np.zeros(n_devices)
    for _ in range(rounds):
        sched = schedule(n_devices, n_scheduled, rng)
        assert sched.size == n_scheduled
        assert np.unique(sched).size == n_scheduled
        assert np.all(np.diff(sched) > 0)
        assert sched.min() >= 0 and sched.max() < n_devices
        hits[sched] += 1
    q = n_scheduled / n_devices
    sigma = math.sqrt(rounds * q * (1.0 - q))
    assert np.all(np.abs(hits - rounds * q) < 5.0 * sigma)


def test_schedule_validation(rng):
    with pytest.raises(ValueError):
        schedule(5, 0, rng)
    with pytest.raises(ValueError):
        schedule(5, 6, rng)


# ------------------------------------------------------------- local update


def test_local_update_single_gradient_step(rng):
    model = _squared_loss_model()
    data = DeviceDataset(
        features=np.array([[1.0]]), labels=np.array([0]), p_k=1.0
    )
    cfg = TrainConfig(epochs=1, batch_size=1, eta0=0.1, rounds=1, seed=0)
    state = ModelState(weights=np.zeros(1), round=7)
    out = local_update(0, state, data, cfg, rng, model, cfg.eta0)
    assert out.weights[0] == pytest.approx(0.1, abs=1e-15)
    assert out.round == 7  # tagged with the broadcast round it started from
    assert state.weights[0] == 0.0  # broadcast model is not mutated


def test_local_update_zero_rate_returns_broadcast(rng):
    model = _squared_loss_model()
    data = DeviceDataset(
        features=np.array([[1.0], [2.0]]), labels=np.array([0, 0]), p_k=1.0
    )
    cfg = TrainConfig(epochs=3, batch_size=1, eta0=0.1, rounds=1, seed=0)
    state = ModelState(weights=np.full(1, 0.25), round=0)
    out = local_update(0, state, data, cfg, rng, model, learning_rate=0.0)
    np.testing.assert_array_equal(out.weights, state.weights)


def test_local_update_nonfinite_gradient_names_device(rng):
    def bad_loss(w, x, y):
        return 1.0, np.array([np.inf])

    model = Model(
        name="bad",
        n_features=1,
        n_classes=1,
        n_params=1,
        init=lambda rng=None: np.zeros(1),
        loss_and_grad=bad_loss,
        predict=lambda w, x: np.zeros(x.shape[0], dtype=int),
    )
    data = DeviceDataset(
        features=np.array([[1.0]]), labels=np.array([0]), p_k=1.0
    )
    cfg = TrainConfig(epochs=1, batch_size=1, eta0=0.1, rounds=1, seed=0)
    state = ModelState(weights=np.zeros(1), round=4)
    with pytest.raises(FloatingPointError, match="device 3.*round 4"):
        local_update(3, state, data, cfg, rng, model, cfg.eta0)


# -------------------------------------------------------------- aggregation


def test_aggregate_worked_example():
    """Two reliable devices, q = 1: 0 + (0.5/0.5)*1 + (0.5/1)*2 = 2."""
    state = ModelState(weights=np.zeros(1), round=0)
    profiles = _profiles([0.5, 1.0])
    updates = {0: np.array([1.0]), 1: np.array([2.0])}
    channel = _channel([0, 1], [True, True], [True, True])
    p = np.array([0.5, 0.5])
    out = aggregate(state, updates, channel, profiles, 1.0, p, AggregatorKind.JOINT)
    assert out.weights[0] == pytest.approx(2.0, abs=1e-15)
    assert out.round == 1
    # ModelState updates behave exactly like raw arrays.
    wrapped = {
        k: ModelState(weights=v, round=0) for k, v in updates.items()
    }
    again = aggregate(state, wrapped, channel, profiles, 1.0, p, AggregatorKind.JOINT)
    assert again.weights[0] == out.weights[0]


def test_aggregate_recovers_plain_average_when_reliable():
    """q = 1 and J = 1 with uniform shares reduces to the sample mean."""
    state = ModelState(weights=np.zeros(2), round=3)
    profiles = _profiles([1.0] * 4)
    updates = {k: np.full(2, float(k)) for k in range(4)}
    channel = _channel(range(4), [True] * 4, [True] * 4)
    p = np.full(4, 0.25)
    joint = aggregate(state, updates, channel, profiles, 1.0, p, AggregatorKind.JOINT)
    fedavg = aggregate(
        state, updates, channel, profiles, 1.0, p, AggregatorKind.FEDAVG
    )
    np.testing.assert_allclose(joint.weights, [1.5, 1.5], atol=1e-15)
    np.testing.assert_allclose(joint.weights, fedavg.weights, atol=1e-15)


def test_aggregate_drops_devices_that_fail_either_link():
    state = ModelState(weights=np.zeros(1), round=0)
    profiles = _profiles([0.5, 0.5])
    updates = {0: np.array([1.0]), 1: np.array([5.0])}
    p = np.array([0.5, 0.5])
    for dl, ul in (([False, True], [True, True]), ([True, True], [False, True])):
        channel = _channel([0, 1], dl, ul)
        out = aggregate(
            state, updates, channel, profiles, 1.0, p, AggregatorKind.JOINT
        )
        # Only device 1 contributes: 0.5/0.5 * 5.
        assert out.weights[0] == pytest.approx(5.0)
        fed = aggregate(
            state, updates, channel, profiles, 1.0, p, AggregatorKind.FEDAVG
        )
        assert fed.weights[0] == pytest.approx(5.0)  # renormalized survivor


def test_aggregate_empty_round_leaves_model_unchanged():
    state = ModelState(weights=np.array([0.7]), round=2)
    profiles = _profiles([0.5])
    channel = _channel([0], [False], [False])
    for kind in AggregatorKind:
        out = aggregate(
            state, {0: np.array([9.9])}, channel, profiles, 1.0,
            np.array([1.0]), kind,
        )
        assert out.weights[0] == 0.7
        assert out.round == 3


def test_aggregate_ul_only_corrects_only_the_uplink():
    state = ModelState(weights=np.zeros(1), round=0)
    profiles = _profiles([0.4], j_ul=[0.8])
    updates = {0: np.array([1.0])}
    channel = _channel([0], [True], [True])
    p = np.array([1.0])
    ul_only = aggregate(
        state, updates, channel, profiles, 0.5, p, AggregatorKind.UL_ONLY
    )
    joint = aggregate(state, updates, channel, profiles, 0.5, p, AggregatorKind.JOINT)
    assert ul_only.weights[0] == pytest.approx(1.0 / (0.5 * 0.8))
    assert joint.weights[0] == pytest.approx(1.0 / (0.5 * 0.4))


def test_aggregate_vanishing_probability_raises():
    state = ModelState(weights=np.zeros(1), round=0)
    channel = _channel([0], [True], [True])
    for j, q in ((0.0, 0.9), (0.5, 0.0)):
        with pytest.raises(ValueError, match="device 0"):
            aggregate(
                state, {0: np.array([1.0])}, channel, _profiles([j]), q,
                np.array([1.0]), AggregatorKind.JOINT,
            )


# -------------------------------------------------------------- global loss


def test_global_loss_matches_pooled_objective(rng):
    bundle = synthetic_blobs(600, 50, rng, n_features=12, n_classes=4)
    model = multinomial_logistic(12, 4)
    parts = partition_noniid(bundle.train_x, bundle.train_y, 6, 2, rng)
    w = rng.normal(scale=0.3, size=model.n_params)
    state = ModelState(weights=w, round=0)
    pooled, _ = model.loss_and_grad(w, bundle.train_x, bundle.train_y)
    assert global_loss(state, parts, model) == pytest.approx(pooled, abs=1e-10)
    zeros = ModelState(weights=np.zeros(model.n_params), round=0)
    assert global_loss(zeros, parts, model) == pytest.approx(
        math.log(4), rel=1e-12
    )


# -------------------------------------------------------------------- train


@pytest.fixture(scope="module")
def small_bundle():
    return synthetic_blobs(
        200, 50, np.random.default_rng(7), n_features=12, n_classes=4
    )


def test_train_is_deterministic(table_params, fast_quad, small_bundle):
    params = table_params.with_(n_devices=5, n_resource_blocks=3)
    cfg = TrainConfig(epochs=1, batch_size=32, eta0=0.05, rounds=3, seed=1)
    first = train(cfg, params, AggregatorKind.JOINT, small_bundle, fast_quad)
    second = train(cfg, params, AggregatorKind.JOINT, small_bundle, fast_quad)
    np.testing.assert_array_equal(
        first.final_state.weights, second.final_state.weights
    )
    assert [r.loss for r in first.records] == [r.loss for r in second.records]


def test_train_record_structure(table_params, fast_quad, small_bundle):
    params = table_params.with_(n_devices=5, n_resource_blocks=3)
    cfg = TrainConfig(epochs=1, batch_size=32, eta0=0.05, rounds=3, seed=1)
    result = train(cfg, params, AggregatorKind.JOINT, small_bundle, fast_quad)
    assert [r.round for r in result.records] == [0, 1, 2, 3]
    assert result.final_state.round == 3
    for field in ("j_joint", "j_dl", "j_ul"):
        assert getattr(result.profiles, field).shape == (5,)
    assert result.final_test_accuracy == result.records[-1].test_accuracy
    assert result.records[0].loss == pytest.approx(math.log(4), rel=1e-12)
    zero_rounds = TrainConfig(
        epochs=1, batch_size=32, eta0=0.05, rounds=0, seed=1
    )
    still = train(
        zero_rounds, params, AggregatorKind.JOINT, small_bundle, fast_quad
    )
    assert len(still.records) == 1


def test_train_reads_each_bundle_field(table_params, fast_quad):
    """Partition and train accuracy use the train split, test accuracy the
    test split, and the model spans the labels of both."""
    rng = np.random.default_rng(3)
    bundle = DataBundle(
        train_x=rng.normal(size=(40, 3)),
        train_y=np.repeat([0, 1, 2, 1], 10),
        test_x=rng.normal(size=(4, 3)),
        test_y=np.array([0, 0, 3, 1]),
    )
    params = table_params.with_(n_devices=5, n_resource_blocks=3)
    cfg = TrainConfig(epochs=1, batch_size=8, eta0=0.05, rounds=0, seed=1)
    result = train(cfg, params, AggregatorKind.JOINT, bundle, fast_quad)
    # Zero weights predict class 0 for every row and give loss log(C).
    (start,) = result.records
    assert start.train_accuracy == 0.25
    assert start.test_accuracy == 0.5
    assert start.loss == pytest.approx(math.log(4), rel=1e-12)
    assert result.final_state.weights.size == (3 + 1) * 4


def test_train_reliable_channel_reduces_to_fedavg(
    table_params, fast_quad, small_bundle
):
    """Full scheduling and certain links make all aggregators coincide."""
    params = table_params.with_(
        n_devices=5, n_resource_blocks=5, tau_dl=0.0, tau_ul=0.0
    )
    cfg = TrainConfig(epochs=1, batch_size=32, eta0=0.05, rounds=3, seed=2)
    joint = train(cfg, params, AggregatorKind.JOINT, small_bundle, fast_quad)
    fedavg = train(cfg, params, AggregatorKind.FEDAVG, small_bundle, fast_quad)
    np.testing.assert_allclose(joint.profiles.j_joint, 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        joint.final_state.weights, fedavg.final_state.weights, atol=1e-10
    )
    for a, b in zip(joint.records, fedavg.records):
        assert a.loss == pytest.approx(b.loss, abs=1e-10)


# ------------------------------------------------------------- value checks


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="eta0"):
        TrainConfig(eta0=0.0)
    with pytest.raises(ValueError, match="rounds"):
        TrainConfig(rounds=-1)
    with pytest.raises(ValueError, match="shards"):
        TrainConfig(shards_per_device=0)
    with pytest.raises(ValueError, match="lr_decay"):
        TrainConfig(lr_decay=-0.1)


def test_learning_rate_decay_schedule():
    cfg = TrainConfig(eta0=0.1, lr_decay=0.5)
    assert cfg.learning_rate(1) == pytest.approx(0.1)
    assert cfg.learning_rate(3) == pytest.approx(0.1 / 2.0)
    flat = TrainConfig(eta0=0.1)
    assert flat.learning_rate(50) == pytest.approx(0.1)


def test_model_state_validation():
    with pytest.raises(ValueError, match="flat"):
        ModelState(weights=np.zeros((2, 2)), round=0)
    with pytest.raises(ValueError, match="finite"):
        ModelState(weights=np.array([np.nan]), round=0)
    with pytest.raises(ValueError, match="round"):
        ModelState(weights=np.zeros(2), round=-1)


def test_device_dataset_validation():
    good = DeviceDataset(
        features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int), p_k=0.5
    )
    assert good.n_k == 3
    with pytest.raises(ValueError, match="features"):
        DeviceDataset(
            features=np.zeros(3), labels=np.zeros(3, dtype=int), p_k=0.5
        )
    with pytest.raises(ValueError, match="align"):
        DeviceDataset(
            features=np.zeros((3, 2)), labels=np.zeros(2, dtype=int), p_k=0.5
        )
    with pytest.raises(ValueError, match="at least one"):
        DeviceDataset(
            features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), p_k=0.5
        )
    with pytest.raises(ValueError, match="p_k"):
        DeviceDataset(
            features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int), p_k=0.0
        )
