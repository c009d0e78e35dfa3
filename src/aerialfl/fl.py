"""Federated averaging over an unreliable aerial access network.

Devices hold non-iid shards of a classification dataset and run local SGD;
the cluster head broadcasts the global model on the downlink and receives
local models on the uplink.  Both links fail at random, so a round only
incorporates updates from devices whose downlink *and* uplink succeeded.

The joint aggregator divides each surviving update by the probability that
it survived (scheduling probability times joint link success), which makes
the aggregate an unbiased estimate of the intended full participation
update.  Two ablations are provided: weighting by the uplink success alone
(ignoring downlink loss), and plain federated averaging renormalized over
the surviving set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analytic import QuadratureSpec, SuccessProfile, success_profiles
from .data import DataBundle
from .geometry import sample_topology
from .models import Model, build_model
from .montecarlo import RoundChannel, realize_round
from .params import NetworkParams, require_integers, require_reals

__all__ = [
    "AggregatorKind",
    "DeviceDataset",
    "ModelState",
    "RoundMetrics",
    "TrainConfig",
    "TrainResult",
    "aggregate",
    "global_loss",
    "local_update",
    "partition_noniid",
    "schedule",
    "train",
]

# Stream labels for the per-purpose RNGs derived from (seed, label, ...).
# Device, schedule, and channel streams are also keyed by the round index,
# so any round can be replayed in isolation.
_KEY_TOPOLOGY = 0
_KEY_PARTITION = 1
_KEY_INIT = 2
_KEY_SCHEDULE = 3
_KEY_CHANNEL = 4
_KEY_DEVICE = 5


def _stream(*key: int) -> np.random.Generator:
    """Independent generator for a structured integer key."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


class AggregatorKind(enum.Enum):
    """Server-side rule for combining surviving local updates."""

    JOINT = "joint"
    UL_ONLY = "ul-only"
    FEDAVG = "fedavg"


@dataclass(frozen=True)
class DeviceDataset:
    """One device's local shard.

    ``p_k`` is the device's share of the global objective (its fraction of
    all training samples); shares across a partition sum to one.
    """

    features: np.ndarray
    labels: np.ndarray
    p_k: float

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be (n_samples, n_features)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if self.n_k < 1:
            raise ValueError("a device shard must hold at least one sample")
        if not 0.0 < self.p_k <= 1.0:
            raise ValueError("objective share p_k must lie in (0, 1]")

    @property
    def n_k(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class ModelState:
    """Flat parameter vector together with the round that produced it."""

    weights: np.ndarray
    round: int

    def __post_init__(self) -> None:
        if self.weights.ndim != 1:
            raise ValueError("weights must be a flat vector")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("model weights must be finite")
        if self.round < 0:
            raise ValueError("round index must be non-negative")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the federated run.

    ``epochs`` is the number of local passes each device makes between
    synchronizations, ``eta0`` the initial SGD step size, decayed as
    ``eta0 / (1 + lr_decay * (t - 1))`` at round ``t``, so round 1 runs at
    ``eta0``.
    """

    epochs: int = 2
    batch_size: int = 64
    eta0: float = 0.05
    rounds: int = 60
    seed: int = 0
    model: str = "multinomial-logistic"
    shards_per_device: int = 2
    lr_decay: float = 0.0

    def __post_init__(self) -> None:
        require_integers(
            self, "epochs", "batch_size", "rounds", "seed", "shards_per_device"
        )
        require_reals(self, "eta0", "lr_decay")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.shards_per_device < 1:
            raise ValueError("shards_per_device must be at least 1")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be non-negative")

    def learning_rate(self, round_index: int) -> float:
        return self.eta0 / (1.0 + self.lr_decay * max(round_index - 1, 0))


@dataclass(frozen=True)
class RoundMetrics:
    """Global objective and accuracies evaluated after a round."""

    round: int
    loss: float
    train_accuracy: float
    test_accuracy: float


@dataclass(frozen=True)
class TrainResult:
    """Per-round metrics, final model and device success profiles of a run.

    ``profiles`` holds one array entry per device, indexed by device id.
    """

    records: list[RoundMetrics]
    final_state: ModelState
    profiles: SuccessProfile

    @property
    def final_test_accuracy(self) -> float:
        return self.records[-1].test_accuracy


def partition_noniid(
    features: np.ndarray,
    labels: np.ndarray,
    n_devices: int,
    shards_per_device: int,
    rng: np.random.Generator,
) -> list[DeviceDataset]:
    """Label-sorted shard partition producing skewed local distributions.

    Samples are sorted by label, cut into ``n_devices * shards_per_device``
    contiguous shards, and each device is dealt ``shards_per_device`` shards
    uniformly at random.  Every sample lands on exactly one device, so the
    objective shares ``p_k`` sum to one.
    """
    n = int(labels.shape[0])
    total_shards = n_devices * shards_per_device
    if n < total_shards:
        raise ValueError(
            f"need at least {total_shards} samples to cut {total_shards} shards"
        )
    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, total_shards)
    deal = rng.permutation(total_shards)
    devices = []
    for k in range(n_devices):
        mine = deal[k * shards_per_device : (k + 1) * shards_per_device]
        idx = np.concatenate([shards[s] for s in mine])
        devices.append(
            DeviceDataset(
                features=features[idx], labels=labels[idx], p_k=idx.size / n
            )
        )
    return devices


def schedule(
    n_devices: int, n_scheduled: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random set of ``n_scheduled`` device indices, sorted."""
    if not 0 < n_scheduled <= n_devices:
        raise ValueError("need 0 < n_scheduled <= n_devices")
    return np.sort(rng.choice(n_devices, size=n_scheduled, replace=False))


def local_update(
    device_id: int,
    state: ModelState,
    data: DeviceDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    model: Model,
    learning_rate: float,
) -> ModelState:
    """Run ``cfg.epochs`` passes of minibatch SGD from the broadcast model.

    Minibatches are drawn by reshuffling the shard once per epoch; a ragged
    final batch is kept rather than dropped.
    """
    w = state.weights.copy()
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n_k)
        for start in range(0, data.n_k, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = model.loss_and_grad(
                w, data.features[batch], data.labels[batch]
            )
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(
                    f"non-finite gradient on device {device_id} "
                    f"at round {state.round}"
                )
            w -= learning_rate * grad
    return ModelState(weights=w, round=state.round)


def aggregate(
    state: ModelState,
    updates: Mapping[int, np.ndarray],
    channel: RoundChannel,
    profiles: SuccessProfile,
    q: float,
    p: np.ndarray,
    kind: AggregatorKind,
) -> ModelState:
    """Combine the local models that survived both links into a new state.

    Each device that arrived, in schedule order, gets one coefficient c_k,
    and the new model is ``w + sum_k c_k (u_k - w)``; ``p[k]`` is device
    k's share of the global objective, ``q`` the scheduling probability
    and ``profiles`` holds each device's success arrays, indexed by device
    id.  The joint rule takes ``c_k = p_k / (q * J_k)``, which is unbiased
    for the full-participation aggregate because each term survives with
    probability exactly ``q * J_k``.  The uplink-only rule divides by
    ``q * J_k^ul`` instead (updates still must survive both links to
    arrive), leaving the downlink loss uncorrected.  Plain federated
    averaging renormalizes ``p_k`` over the survivors; an empty round leaves
    the model unchanged.
    """
    p = np.asarray(p, dtype=float)
    w = state.weights
    arrived = [int(k) for k, ok in zip(channel.device_ids, channel.joint_success) if ok]
    if kind is AggregatorKind.FEDAVG:
        total = float(sum(p[k] for k in arrived))
        coefficients = [p[k] / total for k in arrived] if total > 0 else []
    else:
        success = profiles.j_joint if kind is AggregatorKind.JOINT else profiles.j_ul
        coefficients = []
        for k in arrived:
            j = success[k]
            if j <= 0.0 or q <= 0.0:
                raise ValueError(
                    f"device {k} has vanishing success probability; "
                    "inverse weighting is undefined"
                )
            coefficients.append(p[k] / (q * j))
    delta = np.zeros_like(w)
    for k, c in zip(arrived, coefficients):
        delta += c * (updates[k] - w)
    return ModelState(weights=w + delta, round=state.round + 1)


def global_loss(
    state: ModelState, partitions: Sequence[DeviceDataset], model: Model
) -> float:
    """Weighted sum of local objectives, F(w) = sum_k p_k F_k(w)."""
    total = 0.0
    for part in partitions:
        loss, _ = model.loss_and_grad(state.weights, part.features, part.labels)
        total += part.p_k * loss
    return total


def _accuracy(
    state: ModelState, features: np.ndarray, labels: np.ndarray, model: Model
) -> float:
    return float(np.mean(model.predict(state.weights, features) == labels))


def train(
    cfg: TrainConfig,
    params: NetworkParams,
    kind: AggregatorKind,
    data: DataBundle,
    quad: QuadratureSpec | None = None,
) -> TrainResult:
    """Run a full federated experiment over a fixed sampled topology.

    The topology (and hence every device's success profile), the data
    partition, and the model initialization are all drawn from streams
    keyed only by ``cfg.seed``, and the per-round schedule, channel, and
    device SGD streams are keyed by ``(cfg.seed, round)``.  Two runs that
    differ only in ``kind`` therefore see identical data, link outcomes,
    and local updates, so aggregators can be compared pathwise.
    """
    model = build_model(
        cfg.model, n_features=data.n_features, n_classes=data.n_classes
    )
    topology = sample_topology(params, _stream(cfg.seed, _KEY_TOPOLOGY))
    profiles = success_profiles(topology.serving_distances, params, quad)
    partitions = partition_noniid(
        data.train_x,
        data.train_y,
        params.n_devices,
        cfg.shards_per_device,
        _stream(cfg.seed, _KEY_PARTITION),
    )
    p = np.array([part.p_k for part in partitions])

    state = ModelState(
        weights=model.init(_stream(cfg.seed, _KEY_INIT)), round=0
    )

    def metrics(st: ModelState) -> RoundMetrics:
        return RoundMetrics(
            round=st.round,
            loss=global_loss(st, partitions, model),
            train_accuracy=_accuracy(st, data.train_x, data.train_y, model),
            test_accuracy=_accuracy(st, data.test_x, data.test_y, model),
        )

    records = [metrics(state)]
    for t in range(1, cfg.rounds + 1):
        sched = schedule(
            params.n_devices,
            params.n_resource_blocks,
            _stream(cfg.seed, _KEY_SCHEDULE, t),
        )
        lr = cfg.learning_rate(t)
        updates = {
            int(k): local_update(
                int(k),
                state,
                partitions[int(k)],
                cfg,
                _stream(cfg.seed, _KEY_DEVICE, t, int(k)),
                model,
                learning_rate=lr,
            )
            for k in sched
        }
        # Every local run must have started from the current broadcast; the
        # round tag carried by each update makes the invariant checkable.
        assert all(u.round == state.round for u in updates.values())
        channel = realize_round(
            topology, sched, params, _stream(cfg.seed, _KEY_CHANNEL, t)
        )
        weights = {k: u.weights for k, u in updates.items()}
        state = aggregate(
            state, weights, channel, profiles, params.scheduling_probability, p, kind
        )
        records.append(metrics(state))
    return TrainResult(
        records=records,
        final_state=state,
        profiles=profiles,
    )
