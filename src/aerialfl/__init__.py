"""Coverage analysis and channel-aware federated learning over aerial networks."""

from .analytic import (
    QuadratureSpec,
    SuccessProfile,
    cluster_average_success,
    eta,
    laplace_dl,
    laplace_ul,
    success_profiles,
)
from .channel import Direction, GainPattern, LinkType
from .data import DataBundle, load_mnist, synthetic_blobs
from .fl import (
    AggregatorKind,
    DeviceDataset,
    ModelState,
    RoundMetrics,
    TrainConfig,
    TrainResult,
    aggregate,
    global_loss,
    local_update,
    partition_noniid,
    schedule,
    train,
)
from .geometry import Topology, sample_topology
from .models import Model, build_model
from .montecarlo import (
    CoverageEstimate,
    RoundChannel,
    estimate_coverage,
    laplace_oracle,
    realize_round,
)
from .params import ENVIRONMENT_PRESETS, NetworkParams, db_to_linear
from .quadrature import QuadratureError

__all__ = [
    "AggregatorKind",
    "CoverageEstimate",
    "DataBundle",
    "DeviceDataset",
    "Direction",
    "ENVIRONMENT_PRESETS",
    "GainPattern",
    "LinkType",
    "Model",
    "ModelState",
    "NetworkParams",
    "QuadratureError",
    "QuadratureSpec",
    "RoundChannel",
    "RoundMetrics",
    "SuccessProfile",
    "Topology",
    "TrainConfig",
    "TrainResult",
    "aggregate",
    "build_model",
    "cluster_average_success",
    "db_to_linear",
    "estimate_coverage",
    "eta",
    "global_loss",
    "laplace_dl",
    "laplace_oracle",
    "laplace_ul",
    "load_mnist",
    "local_update",
    "partition_noniid",
    "realize_round",
    "sample_topology",
    "schedule",
    "success_profiles",
    "synthetic_blobs",
    "train",
]

__version__ = "0.1.0"
