"""Network-level configuration shared by every other module.

All quantities are stored in linear/SI units (W, m, rad). Quantities that
are conventionally quoted in dB (antenna gains, SINR thresholds) must be
converted with :func:`db_to_linear` before they reach :class:`NetworkParams`;
nothing downstream ever sees a dB value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)


def is_integer(value) -> bool:
    """True for an ``int`` that is not a ``bool``.

    Integer settings use this one rule, so that ``1.7`` or ``True`` is an
    error rather than being read as 1.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def require_integers(obj, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``obj`` is an integer."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")


def require_reals(obj, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``obj`` is real.

    A real setting is a finite ``int`` or ``float`` that is not a ``bool``,
    so that ``True`` is not read as 1 and NaN or infinity never reaches a
    comparison that it would silently pass.
    """
    for name in names:
        value = getattr(obj, name)
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            raise ValueError(f"{name} must be a finite real number, not {value!r}")


#: LOS-model environment constants (a, b): keyed by environment name.
#: The (9.61, 0.16) pair used as the default corresponds to an urban
#: environment; the other presets are the standard companion values for the
#: same low-altitude-platform LOS model.
ENVIRONMENT_PRESETS: dict[str, tuple[float, float]] = {
    "suburban": (4.88, 0.43),
    "urban": (9.61, 0.16),
    "dense-urban": (12.08, 0.11),
    "high-rise": (27.23, 0.08),
}


@dataclass(frozen=True)
class NetworkParams:
    """Single source of truth for the network and channel model.

    Defaults reproduce the baseline parameter set used throughout the
    experiments: a cluster process with two cluster heads per 150 m-radius
    disk on average, 100-m clusters of 100 devices with 90 resource blocks,
    and an urban air-to-ground channel.

    Attributes:
        lam: density of UAV cluster heads (UAV/m^2).
        n_devices: devices per cluster (N).
        n_resource_blocks: orthogonal resource blocks per UAV (M <= N).
        cluster_radius: cluster disk radius R (m).
        height: UAV altitude h (m).
        p_uav: UAV transmit power (W), used on the downlink.
        p_device: device transmit power (W), used on the uplink.
        alpha_los / alpha_nlos: path-loss exponents (> 2).
        m_los / m_nlos: Nakagami fading parameters (positive integers).
        noise_power: thermal noise power n0^2 (W).
        env_a / env_b: environment constants of the LOS-probability model.
        tau_dl / tau_ul: SINR thresholds, linear scale.
        gain_main_uav / gain_side_uav: UAV antenna main/side lobe gain (linear).
        gain_main_device / gain_side_device: device antenna gains (linear).
        beamwidth_uav / beamwidth_device: main-lobe beamwidths (rad).
        sim_window_radius: Monte-Carlo disk radius (m); ``None`` selects the
            default ``10 / sqrt(pi * lam)``, matching the analytic
            integrals' truncation radius so both estimators model the same
            interference field.
    """

    lam: float = 2.0 / (math.pi * 150.0**2)
    n_devices: int = 100
    n_resource_blocks: int = 90
    cluster_radius: float = 100.0
    height: float = 120.0
    p_uav: float = 0.25
    p_device: float = 0.1
    alpha_los: float = 2.1
    alpha_nlos: float = 3.6
    m_los: int = 3
    m_nlos: int = 1
    noise_power: float = 4.14e-6
    env_a: float = 9.61
    env_b: float = 0.16
    tau_dl: float = db_to_linear(15.0)
    tau_ul: float = db_to_linear(0.0)
    gain_main_uav: float = db_to_linear(10.0)
    gain_main_device: float = db_to_linear(5.0)
    gain_side_uav: float = db_to_linear(-1.0)
    gain_side_device: float = db_to_linear(-3.0)
    beamwidth_uav: float = math.pi / 6.0
    beamwidth_device: float = math.pi / 6.0
    sim_window_radius: Optional[float] = None

    def __post_init__(self):
        require_integers(self, "n_devices", "n_resource_blocks", "m_los", "m_nlos")
        require_reals(
            self, "lam", "cluster_radius", "height", "p_uav", "p_device",
            "alpha_los", "alpha_nlos", "noise_power", "env_a", "env_b",
            "tau_dl", "tau_ul", "gain_main_uav", "gain_main_device",
            "gain_side_uav", "gain_side_device", "beamwidth_uav",
            "beamwidth_device",
        )
        if self.lam <= 0:
            raise ValueError("UAV density must be positive")
        if self.n_devices < 1 or self.n_resource_blocks < 1:
            raise ValueError("device and resource-block counts must be >= 1")
        if self.n_resource_blocks > self.n_devices:
            raise ValueError("resource blocks M must not exceed devices N")
        if self.cluster_radius <= 0 or self.height <= 0:
            raise ValueError("cluster radius and UAV height must be positive")
        if self.p_uav <= 0 or self.p_device <= 0 or self.noise_power <= 0:
            raise ValueError("powers and noise must be positive")
        if self.alpha_los <= 2 or self.alpha_nlos <= 2:
            raise ValueError("path-loss exponents must exceed 2")
        if self.m_los < 1 or self.m_nlos < 1:
            raise ValueError("Nakagami m must be a positive integer")
        if not (self.gain_main_uav >= self.gain_side_uav > 0):
            raise ValueError("UAV gains must satisfy M_u >= m_u > 0 (linear)")
        if not (self.gain_main_device >= self.gain_side_device > 0):
            raise ValueError("device gains must satisfy M_d >= m_d > 0 (linear)")
        for theta in (self.beamwidth_uav, self.beamwidth_device):
            if not 0 < theta <= 2 * math.pi:
                raise ValueError("beamwidths must lie in (0, 2*pi]")
        if self.env_a < 0 or self.env_b <= 0:
            raise ValueError("environment constants require a >= 0, b > 0")
        if self.tau_dl < 0 or self.tau_ul < 0:
            raise ValueError("SINR thresholds must be non-negative (linear)")
        if self.sim_window_radius is not None:
            require_reals(self, "sim_window_radius")
            if self.sim_window_radius <= 0:
                raise ValueError("sim_window_radius must be positive")

    @property
    def g0(self) -> float:
        """Boresight gain of the desired link (both main lobes aligned)."""
        return self.gain_main_uav * self.gain_main_device

    @property
    def scheduling_probability(self) -> float:
        """Marginal probability q_k = M/N that a device holds a resource block."""
        return self.n_resource_blocks / self.n_devices

    @property
    def window_radius(self) -> float:
        """Monte-Carlo simulation disk radius, applying the default if unset."""
        if self.sim_window_radius is not None:
            return self.sim_window_radius
        return 10.0 / math.sqrt(math.pi * self.lam)

    def with_(self, **changes) -> "NetworkParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def with_environment(self, name: str) -> "NetworkParams":
        """Return a copy using the (a, b) constants of a named environment."""
        try:
            a, b = ENVIRONMENT_PRESETS[name]
        except KeyError:
            known = ", ".join(sorted(ENVIRONMENT_PRESETS))
            raise ValueError(f"unknown environment {name!r}; choose one of {known}")
        return replace(self, env_a=a, env_b=b)
