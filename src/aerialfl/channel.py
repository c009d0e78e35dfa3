"""Air-to-ground channel model: LOS probability, antenna gain pattern, Nakagami CCDF.

Sampling interference and deciding link success lives in
:mod:`aerialfl.montecarlo`.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import NetworkParams


class LinkType(enum.Enum):
    LOS = "los"
    NLOS = "nlos"


class Direction(enum.Enum):
    DL = "dl"
    UL = "ul"


def link_params(params: NetworkParams, link: LinkType) -> tuple[float, int]:
    """(path-loss exponent, Nakagami m) for a link class."""
    if link is LinkType.LOS:
        return params.alpha_los, params.m_los
    return params.alpha_nlos, params.m_nlos


def los_probability(r, h: float, a: float, b: float):
    """Probability of a line-of-sight link at horizontal distance ``r``.

    Sigmoid in the elevation angle (degrees); ``r = 0`` maps to a 90-degree
    elevation. Vectorized over ``r``.
    """
    if h <= 0:
        raise ValueError("height must be positive")
    if a < 0 or b <= 0:
        raise ValueError("environment constants require a >= 0, b > 0")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise ValueError("distance must be finite and non-negative")
    elevation_deg = np.degrees(np.arctan2(h, r))
    out = 1.0 / (1.0 + a * np.exp(-b * (elevation_deg - a)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GainPattern:
    """Directionality gain distribution of an interfering link.

    Both ends of an interfering link point their main lobes in uniformly
    random directions, so the composite gain takes one of four values (each
    end contributes its main or side lobe) with beamwidth-determined
    probabilities.
    """

    gains: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.gains.shape != (4,) or self.probs.shape != (4,):
            raise ValueError("expected exactly four gain/probability entries")
        if not math.isclose(float(self.probs.sum()), 1.0, abs_tol=1e-12):
            raise ValueError("gain probabilities must sum to 1")
        if np.any(self.gains <= 0) or np.any(self.probs < 0):
            raise ValueError("gains must be positive and probabilities non-negative")
        if float(self.gains[0]) < float(self.gains.max()):
            raise ValueError("first entry must be the boresight (maximum) gain")


def build_gain_pattern(params: NetworkParams) -> GainPattern:
    """Four-level interferer gain distribution from lobe gains and beamwidths."""
    fu = params.beamwidth_uav / (2.0 * math.pi)
    fd = params.beamwidth_device / (2.0 * math.pi)
    gains = np.array(
        [
            params.gain_main_uav * params.gain_main_device,
            params.gain_main_uav * params.gain_side_device,
            params.gain_side_uav * params.gain_main_device,
            params.gain_side_uav * params.gain_side_device,
        ]
    )
    probs = np.array([fu * fd, fu * (1 - fd), (1 - fu) * fd, (1 - fu) * (1 - fd)])
    return GainPattern(gains=gains, probs=probs)


def gamma_ccdf_exact(m: int, x):
    """P[X > x] for X ~ Gamma(m, 1/m), via the finite Erlang series."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    mx = m * x
    term = np.ones_like(mx)
    total = np.ones_like(mx)
    for i in range(1, m):
        term = term * mx / i
        total = total + term
    # The series times exp(-mx) can overshoot 1 by an ulp near x = 0.
    out = np.minimum(np.exp(-mx) * total, 1.0)
    return out if out.ndim else float(out)
