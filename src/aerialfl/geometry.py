"""Spatial layout of the network: cluster-head PPP and uniform-disk clusters.

The typical cluster head sits at the origin by convention; every statistic
downstream is computed for its cluster, with the PPP sample providing the
interfering clusters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import NetworkParams

def sample_ppp(lam: float, window_radius: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous Poisson point process on a disk at the origin.

    Returns an ``(n, 2)`` array of points; ``n`` is Poisson with mean
    ``lam * pi * window_radius**2`` and points are uniform on the disk.
    """
    if not (math.isfinite(lam) and math.isfinite(window_radius)):
        raise ValueError("density and window radius must be finite")
    if lam <= 0 or window_radius <= 0:
        raise ValueError("density and window radius must be positive")
    n = rng.poisson(lam * math.pi * window_radius**2)
    radii = window_radius * np.sqrt(rng.random(n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def sample_cluster(
    center: np.ndarray, n: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` points uniform on the disk of ``radius`` about ``center``."""
    if n < 1:
        raise ValueError("cluster size must be >= 1")
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    radii = radius * np.sqrt(rng.random(n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    offsets = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return np.asarray(center, dtype=float) + offsets


def serving_distance_pdf(r, R: float):
    """Density 2r/R^2 of the horizontal distance between a device and its UAV."""
    if R <= 0:
        raise ValueError("cluster radius must be positive")
    r = np.asarray(r, dtype=float)
    out = np.where((r >= 0) & (r <= R), 2.0 * r / R**2, 0.0)
    return out if out.ndim else float(out)


def arc_distance_pdf(g, q, R: float):
    """Density of the distance ``g`` from the origin to a device uniform on
    the disk of radius ``R`` about a head at distance ``q``, on the arc part
    of its support ``|R - q| <= g <= R + q``, vectorized over matching ``g``
    and ``q``. Together with `serving_distance_pdf` on ``g < R - q`` (when
    ``q < R``) it is the whole member distance density.

    Quadrature nodes can land within floating error of the support
    endpoints, so the arccos argument is clipped rather than rejected.
    """
    # Cosine of the half-angle of the arc of the circle of radius g about
    # the origin that lies inside the cluster disk.
    ratio = np.clip((g * g + q * q - R * R) / (2.0 * g * q), -1.0, 1.0)
    return (2.0 * g / (math.pi * R**2)) * np.arccos(ratio)


@dataclass(frozen=True)
class Topology:
    """One realization of the spatial process.

    ``uav_positions[0]`` is the typical cluster head, pinned to the origin;
    the remaining rows are the interfering heads from the PPP sample.
    ``serving_distances`` holds the horizontal device-to-head distances of
    the typical cluster's devices.
    """

    uav_positions: np.ndarray
    serving_distances: np.ndarray

    def __post_init__(self):
        if not np.allclose(self.uav_positions[0], 0.0):
            raise ValueError("typical cluster head must sit at the origin")


def sample_topology(params: NetworkParams, rng: np.random.Generator) -> Topology:
    """Sample a network realization on the simulation window.

    The typical head is placed at the origin deterministically; interfering
    heads follow the PPP on the window disk. Only the typical cluster's
    ``params.n_devices`` devices are placed (uniform on its disk): the
    interference field re-samples its transmitters every round.
    """
    interferers = sample_ppp(params.lam, params.window_radius, rng)
    positions = np.vstack((np.zeros((1, 2)), interferers))
    devices = sample_cluster(positions[0], params.n_devices, params.cluster_radius, rng)
    return Topology(
        uav_positions=positions, serving_distances=np.linalg.norm(devices, axis=1)
    )
