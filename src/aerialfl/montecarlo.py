"""The channel engine: interference sampling and per-link SINR decisions.

This is the only code that samples interference fields and decides whether
a link clears its SINR threshold. It serves two roles: the per-round channel
(:func:`realize_round`) that decides which device updates survive in the
federated-learning loop, and the brute-force oracles
(:func:`estimate_coverage`, :func:`laplace_oracle`) that the analytic
coverage expressions are validated against.

Trials are vectorized in batches of a fixed size; each batch consumes its
own child stream spawned from the caller's generator, so an estimate depends
only on the generator and the trial count.  The oracles run their batches
at the same time, one per available core (:func:`_map_batches`).
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import Direction, build_gain_pattern, los_probability
from .geometry import Topology
from .params import NetworkParams, is_integer, require_integers

__all__ = [
    "CoverageEstimate",
    "RoundChannel",
    "binomial_half_width",
    "estimate_coverage",
    "laplace_oracle",
    "realize_round",
]

_BATCH = 2048


def binomial_half_width(p: float, trials: int) -> float:
    """95% normal-approximation half-width of an empirical frequency."""
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


@dataclass(frozen=True)
class CoverageEstimate:
    """Empirical joint/marginal success frequencies with confidence width."""

    p_joint: float
    p_ul: float
    p_dl: float
    trials: int

    def __post_init__(self):
        require_integers(self, "trials")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for p in (self.p_joint, self.p_ul, self.p_dl):
            if not 0.0 <= p <= 1.0:
                raise ValueError("estimates must be probabilities")
        lower = max(0.0, self.p_ul + self.p_dl - 1.0)
        upper = min(self.p_ul, self.p_dl)
        if not (lower - 1e-12 <= self.p_joint <= upper + 1e-12):
            raise ValueError("joint frequency violates its Frechet bounds")

    @property
    def half_width_95(self) -> float:
        """95% half-width of the joint frequency."""
        return binomial_half_width(self.p_joint, self.trials)


@dataclass(frozen=True)
class RoundChannel:
    """Per-round link outcomes for the scheduled devices."""

    device_ids: np.ndarray
    dl_success: np.ndarray
    ul_success: np.ndarray

    def __post_init__(self):
        n = self.device_ids.size
        if not self.dl_success.shape == self.ul_success.shape == (n,):
            raise ValueError("per-device arrays must align with device_ids")
        if n != np.unique(self.device_ids).size:
            raise ValueError("scheduled device ids must be distinct")

    @property
    def joint_success(self) -> np.ndarray:
        return self.dl_success & self.ul_success


def _draw_los(dist: np.ndarray, params: NetworkParams, rng: np.random.Generator):
    """Independent LOS classes for links at horizontal distances ``dist``."""
    p_los = los_probability(dist, params.height, params.env_a, params.env_b)
    return rng.random(dist.size) < p_los


def _draw_gains(pattern, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent antenna gains drawn from ``pattern``.

    The same draws, bit for bit, as ``rng.choice(pattern.gains, size=n,
    p=pattern.probs)`` on numpy 2.x, which normalizes the cumulative sum,
    draws ``rng.random(n)`` and counts the cdf edges at or below each
    uniform.  Counting with one comparison per edge takes less than half
    of ``choice``'s time.
    """
    cdf = pattern.probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.uint8)
    for edge in cdf[:-1]:
        idx += u >= edge
    return pattern.gains[idx]


def _interferer_field(
    parent_radii: np.ndarray,
    owner: np.ndarray,
    n_owners: int,
    tx_power: float,
    params: NetworkParams,
    pattern,
    rng: np.random.Generator,
    *,
    device_offset: bool,
) -> np.ndarray:
    """Aggregate interference per owner from one mark realization.

    ``parent_radii`` holds interfering cluster-center distances from the
    origin, flattened across owners (trials or scheduled devices). With
    ``device_offset`` the transmitter is a uniformly placed cluster member
    instead of the center. Every transmitter draws its own LOS class (at
    its own distance), antenna alignment, and Nakagami power.
    """
    n = parent_radii.size
    if n == 0:
        return np.zeros(n_owners)
    # Every per-link array is built in place: with batches in flight on
    # every core, temporaries would multiply the peak memory.  Each step
    # gives the bits of r² + m² + 2·r·m·cos ψ and of
    # P·g·F·(d² + h²)^(-α/2) evaluated left to right (doubling, negation
    # and halving are exact; multiplication commutes).
    if device_offset:
        member = params.cluster_radius * np.sqrt(rng.random(n))
        psi = rng.uniform(0.0, 2.0 * math.pi, n)
        dist = parent_radii**2
        dist += member**2
        np.cos(psi, out=psi)
        member *= 2.0
        member *= parent_radii
        member *= psi
        dist += member
        del member, psi
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
    else:
        dist = parent_radii
    is_los = _draw_los(dist, params, rng)
    received = _draw_gains(pattern, n, rng).astype(float, copy=False)
    fading = np.empty(n)
    n_los = int(is_los.sum())
    if n_los:
        fading[is_los] = rng.gamma(params.m_los, 1.0 / params.m_los, n_los)
    if n - n_los:
        fading[~is_los] = rng.gamma(params.m_nlos, 1.0 / params.m_nlos, n - n_los)
    received *= tx_power
    received *= fading
    exponent = np.where(is_los, -params.alpha_los / 2.0, -params.alpha_nlos / 2.0)
    path = np.square(dist, out=fading)
    path += params.height**2
    np.power(path, exponent, out=path)
    received *= path
    return np.bincount(owner, weights=received, minlength=n_owners)


def _parent_radii(
    n_owners: int, params: NetworkParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Interfering-cluster distances for a batch: Poisson counts, uniform disk."""
    window = params.window_radius
    counts = rng.poisson(params.lam * math.pi * window**2, n_owners)
    total = int(counts.sum())
    radii = window * np.sqrt(rng.random(total))
    owner = np.repeat(np.arange(n_owners), counts)
    return radii, owner


def _link_success(
    r: np.ndarray,
    serving_los: np.ndarray,
    radii: np.ndarray,
    owner: np.ndarray,
    params: NetworkParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each device's DL broadcast and UL update clear their thresholds.

    ``r`` and ``serving_los`` are the devices' serving distances and LOS
    classes; ``radii`` and ``owner`` are the interfering cluster centers of
    every device (see :func:`_interferer_field`). Draws the DL field, the
    UL field, then the DL and the UL desired-link fading, in that order.
    """
    n = r.size
    pattern = build_gain_pattern(params)
    alpha = np.where(serving_los, params.alpha_los, params.alpha_nlos)
    m = np.where(serving_los, params.m_los, params.m_nlos)
    path = (r**2 + params.height**2) ** (-alpha / 2.0)
    i_dl = _interferer_field(
        radii, owner, n, params.p_uav, params, pattern, rng,
        device_offset=False,
    )
    i_ul = _interferer_field(
        radii, owner, n, params.p_device, params, pattern, rng,
        device_offset=True,
    )
    fading_dl = rng.standard_gamma(m) / m
    fading_ul = rng.standard_gamma(m) / m
    sinr_dl = params.p_uav * params.g0 * fading_dl * path / (
        i_dl + params.noise_power
    )
    sinr_ul = params.p_device * params.g0 * fading_ul * path / (
        i_ul + params.noise_power
    )
    return sinr_dl > params.tau_dl, sinr_ul > params.tau_ul


def _batches(trials: int, rng: np.random.Generator):
    """(size, stream) of each batch; the last batch may be ragged."""
    streams = rng.spawn((trials + _BATCH - 1) // _BATCH)
    for b, stream in enumerate(streams):
        yield min(_BATCH, trials - b * _BATCH), stream


def _map_batches(fn, trials: int, rng: np.random.Generator) -> list:
    """``fn(n, stream)`` of every batch of :func:`_batches`, in batch order.

    The batches run at the same time on a thread pool, one thread per
    available core.  Each batch draws only from its own stream, spawned
    before any runs, and numpy's generators and ufuncs release the GIL on
    arrays of a batch's size, so the results do not depend on the number
    of threads or on which finishes first.  A batch that raises re-raises
    here.
    """
    from concurrent.futures import ThreadPoolExecutor

    sizes, streams = zip(*_batches(trials, rng))
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on macOS and Windows
        cores = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(sizes), cores)) as pool:
        return list(pool.map(fn, sizes, streams))


def _coverage_batch(
    params: NetworkParams, n_trials: int, rng: np.random.Generator
) -> tuple[int, int, int]:
    """Counts of (joint, dl, ul) successes over one vectorized batch."""
    r = params.cluster_radius * np.sqrt(rng.random(n_trials))
    serving_los = _draw_los(r, params, rng)
    radii, owner = _parent_radii(n_trials, params, rng)
    dl_ok, ul_ok = _link_success(r, serving_los, radii, owner, params, rng)
    return int((dl_ok & ul_ok).sum()), int(dl_ok.sum()), int(ul_ok.sum())


def estimate_coverage(
    params: NetworkParams,
    trials: int,
    rng: np.random.Generator,
) -> CoverageEstimate:
    """Empirical joint/DL/UL success probabilities of the typical device.

    Each trial samples a fresh interference field, places the typical
    device uniformly in its cluster, draws the serving link's LOS class
    once (shared by both directions), and tests both SINR thresholds with
    independent fading and interference per direction.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, not {trials!r}")
    counts = _map_batches(functools.partial(_coverage_batch, params), trials, rng)
    joint, dl, ul = (sum(column) for column in zip(*counts))
    return CoverageEstimate(
        p_joint=joint / trials,
        p_ul=ul / trials,
        p_dl=dl / trials,
        trials=trials,
    )


def laplace_oracle(
    params: NetworkParams,
    direction: Direction,
    s: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Brute-force Laplace transform E[exp(-s I)] of one interference field.

    Returns the sample mean and its 95% half-width. This is the oracle the
    closed-form transforms are validated against.
    """
    direction = Direction(direction)
    if s < 0 or not math.isfinite(s):
        raise ValueError("s must be finite and non-negative")
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, not {trials!r}")
    pattern = build_gain_pattern(params)
    tx_power = params.p_uav if direction is Direction.DL else params.p_device
    offset = direction is Direction.UL

    def batch(n: int, stream: np.random.Generator) -> tuple[float, float]:
        radii, owner = _parent_radii(n, params, stream)
        field = _interferer_field(
            radii, owner, n, tx_power, params, pattern, stream,
            device_offset=offset,
        )
        values = np.exp(-s * field)
        return float(values.sum()), float((values**2).sum())

    total = 0.0
    total_sq = 0.0
    for batch_total, batch_sq in _map_batches(batch, trials, rng):
        total += batch_total
        total_sq += batch_sq
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    half_width = 1.96 * math.sqrt(variance / trials)
    return mean, half_width


def realize_round(
    topology: Topology,
    schedule: np.ndarray,
    params: NetworkParams,
    rng: np.random.Generator,
) -> RoundChannel:
    """Fresh per-device link outcomes for one communication round.

    Each scheduled device occupies its own resource block, so interference,
    antenna alignments, and fading are drawn independently per device; the
    serving LOS class is drawn once per device and shared by both
    directions within the round.
    """
    schedule = np.asarray(schedule)
    if schedule.dtype.kind not in "iu":
        raise ValueError(f"schedule must hold integer device ids, not {schedule.dtype}")
    schedule = schedule.astype(int, copy=False)
    n = schedule.size
    n_devices = topology.serving_distances.size
    if n == 0 or np.any(schedule < 0) or np.any(schedule >= n_devices):
        raise ValueError("schedule must index devices of the typical cluster")
    r = topology.serving_distances[schedule]
    serving_los = _draw_los(r, params, rng)
    interferer_q = np.linalg.norm(topology.uav_positions[1:], axis=1)
    radii = np.tile(interferer_q, n)
    owner = np.repeat(np.arange(n), interferer_q.size)
    dl_ok, ul_ok = _link_success(r, serving_los, radii, owner, params, rng)
    return RoundChannel(
        device_ids=schedule.copy(),
        dl_success=dl_ok,
        ul_success=ul_ok,
    )
