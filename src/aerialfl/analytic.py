"""Closed-form joint uplink/downlink success probabilities.

The joint success probability of a scheduled device mixes, over its serving
link's LOS/NLOS class, the product of a downlink and an uplink factor. Each
factor is a binomial expansion (from the tight exponential bound on the
gamma CCDF) whose terms pair a noise exponential with the Laplace transform
of the aggregate interference, evaluated at positive arguments
s = j*eta_z*tau / (P * G0 * (r^2+h^2)^(-alpha_z/2)) (`laplace_arguments`).

Both transforms are built from one per-interferer kernel
kappa(s, g) = E[exp(-s * P * G * H * (g^2+h^2)^(-alpha/2))], the
LOS/NLOS mix, taken at the interferer's horizontal distance g, of the
gain- and fading-averaged interference term (`_deficit` returns 1 - kappa).
Either transform is L(s) = exp(-2*pi*lambda * integral of
(1 - kappa(s, g)) w(g) dg), one integral of the kernel against a distance
weight that does not depend on s. The downlink interferers are the other
cluster heads, so w(g) = g up to the truncation radius T. On the uplink
the interferer is a device uniform on the disk of the cluster at q, and
swapping the order of integration gives w(g) = integral over q <= T of
f(g|q) q dq with the member density f of `geometry`: by the displacement
theorem that is g itself below T - R, with R the cluster radius, and only
the edge band up to T + R needs a fixed-rule correction (`_member_weight`). The integral has no
closed form; it is evaluated with batched adaptive quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    Direction,
    GainPattern,
    LinkType,
    build_gain_pattern,
    link_params,
    los_probability,
)
from .geometry import arc_distance_pdf, serving_distance_pdf
from .params import NetworkParams, is_integer, require_integers, require_reals
from .quadrature import integrate_batch

__all__ = [
    "TRUNCATION_SCALE",
    "QuadratureSpec",
    "SuccessProfile",
    "eta",
    "laplace_dl",
    "laplace_ul",
    "cluster_average_success",
    "laplace_arguments",
    "success_profiles",
]

# Default truncation of the semi-infinite interference integrals, in units
# of 1/sqrt(pi*lambda) (the mean UAV spacing scale). With alpha_los barely
# above 2 and a floor on the LOS probability, the radial integrands have a
# heavy q^(1-alpha_los) tail, so this cut is a genuine modeling choice, not
# a numerical convenience: it was calibrated against reference coverage
# curves, and the Monte-Carlo window default matches it so both estimators
# see the same interference field.
TRUNCATION_SCALE = 10.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the coverage integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    truncation_radius: float | None = None
    max_subdivisions: int = 512

    def __post_init__(self):
        require_integers(self, "max_subdivisions")
        require_reals(self, "rel_tol", "abs_tol")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.truncation_radius is not None:
            require_reals(self, "truncation_radius")
            if self.truncation_radius <= 0:
                raise ValueError("truncation radius must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")

    def resolve_truncation(self, params: NetworkParams) -> float:
        radius = self.truncation_radius
        if radius is None:
            radius = TRUNCATION_SCALE / math.sqrt(math.pi * params.lam)
        if radius <= params.cluster_radius:
            raise ValueError("truncation radius must exceed the cluster radius")
        return radius


def eta(m: int) -> float:
    """Coefficient m*(m!)^(-1/m) of the exponential gamma-CCDF bound."""
    if not is_integer(m) or m < 1:
        raise ValueError("m must be a positive integer")
    return m * math.factorial(m) ** (-1.0 / m)


def _gain_mix(x: np.ndarray, m: np.ndarray, pattern: GainPattern) -> np.ndarray:
    """E_G[(1 + x*G)^(-m)] over the four-level gain distribution, per node."""
    base = 1.0 + x[:, None] * pattern.gains[None, :]
    return (base ** (-m[:, None])) @ pattern.probs


def _deficit(s, d, power: float, params: NetworkParams, pattern: GainPattern):
    """1 - kappa: the deficit of the per-interferer Laplace kernel.

    kappa is E_G,H[exp(-s*P*G*H*(d^2+h^2)^(-alpha/2))] for one interferer at
    horizontal distance ``d`` transmitting with ``power``, its LOS/NLOS
    class mixed with the LOS probability at ``d``. ``s`` and ``d`` are
    matching per-node arrays. Working with the deficit rather than kappa
    keeps full relative precision where kappa is close to 1, which is where
    the outer interference integrals live.
    """
    h_sq = params.height**2

    def class_deficit(alpha, m):
        x = s * power * (d * d + h_sq) ** (-alpha / 2.0) / m
        return 1.0 - _gain_mix(x, np.broadcast_to(m, d.shape), pattern)

    p_l = los_probability(d, params.height, params.env_a, params.env_b)
    return p_l * class_deficit(
        params.alpha_los, float(params.m_los)
    ) + (1.0 - p_l) * class_deficit(params.alpha_nlos, float(params.m_nlos))


#: Gauss-Legendre rule of the edge-band correction in `_member_weight`.
_EDGE_NODES, _EDGE_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _member_weight(g: np.ndarray, radius: float, trunc: float) -> np.ndarray:
    """Distance weight w(g) of the uplink interferers.

    w(g) = integral over q in [0, T] of f(g|q) q dq, where f(g|q) is the
    density of the distance g of a device uniform on the disk of radius R
    about a head at q, and T is the truncation radius of the heads. Over
    all q the integral is g (the displaced heads are again a PPP of the
    same density), and a head beyond T reaches only g > T - R, so
    w(g) = g - integral over q in [T, g + R] of arc(g|q) q dq, which is g
    itself on [0, T - R] and falls to 0 at T + R. The correction uses a
    sin^2 substitution that removes the square-root behavior of the arccos
    factor at the ends of its support. The adaptive outer rule revisits
    the same band nodes for every argument and piece, so the correction
    runs once per distinct node and is scattered back.
    """
    out = g.copy()
    band = g > trunc - radius
    nodes, where = np.unique(g[band], return_inverse=True)
    gb = nodes[:, None]
    span = gb + radius - trunc
    theta = 0.25 * math.pi * (_EDGE_NODES + 1.0)
    q = trunc + span * np.sin(theta) ** 2
    jacobian = span * np.sin(2.0 * theta)
    lost = (arc_distance_pdf(gb, q, radius) * q * jacobian) @ _EDGE_WEIGHTS
    out[band] -= 0.25 * math.pi * lost[where]
    return out


def _spatial_transform(s, power, weight, breaks, params, quad):
    """exp(-2*pi*lambda * integral of (1 - kappa(s, g)) weight(g) dg).

    The interferers transmit with ``power`` and their horizontal distance g
    carries ``weight(g)``. The integral runs over the pieces between
    consecutive ``breaks``, laid out piece-major (integral ``i*n + k`` is
    piece ``i`` of argument ``k``). Accepts a scalar or a 1-D array of
    arguments.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_arr.ndim != 1:
        raise ValueError("Laplace arguments must be scalar or 1-D")
    if np.any(s_arr < 0) or not np.all(np.isfinite(s_arr)):
        raise ValueError("Laplace arguments must be finite and non-negative")
    pattern = build_gain_pattern(params)
    n = s_arr.size
    s_own = np.tile(s_arr, len(breaks) - 1)

    def integrand(g, own):
        return _deficit(s_own[own], g, power, params, pattern) * weight(g)

    vals = integrate_batch(
        integrand,
        np.repeat(breaks[:-1], n),
        np.repeat(breaks[1:], n),
        rel_tol=quad.rel_tol,
        # The integral enters the exponent scaled by 2*pi*lam, so absolute
        # accuracy on the transform needs only abs_tol / (2*pi*lam) here.
        abs_tol=quad.abs_tol / (2.0 * math.pi * params.lam),
        max_subdivisions=quad.max_subdivisions,
    )
    out = np.exp(-2.0 * math.pi * params.lam * vals.reshape(-1, n).sum(axis=0))
    return float(out[0]) if np.ndim(s) == 0 else out


def laplace_dl(s, params: NetworkParams, quad: QuadratureSpec | None = None):
    """Laplace transform of the downlink interference, E[exp(-s*I_DL)].

    Interferers are the other cluster heads (a PPP of density lambda seen
    from the typical cluster's head at the origin), each contributing the
    kernel at its own distance, out to the spec's truncation radius.
    """
    quad = quad or QuadratureSpec()
    trunc = quad.resolve_truncation(params)
    return _spatial_transform(s, params.p_uav, lambda q: q, [0.0, trunc], params, quad)


def laplace_ul(s, params: NetworkParams, quad: QuadratureSpec | None = None):
    """Laplace transform of the inter-cluster uplink interference.

    One device per interfering cluster transmits (the scheduling scheme
    leaves a single active device per resource block), uniform on the disk
    of a head within the truncation radius, with the LOS/NLOS mix taken at
    the device's own distance: the exact law, which the Monte-Carlo field
    matches. The integral splits where the weight `_member_weight` leaves
    its linear part.
    """
    quad = quad or QuadratureSpec()
    trunc = quad.resolve_truncation(params)
    radius = params.cluster_radius
    return _spatial_transform(
        s,
        params.p_device,
        lambda g: _member_weight(g, radius, trunc),
        [0.0, trunc - radius, trunc + radius],
        params,
        quad,
    )


@dataclass(frozen=True)
class SuccessProfile:
    """Joint, downlink and uplink success probabilities.

    `success_profiles` holds one array entry per serving distance, and
    `cluster_average_success` holds floats averaged over the cluster.
    """

    j_joint: np.ndarray | float
    j_dl: np.ndarray | float
    j_ul: np.ndarray | float


def laplace_arguments(
    params: NetworkParams, r_k, direction: Direction | str, link: LinkType
) -> np.ndarray:
    """Arguments s_j = j*eta_z*tau*(r^2+h^2)^(alpha_z/2)/(P*G0), j=1..m_z.

    These are the points at which the binomial expansion of the success
    factor evaluates the interference Laplace transform; the closed form
    and the validation harness both take them from here. ``direction`` is
    a `Direction` or its value. A scalar ``r_k`` gives shape (m_z,), an
    array of n distances shape (m_z, n).
    """
    try:
        direction = Direction(direction)
    except ValueError:
        raise ValueError("direction must be 'dl' or 'ul'") from None
    if direction is Direction.DL:
        tau, power = params.tau_dl, params.p_uav
    else:
        tau, power = params.tau_ul, params.p_device
    alpha, m = link_params(params, link)
    path_loss = (r_k**2 + params.height**2) ** (alpha / 2.0)
    base = eta(m) * tau * path_loss / (power * params.g0)
    return np.multiply.outer(np.arange(1, m + 1), base)


def _success_factors(
    r_arr: np.ndarray,
    params: NetworkParams,
    quad: QuadratureSpec,
    direction: Direction | str,
) -> dict[LinkType, np.ndarray]:
    """Binomial-sum success factor of one link direction, per serving class.

    F_z(r) = sum_j C(m_z, j) (-1)^(j+1) exp(-s_j n0^2) L(s_j) with the
    arguments s_j of `laplace_arguments`.
    """
    direction = Direction(direction)
    transform = laplace_dl if direction is Direction.DL else laplace_ul
    out: dict[LinkType, np.ndarray] = {}
    for z in (LinkType.LOS, LinkType.NLOS):
        s_all = laplace_arguments(params, r_arr, direction, z)
        m = s_all.shape[0]
        lap = transform(s_all.ravel(), params, quad).reshape(s_all.shape)
        factor = np.zeros(r_arr.size)
        for j in range(1, m + 1):
            term = (
                math.comb(m, j)
                * (-1.0) ** (j + 1)
                * np.exp(-s_all[j - 1] * params.noise_power)
                * lap[j - 1]
            )
            factor = factor + term
        out[z] = np.clip(factor, 0.0, 1.0)
    return out


def _mixed_success(
    r_arr: np.ndarray, params: NetworkParams, quad: QuadratureSpec
) -> SuccessProfile:
    """Mixed success arrays at each serving distance.

    The per-class joint factors are DL x UL products, and the joint and
    per-link values mix the classes with the serving link's LOS probability.
    """
    f_dl = _success_factors(r_arr, params, quad, Direction.DL)
    f_ul = _success_factors(r_arr, params, quad, Direction.UL)
    p_los = np.atleast_1d(
        los_probability(r_arr, params.height, params.env_a, params.env_b)
    )
    j_los = f_dl[LinkType.LOS] * f_ul[LinkType.LOS]
    j_nlos = f_dl[LinkType.NLOS] * f_ul[LinkType.NLOS]
    return SuccessProfile(
        j_joint=p_los * j_los + (1.0 - p_los) * j_nlos,
        j_dl=p_los * f_dl[LinkType.LOS] + (1.0 - p_los) * f_dl[LinkType.NLOS],
        j_ul=p_los * f_ul[LinkType.LOS] + (1.0 - p_los) * f_ul[LinkType.NLOS],
    )


def success_profiles(
    r_values, params: NetworkParams, quad: QuadratureSpec | None = None
) -> SuccessProfile:
    """Joint DL/UL success arrays at several serving distances at once.

    All Laplace evaluations across distances and binomial terms share one
    batched quadrature run, so profiling a whole cluster costs little more
    than profiling one device.
    """
    quad = quad or QuadratureSpec()
    r_arr = np.asarray(r_values, dtype=float)
    if r_arr.ndim != 1 or r_arr.size == 0:
        raise ValueError("expected a non-empty 1-D array of serving distances")
    if np.any(r_arr < 0) or np.any(r_arr > params.cluster_radius) or not np.all(
        np.isfinite(r_arr)
    ):
        raise ValueError("serving distances must lie in [0, cluster_radius]")
    return _mixed_success(r_arr, params, quad)


#: Gauss-Legendre nodes in r of `cluster_average_success`.
_SERVING_NODES = 32


def cluster_average_success(
    params: NetworkParams, quad: QuadratureSpec | None = None
) -> SuccessProfile:
    """Success probabilities averaged over the serving-distance density.

    Uses fixed Gauss-Legendre nodes in r against the in-cluster density
    2r/R^2; all Laplace evaluations across nodes and binomial terms are
    batched into single adaptive-quadrature runs.
    """
    quad = quad or QuadratureSpec()
    radius = params.cluster_radius
    x, w = np.polynomial.legendre.leggauss(_SERVING_NODES)
    r_arr = 0.5 * radius * (x + 1.0)
    weights = 0.5 * radius * w * serving_distance_pdf(r_arr, radius)
    mixed = _mixed_success(r_arr, params, quad)
    clip = lambda v: float(np.clip(weights @ v, 0.0, 1.0))
    return SuccessProfile(
        j_joint=clip(mixed.j_joint), j_dl=clip(mixed.j_dl), j_ul=clip(mixed.j_ul)
    )
