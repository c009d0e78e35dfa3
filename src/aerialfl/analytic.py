"""Closed-form joint uplink/downlink success probabilities.

The joint success probability of a scheduled device mixes, over its serving
link's LOS/NLOS class, the product of a downlink and an uplink factor. Each
factor is a binomial expansion (from the tight exponential bound on the
gamma CCDF) whose terms pair a noise exponential with the Laplace transform
of the aggregate interference, evaluated at positive arguments
s = j*eta_z*tau / (P * G0 * (r^2+h^2)^(-alpha_z/2)) (`laplace_arguments`).

Both transforms are built from one per-interferer kernel
kappa(s, d) = E[exp(-s * P * G * H * (d^2+h^2)^(-alpha/2))], the
LOS/NLOS mix, taken at the interferer's horizontal distance d, of the
gain- and fading-averaged interference term (`_deficit` returns 1 - kappa).
The downlink interferers are the other cluster heads, so the kernel is
evaluated at each head's own distance q; on the uplink the interferer is a
device of the cluster at q, so the kernel is averaged over that member's
position with the densities of `geometry`. Either way
L(s) = exp(-2*pi*lambda * integral of (1 - kappa) q dq), a nested integral
with no closed form, evaluated here with batched adaptive quadrature and
truncated at a configurable radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainPattern, LinkType, build_gain_pattern, link_params, los_probability
from .geometry import arc_distance_pdf, serving_distance_pdf
from .params import NetworkParams
from .quadrature import integrate_batch

__all__ = [
    "TRUNCATION_SCALE",
    "QuadratureSpec",
    "SuccessProfile",
    "AverageSuccess",
    "eta",
    "laplace_dl",
    "laplace_ul",
    "joint_success_probability",
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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
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

    def inner(self) -> "QuadratureSpec":
        """Tighter spec for inner integrals so their noise stays below the
        outer rule's error estimate."""
        return QuadratureSpec(
            rel_tol=max(self.rel_tol * 1e-2, 1e-13),
            abs_tol=max(self.abs_tol * 1e-2, 1e-15),
            truncation_radius=self.truncation_radius,
            max_subdivisions=self.max_subdivisions,
        )


def eta(m: int) -> float:
    """Coefficient m*(m!)^(-1/m) of the exponential gamma-CCDF bound."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    return m * math.factorial(m) ** (-1.0 / m)


def _as_argument_array(s):
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_arr.ndim != 1:
        raise ValueError("Laplace arguments must be scalar or 1-D")
    if np.any(s_arr < 0) or not np.all(np.isfinite(s_arr)):
        raise ValueError("Laplace arguments must be finite and non-negative")
    return s_arr, np.isscalar(s) or np.ndim(s) == 0


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


def _member_deficit(
    s: np.ndarray,
    q: np.ndarray,
    params: NetworkParams,
    pattern: GainPattern,
    quad: QuadratureSpec,
) -> np.ndarray:
    """1 - kappa averaged over the transmitting member of a cluster at q.

    The member is uniform on the cluster disk, so its distance g from the
    origin has the conditional density of `geometry`: an arc piece on
    |R - q| <= g <= R + q plus, when q < R, the in-disk piece 2g/R^2 on
    g < R - q. The arc piece uses a sin^2 substitution that removes the
    square-root endpoint behavior of the arccos factor.
    """
    radius = params.cluster_radius
    lo = np.abs(q - radius)
    span = q + radius - lo
    inner_quad = quad.inner()

    def arc_integrand(theta, own):
        g = lo[own] + span[own] * np.sin(theta) ** 2
        jacobian = span[own] * np.sin(2.0 * theta)
        density = arc_distance_pdf(g, q[own], radius)
        return _deficit(s[own], g, params.p_device, params, pattern) * density * jacobian

    def disk_integrand(g, own):
        density = serving_distance_pdf(g, radius)
        return _deficit(s[own], g, params.p_device, params, pattern) * density

    def integrate(integrand, upper):
        return integrate_batch(
            integrand,
            np.zeros(q.size),
            upper,
            rel_tol=inner_quad.rel_tol,
            abs_tol=inner_quad.abs_tol,
            max_subdivisions=inner_quad.max_subdivisions,
        )

    # At q = 0 the arc support is empty (span == 0 flags it as a zero
    # integral) and the disk piece alone carries the normalization; for
    # q >= R the disk piece is empty instead.
    arc = integrate(arc_integrand, np.where(span > 0, math.pi / 2.0, 0.0))
    return arc + integrate(disk_integrand, radius - q)


def _spatial_transform(integrand, lower, upper, n, params, quad):
    """exp(-2*pi*lambda * sum of the integrals of ``integrand``) per argument.

    The integrals are laid out piece-major: integral ``i*n + k`` is piece
    ``i`` of argument ``k``.
    """
    vals = integrate_batch(
        integrand,
        lower,
        upper,
        rel_tol=quad.rel_tol,
        # The integral enters the exponent scaled by 2*pi*lam, so absolute
        # accuracy on the transform needs only abs_tol / (2*pi*lam) here.
        abs_tol=quad.abs_tol / (2.0 * math.pi * params.lam),
        max_subdivisions=quad.max_subdivisions,
    )
    return np.exp(-2.0 * math.pi * params.lam * vals.reshape(-1, n).sum(axis=0))


def laplace_dl(s, params: NetworkParams, quad: QuadratureSpec | None = None):
    """Laplace transform of the downlink interference, E[exp(-s*I_DL)].

    Interferers are the other cluster heads (a PPP of density lambda seen
    from the typical cluster's head at the origin), each contributing the
    kernel at its own distance. Accepts a scalar or a 1-D array of
    arguments; the radial integral is truncated at the spec's truncation
    radius.
    """
    quad = quad or QuadratureSpec()
    s_arr, scalar = _as_argument_array(s)
    trunc = quad.resolve_truncation(params)
    pattern = build_gain_pattern(params)
    n = s_arr.size

    def integrand(q, own):
        return _deficit(s_arr[own], q, params.p_uav, params, pattern) * q

    out = _spatial_transform(integrand, np.zeros(n), np.full(n, trunc), n, params, quad)
    return float(out[0]) if scalar else out


def laplace_ul(s, params: NetworkParams, quad: QuadratureSpec | None = None):
    """Laplace transform of the inter-cluster uplink interference.

    One device per interfering cluster transmits (the scheduling scheme
    leaves a single active device per resource block), so each cluster
    contributes the kernel averaged over its member's position, with the
    LOS/NLOS mix taken at the member's own distance: the exact law, which
    the Monte-Carlo field matches. The radial integral splits at the
    cluster radius, where the member density changes form.
    """
    quad = quad or QuadratureSpec()
    s_arr, scalar = _as_argument_array(s)
    trunc = quad.resolve_truncation(params)
    pattern = build_gain_pattern(params)
    radius = params.cluster_radius
    n = s_arr.size
    # Owner layout: [overlap x s, far x s].
    s_own = np.tile(s_arr, 2)
    lower = np.repeat([0.0, radius], n)
    upper = np.repeat([radius, trunc], n)

    def integrand(q, own):
        return _member_deficit(s_own[own], q, params, pattern, quad) * q

    out = _spatial_transform(integrand, lower, upper, n, params, quad)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SuccessProfile:
    """Joint and per-link success probabilities at one serving distance."""

    r_k: float
    j_joint: float
    j_los: float
    j_nlos: float
    j_dl: float
    j_ul: float
    p_los: float
    q_k: float

    def __post_init__(self):
        probs = (
            self.j_joint,
            self.j_los,
            self.j_nlos,
            self.j_dl,
            self.j_ul,
            self.p_los,
            self.q_k,
        )
        if any(p < -1e-12 or p > 1.0 + 1e-12 for p in probs):
            raise ValueError("success probabilities must lie in [0, 1]")
        mix = self.p_los * self.j_los + (1.0 - self.p_los) * self.j_nlos
        if abs(mix - self.j_joint) > 1e-12:
            raise ValueError("joint probability must mix the LOS/NLOS factors")


@dataclass(frozen=True)
class AverageSuccess:
    """Success probabilities averaged over the serving-distance density."""

    j_joint: float
    j_los: float
    j_nlos: float
    j_dl: float
    j_ul: float

    def __post_init__(self):
        probs = (self.j_joint, self.j_los, self.j_nlos, self.j_dl, self.j_ul)
        if any(p < -1e-9 or p > 1.0 + 1e-9 for p in probs):
            raise ValueError("averaged probabilities must lie in [0, 1]")
        if self.j_joint > min(self.j_dl, self.j_ul) + 1e-9:
            raise ValueError("joint success cannot exceed either marginal")


def laplace_arguments(
    params: NetworkParams, r_k, direction: str, link: LinkType
) -> np.ndarray:
    """Arguments s_j = j*eta_z*tau*(r^2+h^2)^(alpha_z/2)/(P*G0), j=1..m_z.

    These are the points at which the binomial expansion of the success
    factor evaluates the interference Laplace transform; the closed form
    and the validation harness both take them from here. A scalar ``r_k``
    gives shape (m_z,), an array of n distances shape (m_z, n).
    """
    if direction == "dl":
        tau, power = params.tau_dl, params.p_uav
    elif direction == "ul":
        tau, power = params.tau_ul, params.p_device
    else:
        raise ValueError("direction must be 'dl' or 'ul'")
    alpha, m = link_params(params, link)
    path_loss = (r_k**2 + params.height**2) ** (alpha / 2.0)
    base = eta(m) * tau * path_loss / (power * params.g0)
    return np.multiply.outer(np.arange(1, m + 1), base)


def _success_factors(
    r_arr: np.ndarray,
    params: NetworkParams,
    quad: QuadratureSpec,
    direction: str,
) -> dict[LinkType, np.ndarray]:
    """Binomial-sum success factor of one link direction, per serving class.

    F_z(r) = sum_j C(m_z, j) (-1)^(j+1) exp(-s_j n0^2) L(s_j) with the
    arguments s_j of `laplace_arguments`.
    """
    transform = laplace_dl if direction == "dl" else laplace_ul
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


def _mixed_success(r_arr: np.ndarray, params: NetworkParams, quad: QuadratureSpec):
    """LOS probability and the mixed success arrays at each serving distance.

    Returns (p_los, j_joint, j_los, j_nlos, j_dl, j_ul): the per-class joint
    factors are DL x UL products, and the joint and per-link values mix the
    classes with the serving link's LOS probability.
    """
    f_dl = _success_factors(r_arr, params, quad, "dl")
    f_ul = _success_factors(r_arr, params, quad, "ul")
    p_los = np.atleast_1d(
        los_probability(r_arr, params.height, params.env_a, params.env_b)
    )
    j_los = f_dl[LinkType.LOS] * f_ul[LinkType.LOS]
    j_nlos = f_dl[LinkType.NLOS] * f_ul[LinkType.NLOS]
    j_joint = p_los * j_los + (1.0 - p_los) * j_nlos
    j_dl = p_los * f_dl[LinkType.LOS] + (1.0 - p_los) * f_dl[LinkType.NLOS]
    j_ul = p_los * f_ul[LinkType.LOS] + (1.0 - p_los) * f_ul[LinkType.NLOS]
    return p_los, j_joint, j_los, j_nlos, j_dl, j_ul


def success_profiles(
    r_values, params: NetworkParams, quad: QuadratureSpec | None = None
) -> list[SuccessProfile]:
    """Joint DL/UL success profiles at several serving distances at once.

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
    p_los, j_joint, j_los, j_nlos, j_dl, j_ul = _mixed_success(r_arr, params, quad)
    q_k = params.scheduling_probability
    return [
        SuccessProfile(
            r_k=float(r_arr[i]),
            j_joint=float(j_joint[i]),
            j_los=float(j_los[i]),
            j_nlos=float(j_nlos[i]),
            j_dl=float(j_dl[i]),
            j_ul=float(j_ul[i]),
            p_los=float(p_los[i]),
            q_k=q_k,
        )
        for i in range(r_arr.size)
    ]


def joint_success_probability(
    r_k: float, params: NetworkParams, quad: QuadratureSpec | None = None
) -> SuccessProfile:
    """Joint DL/UL success probability of a device served at distance r_k."""
    if not isinstance(r_k, (int, float)) or not math.isfinite(r_k):
        raise ValueError("serving distance must be a finite scalar")
    return success_profiles(np.array([float(r_k)]), params, quad)[0]


def cluster_average_success(
    params: NetworkParams,
    quad: QuadratureSpec | None = None,
    *,
    n_nodes: int = 32,
) -> AverageSuccess:
    """Success probabilities averaged over the serving-distance density.

    Uses fixed Gauss-Legendre nodes in r against the in-cluster density
    2r/R^2; all Laplace evaluations across nodes and binomial terms are
    batched into single adaptive-quadrature runs.
    """
    quad = quad or QuadratureSpec()
    if n_nodes < 2:
        raise ValueError("need at least two averaging nodes")
    radius = params.cluster_radius
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    r_arr = 0.5 * radius * (x + 1.0)
    weights = 0.5 * radius * w * serving_distance_pdf(r_arr, radius)
    _, j_joint, j_los, j_nlos, j_dl, j_ul = _mixed_success(r_arr, params, quad)
    clip = lambda v: float(np.clip(weights @ v, 0.0, 1.0))
    return AverageSuccess(
        j_joint=clip(j_joint),
        j_los=clip(j_los),
        j_nlos=clip(j_nlos),
        j_dl=clip(j_dl),
        j_ul=clip(j_ul),
    )
