"""Closed-form joint uplink/downlink success probabilities.

The joint success probability of a scheduled device mixes, over its serving
link's LOS/NLOS class, the product of a downlink and an uplink factor. Each
factor is a binomial expansion (from the tight exponential bound on the
gamma CCDF) whose terms pair a noise exponential with the Laplace transform
of the aggregate interference, evaluated at positive arguments
s = j*eta_z*tau / (P * G0 * (r^2+h^2)^(-alpha_z/2)).

The Laplace transforms are nested integrals over interferer geometry with
no closed form; they are evaluated here with batched adaptive quadrature,
truncating the semi-infinite radial integrals at a configurable radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainPattern, LinkType, build_gain_pattern, link_params, los_probability
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
    "o_e_inner",
    "joint_success_probability",
    "cluster_average_success",
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


def _class_arrays(params: NetworkParams, n: int):
    """Per-owner alpha, m, and LOS flags for the [s x LOS, s x NLOS] layout."""
    alpha = np.concatenate(
        [np.full(n, params.alpha_los), np.full(n, params.alpha_nlos)]
    )
    m = np.concatenate(
        [np.full(n, float(params.m_los)), np.full(n, float(params.m_nlos))]
    )
    is_los = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
    return alpha, m, is_los


def laplace_dl(s, params: NetworkParams, quad: QuadratureSpec | None = None):
    """Laplace transform of the downlink interference, E[exp(-s*I_DL)].

    Interferers are the other cluster heads (a PPP of density lambda seen
    from the typical cluster's head at the origin), independently thinned
    into LOS/NLOS classes at their own distances. Accepts a scalar or a 1-D
    array of arguments; the radial integral is truncated at the spec's
    truncation radius.
    """
    quad = quad or QuadratureSpec()
    s_arr, scalar = _as_argument_array(s)
    trunc = quad.resolve_truncation(params)
    pattern = build_gain_pattern(params)
    n = s_arr.size
    s_own = np.concatenate([s_arr, s_arr])
    alpha_own, m_own, los_own = _class_arrays(params, n)
    h_sq = params.height**2

    def integrand(q, own):
        x = (
            s_own[own]
            * params.p_uav
            * (q * q + h_sq) ** (-alpha_own[own] / 2.0)
            / m_own[own]
        )
        mix = _gain_mix(x, m_own[own], pattern)
        p_l = los_probability(q, params.height, params.env_a, params.env_b)
        weight = np.where(los_own[own], p_l, 1.0 - p_l)
        return (1.0 - mix) * q * weight

    vals = integrate_batch(
        integrand,
        np.zeros(2 * n),
        np.full(2 * n, trunc),
        rel_tol=quad.rel_tol,
        # The integral enters the exponent scaled by 2*pi*lam, so absolute
        # accuracy on the transform needs only abs_tol / (2*pi*lam) here.
        abs_tol=quad.abs_tol / (2.0 * math.pi * params.lam),
        max_subdivisions=quad.max_subdivisions,
    )
    out = np.exp(-2.0 * math.pi * params.lam * (vals[:n] + vals[n:]))
    return float(out[0]) if scalar else out


def _o_e_deficit_nodes(
    s_nodes: np.ndarray,
    q_nodes: np.ndarray,
    alpha_nodes: np.ndarray | None,
    m_nodes: np.ndarray | None,
    params: NetworkParams,
    pattern: GainPattern,
    quad: QuadratureSpec,
    *,
    member_class_mix: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Deficits 1 - O_e of the single-cluster kernel, by density piece.

    For each node (a cluster-center distance q with its own Laplace argument
    and link class) integrates 1 minus the gain-mixed SINR kernel against
    the conditional distance density of a uniformly placed cluster member.
    Integrating the deficit rather than the kernel keeps full relative
    precision where O_e is close to 1, which is exactly where the outer
    interference integrals live. Returns (arc piece, in-disk piece); their
    sum is 1 - O_e over the full support.

    With ``member_class_mix`` the per-node link class is ignored and the
    kernel mixes LOS/NLOS at the member's own distance g, which is the
    exact law of an interfering device's channel.

    The arc piece uses a sin^2 substitution that removes the square-root
    endpoint behavior of the arccos factor.
    """
    radius = params.cluster_radius
    h_sq = params.height**2
    n = q_nodes.size
    lo = np.abs(q_nodes - radius)
    hi = q_nodes + radius
    span = hi - lo
    inner_quad = quad.inner()

    def class_deficit(g, own, alpha, m):
        x = (
            s_nodes[own]
            * params.p_device
            * (g * g + h_sq) ** (-alpha / 2.0)
            / m
        )
        return 1.0 - _gain_mix(x, np.broadcast_to(m, g.shape), pattern)

    if member_class_mix:

        def deficit_kernel(g, own):
            p_l = los_probability(g, params.height, params.env_a, params.env_b)
            return p_l * class_deficit(
                g, own, params.alpha_los, float(params.m_los)
            ) + (1.0 - p_l) * class_deficit(
                g, own, params.alpha_nlos, float(params.m_nlos)
            )

    else:

        def deficit_kernel(g, own):
            return class_deficit(g, own, alpha_nodes[own], m_nodes[own])

    def arc_integrand(theta, own):
        sin_theta = np.sin(theta)
        g = lo[own] + span[own] * sin_theta**2
        jacobian = span[own] * np.sin(2.0 * theta)
        # Quadrature nodes can land within floating error of the support
        # endpoints, so clip rather than reject here.
        ratio = (g * g + q_nodes[own] ** 2 - radius**2) / (2.0 * g * q_nodes[own])
        density = (2.0 * g / (math.pi * radius**2)) * np.arccos(
            np.clip(ratio, -1.0, 1.0)
        )
        return deficit_kernel(g, own) * density * jacobian

    # At q = 0 the arc support is empty (span == 0 flags it as a zero
    # integral) and the disk piece alone carries the normalization.
    arc = integrate_batch(
        arc_integrand,
        np.zeros(n),
        np.where(span > 0, math.pi / 2.0, 0.0),
        rel_tol=inner_quad.rel_tol,
        abs_tol=inner_quad.abs_tol,
        max_subdivisions=inner_quad.max_subdivisions,
    )

    def disk_integrand(g, own):
        return deficit_kernel(g, own) * 2.0 * g / radius**2

    disk = integrate_batch(
        disk_integrand,
        np.zeros(n),
        radius - q_nodes,
        rel_tol=inner_quad.rel_tol,
        abs_tol=inner_quad.abs_tol,
        max_subdivisions=inner_quad.max_subdivisions,
    )
    return arc, disk


def o_e_inner(
    s: float,
    q,
    region: str,
    z: LinkType,
    params: NetworkParams,
    quad: QuadratureSpec | None = None,
):
    """Single-cluster interference kernel O_e for one link class.

    ``region="overlap"`` (q <= R) includes the in-disk piece of the
    conditional distance density; ``region="faraway"`` integrates only the
    arc piece, which is the whole support once q >= R.
    """
    quad = quad or QuadratureSpec()
    if s < 0 or not math.isfinite(s):
        raise ValueError("s must be finite and non-negative")
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    scalar = np.ndim(q) == 0
    if np.any(q_arr < 0):
        raise ValueError("q must be non-negative")
    if region not in ("overlap", "faraway"):
        raise ValueError("region must be 'overlap' or 'faraway'")
    if region == "overlap" and np.any(q_arr > params.cluster_radius):
        raise ValueError("overlap region requires q <= cluster radius")
    alpha, m = link_params(params, z)
    pattern = build_gain_pattern(params)
    arc, disk = _o_e_deficit_nodes(
        np.full(q_arr.size, float(s)),
        q_arr,
        np.full(q_arr.size, alpha),
        np.full(q_arr.size, float(m)),
        params,
        pattern,
        quad,
    )
    if region == "overlap":
        out = 1.0 - (arc + disk)
    else:
        # The arc piece alone: its density mass is 1 minus the in-disk
        # mass ((R-q)/R)^2, which is available in closed form.
        radius = params.cluster_radius
        disk_mass = (np.clip(radius - q_arr, 0.0, None) / radius) ** 2
        out = 1.0 - disk_mass - arc
    return float(out[0]) if scalar else out


def laplace_ul(
    s,
    params: NetworkParams,
    quad: QuadratureSpec | None = None,
    *,
    class_weighting: str = "member",
):
    """Laplace transform of the inter-cluster uplink interference.

    One device per interfering cluster transmits (the scheduling scheme
    leaves a single active device per resource block). Each cluster
    contributes through the kernel O_e averaged over its member's position.
    ``class_weighting`` selects where the LOS/NLOS mixture is evaluated:

    - ``"member"`` (default): at the transmitting member's own distance,
      inside the conditional average — the exact law, matching simulation.
    - ``"center"``: at the cluster-center distance q, as a product of
      per-class transforms — the cluster-center approximation.
    - ``"none"``: no mixture weight at all; every cluster counts once per
      class. Kept only to quantify that variant's double-counting bias.
    """
    quad = quad or QuadratureSpec()
    if class_weighting not in ("member", "center", "none"):
        raise ValueError("class_weighting must be 'member', 'center', or 'none'")
    s_arr, scalar = _as_argument_array(s)
    trunc = quad.resolve_truncation(params)
    pattern = build_gain_pattern(params)
    radius = params.cluster_radius
    n = s_arr.size

    if class_weighting == "member":
        # Owner layout: [overlap x s, far x s]; the class mixture lives
        # inside the member average, so there is no per-class factor.
        s_own = np.tile(s_arr, 2)
        disk_own = np.repeat([True, False], n)
        lower = np.where(disk_own, 0.0, radius)
        upper = np.where(disk_own, radius, trunc)

        def integrand(q, own):
            arc, disk = _o_e_deficit_nodes(
                s_own[own], q, None, None, params, pattern, quad,
                member_class_mix=True,
            )
            return (arc + disk) * q

        vals = integrate_batch(
            integrand,
            lower,
            upper,
            rel_tol=quad.rel_tol,
            abs_tol=quad.abs_tol / (2.0 * math.pi * params.lam),
            max_subdivisions=quad.max_subdivisions,
        )
        exponents = vals.reshape(2, n).sum(axis=0)
        out = np.exp(-2.0 * math.pi * params.lam * exponents)
        return float(out[0]) if scalar else out

    # Owner layout: region-major, class-minor: [overlap x (L, N), far x (L, N)].
    s_own = np.tile(s_arr, 4)
    alpha_cls, m_cls, los_cls = _class_arrays(params, n)
    alpha_own = np.tile(alpha_cls, 2)
    m_own = np.tile(m_cls, 2)
    los_own = np.tile(los_cls, 2)
    disk_own = np.repeat([True, False], 2 * n)
    lower = np.where(disk_own, 0.0, radius)
    upper = np.where(disk_own, radius, trunc)

    def integrand(q, own):
        arc, disk = _o_e_deficit_nodes(
            s_own[own], q, alpha_own[own], m_own[own], params, pattern, quad,
        )
        if class_weighting == "center":
            p_l = los_probability(q, params.height, params.env_a, params.env_b)
            weight = np.where(los_own[own], p_l, 1.0 - p_l)
        else:
            weight = 1.0
        return (arc + disk) * q * weight

    vals = integrate_batch(
        integrand,
        lower,
        upper,
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol / (2.0 * math.pi * params.lam),
        max_subdivisions=quad.max_subdivisions,
    )
    exponents = vals.reshape(2, 2, n).sum(axis=(0, 1))
    out = np.exp(-2.0 * math.pi * params.lam * exponents)
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
    params: NetworkParams, r_k: float, direction: str, link: LinkType
) -> np.ndarray:
    """Arguments s_j = j*eta_z*tau*(r^2+h^2)^(alpha_z/2)/(P*G0), j=1..m_z.

    These are the points at which the binomial expansion of the success
    factor evaluates the interference Laplace transform, exposed so
    validation harnesses can compare the closed form against a Monte-Carlo
    oracle at exactly the arguments that matter.
    """
    if direction == "dl":
        tau, power = params.tau_dl, params.p_uav
    elif direction == "ul":
        tau, power = params.tau_ul, params.p_device
    else:
        raise ValueError("direction must be 'dl' or 'ul'")
    alpha, m = link_params(params, link)
    base = (
        eta(m)
        * tau
        * (r_k**2 + params.height**2) ** (alpha / 2.0)
        / (power * params.g0)
    )
    return base * np.arange(1, m + 1)


def _success_factors(
    r_arr: np.ndarray,
    params: NetworkParams,
    quad: QuadratureSpec,
    direction: str,
) -> dict[LinkType, np.ndarray]:
    """Binomial-sum success factor of one link direction, per serving class.

    F_z(r) = sum_j C(m_z, j) (-1)^(j+1) exp(-s_j n0^2) L(s_j) with
    s_j = j*eta_z*tau*(r^2+h^2)^(alpha_z/2) / (P*G0).
    """
    if direction == "dl":
        tau, power, transform = params.tau_dl, params.p_uav, laplace_dl
    else:
        tau, power, transform = params.tau_ul, params.p_device, laplace_ul
    h_sq = params.height**2
    out: dict[LinkType, np.ndarray] = {}
    for z in (LinkType.LOS, LinkType.NLOS):
        alpha, m = link_params(params, z)
        base = eta(m) * tau * (r_arr**2 + h_sq) ** (alpha / 2.0) / (power * params.g0)
        s_all = np.concatenate([j * base for j in range(1, m + 1)])
        lap = transform(s_all, params, quad)
        lap = lap.reshape(m, r_arr.size)
        s_all = s_all.reshape(m, r_arr.size)
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
    weights = 0.5 * radius * w * (2.0 * r_arr / radius**2)
    _, j_joint, j_los, j_nlos, j_dl, j_ul = _mixed_success(r_arr, params, quad)
    clip = lambda v: float(np.clip(weights @ v, 0.0, 1.0))
    return AverageSuccess(
        j_joint=clip(j_joint),
        j_los=clip(j_los),
        j_nlos=clip(j_nlos),
        j_dl=clip(j_dl),
        j_ul=clip(j_ul),
    )
