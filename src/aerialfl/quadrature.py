"""Vectorized adaptive Gauss-Kronrod quadrature.

The coverage integrals require many 1-D integrals that differ only in a
parameter (the Laplace argument, the interferer distance, the link class).
`integrate_batch` runs one adaptive subdivision loop over all of them at
once, so the integrand is always evaluated on a single flat array of nodes.
"""
from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate_batch"]


class QuadratureError(RuntimeError):
    """An integral failed to converge within the subdivision budget."""


# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WEIGHTS_K = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss-7 weights aligned with the Kronrod node ordering (zeros at
# Kronrod-only nodes).
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1::2] = [
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
]


def _panel_estimates(f, lo, hi, owner):
    """Kronrod estimate and error for a batch of panels in one call to f.

    The error estimate follows the classic damping recipe: the raw
    Gauss-Kronrod difference is scaled against the panel's total variation
    so that smooth panels are not charged for floating-point noise.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(f(x, np.repeat(owner, _NODES.size)), dtype=float)
    y = y.reshape(-1, _NODES.size)
    if not np.all(np.isfinite(y)):
        raise QuadratureError("integrand returned non-finite values")
    val_k = half * (y @ _WEIGHTS_K)
    val_g = half * (y @ _WEIGHTS_G)
    raw = np.abs(val_k - val_g)
    mean = val_k / np.where(half > 0, 2.0 * half, 1.0)
    resasc = half * (np.abs(y - mean[:, None]) @ _WEIGHTS_K)
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            raw,
        )
    return val_k, damped


def integrate_batch(
    f,
    lower,
    upper,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 512,
) -> np.ndarray:
    """Integrate ``f`` over ``[lower[i], upper[i]]`` for every i at once.

    ``f(x, owner)`` must be vectorized: ``x`` is a flat array of nodes and
    ``owner`` the index of the integral each node belongs to. Panels are
    bisected adaptively until each integral's accumulated error estimate
    drops below ``max(abs_tol, rel_tol * |integral|)``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("integration limits must be finite")
    if rel_tol <= 0 or abs_tol <= 0 or max_subdivisions < 1:
        raise ValueError("tolerances must be positive and max_subdivisions >= 1")
    n = lower.size
    if n == 0:
        return np.zeros(0)

    live = upper > lower  # empty/degenerate intervals integrate to zero
    own = np.flatnonzero(live)
    lo, hi = lower[own], upper[own]
    val, err = _panel_estimates(f, lo, hi, own)

    while True:
        totals = np.bincount(own, weights=val, minlength=n)
        errors = np.bincount(own, weights=err, minlength=n)
        tol = np.maximum(abs_tol, rel_tol * np.abs(totals))
        active = errors > tol
        if not active.any():
            return totals
        counts = np.bincount(own, minlength=n)
        if np.any(counts[active] >= max_subdivisions):
            worst = int(np.argmax(np.where(active, errors / tol, 0.0)))
            raise QuadratureError(
                f"integral {worst} did not converge within {max_subdivisions} "
                f"panels (error estimate {errors[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        # Split every panel holding more than its share of its owner's
        # budget; the worst panel of each active owner always qualifies.
        share = tol[own] / (2.0 * counts[own])
        split = active[own] & (err > share)
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_own = np.concatenate([own[split], own[split]])
        new_val, new_err = _panel_estimates(f, new_lo, new_hi, new_own)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        own = np.concatenate([own[keep], new_own])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])

