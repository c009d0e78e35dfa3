"""Unit tests for point-process sampling and distance densities."""

import numpy as np
import pytest

from aerialfl import NetworkParams, sample_topology
from aerialfl.geometry import (
    arc_distance_pdf,
    sample_cluster,
    sample_ppp,
    serving_distance_pdf,
)

#: Tolerance for clamping the arccos argument at the support boundary of
#: `conditional_distance_pdf`; larger excursions indicate a caller bug.
_ARCCOS_CLAMP = 1e-12


def conditional_distance_pdf(g, q: float, R: float):
    """Density of the distance from the origin to a device of a cluster whose
    head is at distance ``q``, for devices uniform on a disk of radius ``R``.

    Piecewise: the arc-length term `arc_distance_pdf` on
    ``|R - q| <= g <= R + q`` plus, when the origin lies inside the cluster
    disk (``q < R``), the plain uniform-disk term ``2g/R^2`` on
    ``g < R - q``. Accepts scalar or array ``g``. The oracle of the member
    density here and of the uplink distance weight in ``test_analytic``.
    """
    if R <= 0:
        raise ValueError("cluster radius must be positive")
    if q < 0:
        raise ValueError("head distance q must be non-negative")
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("distance g must be non-negative")

    # Inner piece: full circles of radius g around the origin fit in the disk.
    out = np.where(g < (R - q), serving_distance_pdf(g, R), 0.0)

    # Arc piece: circles of radius g intersect the disk boundary.
    arc = (g >= abs(R - q)) & (g <= R + q) & (g > 0) & (q > 0)
    if np.any(arc):
        ga = g[arc] if g.ndim else g
        ratio = (ga * ga + q * q - R * R) / (2.0 * ga * q)
        if np.any(np.abs(ratio) > 1.0 + _ARCCOS_CLAMP):
            raise ValueError(
                "arccos argument outside [-1, 1] beyond clamping tolerance; "
                f"worst value {float(np.max(np.abs(ratio))):.17g}"
            )
        contrib = arc_distance_pdf(ga, q, R)
        if g.ndim:
            out[arc] += contrib
        else:
            out = out + contrib
    return out if out.ndim else float(out)


def test_ppp_count_and_support(rng):
    lam, window = 1e-4, 500.0
    counts = []
    for _ in range(200):
        points = sample_ppp(lam, window, rng)
        counts.append(points.shape[0])
        if points.size:
            assert np.all(np.linalg.norm(points, axis=1) <= window + 1e-9)
    mean = lam * np.pi * window**2
    # 200 Poisson draws: sample mean within 5 sigma of the intensity mass.
    se = np.sqrt(mean / 200)
    assert abs(np.mean(counts) - mean) < 5 * se


def test_ppp_rejects_bad_arguments(rng):
    with pytest.raises(ValueError):
        sample_ppp(0.0, 100.0, rng)
    with pytest.raises(ValueError):
        sample_ppp(1e-4, -1.0, rng)


def test_cluster_support_and_shape(rng):
    center = np.array([50.0, -20.0])
    points = sample_cluster(center, 1000, 100.0, rng)
    assert points.shape == (1000, 2)
    assert np.all(np.linalg.norm(points - center, axis=1) <= 100.0 + 1e-9)


def test_serving_distance_pdf_normalizes():
    r = np.linspace(0.0, 100.0, 20001)
    pdf = serving_distance_pdf(r, 100.0)
    assert np.trapezoid(pdf, r) == pytest.approx(1.0, abs=1e-6)
    assert serving_distance_pdf(120.0, 100.0) == 0.0
    assert serving_distance_pdf(-1.0, 100.0) == 0.0


@pytest.mark.parametrize("q", [10.0, 60.0, 99.0, 150.0, 400.0])
def test_conditional_distance_pdf_normalizes(q):
    R = 100.0
    g = np.linspace(0.0, q + R, 200001)
    pdf = conditional_distance_pdf(g, q, R)
    assert np.all(pdf >= 0)
    assert np.trapezoid(pdf, g) == pytest.approx(1.0, abs=1e-3)
    # No mass outside the geometric support.
    assert conditional_distance_pdf(q + R + 1.0, q, R) == 0.0
    if q > R:
        assert conditional_distance_pdf(0.5 * (q - R), q, R) == 0.0


def test_conditional_distance_pdf_matches_sampling(rng):
    # Compare the first moment of the density against direct geometry.
    q, R = 150.0, 100.0
    head = np.array([q, 0.0])
    members = sample_cluster(head, 200_000, R, rng)
    g_samples = np.linalg.norm(members, axis=1)
    g = np.linspace(q - R, q + R, 100001)
    mean_pdf = np.trapezoid(g * conditional_distance_pdf(g, q, R), g)
    se = g_samples.std() / np.sqrt(g_samples.size)
    assert abs(g_samples.mean() - mean_pdf) < 5 * se


def test_conditional_distance_pdf_reduces_to_disk_at_origin():
    # q = 0: the member distance density is the plain in-disk law 2g/R^2.
    g = np.linspace(0.0, 99.9, 500)
    np.testing.assert_allclose(
        conditional_distance_pdf(g, 0.0, 100.0),
        serving_distance_pdf(g, 100.0),
        rtol=1e-12,
    )


def test_topology_pins_typical_head_to_origin(rng):
    params = NetworkParams(n_devices=5, n_resource_blocks=4)
    topology = sample_topology(params, rng)
    assert topology.head_distances.ndim == 1
    assert np.all(topology.head_distances >= 0.0)
    assert np.all(topology.head_distances <= params.window_radius)
    assert topology.serving_distances.shape == (5,)
    assert np.all(topology.serving_distances >= 0.0)
    assert np.all(topology.serving_distances <= params.cluster_radius + 1e-9)


def test_serving_distances_are_the_draw_after_the_ppp():
    # The typical cluster is drawn straight after the PPP on the topology's
    # stream, so its serving distances do not depend on whether any other
    # cluster is sampled afterwards.
    params = NetworkParams(n_devices=6, n_resource_blocks=5)
    topology = sample_topology(params, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    heads = sample_ppp(params.lam, params.window_radius, rng)
    devices = sample_cluster(np.zeros(2), params.n_devices, params.cluster_radius, rng)
    np.testing.assert_array_equal(
        topology.head_distances, np.linalg.norm(heads, axis=1)
    )
    np.testing.assert_array_equal(
        topology.serving_distances, np.linalg.norm(devices, axis=1)
    )


def test_sample_topology_is_deterministic():
    params = NetworkParams(n_devices=4, n_resource_blocks=3)
    a = sample_topology(params, np.random.default_rng(7))
    b = sample_topology(params, np.random.default_rng(7))
    np.testing.assert_array_equal(a.head_distances, b.head_distances)
    np.testing.assert_array_equal(a.serving_distances, b.serving_distances)
