"""The numeric kernels: linking sums, tangent frames, segment distances."""

import tracemalloc

import numpy as np
import pytest

from hopflab import _kernels as K
from hopflab import geometry as geo
from hopflab import maps


def _circle(center, normal, radius, n):
    """Segment starts and ends of a closed N-gon inscribed in a planar
    circle of R^3."""
    normal = np.asarray(normal, float)
    normal = normal / np.linalg.norm(normal)
    a = np.eye(3)[np.argmin(np.abs(normal))]
    u = a - (a @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = (center + radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v)))
    return pts[:-1], pts[1:]


def _hopf_polygons(n, shift=0.0):
    """N-gons on the Hopf fibers over two targets, projected to R^3; the
    second one moved by shift along x."""
    out = []
    for z, dx in (([0.0, 0.0, 1.0], 0.0), ([0.6, 0.0, 0.8], shift)):
        pts = geo.stereographic_many(maps.fiber_circle(geo.sphere_point(z), n))
        pts = pts + [dx, 0.0, 0.0]
        out += [pts, np.roll(pts, -1, axis=0)]
    return out


def test_gauss_sum_linked_circles():
    # the sum is exact for polygons, however coarse: Hopf fibers and round
    # circles in the Hopf-link configuration read +-1 to rounding
    for n in (4, 8, 16):
        assert abs(abs(K.gauss_linking_sum(*_hopf_polygons(n))) - 1.0) < 1e-12
    s1, e1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 400)
    s2, e2 = _circle(np.array([1.0, 0, 0]), [0, 1, 0], 1.0, 400)
    assert abs(abs(K.gauss_linking_sum(s1, e1, s2, e2)) - 1.0) < 1e-12


def test_gauss_sum_unlinked_circles():
    for n in (4, 8, 16):
        assert abs(K.gauss_linking_sum(*_hopf_polygons(n, shift=10.0))) < 1e-12
    s1, e1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 400)
    s2, e2 = _circle(np.array([5.0, 0, 0]), [0, 1, 0], 1.0, 400)
    assert abs(K.gauss_linking_sum(s1, e1, s2, e2)) < 1e-12


def test_gauss_sum_reversal_and_swap():
    # reversing one polygon negates the sum; swapping the two keeps it
    s1, e1, s2, e2 = _hopf_polygons(8)
    lk = K.gauss_linking_sum(s1, e1, s2, e2)
    assert np.isclose(K.gauss_linking_sum(e1, s1, s2, e2), -lk, rtol=1e-12)
    assert np.isclose(K.gauss_linking_sum(s2, e2, s1, e1), lk, rtol=1e-12)


def test_segment_distance_of_known_configurations():
    # skew perpendicular segments, their common normal inside both
    d = K.min_pairwise_distance(np.array([[-1.0, 0, 0]]), np.array([[1.0, 0, 0]]),
                                np.array([[0, -1.0, 0.3]]), np.array([[0, 1.0, 0.3]]))
    assert np.isclose(d, 0.3, rtol=1e-14)
    # the common normal misses the second segment: an endpoint is nearest
    d = K.min_pairwise_distance(np.array([[-1.0, 0, 0]]), np.array([[1.0, 0, 0]]),
                                np.array([[0, 0.5, 0.3]]), np.array([[0, 1.0, 0.3]]))
    assert np.isclose(d, np.hypot(0.5, 0.3), rtol=1e-14)
    # parallel, overlapping segments and a segment against a point
    d = K.min_pairwise_distance(np.array([[0.0, 0, 0]]), np.array([[2.0, 0, 0]]),
                                np.array([[1.0, 0.2, 0]]), np.array([[3.0, 0.2, 0]]))
    assert np.isclose(d, 0.2, rtol=1e-14)
    p = np.array([[1.0, 0.4, 0]])
    d = K.min_pairwise_distance(np.array([[0.0, 0, 0]]), np.array([[2.0, 0, 0]]),
                                p, p)
    assert np.isclose(d, 0.4, rtol=1e-14)


def _check_frames(pts, frames):
    n, d = pts.shape
    assert frames.shape == (n, d, d - 1)
    for j in range(d - 1):
        ej = frames[:, :, j]
        assert np.allclose(np.linalg.norm(ej, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.sum(ej * pts, axis=1), 0.0, atol=1e-12)
        for k in range(j + 1, d - 1):
            dots = np.sum(ej * frames[:, :, k], axis=1)
            assert np.allclose(dots, 0.0, atol=1e-12)
    full = np.concatenate([pts[:, :, None], frames], axis=2)
    assert np.allclose(np.linalg.det(full), 1.0, atol=1e-10)


@pytest.mark.parametrize("d", [3, 4])
def test_oriented_frames_numpy(d):
    gen = np.random.default_rng(d)
    pts = gen.normal(size=(500, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    _check_frames(pts, K.oriented_frames(pts))


def test_pairwise_kernels_peak_memory_is_bounded():
    # blocks of PAIR_BLOCK pairs keep the broadcast temporaries small
    s1, e1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 1600)
    s2, e2 = _circle(np.array([1.0, 0, 0]), [0, 1, 0], 1.0, 1600)
    for kernel in (K.gauss_linking_sum, K.min_pairwise_distance):
        tracemalloc.start()
        try:
            kernel(s1, e1, s2, e2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{kernel.__name__} peaked at {peak / 1e6:.0f} MB"


def _brute_linking(s1, e1, s2, e2):
    """Klenin and Langowski's sum in its arcsine form, over all segment
    pairs in one unblocked broadcast: the solid angle of each pair is the
    sum of asin(n_k . n_k+1) over the unit normals of the quadrilateral's
    faces, signed by the pair's triple product."""
    p1, p2 = s1[:, None, :], e1[:, None, :]
    p3, p4 = s2[None, :, :], e2[None, :, :]
    r13, r14, r23, r24 = p3 - p1, p4 - p1, p3 - p2, p4 - p2

    def unit(v):
        return v / np.linalg.norm(v, axis=2, keepdims=True)

    n = [unit(np.cross(r13, r14)), unit(np.cross(r14, r24)),
         unit(np.cross(r24, r23)), unit(np.cross(r23, r13))]
    omega = sum(np.arcsin(np.clip(np.sum(n[k] * n[(k + 1) % 4], axis=2), -1, 1))
                for k in range(4))
    sign = np.sign(np.sum(np.cross(p4 - p3, p2 - p1) * r13, axis=2))
    return np.sum(omega * sign) / (4.0 * np.pi)


def _brute_distance(s1, e1, s2, e2):
    """Least segment distance by golden-section search over each pair: the
    distance from a point of [s1, e1] to the segment [s2, e2] is convex
    along the first segment, and its nearest point is a clamped projection."""
    a, u = s1[:, None, :], (e1 - s1)[:, None, :]
    b, v = s2[None, :, :], (e2 - s2)[None, :, :]
    vv = np.maximum(np.sum(v * v, axis=2), 1e-300)

    def dist(s):
        w = a + s[..., None] * u - b
        t = np.clip(np.sum(w * v, axis=2) / vv, 0.0, 1.0)
        return np.linalg.norm(w - t[..., None] * v, axis=2)

    lo, hi = np.zeros(vv.shape), np.ones(vv.shape)
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        left = dist(m1) <= dist(m2)
        hi, lo = np.where(left, m2, hi), np.where(left, lo, m1)
    return min(np.min(dist(lo)), np.min(dist(np.zeros_like(lo))),
               np.min(dist(np.ones_like(lo))))


@pytest.mark.parametrize("block", [None, 1000], ids=["default", "small"])
def test_pairwise_kernels_match_brute_force(monkeypatch, block):
    if block is not None:
        # 1000 pairs against 311 inner rows: blocks of 3 outer rows, and the
        # last of the 257 outer rows in a short block of 2
        monkeypatch.setattr(K, "PAIR_BLOCK", block)
    gen = np.random.default_rng(4)
    # a tilted Hopf-link configuration: linked, so a relative check bites
    s1, e1 = _circle(gen.normal(size=3) * 0.05,
                     [0, 0, 1] + gen.normal(size=3) * 0.1, 1.0, 257)
    s2, e2 = _circle(np.array([1.0, 0, 0]) + gen.normal(size=3) * 0.05,
                     [0, 1, 0] + gen.normal(size=3) * 0.1, 0.7, 311)
    lk = K.gauss_linking_sum(s1, e1, s2, e2)
    assert abs(abs(lk) - 1.0) < 1e-12
    assert np.isclose(lk, _brute_linking(s1, e1, s2, e2), rtol=1e-12, atol=0)
    assert np.isclose(K.min_pairwise_distance(s1, e1, s2, e2),
                      _brute_distance(s1, e1, s2, e2), rtol=1e-12, atol=0)
    # random segments in R^4, and points (segments of length zero): every
    # column counts
    a, b = gen.normal(size=(57, 4)), gen.normal(size=(61, 4))
    da, db = 0.3 * gen.normal(size=(57, 4)), 0.3 * gen.normal(size=(61, 4))
    for args in ((a, a + da, b, b + db), (a, a, b, b)):
        assert np.isclose(K.min_pairwise_distance(*args), _brute_distance(*args),
                          rtol=1e-12, atol=0)
