"""The numeric kernels: linking sums, tangent frames, pairwise distances."""

import tracemalloc

import numpy as np
import pytest

from hopflab import _kernels as K


def _circle(center, normal, radius, n):
    """Closed polyline midpoints/segments of a planar circle in R^3."""
    normal = np.asarray(normal, float)
    normal = normal / np.linalg.norm(normal)
    a = np.eye(3)[np.argmin(np.abs(normal))]
    u = a - (a @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = (center + radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v)))
    mid = 0.5 * (pts[1:] + pts[:-1])
    seg = pts[1:] - pts[:-1]
    return mid, seg


def test_gauss_sum_linked_circles():
    # Hopf-link configuration: linking number +-1
    m1, s1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 400)
    m2, s2 = _circle(np.array([1.0, 0, 0]), [0, 1, 0], 1.0, 400)
    lk = K.gauss_linking_sum(m1, s1, m2, s2)
    assert abs(abs(lk) - 1.0) < 1e-3


def test_gauss_sum_unlinked_circles():
    m1, s1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 400)
    m2, s2 = _circle(np.array([5.0, 0, 0]), [0, 1, 0], 1.0, 400)
    lk = K.gauss_linking_sum(m1, s1, m2, s2)
    assert abs(lk) < 1e-3


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


def test_min_pairwise_distance_matches_brute_force():
    gen = np.random.default_rng(2)
    a = gen.normal(size=(150, 3))
    b = gen.normal(size=(170, 3))
    brute = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
    assert np.isclose(K.min_pairwise_distance(a, b), brute, rtol=1e-12)


def test_pairwise_kernels_peak_memory_is_bounded():
    # blocks of PAIR_BLOCK pairs keep the broadcast temporaries small
    m1, s1 = _circle(np.zeros(3), [0, 0, 1], 1.0, 1600)
    m2, s2 = _circle(np.array([1.0, 0, 0]), [0, 1, 0], 1.0, 1600)
    for kernel, args in ((K.gauss_linking_sum, (m1, s1, m2, s2)),
                         (K.min_pairwise_distance, (m1, m2))):
        tracemalloc.start()
        try:
            kernel(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{kernel.__name__} peaked at {peak / 1e6:.0f} MB"


def test_pairwise_kernels_do_not_depend_on_the_block_size(monkeypatch):
    gen = np.random.default_rng(4)
    m1, s1 = _circle(gen.normal(size=3) * 0.1, gen.normal(size=3), 1.0, 257)
    m2, s2 = _circle(gen.normal(size=3) * 0.1, gen.normal(size=3), 0.7, 311)
    lk = K.gauss_linking_sum(m1, s1, m2, s2)
    dist = K.min_pairwise_distance(m1, m2)
    # 1000 pairs: blocks of 3 rows, the last one short
    monkeypatch.setattr(K, "PAIR_BLOCK", 1000)
    assert np.isclose(K.gauss_linking_sum(m1, s1, m2, s2), lk,
                      rtol=1e-12, atol=1e-14)
    assert np.isclose(K.min_pairwise_distance(m1, m2), dist, rtol=1e-12)
