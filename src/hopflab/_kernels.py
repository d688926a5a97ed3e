"""Hot numeric kernels, vectorized in numpy.

Callers read ``gauss_linking_sum``, ``oriented_frames`` and
``min_pairwise_distance`` as module attributes on every call, so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

# named in benchmark reports
BACKEND = "numpy"

# Segment or point pairs per block in the pairwise kernels. A block holds a
# few (PAIR_BLOCK,) float64 temporaries, 1.6 MB each, which bounds the
# kernels' peak memory whatever the curve lengths.
PAIR_BLOCK = 200_000


# ---------------------------------------------------------------------------
# Discrete Gauss linking sum
# ---------------------------------------------------------------------------

def gauss_linking_sum(mid1, seg1, mid2, seg2):
    """Double sum of det(m1-m2, d1, d2)/|m1-m2|^3 over segment pairs, /4pi.

    mid*, seg*: (N,3) midpoints and difference vectors of closed polylines.
    Blocks of outer rows meet the inner curve one coordinate at a time.
    """
    total = 0.0
    chunk = max(1, PAIR_BLOCK // max(1, mid2.shape[0]))
    for a in range(0, mid1.shape[0], chunk):
        m1, s1 = mid1[a:a + chunk], seg1[a:a + chunk]
        d = [m1[:, k, None] - mid2[:, k] for k in range(3)]
        c = [s1[:, i, None] * seg2[:, j] - s1[:, j, None] * seg2[:, i]
             for i, j in ((1, 2), (2, 0), (0, 1))]
        # the summation orders of einsum("ijk,ijk->ij") and of np.sum over a
        # length-3 axis: bit for bit the (block, M, 3) broadcast formula
        num = (d[0] * c[0] + d[2] * c[2]) + d[1] * c[1]
        den = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
        total += float(np.sum(num / den ** 1.5))
    return total / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# Positively oriented tangent frames
# ---------------------------------------------------------------------------

def oriented_frames(points):
    """Orthonormal tangent frames (e_1..e_m) with det[x, e_1..e_m] = +1.

    points: (N, d) unit vectors, d in {3, 4}. Returns (N, d, d-1) with
    frame vectors in the last-but-one axis columns.
    """
    pts = np.asarray(points, dtype=np.float64)
    d = pts.shape[1]
    # seed axes: the two coordinate directions least aligned with x
    order = np.argsort(np.abs(pts), axis=1)
    a1 = np.eye(d)[order[:, 0]]
    e1 = a1 - np.sum(a1 * pts, axis=1, keepdims=True) * pts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    if d == 3:
        return np.stack([e1, cross3(pts, e1)], axis=2)
    if d != 4:
        raise ValueError("only S^2 and S^3 frames supported")
    a2 = np.eye(d)[order[:, 1]]
    e2 = a2 - np.sum(a2 * pts, axis=1, keepdims=True) * pts
    e2 -= np.sum(a2 * e1, axis=1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    # e3 via cofactors of det[x, e1, e2, v] so the 4x4 determinant is +|e3|
    return np.stack([e1, e2, _cross4(pts, e1, e2)], axis=2)


def cross3(a, b):
    """Row-wise np.cross of (N, 3) arrays, bit for bit, at less call cost."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _cross4(x, u, v):
    """Vector c with det[x, u, v, w] = c . w for every w (columns order)."""
    c = np.empty_like(x)
    idx = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    # cofactor expansion along the last column: c_i = (-1)^(i+1) * minor_i
    for i, (p, q, r) in enumerate(idx):
        minor = (
            x[:, p] * (u[:, q] * v[:, r] - u[:, r] * v[:, q])
            - x[:, q] * (u[:, p] * v[:, r] - u[:, r] * v[:, p])
            + x[:, r] * (u[:, p] * v[:, q] - u[:, q] * v[:, p])
        )
        c[:, i] = minor if (i % 2 == 1) else -minor
    # normalize; inputs orthonormal so |c| = 1 up to roundoff
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return c


# ---------------------------------------------------------------------------
# Minimum pairwise distance between two point clouds
# ---------------------------------------------------------------------------

def min_pairwise_distance(a, b):
    """Smallest Euclidean distance between rows of a and rows of b, built
    up over blocks of rows of a one column at a time."""
    best = np.inf
    chunk = max(1, PAIR_BLOCK // max(1, b.shape[0]))
    for i in range(0, a.shape[0], chunk):
        d2 = sum((a[i:i + chunk, k, None] - b[:, k]) ** 2 for k in range(a.shape[1]))
        best = min(best, float(np.sqrt(d2.min())))
    return best
