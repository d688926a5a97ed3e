"""Hot numeric kernels, vectorized in numpy.

Callers read ``gauss_linking_sum``, ``oriented_frames`` and
``min_pairwise_distance`` as module attributes on every call, so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

# named in benchmark reports
BACKEND = "numpy"

# Segment or point pairs per block in the pairwise kernels. A block
# broadcasts a few (PAIR_BLOCK, 3) float64 temporaries, about 5 MB each,
# which bounds the kernels' peak memory whatever the curve lengths.
PAIR_BLOCK = 200_000


# ---------------------------------------------------------------------------
# Discrete Gauss linking sum
# ---------------------------------------------------------------------------

def gauss_linking_sum(mid1, seg1, mid2, seg2):
    """Double sum of det(m1-m2, d1, d2)/|m1-m2|^3 over segment pairs, /4pi.

    mid*, seg*: (N,3) midpoints and difference vectors of closed polylines.
    """
    total = 0.0
    # block the outer curve so the (chunk, M, 3) broadcasts stay small
    chunk = max(1, PAIR_BLOCK // max(1, mid2.shape[0]))
    for a in range(0, mid1.shape[0], chunk):
        b = min(a + chunk, mid1.shape[0])
        cross = np.cross(seg1[a:b, None, :], seg2[None, :, :])
        diff = mid1[a:b, None, :] - mid2[None, :, :]
        num = np.einsum("ijk,ijk->ij", diff, cross)
        den = np.sum(diff * diff, axis=2) ** 1.5
        total += float(np.sum(num / den))
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
    n, d = pts.shape
    frames = np.empty((n, d, d - 1))
    # seed axes: the two coordinate directions least aligned with x
    order = np.argsort(np.abs(pts), axis=1)
    a1 = np.eye(d)[order[:, 0]]
    e1 = a1 - np.sum(a1 * pts, axis=1, keepdims=True) * pts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    if d == 3:
        frames[:, :, 0] = e1
        frames[:, :, 1] = np.cross(pts, e1)
        return frames
    if d != 4:
        raise ValueError("only S^2 and S^3 frames supported")
    a2 = np.eye(d)[order[:, 1]]
    e2 = a2 - np.sum(a2 * pts, axis=1, keepdims=True) * pts
    e2 -= np.sum(a2 * e1, axis=1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    # e3 via cofactors of det[x, e1, e2, v] so the 4x4 determinant is +|e3|
    e3 = _cross4(pts, e1, e2)
    frames[:, :, 0] = e1
    frames[:, :, 1] = e2
    frames[:, :, 2] = e3
    return frames


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
    """Smallest Euclidean distance between rows of a and rows of b."""
    best = np.inf
    chunk = max(1, PAIR_BLOCK // max(1, b.shape[0]))
    for i in range(0, a.shape[0], chunk):
        diff = a[i : i + chunk, None, :] - b[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        best = min(best, float(np.sqrt(d2.min())))
    return best
