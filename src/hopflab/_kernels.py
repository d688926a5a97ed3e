"""Hot numeric kernels, vectorized in numpy.

Callers read ``gauss_linking_sum``, ``oriented_frames`` and
``min_pairwise_distance`` as module attributes on every call, so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

# named in benchmark reports
BACKEND = "numpy"

# Segment pairs per block in the pairwise kernels. A block holds up to about
# twenty (PAIR_BLOCK,) float64 temporaries, 1.6 MB each, which bounds the
# kernels' peak memory whatever the curve lengths.
PAIR_BLOCK = 200_000


# ---------------------------------------------------------------------------
# Exact polygonal linking sum
# ---------------------------------------------------------------------------

def gauss_linking_sum(start1, end1, start2, end2):
    """Gauss linking integral of two polygons of segments [start, end] in R^3.

    Exact for straight segments (Klenin and Langowski, Biopolymers 54, 2000):
    the pair (p1 p2, p3 p4) adds the signed solid angle of the quadrilateral
    of directions r13, r23, r24, r14 (rij = pj - pi), here split along r13,
    r24 into two triangles, each 2 atan2(a.(b x c), |a||b||c| + (a.b)|c| +
    (a.c)|b| + (b.c)|a|) (Van Oosterom and Strackee). Both triangles have
    the triple product -r13.(d1 x d2), d the segment vectors. Summed over
    the segment pairs of two closed polygons it is 4 pi times their linking
    number. Blocks of outer rows meet the inner segments one coordinate at
    a time.
    """
    total = 0.0
    d1, d2 = end1 - start1, end2 - start2
    chunk = max(1, PAIR_BLOCK // max(1, start2.shape[0]))
    for a in range(0, start1.shape[0], chunk):
        p1, p2, e = start1[a:a + chunk], end1[a:a + chunk], d1[a:a + chunk]
        r13 = [start2[:, k] - p1[:, k, None] for k in range(3)]
        r24 = [end2[:, k] - p2[:, k, None] for k in range(3)]
        triple = sum(r13[i] * (e[:, j, None] * d2[:, k] - e[:, k, None] * d2[:, j])
                     for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        n13, n24 = _norm(r13), _norm(r24)
        dot1324 = _dot(r13, r24)
        # the triangle r13, r23, r24, then r13, r24, r14
        for q, p in ((start2, p2), (end2, p1)):
            r = [q[:, k] - p[:, k, None] for k in range(3)]
            nr = _norm(r)
            den = (n13 * nr * n24 + _dot(r13, r) * n24 + dot1324 * nr
                   + _dot(r, r24) * n13)
            total += float(np.sum(np.arctan2(triple, den)))
    return -total / (2.0 * np.pi)


def _norm(v):
    return np.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])


def _dot(u, v):
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


# ---------------------------------------------------------------------------
# Positively oriented tangent frames
# ---------------------------------------------------------------------------

def oriented_frames(points):
    """Orthonormal tangent frames (e_1..e_m) with det[x, e_1..e_m] = +1.

    points: (N, d) unit vectors, d in {3, 4}. Returns (N, d, d-1) with
    frame vectors in the last-but-one axis columns. On S^3 the frame is
    quaternion_frames'. On S^2, e_1 is the coordinate axis least aligned
    with x, projected on the tangent plane and normalised, and
    e_2 = x x e_1; the quadrature's inner rule turns with this frame.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[1] == 4:
        return quaternion_frames(pts)
    if pts.shape[1] != 3:
        raise ValueError("only S^2 and S^3 frames supported")
    a1 = np.eye(3)[np.argmin(np.abs(pts), axis=1)]
    e1 = a1 - np.sum(a1 * pts, axis=1, keepdims=True) * pts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, cross3(pts, e1)], axis=2)


# x -> (x i, x j, x k) for x = x1 + x2 i + x3 j + x4 k: entry (a, j) of the
# frame is _QUAT_SIGNS[a, j] * x[_QUAT_ROWS[a, j]]
_QUAT_ROWS = np.array([[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]])
_QUAT_SIGNS = np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0],
                        [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])


def quaternion_frames(pts):
    """The frames (x i, x j, x k) at the rows x of the (N, 4) array pts,
    read as quaternions, shape (N, 4, 3). Each vector is a signed copy of
    x's coordinates, so the frame is orthonormal up to the rounding of |x|,
    and det[x, x i, x j, x k] = |x|^4 = 1, since the matrix is that of
    q -> x q; one gather and one product build it."""
    return pts[:, _QUAT_ROWS] * _QUAT_SIGNS


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross3(a, b):
    """Row-wise np.cross of (N, 3) arrays, bit for bit, at less call cost."""
    return a[:, _NEXT] * b[:, _LAST] - a[:, _LAST] * b[:, _NEXT]


# ---------------------------------------------------------------------------
# Least distance between two sets of segments
# ---------------------------------------------------------------------------

def min_pairwise_distance(start1, end1, start2, end2):
    """Least Euclidean distance between a segment [start1, end1] and a
    segment [start2, end2] over all pairs of rows; a row with start = end is
    a point. Blocks of outer rows meet the inner segments one coordinate at
    a time.

    A pair's least distance lies at an endpoint of one segment and its
    nearest point on the other, or at the interior points where the common
    normal meets both; every candidate is a distance between two points of
    the segments, so the least one is the pair's distance.
    """
    best = np.inf
    d1, d2 = end1 - start1, end2 - start2
    n1, n2 = np.sum(d1 * d1, axis=1), np.sum(d2 * d2, axis=1)
    safe1, safe2 = np.maximum(n1, 1e-300), np.maximum(n2, 1e-300)
    chunk = max(1, PAIR_BLOCK // max(1, start2.shape[0]))
    dim = start1.shape[1]
    for a in range(0, start1.shape[0], chunk):
        u, nu = d1[a:a + chunk], safe1[a:a + chunk, None]
        w = [start1[a:a + chunk, k, None] - start2[:, k] for k in range(dim)]
        uw = sum(u[:, k, None] * w[k] for k in range(dim))
        vw = sum(d2[:, k] * w[k] for k in range(dim))
        uv = sum(u[:, k, None] * d2[:, k] for k in range(dim))
        # distance(s, t) = |w + s d1 - t d2| over s, t in [0, 1]
        cands = [(0.0, np.clip(vw / safe2, 0.0, 1.0)),
                 (1.0, np.clip((vw + uv) / safe2, 0.0, 1.0)),
                 (np.clip(-uw / nu, 0.0, 1.0), 0.0),
                 (np.clip((uv - uw) / nu, 0.0, 1.0), 1.0)]
        den = n1[a:a + chunk, None] * n2 - uv * uv
        s = (uv * vw - n2 * uw) / np.maximum(den, 1e-300)
        t = (n1[a:a + chunk, None] * vw - uv * uw) / np.maximum(den, 1e-300)
        inside = (den > 0) & (s >= 0) & (s <= 1) & (t >= 0) & (t <= 1)
        cands.append((np.where(inside, s, 0.0), np.where(inside, t, 0.0)))
        for s, t in cands:
            d2sq = sum((w[k] + s * u[:, k, None] - t * d2[:, k]) ** 2
                       for k in range(dim))
            best = min(best, float(np.sqrt(d2sq.min())))
    return best
