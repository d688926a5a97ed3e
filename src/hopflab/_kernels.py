"""Hot numeric kernels: numba-compiled loops with a pure-numpy fallback.

The backend is chosen at import time. Setting the environment variable
``HOPFLAB_NO_NUMBA`` to a non-empty value forces the vectorized numpy
implementations; otherwise numba is used when importable. Both paths
compute the same quantities (agreement is covered by tests), and
``benchmarks/bench_kernels.py`` compares their throughput.

Public names (``gauss_linking_sum``, ``oriented_frames``,
``min_pairwise_distance``) are bound to the selected backend; the
``*_numpy`` / ``*_numba`` variants stay importable for benchmarks.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = bool(os.environ.get("HOPFLAB_NO_NUMBA"))

try:  # pragma: no cover - exercised implicitly by backend selection
    if _FORCE_NUMPY:
        raise ImportError("numba disabled via HOPFLAB_NO_NUMBA")
    import warnings

    from numba import NumbaWarning, njit, prange

    # threading-layer probing (e.g. an old TBB) is harmless here
    warnings.filterwarnings("ignore", category=NumbaWarning,
                            message=".*TBB.*")
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

# Segment or point pairs per block in the numpy pairwise kernels. A block
# broadcasts a few (PAIR_BLOCK, 3) float64 temporaries, about 5 MB each,
# which bounds the kernels' peak memory whatever the curve lengths.
PAIR_BLOCK = 200_000


# ---------------------------------------------------------------------------
# Discrete Gauss linking sum
# ---------------------------------------------------------------------------

def gauss_linking_sum_numpy(mid1, seg1, mid2, seg2):
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


def _gauss_linking_sum_loop(mid1, seg1, mid2, seg2):
    n, m = mid1.shape[0], mid2.shape[0]
    total = 0.0
    for i in prange(n):
        acc = 0.0
        for j in range(m):
            dx = mid1[i, 0] - mid2[j, 0]
            dy = mid1[i, 1] - mid2[j, 1]
            dz = mid1[i, 2] - mid2[j, 2]
            cx = seg1[i, 1] * seg2[j, 2] - seg1[i, 2] * seg2[j, 1]
            cy = seg1[i, 2] * seg2[j, 0] - seg1[i, 0] * seg2[j, 2]
            cz = seg1[i, 0] * seg2[j, 1] - seg1[i, 1] * seg2[j, 0]
            r2 = dx * dx + dy * dy + dz * dz
            acc += (dx * cx + dy * cy + dz * cz) / (r2 * np.sqrt(r2))
        total += acc
    return total / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# Positively oriented tangent frames
# ---------------------------------------------------------------------------

def oriented_frames_numpy(points):
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
    e3 = _cross4_numpy(pts, e1, e2)
    frames[:, :, 0] = e1
    frames[:, :, 1] = e2
    frames[:, :, 2] = e3
    return frames


def _cross4_numpy(x, u, v):
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


def _oriented_frames_loop(points):
    n, d = points.shape
    frames = np.empty((n, d, d - 1))
    for i in prange(n):
        x = points[i]
        # coordinate axis least aligned with x
        k1 = 0
        best = abs(x[0])
        for k in range(1, d):
            if abs(x[k]) < best:
                best = abs(x[k])
                k1 = k
        e1 = -x[k1] * x
        e1[k1] += 1.0
        e1 /= np.sqrt(np.sum(e1 * e1))
        if d == 3:
            frames[i, 0, 0] = e1[0]
            frames[i, 1, 0] = e1[1]
            frames[i, 2, 0] = e1[2]
            frames[i, 0, 1] = x[1] * e1[2] - x[2] * e1[1]
            frames[i, 1, 1] = x[2] * e1[0] - x[0] * e1[2]
            frames[i, 2, 1] = x[0] * e1[1] - x[1] * e1[0]
        else:
            k2 = 0
            best2 = 1e30
            for k in range(d):
                if k != k1 and abs(x[k]) < best2:
                    best2 = abs(x[k])
                    k2 = k
            e2 = -x[k2] * x
            e2[k2] += 1.0
            e2 -= (e2[0] * e1[0] + e2[1] * e1[1] + e2[2] * e1[2] + e2[3] * e1[3]) * e1
            e2 /= np.sqrt(np.sum(e2 * e2))
            e3 = np.empty(4)
            s = -1.0
            for c in range(4):
                p, q, r = _minor_index(c)
                minor = (
                    x[p] * (e1[q] * e2[r] - e1[r] * e2[q])
                    - x[q] * (e1[p] * e2[r] - e1[r] * e2[p])
                    + x[r] * (e1[p] * e2[q] - e1[q] * e2[p])
                )
                e3[c] = s * minor
                s = -s
            e3 /= np.sqrt(np.sum(e3 * e3))
            for c in range(4):
                frames[i, c, 0] = e1[c]
                frames[i, c, 1] = e2[c]
                frames[i, c, 2] = e3[c]
    return frames


def _minor_index(c):
    if c == 0:
        return 1, 2, 3
    if c == 1:
        return 0, 2, 3
    if c == 2:
        return 0, 1, 3
    return 0, 1, 2


# ---------------------------------------------------------------------------
# Minimum pairwise distance between two point clouds
# ---------------------------------------------------------------------------

def min_pairwise_distance_numpy(a, b):
    """Smallest Euclidean distance between rows of a and rows of b."""
    best = np.inf
    chunk = max(1, PAIR_BLOCK // max(1, b.shape[0]))
    for i in range(0, a.shape[0], chunk):
        diff = a[i : i + chunk, None, :] - b[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        best = min(best, float(np.sqrt(d2.min())))
    return best


def _min_pairwise_distance_loop(a, b):
    best = 1e300
    # prange only supports min/max-style reductions, not guarded assignment
    for i in prange(a.shape[0]):
        local = 1e300
        for j in range(b.shape[0]):
            d2 = 0.0
            for k in range(a.shape[1]):
                t = a[i, k] - b[j, k]
                d2 += t * t
            local = min(local, d2)
        best = min(best, local)
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# Backend binding
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    gauss_linking_sum_numba = njit(cache=True, parallel=True)(_gauss_linking_sum_loop)
    _minor_index = njit(cache=True)(_minor_index)
    oriented_frames_numba = njit(cache=True, parallel=True)(_oriented_frames_loop)
    min_pairwise_distance_numba = njit(cache=True, parallel=True)(
        _min_pairwise_distance_loop
    )
    gauss_linking_sum = gauss_linking_sum_numba
    oriented_frames = oriented_frames_numba
    min_pairwise_distance = min_pairwise_distance_numba
    BACKEND = "numba"
else:
    gauss_linking_sum_numba = None
    oriented_frames_numba = None
    min_pairwise_distance_numba = None
    gauss_linking_sum = gauss_linking_sum_numpy
    oriented_frames = oriented_frames_numpy
    min_pairwise_distance = min_pairwise_distance_numpy
    BACKEND = "numpy"
