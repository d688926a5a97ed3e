"""Sphere geometry: points, distances, rotations, sampling, packings.

Everything here works on the round spheres S^m (mainly m = 2, 3) embedded
as unit vectors in R^(m+1). Angles and radii are geodesic, in radians.
Batch helpers operate on (N, m+1) float arrays; the dataclasses are thin
validated wrappers used at API boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    PackingError,
    ParameterError,
    SingularInputError,
)

# smallest certified geodesic separation of the Fibonacci lattice is
# 2.0/sqrt(k) for k <= 1e4 (checked in the test suite), so lambda = 1
PACKING_LAMBDA = 1.0

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# x - sin x = x^3 sum_k _SIN_TAIL[k] x^(2k). F(t) = t - sin t cos t is
# (x - sin x)/2 with x = 2t; up to t = pi/4 (x = pi/2) the first omitted
# term is below 2e-18 relative, and beyond pi/4 the direct form loses less
# than two bits to cancellation
_SIN_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(10))
_F3_SERIES_MAX = np.pi / 4

# plastic constant: real root of t^3 = t + 1, drives the R3 Kronecker
# lattice used for near-uniform S^3 node sets
_PLASTIC = 1.3247179572447460260


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpherePoint:
    """Unit vector on S^m; coords has length m + 1."""

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        object.__setattr__(self, "coords", c)
        if self.dim < 1 or c.shape != (self.dim + 1,):
            raise DimensionMismatchError(
                f"S^{self.dim} point needs {self.dim + 1} coords, got shape {c.shape}"
            )
        if abs(np.linalg.norm(c) - 1.0) > 1e-12:
            raise ParameterError(f"coords not on the unit sphere: |x| = {np.linalg.norm(c)!r}")


def sphere_point(coords) -> SpherePoint:
    """Normalize coords onto the sphere and wrap as a SpherePoint."""
    c = np.asarray(coords, dtype=np.float64)
    n = np.linalg.norm(c)
    if n == 0.0 or not np.isfinite(n):
        raise SingularInputError("cannot normalize a zero or non-finite vector")
    return SpherePoint(dim=c.shape[0] - 1, coords=c / n)


@dataclass(frozen=True)
class GeodesicBall:
    """Open geodesic ball B(center, radius) with radius in (0, pi)."""

    center: SpherePoint
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < np.pi):
            raise ParameterError(f"ball radius must lie in (0, pi), got {self.radius}")


@dataclass(frozen=True)
class Rotation:
    """Proper rotation of R^(m+1), stored as an orthogonal matrix."""

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        d = self.dim + 1
        if m.shape != (d, d):
            raise DimensionMismatchError(f"rotation of S^{self.dim} needs a {d}x{d} matrix")
        if np.max(np.abs(m @ m.T - np.eye(d))) > 1e-10:
            raise ParameterError("matrix is not orthogonal within 1e-10")
        if abs(np.linalg.det(m) - 1.0) > 1e-10:
            raise ParameterError("matrix determinant is not +1 within 1e-10")

    def apply(self, points):
        """Rotate one (d,) vector or a batch (N, d)."""
        return np.asarray(points, dtype=np.float64) @ self.matrix.T

    def inverse(self) -> "Rotation":
        return Rotation(self.dim, self.matrix.T)


def _coords(x, dim=None):
    """Coerce a SpherePoint or array-like to a float64 coordinate vector."""
    c = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=np.float64)
    if dim is not None and c.shape[-1] != dim + 1:
        raise DimensionMismatchError(
            f"expected points on S^{dim} with {dim + 1} coords, got shape {c.shape}"
        )
    return c


# ---------------------------------------------------------------------------
# Distances and sampling
# ---------------------------------------------------------------------------

def geodesic_distance(x, y) -> float:
    """Geodesic (great-circle) distance in radians; symmetric, in [0, pi]."""
    cx, cy = _coords(x), _coords(y)
    if cx.shape != cy.shape:
        raise DimensionMismatchError(f"dimension mismatch: {cx.shape} vs {cy.shape}")
    return float(np.arccos(np.clip(np.dot(cx, cy), -1.0, 1.0)))


def geodesic_distances(points, x):
    """Geodesic distances from each row of points (N, d) to the point x."""
    cx = _coords(x)
    pts = np.asarray(points, dtype=np.float64)
    return np.arccos(np.clip(pts @ cx, -1.0, 1.0))


def sample_uniform_many(m: int, n: int, rng):
    """(n, m+1) array of independent uniform draws on S^m."""
    v = rng.standard_normal((n, m + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def tangent_directions(points, rng):
    """One uniform unit tangent vector at each row of points."""
    pts = np.asarray(points, dtype=np.float64)
    v = rng.standard_normal(pts.shape)
    v -= np.sum(v * pts, axis=1, keepdims=True) * pts
    n = np.linalg.norm(v, axis=1, keepdims=True)
    # a zero projection has probability zero; resample defensively anyway
    bad = (n[:, 0] < 1e-12)
    while np.any(bad):
        w = rng.standard_normal((int(bad.sum()), pts.shape[1]))
        w -= np.sum(w * pts[bad], axis=1, keepdims=True) * pts[bad]
        v[bad] = w
        n = np.linalg.norm(v, axis=1, keepdims=True)
        bad = (n[:, 0] < 1e-12)
    return v / n


def geodesic_step(points, directions, angles):
    """Walk distance angles from points along unit tangents: cos t x + sin t v."""
    t = np.asarray(angles, dtype=np.float64)[:, None]
    return np.cos(t) * points + np.sin(t) * directions


# ---------------------------------------------------------------------------
# Stereographic coordinates
# ---------------------------------------------------------------------------

def stereographic_many(points):
    """Batch stereographic projection of (N, m+1) points, none near the pole."""
    pts = np.asarray(points, dtype=np.float64)
    last = pts[:, -1]
    if np.any(last >= 1.0 - 1e-9):
        raise SingularInputError("stereographic projection undefined at the north pole")
    return pts[:, :-1] / (1.0 - last)[:, None]


def stereographic_inv_many(y):
    """Batch inverse projection of (N, m) points in R^m onto S^m."""
    y = np.asarray(y, dtype=np.float64)
    s = np.sum(y * y, axis=1, keepdims=True)
    return np.concatenate([2.0 * y, s - 1.0], axis=1) / (1.0 + s)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def rotation_taking(a, b) -> Rotation:
    """Proper rotation sending a to b, identity on span{a, b} orthocomplement.

    a = b gives the identity; a = -b rotates 180 degrees in the plane of a
    and the first coordinate axis not parallel to a (a fixed, reproducible
    choice).
    """
    ca, cb = _coords(a), _coords(b)
    if ca.shape != cb.shape:
        raise DimensionMismatchError(f"dimension mismatch: {ca.shape} vs {cb.shape}")
    d = ca.shape[0]
    dot = float(np.clip(np.dot(ca, cb), -1.0, 1.0))
    if dot > 1.0 - 1e-14:
        return Rotation(d - 1, np.eye(d))
    if dot < -1.0 + 1e-14:
        # 180-degree rotation in the plane of a and a coordinate axis
        idx = int(np.argmax(1.0 - np.abs(ca)))
        e = np.zeros(d)
        e[idx] = 1.0
        v = e - np.dot(e, ca) * ca
        v /= np.linalg.norm(v)
        mat = np.eye(d) - 2.0 * (np.outer(ca, ca) + np.outer(v, v))
        return Rotation(d - 1, mat)
    v = cb - dot * ca
    v /= np.linalg.norm(v)
    theta = np.arccos(dot)
    s, c = np.sin(theta), np.cos(theta)
    mat = (
        np.eye(d)
        + s * (np.outer(v, ca) - np.outer(ca, v))
        + (c - 1.0) * (np.outer(ca, ca) + np.outer(v, v))
    )
    return Rotation(d - 1, mat)


# ---------------------------------------------------------------------------
# Cap measures
# ---------------------------------------------------------------------------

def sphere_area(m: int) -> float:
    """Total measure of S^m (m = 1, 2, 3)."""
    if m == 1:
        return 2.0 * np.pi
    if m == 2:
        return 4.0 * np.pi
    if m == 3:
        return 2.0 * np.pi ** 2
    raise ParameterError(f"unsupported sphere dimension {m}")


def cap_area(m: int, t) -> float:
    """Measure of a geodesic cap of radius t on S^m.

    Uses cancellation-free forms (1 - cos t = 2 sin^2(t/2); the Taylor
    series of t - sin t cos t up to t = pi/4) so thin caps keep their
    measure instead of rounding to exactly 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if m == 2:
        out = 4.0 * np.pi * np.sin(0.5 * t) ** 2
    elif m == 3:
        out = 2.0 * np.pi * _f3(t)
    else:
        raise ParameterError(f"unsupported sphere dimension {m}")
    return float(out) if out.ndim == 0 else out


def shell_measure(m: int, t0, t1):
    """Measure of the geodesic annulus t0 <= d(x, .) <= t1 on S^m."""
    return cap_area(m, t1) - cap_area(m, t0)


def sample_shell_radii(m: int, t0: float, t1: float, n: int, rng):
    """Radii distributed as the geodesic-distance law restricted to [t0, t1].

    The density is proportional to sin^(m-1)(t). m = 2 inverts the CDF in
    the cancellation-free form 1 - cos t = 2 sin^2(t/2); m = 3 inverts
    F(t) = t - sin t cos t (see _f3_inverse). A shell with t0 >= pi/2 is
    inverted on its mirror image [pi - t1, pi - t0], since
    F(pi - t) = pi - F(t): there F is small and known to full relative
    precision, while near pi its derivative 2 sin^2 t vanishes and a
    residual formed against a target close to pi carries that target's
    rounding into t.
    """
    u = rng.random(n)
    if m == 2:
        q0 = 2.0 * np.sin(0.5 * t0) ** 2
        q1 = 2.0 * np.sin(0.5 * t1) ** 2
        q = q0 + u * (q1 - q0)
        return np.clip(2.0 * np.arcsin(np.sqrt(0.5 * q)), t0, t1)
    if m != 3:
        raise ParameterError(f"unsupported sphere dimension {m}")
    if t0 >= 0.5 * np.pi:
        e0, e1 = np.pi - t1, np.pi - t0
        g0, g1 = _f3(e0), _f3(e1)
        e = _f3_inverse(g0 + (1.0 - u) * (g1 - g0), e0, e1)
        return np.clip(np.pi - e, t0, t1)
    f0, f1 = _f3(t0), _f3(t1)
    return np.clip(_f3_inverse(f0 + u * (f1 - f0), t0, t1), t0, t1)


def _f3_inverse(target, t0, t1):
    """Solve F(t) = target on [t0, t1] for F(t) = t - sin t cos t.

    Thin shells near zero invert the series' leading terms by a fixed
    point. Other shells start from that same series inverse, taken about
    the nearer end of [0, pi] since F(pi - t) = pi - F(t), clipped to
    [t0, t1]. Bracketed Newton follows: an iterate outside the bracket (or
    at a vanishing derivative) is replaced by the bracket midpoint, and the
    loop stops once the largest step falls below 1e-13 rad.
    """
    if t1 <= 5e-3:
        return _f3_series_inverse(target)
    g = _f3_series_inverse(np.minimum(target, np.pi - target))
    t = np.clip(np.where(target > 0.5 * np.pi, np.pi - g, g), t0, t1)
    lo = np.full(t.shape, t0)
    hi = np.full(t.shape, t1)
    for _ in range(60):
        resid = _f3(t) - target
        high = resid > 0.0
        hi = np.where(high, t, hi)
        lo = np.where(high, lo, t)
        df = 2.0 * np.sin(t) ** 2
        step = np.where(df > 1e-14, resid / np.maximum(df, 1e-14), 0.0)
        tn = t - step
        # fall back to bisection when Newton leaves the bracket; a step
        # landing on the end just moved there is converged, not outside
        bad = (tn < lo) | (tn > hi) | (df <= 1e-14)
        tn = np.where(bad, 0.5 * (lo + hi), tn)
        moved = np.max(np.abs(tn - t))
        t = tn
        if moved < 1e-13:
            break
    return t


def _f3(t):
    """F(t) = t - sin t cos t without cancellation: the series up to pi/4."""
    small = t <= _F3_SERIES_MAX
    if np.all(small):
        return _f3_series(t)
    out = t - 0.5 * np.sin(2.0 * t)
    if np.any(small):
        out[small] = _f3_series(t[small])
    return out


def _f3_series(t):
    """t - sin t cos t = (x - sin x)/2 with x = 2t, by the Taylor series of
    x - sin x; exact to rounding for 0 <= t <= pi/4."""
    y = 4.0 * t * t
    acc = y * _SIN_TAIL[-1]
    for c in _SIN_TAIL[-2:0:-1]:
        acc += c
        acc *= y
    acc += _SIN_TAIL[0]
    acc *= y * t
    return acc


def _f3_series_inverse(f):
    """Invert the leading terms of _f3_series, (2/3)t^3(1 - t^2/5 + 2t^4/105),
    by the fixed point t = (1.5 f / (1 - t^2/5 + 2t^4/105))^(1/3).

    The omitted terms are below 2e-17 relative for t <= 5e-3. The
    denominator stays positive for every real t, and the iteration
    converges in a few steps on thin shells near zero.
    """
    t = np.cbrt(1.5 * f)
    for _ in range(4):
        t = np.cbrt(1.5 * f / (1.0 - t * t / 5.0 + 2.0 * t ** 4 / 105.0))
    return t


# ---------------------------------------------------------------------------
# Low-discrepancy lattices and packings
# ---------------------------------------------------------------------------

def fibonacci_lattice_s2(k: int):
    """(k, 3) near-uniform points on S^2 (offset Fibonacci spiral)."""
    if k < 1:
        raise ParameterError("lattice needs k >= 1")
    i = np.arange(k, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / k
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    th = GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def kronecker_lattice_s3(k: int):
    """(k, 4) near-uniform points on S^3.

    An R3 Kronecker sequence fills the cube; the cube maps to S^3 by the
    torus coordinates x = (cos(eta) e^(i xi1), sin(eta) e^(i xi2)) with
    sin^2(eta) uniform, which carry Lebesgue measure to the round measure.
    """
    if k < 1:
        raise ParameterError("lattice needs k >= 1")
    i = np.arange(1, k + 1, dtype=np.float64)
    a1, a2, a3 = 1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2, 1.0 / _PLASTIC ** 3
    u1 = np.mod(0.5 + i * a1, 1.0)
    u2 = np.mod(0.5 + i * a2, 1.0)
    u3 = np.mod(0.5 + i * a3, 1.0)
    eta = np.arcsin(np.sqrt(u1))
    xi1 = 2.0 * np.pi * u2
    xi2 = 2.0 * np.pi * u3
    return np.column_stack(
        [
            np.cos(eta) * np.cos(xi1),
            np.cos(eta) * np.sin(xi1),
            np.sin(eta) * np.cos(xi2),
            np.sin(eta) * np.sin(xi2),
        ]
    )


def sphere_lattice(m: int, k: int):
    """Near-uniform k-point lattice on S^m (m = 2 or 3)."""
    if m == 2:
        return fibonacci_lattice_s2(k)
    if m == 3:
        return kronecker_lattice_s3(k)
    raise ParameterError(f"unsupported sphere dimension {m}")


def polar_directions(m: int, n: int):
    """n unit directions in R^m with their common angular weight.

    The angular half of a geodesic-polar rule on S^m (m = 2 or 3): n
    equally spaced angles (i + 1/2) 2 pi/n of weight 2 pi/n, or the n-point
    S^2 lattice of weight 4 pi/n. Returns ((n, m) array, weight).
    """
    if m == 2:
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return np.column_stack([np.cos(ang), np.sin(ang)]), 2.0 * np.pi / n
    if m == 3:
        return sphere_lattice(2, n), 4.0 * np.pi / n
    raise ParameterError(f"unsupported sphere dimension {m}")


def ball_grid(center, radius, n):
    """About n points spread over a geodesic ball (center plus polar rings)."""
    c = np.asarray(center, dtype=np.float64)
    V = _kernels.oriented_frames(c[None, :])[0]
    m = c.shape[0] - 1
    out = [c]
    n_r = max(2, int(np.sqrt(n / 4)))
    for i in range(1, n_r + 1):
        t = radius * i / (n_r + 0.5)
        n_a = max(4, int(n / n_r))
        if m == 2:
            ang = 2.0 * np.pi * (np.arange(n_a) + 0.3 * i) / n_a
            omega = np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            omega = sphere_lattice(2, n_a)
        out.extend(np.cos(t) * c[None, :] + np.sin(t) * (omega @ V.T))
    return np.array(out)


def pack_disjoint_balls(k: int, safety: float = 0.9):
    """k disjoint geodesic balls on S^2 of common radius safety/sqrt(k).

    Centers sit on the Fibonacci lattice, whose minimum separation exceeds
    2/sqrt(k); any safety < 1 then guarantees strict disjointness, which is
    re-verified here by an exact pairwise check.
    """
    if k < 1:
        raise ParameterError("packing needs k >= 1")
    if not (0.0 < safety < 1.0):
        raise ParameterError(f"safety must lie in (0, 1), got {safety}")
    radius = PACKING_LAMBDA * safety / np.sqrt(k)
    centers = fibonacci_lattice_s2(k)
    if k > 1:
        sep = min_center_separation(centers)
        if sep <= 2.0 * radius:
            raise PackingError(
                f"packing violated for k = {k}: separation {sep} <= {2 * radius}"
            )
    return [GeodesicBall(sphere_point(c), float(radius)) for c in centers]


def min_center_separation(centers) -> float:
    """Smallest pairwise geodesic distance among rows of centers."""
    pts = np.asarray(centers, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        return float(np.pi)
    # min angle = arccos(max off-diagonal inner product), blocked for memory
    max_dot = -2.0
    for i in range(0, n, 1024):
        j = min(i + 1024, n)
        g = pts[i:j] @ pts.T
        np.fill_diagonal(g[:, i:j], -2.0)
        max_dot = max(max_dot, float(np.max(g)))
    return float(np.arccos(np.clip(max_dot, -1.0, 1.0)))
