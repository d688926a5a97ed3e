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

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# x - sin x = x^3 sum_k _SIN_TAIL[k] x^(2k). F(t) = t - sin t cos t is
# (x - sin x)/2 with x = 2t; up to t = pi/4 (x = pi/2) the first omitted
# term is below 2e-18 relative, and beyond pi/4 the direct form loses less
# than two bits to cancellation
_SIN_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(10))
_F3_SERIES_MAX = np.pi / 4

# t / s as a polynomial in s^2, s = (1.5 F(t))^(1/3), lowest power first:
# the least-squares fit on 200 equally spaced t in (0, pi/2]. t / s is
# analytic in s^2 there (F(t) ~ 2 t^3 / 3 near 0; the nearest singularity,
# t = pi, lies beyond), and degree 12 keeps the relative error of t below
# 1e-9 (tests/test_geometry.py checks it)
_F3_START = (
    1.000000000107854, 0.06666664694374178, 0.011429181955234367,
    0.0025322712572247545, 0.0006846967096984065, 2.87790812291062e-07,
    0.000453174141685385, -0.0006131815383244564, 0.0006568179941635888,
    -0.00045011590847244724, 0.00020061079329614437, -5.1766771709190364e-05,
    6.123489446018986e-06,
)

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


def ball_gap(points, balls):
    """min_i d(x, c_i) - r_i over geodesic balls B(c_i, r_i) (+inf for
    none) at each row x of points: a lower bound on the geodesic distance
    from x to their union, <= 0 exactly on the closed balls."""
    out = np.full(points.shape[0], np.inf)
    for ball in balls:
        out = np.minimum(out, geodesic_distances(points, ball.center.coords)
                         - ball.radius)
    return out


def sample_uniform_many(m: int, n: int, rng):
    """(n, m+1) array of independent uniform draws on S^m."""
    v = rng.standard_normal((n, m + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def tangent_directions(points, rng):
    """One uniform unit tangent vector at each row of points."""
    pts = np.asarray(points, dtype=np.float64)
    v = rng.standard_normal(pts.shape)
    v -= np.einsum("ij,ij->i", v, pts)[:, None] * pts
    n = np.sqrt(np.einsum("ij,ij->i", v, v))
    # a zero projection has probability zero; resample defensively anyway
    bad = n < 1e-12
    while np.any(bad):
        w = rng.standard_normal((int(bad.sum()), pts.shape[1]))
        w -= np.einsum("ij,ij->i", w, pts[bad])[:, None] * pts[bad]
        v[bad] = w
        n = np.sqrt(np.einsum("ij,ij->i", v, v))
        bad = n < 1e-12
    return v / n[:, None]


def geodesic_step(points, directions, angles):
    """Walk distance angles from points along unit tangents: cos t x + sin t v."""
    t = np.asarray(angles, dtype=np.float64)[:, None]
    return np.cos(t) * points + np.sin(t) * directions


def shell_step(points, t0: float, t1: float, rng):
    """(y, t): each y a uniform point at geodesic distance t in [t0, t1]
    from its row of points, t drawn by the distance law (sample_shell_radii)
    along a uniform tangent (tangent_directions), in that draw order."""
    dirs = tangent_directions(points, rng)
    t = sample_shell_radii(points.shape[1] - 1, t0, t1, points.shape[0], rng)
    return geodesic_step(points, dirs, t), t


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
        e = _f3_inverse(g0 + (1.0 - u) * (g1 - g0))
        return np.clip(np.pi - e, t0, t1)
    f0, f1 = _f3(t0), _f3(t1)
    return np.clip(_f3_inverse(f0 + u * (f1 - f0)), t0, t1)


def _f3_inverse(target):
    """Solve F(t) = target on [0, pi] for F(t) = t - sin t cos t.

    A target above pi/2 is solved on its mirror image, since
    F(pi - t) = pi - F(t). On [0, pi/2] the start is t = s P(s^2) with
    s = (1.5 F)^(1/3) and P the polynomial _F3_START, within 1e-9 relative
    on the whole range, thin shells near zero included. One Newton step
    follows: its error is about t cot t times the square of the start's,
    below rounding, on thick and thin shells alike.
    """
    mirror = target > 0.5 * np.pi
    f = np.where(mirror, np.pi - target, target)
    s = np.cbrt(1.5 * f)
    x = s * s
    acc = np.full(x.shape, _F3_START[-1])
    for c in _F3_START[-2::-1]:
        acc *= x
        acc += c
    t = s * acc
    # F(0) = 0 is met by t = 0, where the derivative 2 sin^2 t vanishes
    t -= (_f3(t) - f) / np.maximum(2.0 * np.sin(t) ** 2, np.finfo(np.float64).tiny)
    return np.where(mirror, np.pi - t, t)


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


# ---------------------------------------------------------------------------
# x sources: regions and unions of balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Integration region on S^dim: the points at geodesic distance in
    [lo, hi] from center, or the whole sphere when center is None.

    A ball B(c, r) is [0, r], its complement [r, pi], and a concentric
    difference B(c, r) minus B(c, r') is [r', r]. energy_mc draws x from
    its region: sample draws uniform points, measure is their total
    measure, and contains tests membership.
    """

    dim: int
    center: SpherePoint | None = None
    lo: float = 0.0
    hi: float = math.pi

    def __post_init__(self):
        if self.center is not None:
            if self.center.dim != self.dim:
                raise ParameterError("region center does not live on S^dim")
            if not (0.0 <= self.lo < self.hi <= math.pi):
                raise ParameterError(
                    f"region needs 0 <= lo < hi <= pi, got [{self.lo}, {self.hi}]")
        if self.measure() <= 0.0:
            raise ParameterError("region has no measure")

    def measure(self) -> float:
        if self.center is None:
            return sphere_area(self.dim)
        if self.hi == math.pi:
            return sphere_area(self.dim) - cap_area(self.dim, self.lo)
        return cap_area(self.dim, self.hi) - cap_area(self.dim, self.lo)

    def sample(self, n: int, rng):
        """n points uniform in the region, shape (n, dim+1)."""
        if self.center is None:
            return sample_uniform_many(self.dim, n, rng)
        c = self.center.coords
        return shell_step(np.broadcast_to(c, (n, c.shape[0])), self.lo, self.hi, rng)[0]

    def contains(self, pts):
        if self.center is None:
            return np.ones(pts.shape[0], dtype=bool)
        d = geodesic_distances(pts, self.center.coords)
        return (d >= self.lo) & (d <= self.hi)

    def to_dict(self):
        """The region's JSON: variant whole, ball, complement or difference,
        with its outer (and inner) ball."""
        if self.center is None:
            return {"variant": "whole", "dim": self.dim}
        c = self.center.coords.tolist()
        if self.lo == 0.0:
            return {"variant": "ball", "dim": self.dim,
                    "outer": {"center": c, "radius": self.hi}}
        if self.hi == math.pi:
            return {"variant": "complement", "dim": self.dim,
                    "outer": {"center": c, "radius": self.lo}}
        return {"variant": "difference", "dim": self.dim,
                "outer": {"center": c, "radius": self.hi},
                "inner": {"center": c, "radius": self.lo}}


class BallUnion:
    """Pairwise disjoint closed geodesic balls of one sphere, as one x source.

    x falls in each ball in proportion to its measure and is then uniform
    in it (sample, from one ball Region per ball); contains compares one
    dot product per ball with cos r, gap is min_i d(x, c_i) - r_i, a lower
    bound on the geodesic distance to the union (<= 0 on it), and moved(M)
    is the union carried by x -> M^T x.
    """

    def __init__(self, balls):
        self.balls = list(balls)
        self.parts = [Region(b.center.dim, b.center, 0.0, b.radius)
                      for b in self.balls]
        self.centers = np.array([b.center.coords for b in self.balls])
        self.cos_r = np.cos([b.radius for b in self.balls])
        sizes = np.array([p.measure() for p in self.parts])
        self._total = float(np.sum(sizes))
        self._shares = sizes / self._total

    def measure(self) -> float:
        return self._total

    def sample(self, n: int, rng):
        counts = rng.multinomial(n, self._shares)
        return np.concatenate([p.sample(k, rng)
                               for p, k in zip(self.parts, counts) if k])

    def contains(self, pts):
        return np.any(self.centers @ pts.T >= self.cos_r[:, None], axis=0)

    def gap(self, pts):
        return ball_gap(pts, self.balls)

    def moved(self, mat):
        return BallUnion([GeodesicBall(sphere_point(mat.T @ b.center.coords), b.radius)
                          for b in self.balls])


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
    radius = safety / np.sqrt(k)
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
