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
    require_int,
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

# phi_3, the real root of t^4 = t + 1 above 1: its powers 1/phi_3,
# 1/phi_3^2, 1/phi_3^3 drive the R3 Kronecker lattice of near-uniform S^3
# node sets. Not the plastic constant rho (t^3 = t + 1): 1/rho^2 + 1/rho^3
# = 1 puts every point on the 2-D surface xi_2 = -xi_1.
_PHI3 = 1.2207440846057596


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
        if not abs(np.linalg.norm(c) - 1.0) <= 1e-12:  # also true for nan
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
        if not np.all(np.isfinite(m)):  # before det, which warns on nan
            raise ParameterError("rotation matrix has a non-finite entry")
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
    return _unit_rows(rng.standard_normal((n, m + 1)))


def _unit_rows(v):
    """The rows of v scaled to unit length."""
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def tangent_directions(points, rng):
    """One uniform unit tangent vector at each row of points: a normal per
    coordinate, from the Generator rng or given as rng (an array the shape
    of points), projected and normalised. A zero projection (probability
    zero) takes the first vector of the point's tangent frame."""
    pts = np.asarray(points, dtype=np.float64)
    g = rng.standard_normal(pts.shape) if isinstance(rng, np.random.Generator) else rng
    v = g - np.einsum("ij,ij->i", g, pts)[:, None] * pts
    n = np.sqrt(np.einsum("ij,ij->i", v, v))
    bad = n < 1e-12
    if np.any(bad):
        v[bad] = _kernels.oriented_frames(pts[bad])[:, :, 0]
        n[bad] = 1.0
    return v / n[:, None]


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


def sample_shell_radii(m: int, t0, t1, n: int, rng):
    """n radii distributed as the geodesic-distance law restricted to a
    shell [t0, t1]: one shell for every row, or row i's [t0[i], t1[i]] when
    t0 and t1 are arrays of n bounds. rng is a Generator, or the n uniforms
    on [0, 1) that the radii invert, drawn already.

    The density is proportional to sin^(m-1)(t). m = 2 inverts the CDF in
    the cancellation-free form 1 - cos t = 2 sin^2(t/2); m = 3 inverts
    F(t) = t - sin t cos t (see _f3_inverse). A shell with t0 >= pi/2 is
    inverted on its mirror image [pi - t1, pi - t0], since
    F(pi - t) = pi - F(t): there F is small and known to full relative
    precision, while near pi its derivative 2 sin^2 t vanishes and a
    residual formed against a target close to pi carries that target's
    rounding into t. A row's radius does not depend on the other rows.
    """
    if m not in (2, 3):
        raise ParameterError(f"unsupported sphere dimension {m}")
    u = rng.random(n) if isinstance(rng, np.random.Generator) else rng
    t0, t1 = np.broadcast_to(t0, (n,)), np.broadcast_to(t1, (n,))
    # per-row bounds come in runs, one per piece of a block: the bounds'
    # CDF values are taken once per run
    first = np.flatnonzero(np.concatenate(
        ([True], (t0[1:] != t0[:-1]) | (t1[1:] != t1[:-1]))))
    count = np.diff(first, append=n)
    lo, hi = t0[first], t1[first]
    if m == 2:
        q0 = np.repeat(2.0 * np.sin(0.5 * lo) ** 2, count)
        q1 = np.repeat(2.0 * np.sin(0.5 * hi) ** 2, count)
        q = q0 + u * (q1 - q0)
        return np.clip(2.0 * np.arcsin(np.sqrt(0.5 * q)), t0, t1)
    mirror = lo >= 0.5 * np.pi
    f0 = np.repeat(_f3(np.where(mirror, np.pi - hi, lo)), count)
    f1 = np.repeat(_f3(np.where(mirror, np.pi - lo, hi)), count)
    mirror = np.repeat(mirror, count)
    t = _f3_inverse(f0 + np.where(mirror, 1.0 - u, u) * (f1 - f0))
    return np.clip(np.where(mirror, np.pi - t, t), t0, t1)


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
    its region: points turns draw's variates into uniform points, measure
    is their total measure, and contains tests membership.
    """

    dim: int
    center: SpherePoint | None = None
    lo: float = 0.0
    hi: float = math.pi
    steers = False  # points gives x alone; energy_mc draws the step direction

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

    def draw(self, n: int, rng):
        """n points' normals, and for an annulus their radius uniforms."""
        g = rng.standard_normal((n, self.dim + 1))
        return (g,) if self.center is None else (g, rng.random(n))

    def points(self, draws, ring=None, rings=None):
        """The normals scaled to the sphere, or a geodesic step from the
        center to a radius in [lo, hi]; a region is one ring."""
        if self.center is None:
            return _unit_rows(draws[0])
        g, u = draws
        c = np.broadcast_to(self.center.coords, g.shape)
        t = sample_shell_radii(self.dim, self.lo, self.hi, g.shape[0], u)
        return geodesic_step(c, tangent_directions(c, g), t)

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


def ring_uniforms(n: int, rng, edges):
    """(n, 2) uniforms for ring_shares; one column for a single part."""
    return rng.random((2 if len(edges) else 1, n)).T


def ring_shares(u, edges, ring, rings):
    """(part, q) of the rows of ring_uniforms' u. edges are the running
    sums of the parts' shares of the measure, the last one left out; part
    is i with probability share i. q, the share of its part's measure
    nearer the centre than x, is uniform on the row's equal-measure ring
    [ring / rings, (ring + 1) / rings)."""
    part = (np.searchsorted(edges, u[:, 1], side="right") if len(edges)
            else np.zeros(u.shape[0], dtype=np.intp))
    return part, (ring + u[:, 0]) / rings


def carry(x0, part, rows):
    """Row i of x0 times rows[part[i]]: points drawn about one pole carried
    onto their parts by per-part orthogonal matrices (row-vector form)."""
    if rows.shape[0] == 1:
        return x0 @ rows[0]
    return np.einsum("ni,nij->nj", x0, rows[part])


class BallUnion:
    """Pairwise disjoint closed geodesic balls of one sphere, as one x source.

    x falls in each ball in proportion to its measure and is uniform in it.
    A cap of radius rho has measure 2 pi F(rho), F = 1 - cos on S^2
    (Archimedes) and rho - sin rho cos rho on S^3. draw takes a piece's
    ring and part uniforms (ring_uniforms), then an azimuth and a step
    uniform (S^2) or a normal of R^3 (S^3) per row. points turns the rows
    of any number of pieces into x: the share q of the ball nearer its
    centre (ring_shares), rho from F(rho) = q F(r) at that direction about
    the last axis, the pole, and each row carried onto its ball by one
    reflection per ball, built once, here. On S^2 (steers) points also
    returns the step direction d of each row, a unit tangent at x at the
    angle psi from the direction toward the centre of x's ball: sector k
    of S is the mirror pair of arcs +-[pi k / S, pi (k + 1) / S], so
    psi = +-pi (k + f) / S from one uniform (sign and f), and d is carried
    with x by the same reflection. contains compares one dot product per
    ball with cos r, gap is min_i d(x, c_i) - r_i, a lower bound on the
    geodesic distance to the union (<= 0 on it), and moved(M) is the union
    carried by x -> M^T x.
    """

    def __init__(self, balls):
        self.balls = list(balls)
        self.centers = np.array([b.center.coords for b in self.balls])
        radii = np.array([b.radius for b in self.balls])
        self.cos_r = np.cos(radii)
        self.dim = self.centers.shape[1] - 1
        if self.dim not in (2, 3):
            raise ParameterError(f"unsupported sphere dimension {self.dim}")
        self.steers = self.dim == 2
        self._f = 2.0 * np.sin(0.5 * radii) ** 2 if self.dim == 2 else _f3(radii)
        sizes = 2.0 * np.pi * self._f
        self._total = float(np.sum(sizes))
        self._edges = np.cumsum(sizes / self._total)[:-1]
        # Householder reflections I - 2 v v^T / |v|^2, v = c - pole, swap the
        # pole and c and act on rows as they are; near the pole, where c_m
        # rounds to 1, c_m - 1 is -|c_<m|^2 / (1 + c_m)
        v = self.centers.copy()
        head = np.einsum("ki,ki->k", v[:, :-1], v[:, :-1])
        last = v[:, -1]
        v[:, -1] = np.where(last > 0.0, -head / (1.0 + np.abs(last)), last - 1.0)
        vv = np.einsum("ki,ki->k", v, v)
        scale = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0.0)
        self._rows = (np.eye(self.dim + 1)
                      - scale[:, None, None] * v[:, :, None] * v[:, None])

    def measure(self) -> float:
        return self._total

    def draw(self, n: int, rng):
        u = ring_uniforms(n, rng, self._edges)
        if self.dim == 3:
            return u, rng.standard_normal((n, 3))
        return u, *rng.random((2, n))

    def points(self, draws, ring, rings, sector=0, sectors=1):
        u = draws[0]
        part, q = ring_shares(u, self._edges, ring, rings)
        a = q * self._f[part]
        if self.dim == 3:
            rho = _f3_inverse(a)
            x0 = np.empty((u.shape[0], 4))
            x0[:, :3] = _unit_rows(draws[1]) * np.sin(rho)[:, None]
            x0[:, 3] = np.cos(rho)
            return carry(x0, part, self._rows)
        # 1 - cos rho = a at the azimuth phi. d makes the angle psi with the
        # inward direction (-cos rho cos phi, -cos rho sin phi, sin rho),
        # toward the pole, turning toward the azimuthal (-sin phi, cos phi, 0);
        # w = 2 * uniform picks the arc's sign (its integer part) and f
        phi = np.pi * (2.0 * draws[1] - 1.0)
        w = 2.0 * draws[2]
        side = np.floor(w)
        psi = (np.pi / sectors) * (sector + (w - side)) * (1.0 - 2.0 * side)
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)
        sin_rho = np.sqrt(a * (2.0 - a))
        cos_rho = 1.0 - a
        inward = cos_psi * cos_rho
        xd = np.empty((u.shape[0], 2, 3))
        xd[:, 0, 0] = sin_rho * cos_phi
        xd[:, 0, 1] = sin_rho * sin_phi
        xd[:, 0, 2] = cos_rho
        xd[:, 1, 0] = -(inward * cos_phi + sin_psi * sin_phi)
        xd[:, 1, 1] = sin_psi * cos_phi - inward * sin_phi
        xd[:, 1, 2] = cos_psi * sin_rho
        if self._rows.shape[0] == 1:  # one matrix product for every row
            xd = (xd.reshape(-1, 3) @ self._rows[0]).reshape(xd.shape)
        else:
            xd = xd @ self._rows[part]
        return xd[:, 0], xd[:, 1]

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
    a1, a2, a3 = 1.0 / _PHI3, 1.0 / _PHI3 ** 2, 1.0 / _PHI3 ** 3
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
    k = require_int(k, "k")
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
