"""Explicit sphere-valued maps and their combinators.

The building blocks: the Hopf map S^3 -> S^2, an equator-collapse map g,
degree-one bumps supported on small geodesic balls, multi-bubble maps with
k disjoint bumps, bumps composed with the Hopf map, disjoint-support
patching, and maps of any prescribed Hopf degree assembled from these.

Every map carries a serializable descriptor that fully determines its
values, so constructions can be persisted and rebuilt bit-identically.
Each constructor also sets the exact degree it bookkeeps from the pieces
and, for maps S^3 -> S^2, a rule that seeds the fiber over a target.
Evaluation is vectorized over (N, dim+1) coordinate arrays.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    ParameterError,
    PlacementError,
    SupportError,
)
from .geometry import (
    GeodesicBall,
    Rotation,
    SpherePoint,
    ball_grid,
    fibonacci_lattice_s2,
    geodesic_distance,
    geodesic_distances,
    geodesic_step,
    pack_disjoint_balls,
    rotation_taking,
    sample_uniform_many,
    sphere_point,
    stereographic_inv_many,
    stereographic_many,
    tangent_directions,
)

DEFAULT_BASEPOINT_S2 = np.array([1.0, 0.0, 0.0])

_CHECK_RNG_SEED = 20260301  # construction-time support checks, fixed stream
_CIRCLE_SEEDS = 8  # fiber seeds per Hopf circle
_BALL_SEEDS = 64  # fiber seeds per support ball


class SphereMap:
    """A map between spheres with vectorized evaluation and a descriptor.

    eval_many maps an (N, domain_dim+1) array of unit vectors to an
    (N, codomain_dim+1) array of unit vectors. supports, when not None,
    lists geodesic balls outside whose union the map equals basepoint
    exactly. degree, when not None, is the exact invariant its constructor
    bookkeeps from its children: the mapping degree of S^m -> S^m maps,
    the Hopf invariant of S^3 -> S^2 maps. fiber_seeds, when not None,
    maps a target z on S^2 to domain points near every component of the
    fiber over z; fiber tracing corrects and deduplicates them. Hand-built
    maps leave both None, and None propagates through the combinators.
    """

    def __init__(
        self,
        domain_dim,
        codomain_dim,
        eval_many,
        descriptor,
        lipschitz_hint=None,
        jacobian_many=None,
        supports=None,
        basepoint=None,
        degree=None,
        fiber_seeds=None,
    ):
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self._eval_many = eval_many
        self.descriptor = descriptor
        self.lipschitz_hint = lipschitz_hint
        self.jacobian_many = jacobian_many
        self.supports = supports
        self.basepoint = None if basepoint is None else np.asarray(basepoint, float)
        self.degree = degree
        self.fiber_seeds = fiber_seeds

    def eval_many(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.domain_dim + 1:
            raise DimensionMismatchError(
                f"expected (N, {self.domain_dim + 1}) points, got {pts.shape}"
            )
        return self._eval_many(pts)

    def __call__(self, x: SpherePoint) -> SpherePoint:
        if x.dim != self.domain_dim:
            raise DimensionMismatchError(
                f"map domain is S^{self.domain_dim}, got a point on S^{x.dim}"
            )
        out = self.eval_many(x.coords[None, :])[0]
        return sphere_point(out)


# ---------------------------------------------------------------------------
# Leaf maps
# ---------------------------------------------------------------------------

def constant_map(domain_dim: int, b) -> SphereMap:
    """Map sending all of S^domain_dim to the point b."""
    bc = _unit(b)
    cod = bc.shape[0] - 1

    def ev(pts):
        return np.broadcast_to(bc, (pts.shape[0], cod + 1)).copy()

    desc = _desc("constant", {"domain_dim": domain_dim, "basepoint": bc.tolist()})
    return SphereMap(domain_dim, cod, ev, desc, lipschitz_hint=0.0,
                     supports=[], basepoint=bc, degree=0,
                     fiber_seeds=lambda target: [])


def identity_map(m: int) -> SphereMap:
    """Identity on S^m."""

    def ev(pts):
        return pts.copy()

    return SphereMap(m, m, ev, _desc("identity", {"dim": m}), lipschitz_hint=1.0,
                     degree=1)


def hopf_map() -> SphereMap:
    """The Hopf map S^3 -> S^2: (w, z) -> (|w|^2 - |z|^2, 2 w conj(z)).

    Coordinates: (x1, x2, x3, x4) reads as (w, z) = (x1 + i x2, x3 + i x4)
    and the image (h1, h2 + i h3) sits in R x C = R^3. The ambient 3x4
    Jacobian is provided in closed form.
    """
    return SphereMap(
        3, 2, hopf_eval_many, _desc("hopf", {}),
        lipschitz_hint=2.0, jacobian_many=hopf_jacobian_many, degree=1,
        fiber_seeds=lambda target: fiber_circle(target, _CIRCLE_SEEDS),
    )


def hopf_eval_many(pts):
    x1, x2, x3, x4 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    out = np.empty((pts.shape[0], 3))
    out[:, 0] = x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4
    out[:, 1] = 2.0 * (x1 * x3 + x2 * x4)
    out[:, 2] = 2.0 * (x2 * x3 - x1 * x4)
    return out


def hopf_jacobian_many(pts):
    """Ambient differential of the Hopf map, shape (N, 3, 4)."""
    x1, x2, x3, x4 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    J = np.empty((pts.shape[0], 3, 4))
    J[:, 0, 0], J[:, 0, 1], J[:, 0, 2], J[:, 0, 3] = 2 * x1, 2 * x2, -2 * x3, -2 * x4
    J[:, 1, 0], J[:, 1, 1], J[:, 1, 2], J[:, 1, 3] = 2 * x3, 2 * x4, 2 * x1, 2 * x2
    J[:, 2, 0], J[:, 2, 1], J[:, 2, 2], J[:, 2, 3] = -2 * x4, 2 * x3, 2 * x2, -2 * x1
    return J


def hopf_fiber_point(z, theta: float) -> SpherePoint:
    """A point of the Hopf fiber over z, at phase theta along the circle."""
    return sphere_point(fiber_circle(z, 1, phase=theta)[0])


def fiber_circle(z, n: int, phase: float = 0.0):
    """(n, 4) equally spaced points on the Hopf fiber circle over z in S^2.

    The fiber over (z1, w) with w = z2 + i z3 is the orbit of one preimage
    under the diagonal phase action (a, b) -> (e^(i t) a, e^(i t) b); it is
    a great circle of S^3.
    """
    zc = _unit(z)
    if zc.shape[0] != 3:
        raise DimensionMismatchError("fiber base point must lie on S^2")
    x = hopf_lift_many(zc[None, :])[0]
    a, b = complex(x[0], x[1]), complex(x[2], x[3])
    t = phase + 2.0 * np.pi * np.arange(n) / n
    ph = np.exp(1j * t)
    w, zz = ph * a, ph * b
    return np.column_stack([w.real, w.imag, zz.real, zz.imag])


def hopf_lift_many(z):
    """One Hopf preimage of each row of z (N, 3) on S^2, shape (N, 4).

    The lift of (z1, z2 + i z3) is (w, zeta) with w = sqrt((1 + z1)/2) real
    and zeta = (z2 - i z3)/(2w); the point z1 = -1, where w vanishes, lifts
    to (0, 1).
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros((z.shape[0], 4))
    regular = z[:, 0] > -1.0 + 1e-12
    a = np.sqrt((1.0 + z[regular, 0]) / 2.0)
    out[regular, 0] = a
    out[regular, 2] = z[regular, 1] / (2.0 * a)
    out[regular, 3] = -z[regular, 2] / (2.0 * a)
    out[~regular, 2] = 1.0
    return out


def equator_collapse(m: int) -> SphereMap:
    """The collapse g(x) = (-2 x1 x_{m+1}, ..., -2 x_m x_{m+1}, 1 - 2 x_{m+1}^2).

    Sends the equator {x_{m+1} = 0} to the north pole and restricts to a
    bijection from the open southern hemisphere onto S^m minus the pole.
    """

    def ev(pts):
        return _collapse_eval(pts)

    # double cover of the sphere by the two hemispheres; the covers agree
    # in orientation exactly when m is odd
    return SphereMap(m, m, ev, _desc("equator_collapse", {"dim": m}),
                     lipschitz_hint=2.0, degree=1 + (-1) ** (m + 1))


def _collapse_eval(pts):
    last = pts[:, -1:]
    return np.concatenate([-2.0 * pts[:, :-1] * last, 1.0 - 2.0 * last * last], axis=1)


# ---------------------------------------------------------------------------
# Bumps
# ---------------------------------------------------------------------------

def support_radius(r: float) -> float:
    """Geodesic radius of the ball whose stereographic image has radius r."""
    return 2.0 * math.atan(r)


def bump_deg1(x0, r: float, b) -> SphereMap:
    """Degree-one bump: onto S^m inside B(x0, 2 atan(r)), constant b outside.

    Inside the ball the map is R_cod o g o Pi^{-1} o (y -> y/r) o Pi o R_dom
    with R_dom taking x0 to the south pole and R_cod taking the north pole
    to b; the support boundary lands exactly on b, so the seam is
    continuous and the outside value is assigned exactly.
    """
    if not (0.0 < r < 1.0):
        raise ParameterError(f"bump stereographic radius must lie in (0,1), got {r}")
    c0 = _unit(x0)
    bc = _unit(b)
    m = c0.shape[0] - 1
    if bc.shape[0] != c0.shape[0]:
        raise DimensionMismatchError("bump basepoint must lie on the codomain sphere S^m")
    rho = support_radius(r)
    south = np.zeros(m + 1)
    south[-1] = -1.0
    north = -south
    rot_dom = rotation_taking(sphere_point(c0), sphere_point(south)).matrix
    rot_cod = rotation_taking(sphere_point(north), sphere_point(bc)).matrix

    def ev(pts):
        out = np.broadcast_to(bc, pts.shape).copy()
        inside = geodesic_distances(pts, c0) < rho
        if np.any(inside):
            q = pts[inside] @ rot_dom.T
            y = stereographic_many(q) / r
            out[inside] = _collapse_eval(stereographic_inv_many(y)) @ rot_cod.T
        return out

    desc = _desc("bump_deg1", {
        "dim": m,
        "center": c0.tolist(),
        "stereo_radius": r,
        "support_radius": rho,
        "basepoint": bc.tolist(),
    })
    ball = GeodesicBall(sphere_point(c0), rho)
    return SphereMap(m, m, ev, desc, lipschitz_hint=2.0 / r,
                     supports=[ball], basepoint=bc, degree=1)


def multi_bubble(k: int, b=None, safety: float = 0.9) -> SphereMap:
    """k disjoint degree-one bubbles on S^2, equal to b between them.

    Balls come from pack_disjoint_balls(k, safety); each carries a bump
    whose support is exactly that ball, so the total degree is k.
    """
    if k < 1:
        raise ParameterError("multi_bubble needs k >= 1")
    bc = DEFAULT_BASEPOINT_S2.copy() if b is None else _unit(b)
    if bc.shape[0] != 3:
        raise DimensionMismatchError("multi_bubble basepoint must lie on S^2")
    balls = pack_disjoint_balls(k, safety)
    return _bubble_assembly(balls, bc, k, safety)


def _bubble_assembly(balls, bc, k, safety):
    r_bump = math.tan(balls[0].radius / 2.0)
    bumps = [bump_deg1(ball.center, r_bump, bc) for ball in balls]
    centers = np.array([ball.center.coords for ball in balls])
    radius = balls[0].radius

    def ev(pts):
        out = np.broadcast_to(bc, pts.shape).copy()
        for i, bump in enumerate(bumps):
            inside = geodesic_distances(pts, centers[i]) < radius
            if np.any(inside):
                out[inside] = bump.eval_many(pts[inside])
        return out

    desc = _desc("multi_bubble", {
        "k": k,
        "safety": safety,
        "basepoint": bc.tolist(),
        "balls": [
            {"center": ball.center.coords.tolist(), "radius": ball.radius}
            for ball in balls
        ],
    })
    return SphereMap(2, 2, ev, desc, lipschitz_hint=2.0 / r_bump,
                     supports=list(balls), basepoint=bc, degree=k)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def composed_with_hopf(v: SphereMap) -> SphereMap:
    """v o h for v: S^2 -> S^2; the Hopf degree bookkeeps to (deg v)^2."""
    if v.domain_dim != 2 or v.codomain_dim != 2:
        raise DimensionMismatchError("composed_with_hopf needs v: S^2 -> S^2")

    def ev(pts):
        return v.eval_many(hopf_eval_many(pts))

    def seeds(target):
        # the Hopf circles over the preimages of target under v; topology
        # imports this module, so its solver is imported at call time
        from .topology import _preimages_on_s2
        return [x for pre in _preimages_on_s2(v, _unit(target))
                for x in fiber_circle(pre, _CIRCLE_SEEDS)]

    hint = None if v.lipschitz_hint is None else 2.0 * v.lipschitz_hint
    degree = None if v.degree is None else v.degree ** 2
    desc = _desc("compose_hopf", {}, children=[v.descriptor])
    return SphereMap(3, 2, ev, desc, lipschitz_hint=hint, basepoint=v.basepoint,
                     degree=degree, fiber_seeds=seeds)


def hopf_bump(x0, r: float, b=None) -> SphereMap:
    """h o f_{x0,r}: a Hopf-degree-one bump on S^3, constant b outside.

    The inner bump targets a fixed preimage of b under the Hopf map, so the
    composite equals b exactly off the support ball.
    """
    bc = DEFAULT_BASEPOINT_S2.copy() if b is None else _unit(b)
    if bc.shape[0] != 3:
        raise DimensionMismatchError("hopf_bump basepoint must lie on S^2")
    c0 = _unit(x0)
    if c0.shape[0] != 4:
        raise DimensionMismatchError("hopf_bump center must lie on S^3")
    b_pre = hopf_fiber_point(bc, 0.0)
    inner = bump_deg1(c0, r, b_pre)
    radius = inner.supports[0].radius

    def ev(pts):
        out = np.broadcast_to(bc, (pts.shape[0], 3)).copy()
        inside = geodesic_distances(pts, c0) < radius
        if np.any(inside):
            out[inside] = hopf_eval_many(inner.eval_many(pts[inside]))
        return out

    desc = _desc("hopf_bump", {
        "center": c0.tolist(),
        "stereo_radius": r,
        "support_radius": radius,
        "basepoint": bc.tolist(),
    })
    hint = None if inner.lipschitz_hint is None else 2.0 * inner.lipschitz_hint
    return SphereMap(3, 2, ev, desc, lipschitz_hint=hint,
                     supports=list(inner.supports), basepoint=bc, degree=1,
                     fiber_seeds=lambda target: ball_grid(c0, radius, _BALL_SEEDS))


def patch_maps(pieces, b) -> SphereMap:
    """Case-defined map from disjointly supported pieces, b in between.

    pieces is a list of (SphereMap, GeodesicBall); each piece must equal b
    outside its ball, and the balls must be pairwise disjoint.
    """
    bc = _unit(b)
    dom = pieces[0][0].domain_dim if pieces else (bc.shape[0] - 1)
    return _patched(constant_map(dom, bc), pieces, bc)


def _patched(background: SphereMap, pieces, bc) -> SphereMap:
    """Replace background by each piece on its support ball.

    The background must equal bc on every support ball and each piece must
    equal bc outside its own ball (both verified on sampled points), so the
    result is continuous and Hopf degrees add. The fiber seeds are the
    background's plus each piece's own, or a grid over its ball for a
    piece without a rule; a background without a rule leaves none.
    """
    dom = background.domain_dim
    cod = background.codomain_dim
    rng = np.random.default_rng(_CHECK_RNG_SEED)
    balls = []
    for u, ball in pieces:
        if u.domain_dim != dom or u.codomain_dim != cod:
            raise DimensionMismatchError("patched pieces must share domain and codomain")
        balls.append(ball)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            gap = geodesic_distance(balls[i].center, balls[j].center)
            if gap <= balls[i].radius + balls[j].radius:
                raise SupportError(
                    f"supports {i} and {j} overlap: centers {gap:.4f} apart, "
                    f"radii sum {balls[i].radius + balls[j].radius:.4f}"
                )
    for idx, (u, ball) in enumerate(pieces):
        _check_constant_off_ball(u, ball, bc, rng, idx)
        _check_constant_on_ball(background, ball, bc, rng, idx)

    centers = np.array([ball.center.coords for ball in balls]).reshape(len(balls), dom + 1)
    radii = np.array([ball.radius for ball in balls])
    piece_maps = [u for u, _ in pieces]

    def seeds(target):
        out = list(background.fiber_seeds(target))
        for u, ball in zip(piece_maps, balls):
            out.extend(ball_grid(ball.center.coords, ball.radius, _BALL_SEEDS)
                       if u.fiber_seeds is None else u.fiber_seeds(target))
        return out

    def ev(pts):
        out = background.eval_many(pts)
        for i, u in enumerate(piece_maps):
            inside = geodesic_distances(pts, centers[i]) < radii[i]
            if np.any(inside):
                out[inside] = u.eval_many(pts[inside])
        return out

    desc = _desc("patched", {
        "basepoint": bc.tolist(),
        "supports": [
            {"center": ball.center.coords.tolist(), "radius": ball.radius}
            for ball in balls
        ],
    }, children=[background.descriptor] + [u.descriptor for u in piece_maps])
    hints = [background.lipschitz_hint] + [u.lipschitz_hint for u in piece_maps]
    hint = None if any(h is None for h in hints) else max(hints)
    degrees = [background.degree] + [u.degree for u in piece_maps]
    degree = None if None in degrees else sum(degrees)
    bg_sup = background.supports
    supports = None if bg_sup is None else list(bg_sup) + list(balls)
    return SphereMap(dom, cod, ev, desc, lipschitz_hint=hint,
                     supports=supports, basepoint=bc, degree=degree,
                     fiber_seeds=None if background.fiber_seeds is None else seeds)


def _check_constant_off_ball(u, ball, bc, rng, idx, n=256):
    pts = sample_uniform_many(u.domain_dim, n, rng)
    outside = geodesic_distances(pts, ball.center.coords) > ball.radius * 1.000001
    vals = u.eval_many(pts[outside])
    if not np.all(vals == bc):
        raise SupportError(f"piece {idx} is not constant outside its declared support")


def _check_constant_on_ball(background, ball, bc, rng, idx, n=256):
    c = ball.center.coords
    dirs = tangent_directions(np.broadcast_to(c, (n, c.shape[0])).copy(), rng)
    pts = geodesic_step(np.broadcast_to(c, (n, c.shape[0])).copy(), dirs,
                        rng.random(n) * ball.radius)
    vals = background.eval_many(pts)
    if not np.all(vals == bc):
        raise SupportError(
            f"background is not constant on the support ball of piece {idx}"
        )


def precompose_rotation(u: SphereMap, rot) -> SphereMap:
    """u o R for a proper rotation R of the domain sphere.

    rot is a Rotation, or a matrix that must pass Rotation's checks.
    Rotations are homotopic to the identity, so bookkept degrees are
    unchanged.
    """
    mat = Rotation(u.domain_dim, getattr(rot, "matrix", rot)).matrix
    return _precompose(u, mat, "precompose_rotation", {"matrix": mat.tolist()})


def precompose_flip(u: SphereMap) -> SphereMap:
    """Precompose with the reflection negating the first domain coordinate.

    The reflection reverses orientation, so bookkept degrees negate.
    """
    flip = np.eye(u.domain_dim + 1)
    flip[0, 0] = -1.0
    return _precompose(u, flip, "orientation_flip", {})


def _precompose(u: SphereMap, mat, variant, params) -> SphereMap:
    """u o M for an orthogonal matrix M of the domain.

    Supports and fiber seeds move by M^-1 = M^T; an orientation-reversing
    M negates the bookkept degree.
    """

    def ev(pts):
        return u.eval_many(pts @ mat.T)

    def seeds(target):
        return [mat.T @ x for x in u.fiber_seeds(target)]

    supports = None
    if u.supports is not None:
        supports = [
            GeodesicBall(sphere_point(mat.T @ ball.center.coords), ball.radius)
            for ball in u.supports
        ]
    degree = None if u.degree is None else u.degree * int(np.sign(np.linalg.det(mat)))
    return SphereMap(u.domain_dim, u.codomain_dim, ev,
                     _desc(variant, params, children=[u.descriptor]),
                     lipschitz_hint=u.lipschitz_hint, supports=supports,
                     basepoint=u.basepoint, degree=degree,
                     fiber_seeds=None if u.fiber_seeds is None else seeds)


# ---------------------------------------------------------------------------
# Prescribed Hopf degree
# ---------------------------------------------------------------------------

def prescribed_hopf_map(d: int, b=None, safety: float = 0.9) -> SphereMap:
    """A map S^3 -> S^2 of exact (bookkept) Hopf degree d.

    d = 0 gives the constant map. For d > 0, take the largest k with
    k^2 <= d, start from (multi-bubble with k bubbles) o (Hopf map), whose
    degree is k^2, and patch d - k^2 extra Hopf bumps into the region where
    the base is constant; their supports sit on the Hopf fiber over a point
    of maximal clearance from the bubbles. d < 0 flips orientation of the
    map built for |d|.
    """
    bc = DEFAULT_BASEPOINT_S2.copy() if b is None else _unit(b)
    if d == 0:
        return constant_map(3, bc)
    if d < 0:
        return precompose_flip(prescribed_hopf_map(-d, bc, safety))
    k = math.isqrt(d)
    v = multi_bubble(k, bc, safety)
    base = composed_with_hopf(v)
    n_extra = d - k * k
    if n_extra == 0:
        return base
    centers, r_sup = _extra_bump_sites(v, n_extra)
    pieces = [
        (hopf_bump(c, math.tan(r_sup / 2.0), bc), GeodesicBall(sphere_point(c), r_sup))
        for c in centers
    ]
    return _patched(base, pieces, bc)


def _extra_bump_sites(v: SphereMap, n_extra: int):
    """Support centers and a common radius for the extra Hopf bumps.

    Picks the lattice point b* on S^2 with the largest clearance from every
    bubble of v, then spreads the centers along the Hopf fiber circle over
    b*. The radius keeps the supports pairwise disjoint (a third of their
    spacing) and keeps their Hopf image inside the clearance region (the
    Hopf map is 2-Lipschitz, so radius <= clearance/4 leaves the image
    within half the clearance).
    """
    centers_s2 = np.array([ball.center.coords for ball in v.supports])
    radius_s2 = v.supports[0].radius
    cand = fibonacci_lattice_s2(4096)
    clear = np.full(cand.shape[0], np.pi)
    for c in centers_s2:
        clear = np.minimum(clear, geodesic_distances(cand, c) - radius_s2)
    best = int(np.argmax(clear))
    clearance = float(clear[best])
    if clearance <= 1e-3:
        raise PlacementError(
            f"no clearance left between {centers_s2.shape[0]} bubbles "
            f"(best {clearance:.2e})"
        )
    b_star = cand[best]
    spacing = 2.0 * np.pi / n_extra
    r_sup = min(spacing / 3.0, clearance / 4.0, 0.3)
    if r_sup <= 1e-4:
        raise PlacementError(
            f"support radius collapsed to {r_sup:.2e} for {n_extra} extra bumps"
        )
    return fiber_circle(b_star, n_extra), r_sup


# ---------------------------------------------------------------------------
# Probes and serialization
# ---------------------------------------------------------------------------

def lipschitz_probe(u: SphereMap, n: int, rng, separation: float = 1e-4) -> float:
    """Max ratio of image to domain geodesic distance over n close pairs.

    A lower bound on the Lipschitz constant; pairs are drawn uniformly with
    the given geodesic separation.
    """
    if n < 1:
        raise ParameterError("lipschitz_probe needs n >= 1")
    x = sample_uniform_many(u.domain_dim, n, rng)
    dirs = tangent_directions(x, rng)
    y = geodesic_step(x, dirs, np.full(n, separation))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    fx, fy = u.eval_many(x), u.eval_many(y)
    num = np.arccos(np.clip(np.sum(fx * fy, axis=1), -1.0, 1.0))
    den = np.arccos(np.clip(np.sum(x * y, axis=1), -1.0, 1.0))
    return float(np.max(num / den))


def _desc(variant, params, children=None):
    return {"variant": variant, "params": params, "children": children or []}


def _unit(x):
    c = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(c)
    if abs(n - 1.0) > 1e-9:
        raise ParameterError(f"expected a unit vector, |x| = {n!r}")
    # keep the caller's bits when already unit so constant-outside equality
    # stays exact; renormalize only genuinely sloppy inputs
    return c if abs(n - 1.0) <= 1e-12 else c / n


def descriptor_to_json(desc) -> str:
    """Canonical JSON text for a descriptor (sorted keys, fixed separators)."""
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def descriptor_from_json(text: str):
    return json.loads(text)


def map_from_descriptor(desc) -> SphereMap:
    """Rebuild a SphereMap from its descriptor; inverse of construction."""
    variant = desc["variant"]
    p = desc.get("params", {})
    kids = desc.get("children", [])
    if variant == "constant":
        return constant_map(p["domain_dim"], np.array(p["basepoint"]))
    if variant == "identity":
        return identity_map(p["dim"])
    if variant == "hopf":
        return hopf_map()
    if variant == "equator_collapse":
        return equator_collapse(p["dim"])
    if variant == "bump_deg1":
        return bump_deg1(np.array(p["center"]), p["stereo_radius"],
                         np.array(p["basepoint"]))
    if variant == "multi_bubble":
        balls = [
            GeodesicBall(sphere_point(np.array(e["center"])), e["radius"])
            for e in p["balls"]
        ]
        return _bubble_assembly(balls, np.array(p["basepoint"]), p["k"], p["safety"])
    if variant == "compose_hopf":
        return composed_with_hopf(map_from_descriptor(kids[0]))
    if variant == "hopf_bump":
        return hopf_bump(np.array(p["center"]), p["stereo_radius"],
                         np.array(p["basepoint"]))
    if variant == "patched":
        background = map_from_descriptor(kids[0])
        pieces = [
            (map_from_descriptor(kid),
             GeodesicBall(sphere_point(np.array(e["center"])), e["radius"]))
            for kid, e in zip(kids[1:], p["supports"])
        ]
        return _patched(background, pieces, np.array(p["basepoint"]))
    if variant == "orientation_flip":
        return precompose_flip(map_from_descriptor(kids[0]))
    if variant == "precompose_rotation":
        return precompose_rotation(map_from_descriptor(kids[0]), np.array(p["matrix"]))
    raise ParameterError(f"unknown descriptor variant {variant!r}")
