"""Explicit sphere-valued maps and their combinators.

The building blocks: the Hopf map S^3 -> S^2, an equator-collapse map g,
degree-one bumps supported on small geodesic balls, multi-bubble maps with
k disjoint bumps, bumps composed with the Hopf map, disjoint-support
patching, and maps of any prescribed Hopf degree assembled from these.

Every map carries a serializable descriptor that fully determines its
values, so constructions can be persisted and rebuilt bit-identically.
Each constructor also sets the exact degree it bookkeeps from the pieces,
for maps S^3 -> S^2 a rule that seeds the fiber over a target, and, for
maps equal to a basepoint off a known set, the pieces of that set as x
sources (unions of balls, Hopf tubes): the one declaration that the energy
estimators, the degree integral and the preimage solver read.
Evaluation is vectorized over (N, dim+1) coordinate arrays; maps equal to
a fill off disjoint balls share one masked evaluator (_BallMasked).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (
    DimensionMismatchError,
    ParameterError,
    PlacementError,
    SupportError,
    require_int,
)
from .geometry import (
    BallUnion,
    GeodesicBall,
    Rotation,
    SpherePoint,
    ball_gap,
    ball_grid,
    carry,
    fibonacci_lattice_s2,
    geodesic_distance,
    geodesic_distances,
    geodesic_step,
    pack_disjoint_balls,
    ring_shares,
    ring_uniforms,
    rotation_taking,
    sample_uniform_many,
    sphere_point,
    tangent_directions,
)

DEFAULT_BASEPOINT_S2 = np.array([1.0, 0.0, 0.0])

_CHECK_RNG_SEED = 20260301  # construction-time support checks, fixed stream
_BALL_SEEDS = 64  # fiber seeds per support ball


class SphereMap:
    """A map between spheres with vectorized evaluation and a descriptor.

    eval_many maps an (N, domain_dim+1) array of unit vectors to an
    (N, codomain_dim+1) array of unit vectors. degree, when not None, is
    the exact invariant its constructor bookkeeps from its children: the
    mapping degree of S^m -> S^m maps, the Hopf invariant of S^3 -> S^2
    maps. fiber_seeds, when not None, maps a target z on S^2 to domain
    points near every component of the fiber over z; fiber tracing corrects
    and deduplicates them.
    sources, when not None, lists pairwise disjoint x sources (objects with
    sample, measure, contains, gap and moved, such as geometry.BallUnion)
    whose union W holds every point where the map differs from basepoint;
    both energy estimators integrate x over W only, and support_gap reads
    the distance to W from them. It is the map's one declaration of where
    it leaves its basepoint: a bump or Hopf bump passes one BallUnion of its
    ball, a multi-bubble one of all its balls, v o h one HopfTubes, a
    patched map its background's sources plus one BallUnion of its balls,
    u o M its child's sources moved by M. supports reads the balls of the
    sources when every source is a BallUnion. Hand-built maps leave degree,
    fiber_seeds and sources None, and None propagates through the
    combinators.
    jet_many, when not None, maps (N, domain_dim+1) points to the pair
    (values, J): the values bit for bit as eval_many gives them, and the
    (N, codomain_dim+1, domain_dim+1) ambient differentials, exact on
    tangent vectors, from one pass over the points. The Hopf map, identity,
    equator collapse, constant maps, bumps and multi-bubbles carry it in
    closed form, and u o M carries (u(M x), J_u(M x) M); every other map
    (v o h, Hopf bumps, patched maps) leaves it None and is differentiated
    on the finite-difference stencil of topology.tangential_jacobian.
    """

    def __init__(
        self,
        domain_dim,
        codomain_dim,
        eval_many,
        descriptor,
        lipschitz_hint=None,
        jet_many=None,
        basepoint=None,
        degree=None,
        fiber_seeds=None,
        sources=None,
    ):
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self._eval_many = eval_many
        self.descriptor = descriptor
        self.lipschitz_hint = lipschitz_hint
        self.jet_many = jet_many
        self.basepoint = None if basepoint is None else np.asarray(basepoint, float)
        self.degree = degree
        self.fiber_seeds = fiber_seeds
        self.sources = sources

    @property
    def supports(self):
        """The geodesic balls outside whose union the map equals basepoint:
        the balls of the sources, in order, when every source is a
        BallUnion, and None otherwise."""
        if self.sources is None or not all(isinstance(src, BallUnion)
                                           for src in self.sources):
            return None
        return [ball for src in self.sources for ball in src.balls]

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

    def support_gap(self, points):
        """A lower bound on each row's geodesic distance to W, the union of
        the sources, so positive only where the map equals its basepoint
        exactly: the least of the sources' gaps, +inf with no sources and
        -inf for a map without sources (None)."""
        if self.sources is None:
            return np.full(points.shape[0], -np.inf)
        out = np.full(points.shape[0], np.inf)
        for src in self.sources:
            out = np.minimum(out, src.gap(points))
        return out


class _BallMasked:
    """The evaluator of a map equal to kernels[i] on the open geodesic ball
    B(centers[i], radii[i]) and to fill everywhere else, for pairwise
    disjoint balls: fill is the map's basepoint, or a background SphereMap.

    Kernel i is called only with the points at geodesic distance < radii[i]
    from centers[i] (the test of geodesic_distances), and with pts itself,
    which copies nothing, when every point is one. Only the points with
    x.c > cos(r) - 1e-12 are tested, since cos and arccos round by a few
    ulp, i.e. moves of x.c below 1e-15; when all pass, all are tested in
    place. A background's eval_many is looked up per call, so that a
    wrapper installed on the class after the map was built (a profiler's)
    sees it. When every kernel has a jet method and fill is a point, jet
    gives the values and the ambient differentials from the same test:
    kernel i's jet on ball i, and (fill, 0) elsewhere.
    """

    __slots__ = ("centers", "radii", "cos_near", "kernels", "fill")

    def __init__(self, centers, radii, kernels, fill):
        self.centers = np.array(centers, dtype=np.float64)
        self.radii = [float(r) for r in radii]  # floats compare faster than numpy scalars
        self.cos_near = [math.cos(r) - 1e-12 for r in self.radii]
        self.kernels = kernels
        self.fill = fill

    def __call__(self, pts):
        if isinstance(self.fill, SphereMap):
            out = self.fill.eval_many(pts)
        else:
            out = np.broadcast_to(self.fill, (pts.shape[0], self.fill.shape[0])).copy()
        for kernel, rows in self._inside(pts):
            if rows is None:
                out[:] = kernel(pts)
            else:
                out[rows] = kernel(pts[rows])
        return out

    def jet(self, pts):
        # differentials built as (i, j, N), like the kernels', returned as a view
        out = np.broadcast_to(self.fill, (pts.shape[0], self.fill.shape[0])).copy()
        jac = np.zeros((self.fill.shape[0], pts.shape[1], pts.shape[0]))
        for kernel, rows in self._inside(pts):
            if rows is None:
                out[:], jac[...] = kernel.jet(pts)
            else:
                out[rows], jac[:, :, rows] = kernel.jet(pts[rows])
        return out, jac.transpose(2, 0, 1)

    def _inside(self, pts):
        """(kernel i, the rows of pts in ball i) for each ball holding some;
        the rows are None when every point is in the ball."""
        for c, r, cos_near, kernel in zip(self.centers, self.radii, self.cos_near,
                                          self.kernels):
            dot = pts @ c
            near = dot > cos_near
            if near.all():
                inside = np.arccos(np.clip(dot, -1.0, 1.0)) < r
                if inside.all():
                    yield kernel, None
                    continue
                near = np.flatnonzero(inside)
            else:
                near = np.flatnonzero(near)
                near = near[np.arccos(np.clip(dot[near], -1.0, 1.0)) < r]
            if near.size:
                yield kernel, near


# ---------------------------------------------------------------------------
# Leaf maps
# ---------------------------------------------------------------------------

def constant_map(domain_dim: int, b) -> SphereMap:
    """Map sending all of S^domain_dim to the point b."""
    bc = _unit(b)
    desc = _desc("constant", {"domain_dim": domain_dim, "basepoint": bc.tolist()})
    ev = _BallMasked([], [], [], bc)
    return SphereMap(domain_dim, bc.shape[0] - 1, ev, desc, lipschitz_hint=0.0,
                     jet_many=ev.jet, basepoint=bc, degree=0,
                     fiber_seeds=lambda target: [], sources=[])


def identity_map(m: int) -> SphereMap:
    """Identity on S^m."""

    def ev(pts):
        return pts.copy()

    return SphereMap(m, m, ev, _desc("identity", {"dim": m}), lipschitz_hint=1.0,
                     jet_many=_identity_jet, degree=1)


def _identity_jet(pts):
    n, d = pts.shape
    return pts.copy(), np.broadcast_to(np.eye(d), (n, d, d)).copy()


def hopf_map() -> SphereMap:
    """The Hopf map S^3 -> S^2: (w, z) -> (|w|^2 - |z|^2, 2 w conj(z)).

    Coordinates: (x1, x2, x3, x4) reads as (w, z) = (x1 + i x2, x3 + i x4)
    and the image (h1, h2 + i h3) sits in R x C = R^3. The ambient 3x4
    Jacobian is provided in closed form.
    """
    return SphereMap(
        3, 2, hopf_eval_many, _desc("hopf", {}),
        lipschitz_hint=2.0, jet_many=hopf_jet_many, degree=1,
        fiber_seeds=lambda target: fiber_circle(target, 1),
    )


def hopf_eval_many(pts):
    x1, x2, x3, x4 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    out = np.empty((pts.shape[0], 3))
    out[:, 0] = x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4
    out[:, 1] = 2.0 * (x1 * x3 + x2 * x4)
    out[:, 2] = 2.0 * (x2 * x3 - x1 * x4)
    return out


def hopf_jet_many(pts):
    """The Hopf map's values and ambient differentials at pts."""
    return hopf_eval_many(pts), hopf_jacobian_many(pts)


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


def _su2(q):
    """The real 4x4 form of the SU(2) matrix [[w, -conj z], [z, conj w]]
    acting on (w, z) = (x1 + i x2, x3 + i x4); its first column is q."""
    a, b, c, d = q
    return np.array([[a, -b, -c, -d],
                     [b, a, d, -c],
                     [c, -d, a, b],
                     [d, c, -b, a]])


class HopfTubes:
    """The Hopf tubes h^-1(B_i) over pairwise disjoint closed balls B_i of
    S^2, as one x source: the set where v o h can differ from v's basepoint.

    h pushes the round measure of S^3 forward to |S^3|/|S^2| = pi/2 times
    that of S^2, so the tube over a ball of radius r has measure
    pi^2 (1 - cos r). Over the pole (1, 0, 0), where h_1 = 2|w|^2 - 1, the
    tube is |w|^2 >= (1 + cos r)/2: a uniform point of it has
    |z|^2 = 1 - |w|^2 uniform on [0, sin^2(r/2)] and both phases uniform.
    draw takes a piece's ring and part uniforms (ring_uniforms) and a
    standard normal of C^2 = R^4 per row. points turns the rows of any
    number of pieces into x: each row's tube and |z|^2 = q sin^2(r/2), q the
    share of the tube nearer the fiber over the pole (ring_shares), and
    both phases from the normal. The SU(2) matrix U_i whose first column
    lifts c_i (hopf_lift_many) carries the tube over the pole onto the one
    over c_i, since h(U x) = R h(x) for a rotation R with R(pole) = c_i;
    U_i is built once, here. contains and gap read the balls B_i at one
    h(x) for all tubes: h(x) is in B_i when h(x).c_i >= cos r_i, and the
    gap is half of min_i d(h(x), c_i) - r_i, since
    d_S2(h(x), h(y)) <= 2 d_S3(x, y). frame F, an orthogonal matrix of R^4,
    gives the tubes carried by x -> F^T x (see moved).
    """

    def __init__(self, balls, frame=None):
        self.balls = list(balls)
        self.frame = frame
        self.centers = np.array([b.center.coords for b in self.balls])
        self.radii = np.array([b.radius for b in self.balls])
        self.cos_r = np.cos(self.radii)
        self._z2 = np.sin(0.5 * self.radii) ** 2
        sizes = 2.0 * np.pi ** 2 * self._z2
        self._total = float(np.sum(sizes))
        self._edges = np.cumsum(sizes / self._total)[:-1]
        self.lifts = np.array([_su2(q) for q in hopf_lift_many(self.centers)])
        # x -> F^T U_i x on row vectors
        self._rows = np.array([U.T if frame is None else U.T @ frame
                               for U in self.lifts])

    def measure(self) -> float:
        return self._total

    def draw(self, n: int, rng):
        return ring_uniforms(n, rng, self._edges), rng.standard_normal((n, 2, 2))

    def points(self, draws, ring, rings):
        u, g = draws
        part, q = ring_shares(u, self._edges, ring, rings)
        sq = np.einsum("nij,nij->ni", g, g)
        z2 = q * self._z2[part]
        sq[:, 0] = (1.0 - z2) / sq[:, 0]
        sq[:, 1] = z2 / sq[:, 1]
        return carry((g * np.sqrt(sq)[:, :, None]).reshape(-1, 4), part, self._rows)

    def contains(self, pts):
        dots = self.centers @ self._images(pts).T  # one row per tube
        return np.any(dots >= self.cos_r[:, None], axis=0)

    def gap(self, pts):
        return 0.5 * ball_gap(self._images(pts), self.balls)

    def _images(self, pts):
        """h(F x) at each row x."""
        return hopf_eval_many(pts if self.frame is None else pts @ self.frame.T)

    def moved(self, mat):
        return HopfTubes(self.balls, mat if self.frame is None else self.frame @ mat)

    def nodes(self, n_r: int, n_a: int):
        """A product rule on the tubes: per tube, n_r Gauss-Legendre radii
        rho on [0, r] of weight sin rho times n_a equal angles psi about c_i
        on S^2, each lifted to one point of its fiber. Returns the (N, 4)
        nodes and their (N,) weights, which sum to the measure."""
        g, gw = np.polynomial.legendre.leggauss(n_r)
        k = len(self.balls)
        rho = 0.5 * self.radii[:, None] * (g + 1.0)  # (k, n_r)
        weights = 0.5 * self.radii[:, None] * gw * np.sin(rho)
        half = np.repeat(0.5 * rho.ravel(), n_a)
        psi = np.tile(2.0 * np.pi * (np.arange(n_a) + 0.5) / n_a, k * n_r)
        # w = cos(rho/2), z = sin(rho/2) e^(i psi): h = (cos rho, sin rho e^(-i psi))
        x0 = np.column_stack([np.cos(half), np.zeros(half.shape[0]),
                              np.sin(half) * np.cos(psi), np.sin(half) * np.sin(psi)])
        # the first n_r n_a nodes go onto tube 0, the next onto tube 1, ...
        x = np.concatenate([block @ rows for block, rows
                            in zip(np.split(x0, k), self._rows)])
        # pi/2 carries the S^2 polar weights up to S^3
        return x, (0.5 * np.pi * 2.0 * np.pi / n_a) * np.repeat(weights.ravel(), n_a)


def equator_collapse(m: int) -> SphereMap:
    """The collapse g(x) = (-2 x1 x_{m+1}, ..., -2 x_m x_{m+1}, 1 - 2 x_{m+1}^2).

    Sends the equator {x_{m+1} = 0} to the north pole and restricts to a
    bijection from the open southern hemisphere onto S^m minus the pole.
    """

    # double cover of the sphere by the two hemispheres; the covers agree
    # in orientation exactly when m is odd
    return SphereMap(m, m, _equator_collapse, _desc("equator_collapse", {"dim": m}),
                     lipschitz_hint=2.0, jet_many=_equator_collapse_jet,
                     degree=1 + (-1) ** (m + 1))


def _equator_collapse(pts):
    last = pts[:, -1:]
    return np.concatenate([-2.0 * pts[:, :-1] * last, 1.0 - 2.0 * last * last],
                          axis=1)


def _equator_collapse_jet(pts):
    """g and its ambient differential: -2 x_{m+1} I and -2 x_<m+1 in the
    last column on the first m rows, -4 x_{m+1} in the last corner."""
    n, d = pts.shape
    last = pts[:, -1]
    J = np.zeros((n, d, d))
    diag = np.arange(d - 1)
    J[:, diag, diag] = (-2.0 * last)[:, None]
    J[:, :-1, -1] = -2.0 * pts[:, :-1]
    J[:, -1, -1] = -4.0 * last
    return _equator_collapse(pts), J


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
    continuous and the outside value is assigned exactly. It is evaluated
    in closed form: with q = R_dom x, D = (1 + q_m) + (1 - q_m) r^2 and
    z = ((1 + q_m) - (1 - q_m) r^2) / D, the image of q is
    (-4 r z q_<m / D, 1 - 2 z^2). 1 + q_m is taken as |q_<m|^2 / (1 - q_m),
    which keeps its relative precision near x0.
    """
    c0 = _unit(x0)
    bc = _unit(b)
    m = c0.shape[0] - 1
    if bc.shape[0] != c0.shape[0]:
        raise DimensionMismatchError("bump basepoint must lie on the codomain sphere S^m")
    rho = support_radius(r)
    ev = _BallMasked([c0], [rho], [_BumpKernel(c0, r, bc)], bc)
    desc = _desc("bump_deg1", {
        "dim": m,
        "center": c0.tolist(),
        "stereo_radius": r,
        "support_radius": rho,
        "basepoint": bc.tolist(),
    })
    ball = GeodesicBall(sphere_point(c0), rho)
    return SphereMap(m, m, ev, desc, lipschitz_hint=2.0 / r, jet_many=ev.jet,
                     basepoint=bc, degree=1, sources=[BallUnion([ball])])


class _BumpKernel:
    """bump_deg1's closed form, for points known to lie in its ball, and (jet)
    the values with their ambient differentials there, from one set of
    intermediates.

    With q = R_dom x = (h, q_m), s = 1 - q_m, u = |h|^2 / s, d = s r^2,
    D = u + d, z = (u - d) / D and a = -4 r z / D, the image is
    R_cod (a h, 1 - 2 z^2). Differentiating in (h, q_m), with
    du = 2 h.dh / s + u dq_m / s, dd = -r^2 dq_m and
    dz = 2 (d du - u dd) / D^2, gives in q-coordinates
    J_q = [[a I + beta h h^T, c h], [gamma h^T, delta]], a multiple of the
    identity on the head plus rank-one terms, and J = R_cod J_q R_dom. J is
    the differential of one extension of the map off the sphere, so only
    its action on tangent vectors is the map's.
    """

    __slots__ = ("rot_dom", "rot_cod", "r")

    def __init__(self, c0, r, bc):
        if not (0.0 < r < 1.0):
            raise ParameterError(f"bump stereographic radius must lie in (0,1), got {r}")
        m = c0.shape[0] - 1
        south = np.zeros(m + 1)
        south[-1] = -1.0
        north = -south
        self.rot_dom = rotation_taking(sphere_point(c0), sphere_point(south)).matrix
        self.rot_cod = rotation_taking(sphere_point(north), sphere_point(bc)).matrix
        self.r = r

    def __call__(self, pts):
        r = self.r
        q = _product(self.rot_dom, pts.T)  # one row per coordinate
        head, below = q[:-1], 1.0 - q[-1]
        # np.einsum would round a one-point batch otherwise
        up = np.add.reduce(head * head, axis=0) / below
        down = below * (r * r)
        denom = up + down
        z = (up - down) / denom
        head *= (-4.0 * r) * z / denom
        q[-1] = 1.0 - 2.0 * z * z
        return _product(self.rot_cod, q).T

    def jet(self, pts):
        """(values, J) at pts: the values bit for bit those of a call, built
        from J's intermediates, and J one (i, j) entry per row, each holding
        all points."""
        r, r2 = self.r, self.r * self.r
        rot_dom, rot_cod = self.rot_dom, self.rot_cod
        q = _product(rot_dom, pts.T)
        h, s = q[:-1], 1.0 - q[-1]
        u = np.add.reduce(h * h, axis=0) / s
        d = s * r2
        D = u + d
        z = (u - d) / D
        a = (-4.0 * r) * z / D
        beta = (-8.0 * r) * (3.0 * d - u) / (s * D ** 3)
        c = (-4.0 * r) / (D * D) * (4.0 * u * r2 / D - z * (u / s - r2))
        gamma = -16.0 * z * d / (s * D * D)
        delta = -16.0 * z * u * r2 / (D * D)
        # J_q = a I_h + p (beta p + c e)^T + e (gamma p + delta e)^T with
        # p = (h, 0) and e the last axis; R_dom^T e is rot_dom's last row
        # and R_dom^T p = x - q_m R_dom^T e
        m = h.shape[0]
        e_dom, e_cod = rot_dom[m, :, None], rot_cod[:, m, None, None]
        p_dom = pts.T - q[m] * e_dom
        J = (rot_cod[:, :m] @ rot_dom[:m])[:, :, None] * a
        J += _product(rot_cod[:, :m], h)[:, None] * (beta * p_dom + c * e_dom)
        J += e_cod * (gamma * p_dom + delta * e_dom)
        # R_cod (a h, 1 - 2 z^2), in q once J is done with h and q_m
        h *= a
        q[m] = 1.0 - 2.0 * z * z
        return _product(rot_cod, q).T, J


def _product(a, b):
    """a @ b for 2-D arrays, with the bits that gemm gives each row and
    column in a larger product also when a has one row or b one column:
    numpy hands those to gemv, which rounds otherwise. So a point's value
    does not depend on the batch it comes in."""
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    if b.shape[1] == 1:
        return (a @ np.repeat(b, 2, axis=1))[:, :1]
    return a @ b


def multi_bubble(k: int, b=None, safety: float = 0.9) -> SphereMap:
    """k disjoint degree-one bubbles on S^2, equal to b between them.

    Balls come from pack_disjoint_balls(k, safety); each carries a bump
    whose support is exactly that ball, so the total degree is k.
    """
    k = require_int(k, "k")
    if k < 1:
        raise ParameterError("multi_bubble needs k >= 1")
    bc = DEFAULT_BASEPOINT_S2.copy() if b is None else _unit(b)
    if bc.shape[0] != 3:
        raise DimensionMismatchError("multi_bubble basepoint must lie on S^2")
    balls = pack_disjoint_balls(k, safety)
    r_bump = math.tan(balls[0].radius / 2.0)
    centers = [ball.center.coords for ball in balls]
    ev = _BallMasked(centers, [ball.radius for ball in balls],
                     [_BumpKernel(c, r_bump, bc) for c in centers], bc)
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
                     jet_many=ev.jet, basepoint=bc, degree=k,
                     sources=[BallUnion(balls)])


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def composed_with_hopf(v: SphereMap) -> SphereMap:
    """v o h for v: S^2 -> S^2; the Hopf degree bookkeeps to (deg v)^2.

    When v's sources are balls (v.supports), v o h equals v's basepoint
    off the Hopf tubes over those balls, its one x source.
    """
    if v.domain_dim != 2 or v.codomain_dim != 2:
        raise DimensionMismatchError("composed_with_hopf needs v: S^2 -> S^2")

    def ev(pts):
        return v.eval_many(hopf_eval_many(pts))

    def seeds(target):
        # one point on each Hopf circle over v's preimages of target;
        # topology imports this module, so its solver is imported at call time
        from .topology import _preimages_on_s2
        return [x for pre in _preimages_on_s2(v, _unit(target))
                for x in fiber_circle(pre, 1)]

    hint = None if v.lipschitz_hint is None else 2.0 * v.lipschitz_hint
    degree = None if v.degree is None else v.degree ** 2
    balls = v.supports
    sources = None if balls is None else [HopfTubes(balls)] if balls else []
    desc = _desc("compose_hopf", {}, children=[v.descriptor])
    return SphereMap(3, 2, ev, desc, lipschitz_hint=hint, basepoint=v.basepoint,
                     degree=degree, fiber_seeds=seeds, sources=sources)


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
    kernel = _BumpKernel(c0, r, hopf_fiber_point(bc, 0.0).coords)
    radius = support_radius(r)
    ev = _BallMasked([c0], [radius], [lambda pts: hopf_eval_many(kernel(pts))], bc)
    desc = _desc("hopf_bump", {
        "center": c0.tolist(),
        "stereo_radius": r,
        "support_radius": radius,
        "basepoint": bc.tolist(),
    })
    return SphereMap(3, 2, ev, desc, lipschitz_hint=4.0 / r, basepoint=bc, degree=1,
                     fiber_seeds=lambda target: ball_grid(c0, radius, _BALL_SEEDS),
                     sources=[BallUnion([GeodesicBall(sphere_point(c0), radius)])])


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
    piece without a rule; the x sources are the background's plus one
    BallUnion of the support balls. A background without a seed rule or
    sources leaves the result without them.
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

    piece_maps = [u for u, _ in pieces]

    def seeds(target):
        out = list(background.fiber_seeds(target))
        for u, ball in zip(piece_maps, balls):
            out.extend(ball_grid(ball.center.coords, ball.radius, _BALL_SEEDS)
                       if u.fiber_seeds is None else u.fiber_seeds(target))
        return out

    # the pieces' eval_many is looked up per call, as the background's is
    ev = _BallMasked([ball.center.coords for ball in balls],
                     [ball.radius for ball in balls],
                     [lambda q, u=u: u.eval_many(q) for u in piece_maps], background)
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
    sources = None
    if background.sources is not None:
        sources = list(background.sources) + ([BallUnion(balls)] if balls else [])
    return SphereMap(dom, cod, ev, desc, lipschitz_hint=hint, basepoint=bc, degree=degree,
                     fiber_seeds=None if background.fiber_seeds is None else seeds,
                     sources=sources)


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

    x sources (and with them the supports and the support gap) and fiber
    seeds move by M^-1 = M^T; an orientation-reversing M negates the bookkept
    degree. A jet of u gives (u(M x), J_u(M x) M).
    """

    def ev(pts):
        return u.eval_many(_product(pts, mat.T))

    def jet(pts):
        vals, J = u.jet_many(_product(pts, mat.T))
        return vals, J @ mat

    def seeds(target):
        return [mat.T @ x for x in u.fiber_seeds(target)]

    degree = None if u.degree is None else u.degree * int(np.sign(np.linalg.det(mat)))
    return SphereMap(u.domain_dim, u.codomain_dim, ev,
                     _desc(variant, params, children=[u.descriptor]),
                     lipschitz_hint=u.lipschitz_hint,
                     jet_many=None if u.jet_many is None else jet,
                     basepoint=u.basepoint, degree=degree,
                     fiber_seeds=None if u.fiber_seeds is None else seeds,
                     sources=None if u.sources is None
                     else [src.moved(mat) for src in u.sources])


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
    d = require_int(d, "d")
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
    bubble of v (its support gap), then spreads the centers along the Hopf
    fiber circle over b*. The radius keeps the supports pairwise disjoint
    (a third of their spacing) and keeps their Hopf image inside the
    clearance region (the Hopf map is 2-Lipschitz, so radius <=
    clearance/4 leaves the image within half the clearance).
    """
    cand = fibonacci_lattice_s2(4096)
    clear = v.support_gap(cand)
    best = int(np.argmax(clear))
    clearance = float(clear[best])
    if clearance <= 1e-3:
        raise PlacementError(
            f"no clearance left between {len(v.supports)} bubbles "
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


def map_from_descriptor(desc) -> SphereMap:
    """Rebuild a SphereMap from its descriptor; inverse of construction.

    The rebuilt map's descriptor must equal desc, bit for bit: a descriptor
    that no constructor yields (an edited ball of a multi-bubble, say)
    raises ParameterError instead of rebuilding another map, and so does
    one that is not a JSON object, lacks a key or a child it needs, or
    gives a value of the wrong type (_Params).
    """
    if not isinstance(desc, dict):
        raise ParameterError(
            f"a descriptor is a JSON object, got {type(desc).__name__}")
    variant = desc.get("variant")
    try:
        u = _from_descriptor(desc)
    except KeyError as err:
        raise ParameterError(
            f"descriptor of variant {variant!r} has no key {err.args[0]!r}") from None
    except IndexError:
        raise ParameterError(
            f"descriptor of variant {variant!r} lacks a child") from None
    if u.descriptor != desc:
        raise ParameterError(
            f"descriptor of variant {variant!r} does not rebuild to itself")
    return u


class _Params:
    """A descriptor's params, read by type: a value of another type raises
    ParameterError naming the variant and the key (a missing key still
    raises KeyError, which map_from_descriptor names)."""

    def __init__(self, variant, params, what="params"):
        if not isinstance(params, dict):
            raise ParameterError(f"{what} of variant {variant!r} must be a JSON "
                                 f"object, got {type(params).__name__}")
        self.variant, self.params = variant, params

    def _read(self, key, ok, kind):
        value = self.params[key]
        if not ok(value):
            raise ParameterError(f"{key!r} of variant {self.variant!r} must be "
                                 f"{kind}, got {value!r}")
        return value

    def int(self, key):
        return self._read(key, lambda v: _is_number(v, numbers.Integral), "an integer")

    def number(self, key):
        return self._read(key, _is_number, "a number")

    def array(self, key, ndim: int = 1):
        """A vector (ndim 1) or matrix (ndim 2) of numbers."""
        return np.array(self._read(key, lambda v: _is_array(v, ndim),
                                   "a list of " + "lists of " * (ndim - 1) + "numbers"))

    def list(self, key):
        return self._read(key, lambda v: isinstance(v, list), "a list")


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_array(value, ndim: int) -> bool:
    if ndim == 0:
        return _is_number(value)
    return isinstance(value, list) and all(_is_array(v, ndim - 1) for v in value)


def _from_descriptor(desc) -> SphereMap:
    variant = desc["variant"]
    p = _Params(variant, desc.get("params", {}))
    kids = desc.get("children", [])
    if not isinstance(kids, list):
        raise ParameterError(f"children of variant {variant!r} must be a list, "
                             f"got {type(kids).__name__}")
    if variant == "constant":
        return constant_map(p.int("domain_dim"), p.array("basepoint"))
    if variant == "identity":
        return identity_map(p.int("dim"))
    if variant == "hopf":
        return hopf_map()
    if variant == "equator_collapse":
        return equator_collapse(p.int("dim"))
    if variant == "bump_deg1":
        return bump_deg1(p.array("center"), p.number("stereo_radius"),
                         p.array("basepoint"))
    if variant == "multi_bubble":
        return multi_bubble(p.int("k"), p.array("basepoint"), p.number("safety"))
    if variant == "compose_hopf":
        return composed_with_hopf(map_from_descriptor(kids[0]))
    if variant == "hopf_bump":
        return hopf_bump(p.array("center"), p.number("stereo_radius"),
                         p.array("basepoint"))
    if variant == "patched":
        background = map_from_descriptor(kids[0])
        supports = [_Params(variant, e, "each of 'supports'") for e in p.list("supports")]
        # the stored centres keep their bits: sphere_point would renormalize
        pieces = [
            (map_from_descriptor(kid),
             GeodesicBall(SpherePoint(len(e.params["center"]) - 1, e.array("center")),
                          e.number("radius")))
            for kid, e in zip(kids[1:], supports)
        ]
        return _patched(background, pieces, p.array("basepoint"))
    if variant == "orientation_flip":
        return precompose_flip(map_from_descriptor(kids[0]))
    if variant == "precompose_rotation":
        return precompose_rotation(map_from_descriptor(kids[0]), p.array("matrix", 2))
    raise ParameterError(f"unknown descriptor variant {variant!r}")
