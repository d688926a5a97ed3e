"""Topological certification: mapping degrees and Hopf invariants.

Degrees of S^m -> S^m maps come from integrating the signed Jacobian
determinant over the domain (support-aware when the map is constant off
known balls). Hopf invariants of S^3 -> S^2 maps come from tracing the
fibers over two regular values with adaptive steps and summing the exact
linking numbers of the traced polygons - the classical linking
characterization, used here instead
of the Whitehead integral because it is direct and self-validating against
structural bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    IllConditionedLinkingError,
    NonRegularValueError,
    ParameterError,
    UnresolvedDegreeError,
    require_int,
)
from .geometry import (
    ball_grid,
    kronecker_lattice_s3,
    polar_directions,
    rotation_taking,
    sphere_area,
    sphere_lattice,
    sphere_point,
    stereographic_many,
)
from .maps import SphereMap, map_from_descriptor

# Handedness of the fixed linking recipe (rotate pole to north, project
# stereographically, sum exact solid angles in R^3) relative to the S^3
# orientation in which tangent frames are built. Calibrated once so the
# Hopf map's fibers link to +1; every other sign (composition squares,
# patching adds, reflection negates) is then forced and cross-checked
# against structural bookkeeping.
PROJECTION_SIGN = 1.0

_FD_DELTA = 1e-5
_FD_BLOCK = 1024  # base points per stencil evaluation
_DEGREE_BLOCK = 2048  # nodes per evaluation of the degree integral
FIBER_SIGMA_MIN = 1e-3  # least second singular value along a traced fiber
FIBER_MAX_STEPS = 200_000  # rounds before a fiber counts as not closing
FIBER_MAX_STEP = 0.1  # largest arc step (rad) of a traced fiber curve
FIBER_MIN_STEP = 1e-12  # least initial arc step: the predictor still moves x
FIBER_TOL = 1e-8  # |f(x) - z| at which the fiber corrector stops
HOPF_MAX_TRIES = 20  # target pairs hopf_invariant draws before it gives up
LATTICE_SEEDS = 4096  # fiber seeds of a map without a seed rule


@dataclass(frozen=True)
class DegreeReport:
    """An integer invariant with the raw numeric value behind it."""

    value: int
    raw: float
    residual: float
    method: str

    def to_json(self) -> str:
        return json.dumps(
            {"value": self.value, "raw": self.raw, "residual": self.residual,
             "method": self.method},
            sort_keys=True,
        )


def _report(raw: float, method: str) -> DegreeReport:
    value = int(np.rint(raw))
    return DegreeReport(value=value, raw=float(raw),
                        residual=float(abs(raw - value)), method=method)


@dataclass(frozen=True)
class ClosedCurve:
    """Closed polyline on S^3: (N, 4) unit rows.

    tolerance, when given, is an input check on a hand-built curve: a node
    gap above it raises a parameter error. Nothing downstream reads it;
    gauss_linking's guard measures the polygons themselves. Traced curves
    carry none.
    """

    points: np.ndarray
    tolerance: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 4:
            raise ParameterError(f"closed curve needs (N>=3, 4) points, got {pts.shape}")
        if self.tolerance is None:
            return
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if float(np.max(gaps)) > self.tolerance:
            raise ParameterError(
                f"curve gap {np.max(gaps):.3e} exceeds tolerance {self.tolerance:.3e}"
            )


# ---------------------------------------------------------------------------
# Jacobians in tangent frames
# ---------------------------------------------------------------------------

def tangential_jacobian(f: SphereMap, pts):
    """Differential of f in positively oriented tangent frames.

    Returns (D, frames_dom, values, frames_cod): D has shape
    (N, cod_dim, dom_dim) with D[n] = W^T (Df) E for orthonormal frames E at
    pts[n] and W at f(pts[n]), both completing the base point to a positive
    basis and both from _tangent_frames, so quaternion frames on S^3. W is
    returned so that the corrector can use it without building it again.
    The columns Df E come from _ambient_columns: in closed form for maps
    with jet_many (the Hopf map, identity, equator collapse, constant maps,
    bumps, multi-bubbles and these precomposed with an orthogonal matrix),
    by central differences along geodesics for every other map.
    """
    pts = np.asarray(pts, dtype=np.float64)
    E = _tangent_frames(pts)
    vals, cols = _ambient_columns(f, pts, E)
    W = _tangent_frames(vals)
    D = np.einsum("nia,nij->naj", W, cols)
    return D, E, vals, W


# x -> (x i, x j, x k) for x = x1 + x2 i + x3 j + x4 k: entry (a, j) of the
# frame is _QUAT_SIGNS[a, j] * x[_QUAT_ROWS[a, j]]
_QUAT_ROWS = np.array([[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]])
_QUAT_SIGNS = np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0],
                        [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])


def _tangent_frames(pts):
    """Positive orthonormal tangent frames at the rows of pts, (N, d, d-1):
    every frame that topology builds at points of S^3 or S^2 other than the
    degree rule's ball centers.

    On S^3 the frame is (x i, x j, x k) for x read as a quaternion. Each
    vector is a signed copy of x's coordinates, so the frame is orthonormal
    up to the rounding of |x|, and det[x, x i, x j, x k] = |x|^4 = 1, since
    the matrix is that of q -> x q; one gather and one product build it. On
    S^2 the frame is _kernels.oriented_frames'.
    """
    if pts.shape[1] == 4:
        return pts[:, _QUAT_ROWS] * _QUAT_SIGNS
    return _kernels.oriented_frames(pts)


def _ambient_columns(f: SphereMap, pts, E):
    """(f(pts), Df E): the values and the ambient columns of the
    differential along the tangent frames E, shape (N, cod_dim+1, dom_dim).

    A map with jet_many gives its values and J E from one jet. Otherwise
    each block of base points is stacked with its +/- delta geodesic
    neighbours along every frame direction and evaluated in one call;
    blocks bound the temporaries of large batches.
    """
    if f.jet_many is not None:
        vals, J = f.jet_many(pts)
        return vals, np.einsum("nij,njk->nik", J, E)
    m_dom, m_cod = f.domain_dim, f.codomain_dim
    d = _FD_DELTA
    n = pts.shape[0]
    vals = np.empty((n, m_cod + 1))
    cols = np.empty((n, m_cod + 1, m_dom))
    for a in range(0, n, _FD_BLOCK):
        p = pts[a:a + _FD_BLOCK]
        base = np.cos(d) * p
        shift = np.sin(d) * E[a:a + _FD_BLOCK].transpose(2, 0, 1)
        stencil = np.concatenate([p[None], base + shift, base - shift])
        out = f.eval_many(stencil.reshape(-1, m_dom + 1))
        out = out.reshape(1 + 2 * m_dom, -1, m_cod + 1)
        vals[a:a + _FD_BLOCK] = out[0]
        cols[a:a + _FD_BLOCK] = (
            out[1:1 + m_dom] - out[1 + m_dom:]).transpose(1, 2, 0) / (2.0 * d)
    return vals, cols


def _jacobian_density(f: SphereMap, x):
    """det[f(x) | Df E] at each row x, for a positive orthonormal tangent
    frame E at x: the signed Jacobian of f in any positive orthonormal
    frames, since [f | W] for such a frame W at f(x) is orthogonal with
    determinant 1 and [f | W]^T [f | Df E] is block-triangular with
    W^T Df E in its corner. With a closed-form jet (f(x), J) it is
    det(J + (f(x) - J x) x^T), a matrix that takes [x | E] to [f(x) | J E],
    so no frame is built; otherwise E comes from _tangent_frames and Df E
    from the stencil."""
    if f.jet_many is None:
        vals, cols = _ambient_columns(f, x, _tangent_frames(x))
        return _det(np.concatenate([vals[:, :, None], cols], axis=2).transpose(1, 2, 0))
    vals, J = f.jet_many(x)
    # one (i, j) entry per row, each holding all points
    J = J.transpose(1, 2, 0)
    xt = np.ascontiguousarray(x.T)
    off = vals.T - np.einsum("ijn,jn->in", J, xt)
    return _det(J + off[:, None] * xt)


def _det(M):
    """Determinants of the (3, 3) or (4, 4) matrices M[:, :, n]: the triple
    product, or the Laplace expansion in the 2x2 minors of the first two and
    the last two columns."""
    a, b, c = M[:, 0], M[:, 1], M[:, 2]
    if M.shape[0] == 3:
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))
    d = M[:, 3]

    def ab(i, j):
        return a[i] * b[j] - a[j] * b[i]

    def cd(i, j):
        return c[i] * d[j] - c[j] * d[i]

    return (ab(0, 1) * cd(2, 3) - ab(0, 2) * cd(1, 3) + ab(0, 3) * cd(1, 2)
            + ab(1, 2) * cd(0, 3) - ab(1, 3) * cd(0, 2) + ab(2, 3) * cd(0, 1))


# ---------------------------------------------------------------------------
# Mapping degree
# ---------------------------------------------------------------------------

def mapping_degree(f: SphereMap, grid_size: int = 200_000) -> DegreeReport:
    """Degree of f: S^m -> S^m as the normalized signed-Jacobian integral.

    When the map is constant outside declared support balls the integral
    runs in geodesic polar grids over those balls only (the Jacobian
    vanishes elsewhere); otherwise over an equal-weight lattice of the
    whole sphere. grid_size is the number of integration nodes, split
    evenly over the balls. A node costs one evaluation and one closed-form
    Jacobian from one jet, or 2m + 1 evaluations on the stencil for a map
    without jet_many. The integrand is _jacobian_density; nodes are generated
    and evaluated in blocks of at most _DEGREE_BLOCK.
    """
    if f.domain_dim != f.codomain_dim:
        raise ParameterError("mapping degree needs equal domain and codomain dimension")
    grid_size = require_int(grid_size, "grid_size")
    if grid_size < 1_000:
        raise ParameterError("grid_size must be at least 1000")
    m = f.domain_dim
    if f.supports is not None:
        if not f.supports:
            return DegreeReport(0, 0.0, 0.0, "jacobian-integral")
        raw = 0.0
        per_ball = max(2_000, grid_size // len(f.supports))
        for ball in f.supports:
            raw += _ball_jacobian_integral(f, ball, per_ball)
        raw /= sphere_area(m)
    else:
        pts = sphere_lattice(m, grid_size)
        total = 0.0
        for a in range(0, grid_size, _DEGREE_BLOCK):
            total += float(np.sum(_jacobian_density(f, pts[a:a + _DEGREE_BLOCK])))
        raw = total / grid_size
    report = _report(raw, "jacobian-integral")
    if report.residual >= 0.5:
        raise UnresolvedDegreeError(
            f"degree integral {raw:.4f} is not within 0.5 of an integer; "
            "increase grid_size"
        )
    return report


def _ball_jacobian_integral(f: SphereMap, ball, budget: int) -> float:
    """Signed-Jacobian integral of f over one geodesic ball: Gauss radii t
    times the directions w of polar_directions about the center c, at the
    nodes cos t c + sin t w; blocks run across rings."""
    m = f.domain_dim
    c = ball.center.coords
    R = ball.radius
    V = _kernels.oriented_frames(c[None, :])[0]
    if m == 2:
        n_r = int(np.clip(np.sqrt(budget / 10.0), 16, 400))
        n_a = max(32, budget // n_r)
    else:
        n_r = int(np.clip((budget / 40.0) ** (1.0 / 3.0), 8, 120))
        n_a = max(128, budget // n_r)
    omega, w_ang = polar_directions(m, n_a)
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    t = 0.5 * R * (nodes + 1.0)
    w_r = 0.5 * R * weights * np.sin(t) ** (m - 1)
    dirs = omega @ V.T  # (n_a, m+1) unit tangents at c
    cos_t, sin_t = np.cos(t), np.sin(t)
    total = 0.0
    for a in range(0, n_r * n_a, _DEGREE_BLOCK):
        ring, w = np.divmod(np.arange(a, min(a + _DEGREE_BLOCK, n_r * n_a)), n_a)
        x = cos_t[ring, None] * c + sin_t[ring, None] * dirs[w]
        total += float(w_r[ring] @ _jacobian_density(f, x))
    return total * w_ang


# ---------------------------------------------------------------------------
# Fiber tracing
# ---------------------------------------------------------------------------

def trace_fiber(f: SphereMap, target, seeds, step: float = 1e-3):
    """Closed fiber components of f: S^3 -> S^2 over the target value.

    One batched Gauss-Newton (_correct) moves the seeds onto the fiber and
    drops those that do not converge. Each start opens a curve; all curves
    advance in lockstep, one tangential_jacobian call per corrector
    iteration: a predictor along the kernel, oriented as induced from f,
    then the corrector. Each curve carries its own arc step h, starting at
    step. A step is accepted when the corrector converges within
    step / 4 of the predicted point; h then doubles, up to FIBER_MAX_STEP,
    if it landed within step / 16. A rejected step halves h and retries
    from the last point; h below step / 64 raises a non-regular-value
    error, or a ParameterError naming step when the corrector converged
    and its displacement is within the 2 FIBER_TOL / sigma2 that its
    tolerance allows: then step / 4 is below what the corrector resolves,
    and no target pair would do better. That needs step / 4 < 2 FIBER_TOL /
    FIBER_SIGMA_MIN, i.e. step < 8e-5. So step is the initial arc step, the
    scale of the predictor tolerance and the closing and duplicate radius,
    not the node spacing.

    A curve closes once its segment just travelled, begun more than
    10 * step along it, passes within 2 * step of its start. A start within
    3 * step of a segment travelled by a lower-index curve of its fiber is
    dropped, so each component is traced once, from its first seed. Both
    radii grow by the segment's sagitta (_sagitta): a 0.1 rad chord lies
    1.25e-3 from its arc, more than 2 * step for step below 6.3e-4. A sigma2
    below FIBER_SIGMA_MIN or a curve open after FIBER_MAX_STEPS rounds
    raises a non-regular-value error. step must be finite and at least
    FIBER_MIN_STEP = 1e-12: far below it a predictor move of a unit vector
    rounds away, so every curve would close at once on its start.
    """
    return _trace_fibers(f, [target], [seeds], step)[0]


def _trace_fibers(f: SphereMap, targets, seed_sets, step: float):
    """trace_fiber's curves for each target, all traced in one lockstep batch.

    Every decision is taken per curve, so a curve's nodes do not depend on
    the other curves of the batch.
    """
    if f.domain_dim != 3 or f.codomain_dim != 2:
        raise ParameterError("fiber tracing needs a map S^3 -> S^2")
    if not FIBER_MIN_STEP <= step < np.inf:  # also false for nan
        raise ParameterError(f"fiber step must be finite and at least "
                             f"{FIBER_MIN_STEP:g}, got step = {step}")
    X = [np.reshape([getattr(s, "coords", s) for s in seeds], (-1, 4))
         for seeds in seed_sets]
    fib = np.repeat(np.arange(len(X)), [len(x) for x in X])
    Z = np.array([getattr(z, "coords", z) for z in targets], float)[fib]
    X = np.concatenate(X)
    ok, starts, D, E = _correct(f, X / np.linalg.norm(X, axis=1)[:, None], Z)
    starts, D, E, Z, fib = starts[ok], D[ok], E[ok], Z[ok], fib[ok]
    n = len(starts)
    x, live = starts, np.arange(n)
    dropped, closed = np.zeros(n, bool), np.zeros(n, bool)
    h, travelled = np.full(n, float(step)), np.zeros(n)
    trails = [[p] for p in starts]
    _drop_passed(starts, fib, dropped, live, starts, starts, 3.0 * step)
    for nstep in range(FIBER_MAX_STEPS + 1):
        keep = ~(dropped[live] | closed[live])
        live, x, D, E = live[keep], x[keep], D[keep], E[keep]
        if live.size == 0:
            break
        if nstep == FIBER_MAX_STEPS:
            raise NonRegularValueError(
                f"fiber did not close within {FIBER_MAX_STEPS} rounds (length "
                f"{np.max(travelled[live]):.2f})")
        # the kernel a1 x a2 has det[v, a1, a2] > 0: the induced orientation
        _, _, c, _, sigma2 = _row_cross(D)
        if np.min(sigma2) < FIBER_SIGMA_MIN:
            raise NonRegularValueError(
                f"differential nearly singular along fiber (sigma2 = "
                f"{np.min(sigma2):.2e}); retry with a different target")
        v = c / np.linalg.norm(c, axis=1)[:, None]
        hl = h[live, None]
        pred = np.cos(hl) * x + np.sin(hl) * (E @ v[:, :, None])[:, :, 0]
        pred /= np.linalg.norm(pred, axis=1)[:, None]
        ok, xc, Dc, Ec = _correct(f, pred, Z[live])
        delta = np.linalg.norm(xc - pred, axis=1)
        acc = ok & (delta <= 0.25 * step)
        h[live[~acc]] *= 0.5
        if np.any(h[live[~acc]] < step / 64.0):
            k = np.flatnonzero(~acc)[np.argmin(h[live[~acc]])]
            if ok[k] and delta[k] * sigma2[k] <= 2.0 * FIBER_TOL:
                raise ParameterError(
                    f"fiber step = {step:.2e} is below the corrector's "
                    f"resolution: a converged correction moved a point by "
                    f"delta = {delta[k]:.2e} > step/4, within the "
                    f"2 tol / sigma2 = {2.0 * FIBER_TOL / sigma2[k]:.2e} that "
                    f"its tolerance tol = {FIBER_TOL:g} allows; raise step")
            raise NonRegularValueError(
                f"fiber step h = {h[live[k]]:.2e} fell below step/64 = "
                f"{step / 64.0:.2e} (corrector displacement delta = "
                f"{delta[k]:.2e}, converged: {bool(ok[k])})")
        ids, prev, new = live[acc], x[acc], xc[acc]
        x[acc], D[acc], E[acc] = new, Dc[acc], Ec[acc]
        arc = travelled[ids]
        travelled[ids] += h[ids]
        h[ids] = np.where(delta[acc] <= step / 16.0,
                          np.minimum(2.0 * h[ids], FIBER_MAX_STEP), h[ids])
        _drop_passed(starts, fib, dropped, ids, prev, new, 3.0 * step)
        # a curve closes when the segment just travelled passes its start;
        # a start short of the segment's end closes it from the segment's
        # first point, so the polygon never doubles back
        dist, t = _point_segment(starts[ids], prev, new)
        sag = _sagitta(np.sum((new - prev) ** 2, axis=1))
        closed[ids] = (arc > 10.0 * step) & (dist < 2.0 * step + sag)
        for j, p, past in zip(ids, new, t < 1.0):
            if not (closed[j] and past):
                trails[j].append(p)
    curves = [[] for _ in targets]
    for j in np.flatnonzero(~dropped):
        curves[fib[j]].append(ClosedCurve(np.array(trails[j])))
    return curves


def _sagitta(ll):
    """How far a great-circle arc of S^3 bows from its chord, ll the chord's
    squared length: 1 - sqrt(1 - ll / 4), about ll / 8. A fiber's geodesic
    curvature bows it by about a quarter of the corrector displacement
    more, under step / 16, which the radii's multiples of step absorb."""
    return 0.25 * ll / (1.0 + np.sqrt(np.maximum(1.0 - 0.25 * ll, 0.0)))


def _point_segment(p, a, b):
    """Distance from each row of p to the segment [a, b] of its row, and the
    parameter in [0, 1] of the nearest point."""
    u, w = b - a, p - a
    t = np.clip(np.sum(w * u, axis=-1)
                / np.maximum(np.sum(u * u, axis=-1), 1e-300), 0.0, 1.0)
    return np.linalg.norm(w - t[..., None] * u, axis=-1), t


def _drop_passed(starts, fib, dropped, ids, a, b, radius):
    """Drop every start j of a fiber within radius plus the sagitta of the
    segment [a, b] of a curve i < j of that fiber; ids holds i for each row
    of a and b. Blocks of segments meet the starts one coordinate at a
    time."""
    cand = np.flatnonzero(~dropped)
    u = b - a
    uu = np.maximum(np.sum(u * u, axis=1), 1e-300)
    r2 = (radius + _sagitta(uu)) ** 2
    chunk = max(1, _kernels.PAIR_BLOCK // max(1, cand.size))
    for lo in range(0, ids.size, chunk):
        i, al, ul = ids[lo:lo + chunk, None], a[lo:lo + chunk], u[lo:lo + chunk]
        j = cand[cand > np.min(i)]
        w = [starts[j, k] - al[:, k, None] for k in range(4)]
        t = np.clip(sum(w[k] * ul[:, k, None] for k in range(4))
                    / uu[lo:lo + chunk, None], 0.0, 1.0)
        d2 = sum((w[k] - t * ul[:, k, None]) ** 2 for k in range(4))
        hit = (d2 < r2[lo:lo + chunk, None]) & (i < j) & (fib[i] == fib[j])
        dropped[j[np.any(hit, axis=0)]] = True


def _correct(f: SphereMap, X, Z, tol: float = FIBER_TOL, iters: int = 60,
             min_step: float = 1e-15):
    """Batched Gauss-Newton: move each row x of X on the domain sphere until
    |f(x) - z| < tol, z its row of Z; returns (ok, X, D, E), with D, E from
    tangential_jacobian at each converged x. A row is off the fiber on a flat
    spot, a step below min_step or after iters iterations. A step solves
    D h = -W^T (f(x) - z) in the frame W at f(x) that tangential_jacobian
    returns with D, and is capped at length 0.2.
    """
    X, n, m = np.array(X, float), len(X), f.domain_dim
    ok, todo = np.zeros(n, bool), np.arange(n)
    D, E = np.empty((n, f.codomain_dim, m)), np.empty((n, m + 1, m))
    for _ in range(iters if n else 0):
        Dt, Et, vals, W = tangential_jacobian(f, X[todo])
        r = vals - Z[todo]
        done = np.linalg.norm(r, axis=1) < tol
        ok[todo[done]] = True
        D[todo[done]], E[todo[done]] = Dt[done], Et[done]
        todo, Dt, Et, W, r = (a[~done] for a in (todo, Dt, Et, W, r))
        if todo.size == 0:
            break
        b = -(np.swapaxes(W, 1, 2) @ r[:, :, None])[:, :, 0]
        # min-norm solution of Dt h = b: (b1 a2 x c - b2 a1 x c) / |c|^2 at
        # rank two; Dt^T b / |Dt|^2 at the rank one that np.linalg.lstsq
        # sees below sigma2 = m eps sigma1; 0 on a flat spot, |Dt| < 1e-12
        a1, a2, c, sigma1, sigma2 = _row_cross(Dt)
        full = sigma2 > m * np.finfo(float).eps * sigma1
        h = b[:, :1] * _kernels.cross3(a2, c) - b[:, 1:] * _kernels.cross3(a1, c)
        h = h[:, :m] / np.where(full, np.sum(c * c, axis=1), 1.0)[:, None]
        d2 = np.sum(Dt * Dt, axis=(1, 2))
        low = np.einsum("nia,ni->na", Dt, b) / np.maximum(d2, 1e-300)[:, None]
        h = np.where((d2 < 1e-24)[:, None], 0.0, np.where(full[:, None], h, low))
        hn = np.linalg.norm(h, axis=1)
        go = hn >= min_step
        todo, u, hn, Et = todo[go], h[go] / hn[go, None], hn[go], Et[go]
        hn = np.minimum(hn, 0.2)
        x = (np.cos(hn)[:, None] * X[todo]
             + np.sin(hn)[:, None] * (Et @ u[:, :, None])[:, :, 0])
        X[todo] = x / np.linalg.norm(x, axis=1)[:, None]
    return ok, X, D, E


def _row_cross(D):
    """Rows a1, a2 of each (2, m) block of D, padded to R^3, c = a1 x a2 and
    the singular values: |c| = sigma1 sigma2, and sigma1^2 is the larger
    eigenvalue of the rows' Gram matrix [[p, r], [r, q]]."""
    D = np.concatenate([D, np.zeros(D.shape[:2] + (3 - D.shape[2],))], axis=2)
    c = _kernels.cross3(D[:, 0], D[:, 1])
    (p, r), (_, q) = np.einsum("nij,nkj->nik", D, D).transpose(1, 2, 0)
    sigma1 = np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), r))
    sigma2 = np.linalg.norm(c, axis=1) / np.maximum(sigma1, 1e-300)
    return D[:, 0], D[:, 1], c, sigma1, sigma2


# ---------------------------------------------------------------------------
# Gauss linking
# ---------------------------------------------------------------------------

def gauss_linking(c1: ClosedCurve, c2: ClosedCurve) -> DegreeReport:
    """Linking number of two disjoint closed curves on S^3.

    Projects stereographically from the sphere point farthest from both
    curves and sums the exact solid angles of all segment pairs of the two
    polygons (Klenin and Langowski), so the raw value is an integer up to
    rounding for any polygons, however coarse. It is the curves' linking
    number when each polygon stays near its curve: the least distance
    between segments of the two projected polygons must exceed 5 times the
    sum of their chord deviation bounds (_deviation_bound), or an
    ill-conditioned-linking error is raised. The operands are ordered
    canonically first, so the result is exactly symmetric in its arguments.
    """
    a, b = c1, c2
    if b.points[0].tobytes() < a.points[0].tobytes():
        a, b = b, a
    both = np.vstack([a.points, b.points])
    candidates = np.vstack([kronecker_lattice_s3(128), np.eye(4), -np.eye(4)])
    # farthest-from-curves pole = smallest max inner product
    closeness = np.max(candidates @ both.T, axis=1)
    pole = candidates[int(np.argmin(closeness))]
    rot = rotation_taking(sphere_point(pole), sphere_point([0.0, 0.0, 0.0, 1.0]))
    p1 = stereographic_many(rot.apply(a.points))
    p2 = stereographic_many(rot.apply(b.points))
    q1, q2 = np.roll(p1, -1, axis=0), np.roll(p2, -1, axis=0)
    sep = _kernels.min_pairwise_distance(p1, q1, p2, q2)
    bound = _deviation_bound(p1) + _deviation_bound(p2)
    if sep <= 5.0 * bound:
        raise IllConditionedLinkingError(
            f"projected polygons only {sep:.3e} apart at chord deviation "
            f"bound {bound:.3e}")
    raw = PROJECTION_SIGN * _kernels.gauss_linking_sum(p1, q1, p2, q2)
    return _report(raw, "linking")


def _deviation_bound(pts):
    """How far a closed polygon in R^3 may lie from the smooth curve it
    samples: the largest l * theta / 4 over its segments, l the segment's
    length and theta the larger turning angle at its two ends. An arc of
    constant curvature lies within l * theta / 8 of its chord."""
    seg = np.roll(pts, -1, axis=0) - pts
    before = np.roll(seg, 1, axis=0)
    turn = np.arctan2(np.linalg.norm(_kernels.cross3(before, seg), axis=1),
                      np.sum(before * seg, axis=1))
    length = np.linalg.norm(seg, axis=1)
    return float(np.max(length * np.maximum(turn, np.roll(turn, -1)))) / 4.0


# ---------------------------------------------------------------------------
# Hopf invariant
# ---------------------------------------------------------------------------

def hopf_invariant(f: SphereMap, step: float = 1e-3,
                   seed: int = 0) -> DegreeReport:
    """Hopf invariant of f: S^3 -> S^2 by fiber tracing and linking.

    Traces the fibers over two regular values in one lockstep batch and
    sums the exact polygonal linking numbers (gauss_linking) over all pairs
    of components, one from each fiber, so the raw value is an integer up to
    rounding. step is the fibers' initial arc step, the scale of the
    predictor tolerance and the closing and duplicate radius (trace_fiber);
    the curves' steps adapt from it up to FIBER_MAX_STEP. The map's
    fiber_seeds rule seeds the tracing; a map without one is seeded from a
    LATTICE_SEEDS-point lattice of S^3. Targets are drawn away from the
    map's constant value, from a generator seeded by seed in [0, 2^64), and
    re-drawn, up to HOPF_MAX_TRIES pairs, if tracing finds a non-regular
    point or the linking guard trips. step must be finite and at least
    FIBER_MIN_STEP; a step below the corrector's resolution raises a
    ParameterError at the first target pair (trace_fiber).
    """
    if f.domain_dim != 3 or f.codomain_dim != 2:
        raise ParameterError("the Hopf invariant needs a map S^3 -> S^2")
    seed = require_int(seed, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    seeds = f.fiber_seeds or (lambda target: kronecker_lattice_s3(LATTICE_SEEDS))
    rng = np.random.default_rng(seed)
    last_err = None
    for _ in range(HOPF_MAX_TRIES):
        z1, z2 = _pick_targets(f, rng)
        try:
            fib1, fib2 = _trace_fibers(f, (z1, z2), (seeds(z1), seeds(z2)),
                                       step)
            raw = 0.0
            for c1 in fib1:
                for c2 in fib2:
                    raw += gauss_linking(c1, c2).raw
            return _report(raw, "linking")
        except (NonRegularValueError, IllConditionedLinkingError) as err:
            last_err = err
    raise NonRegularValueError(
        f"no pair of regular values found in {HOPF_MAX_TRIES} tries: {last_err}"
    )


def _pick_targets(f: SphereMap, rng):
    """Two well-separated targets, away from the constant basepoint."""
    avoid = f.basepoint
    for _ in range(200):
        v = rng.standard_normal((2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        z1, z2 = v[0], v[1]
        if np.arccos(np.clip(np.dot(z1, z2), -1, 1)) < 0.4:
            continue
        if avoid is not None and (
            np.arccos(np.clip(np.dot(z1, avoid), -1, 1)) < 0.35
            or np.arccos(np.clip(np.dot(z2, avoid), -1, 1)) < 0.35
        ):
            continue
        return z1, z2
    raise NonRegularValueError("could not draw separated target values")


def _preimages_on_s2(v: SphereMap, zc, grid: int = 24):
    """All preimages of zc under v: S^2 -> S^2, corrected in one batch.

    A map with declared supports (a bubble map) has one preimage per ball:
    the first point of a grid over the ball that converges. A map without
    them is searched from a lattice over the whole sphere, keeping every
    distinct converged point, since preimages of opposite orientation can
    cancel in the invariant.
    """
    pools = ([sphere_lattice(2, 64)] if v.supports is None else
             [ball_grid(b.center.coords, b.radius, grid) for b in v.supports])
    pool = np.concatenate(pools + [np.empty((0, 3))])
    ok, X, _, _ = _correct(v, pool, np.broadcast_to(zc, pool.shape),
                           tol=1e-10, iters=80, min_step=1e-16)
    if v.supports is not None:
        owner = np.repeat(np.arange(len(pools)), [len(g) for g in pools])
        return [X[ok & (owner == k)][0] for k in np.unique(owner[ok])]
    found = []
    for x in X[ok]:
        if all(float(np.linalg.norm(x - y)) > 1e-6 for y in found):
            found.append(x)
    return found


# ---------------------------------------------------------------------------
# Structural bookkeeping
# ---------------------------------------------------------------------------

def bookkept_degree(desc) -> DegreeReport:
    """Exact integer invariant of a descriptor, as its constructors bookkeep it.

    Rebuilds the map and reads SphereMap.degree: the mapping degree of
    S^m -> S^m variants, the Hopf invariant of S^3 -> S^2 variants.
    Rebuilding re-checks patched supports, so a descriptor whose supports
    overlap raises SupportError.
    """
    degree = map_from_descriptor(desc).degree
    return DegreeReport(value=degree, raw=float(degree), residual=0.0,
                        method="bookkeeping")
