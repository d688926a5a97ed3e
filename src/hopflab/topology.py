"""Topological certification: mapping degrees and Hopf invariants.

Degrees of S^m -> S^m maps come from integrating the signed Jacobian
determinant over the domain (support-aware when the map is constant off
known balls). Hopf invariants of S^3 -> S^2 maps come from tracing the
fibers over two regular values and summing Gauss linking numbers of the
traced curves - the classical linking characterization, used here instead
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
)
from .geometry import (
    geodesic_distances,
    kronecker_lattice_s3,
    rotation_taking,
    sphere_area,
    sphere_lattice,
    sphere_point,
    stereographic_many,
)
from .maps import SphereMap, fiber_circle, map_from_descriptor

# Handedness of the fixed linking recipe (rotate pole to north, project
# stereographically, evaluate the Gauss sum in R^3) relative to the S^3
# orientation in which tangent frames are built. Calibrated once so the
# Hopf map's fibers link to +1; every other sign (composition squares,
# patching adds, reflection negates) is then forced and cross-checked
# against structural bookkeeping.
PROJECTION_SIGN = 1.0

_FD_DELTA = 1e-5
_FD_BLOCK = 1024  # base points per stencil evaluation


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
    """Closed polyline on S^3: (N, 4) unit rows with bounded node gaps."""

    points: np.ndarray
    tolerance: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 4:
            raise ParameterError(f"closed curve needs (N>=3, 4) points, got {pts.shape}")
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if float(np.max(gaps)) > self.tolerance:
            raise ParameterError(
                f"curve gap {np.max(gaps):.3e} exceeds tolerance {self.tolerance:.3e}"
            )

    def reversed_(self) -> "ClosedCurve":
        return ClosedCurve(self.points[::-1].copy(), self.tolerance)


# ---------------------------------------------------------------------------
# Jacobians in tangent frames
# ---------------------------------------------------------------------------

def tangential_jacobian(f: SphereMap, pts):
    """Differential of f in positively oriented tangent frames.

    Returns (D, frames_dom, values): D has shape (N, cod_dim, dom_dim) with
    D[n] = W^T (Df) E for orthonormal frames E at pts[n] and W at f(pts[n]),
    both completing the base point to a positive basis. Analytic ambient
    Jacobians are used when the map provides them; otherwise central
    differences along geodesics.
    """
    pts = np.asarray(pts, dtype=np.float64)
    E = _kernels.oriented_frames(pts)
    m_dom, m_cod = f.domain_dim, f.codomain_dim
    if f.jacobian_many is not None:
        vals = f.eval_many(pts)
        cols = np.einsum("nij,njk->nik", f.jacobian_many(pts), E)
    else:
        # each block of base points is stacked with its +/- delta geodesic
        # neighbours along every frame direction and evaluated in one call;
        # blocks bound the temporaries of large batches
        d = _FD_DELTA
        n = pts.shape[0]
        vals = np.empty((n, m_cod + 1))
        cols = np.empty((n, m_cod + 1, m_dom))
        for a in range(0, n, _FD_BLOCK):
            p = pts[a:a + _FD_BLOCK]
            base = np.cos(d) * p
            shift = np.sin(d) * np.moveaxis(E[a:a + _FD_BLOCK], 2, 0)
            stencil = np.concatenate([p[None], base + shift, base - shift])
            out = f.eval_many(stencil.reshape(-1, m_dom + 1))
            out = out.reshape(1 + 2 * m_dom, -1, m_cod + 1)
            vals[a:a + _FD_BLOCK] = out[0]
            cols[a:a + _FD_BLOCK] = np.moveaxis(
                out[1:1 + m_dom] - out[1 + m_dom:], 0, 2) / (2.0 * d)
    W = _kernels.oriented_frames(vals)
    D = np.einsum("nia,nij->naj", W, cols)
    return D, E, vals


# ---------------------------------------------------------------------------
# Mapping degree
# ---------------------------------------------------------------------------

def mapping_degree(f: SphereMap, grid_size: int = 200_000) -> DegreeReport:
    """Degree of f: S^m -> S^m as the normalized signed-Jacobian integral.

    When the map is constant outside declared support balls the integral
    runs in geodesic polar grids over those balls only (the Jacobian
    vanishes elsewhere); otherwise over an equal-weight lattice of the
    whole sphere. grid_size is the total evaluation budget.
    """
    if f.domain_dim != f.codomain_dim:
        raise ParameterError("mapping degree needs equal domain and codomain dimension")
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
        D, _, _ = tangential_jacobian(f, pts)
        raw = float(np.mean(np.linalg.det(D)))
    report = _report(raw, "jacobian-integral")
    if report.residual >= 0.5:
        raise UnresolvedDegreeError(
            f"degree integral {raw:.4f} is not within 0.5 of an integer; "
            "increase grid_size"
        )
    return report


def _ball_jacobian_integral(f: SphereMap, ball, budget: int) -> float:
    """Signed-Jacobian integral of f over one geodesic ball."""
    m = f.domain_dim
    c = ball.center.coords
    R = ball.radius
    V = _kernels.oriented_frames(c[None, :])[0]
    if m == 2:
        n_r = int(np.clip(np.sqrt(budget / 10.0), 16, 400))
        n_a = max(32, budget // n_r)
        ang = 2.0 * np.pi * (np.arange(n_a) + 0.5) / n_a
        omega = np.column_stack([np.cos(ang), np.sin(ang)])
        w_ang = 2.0 * np.pi / n_a
    elif m == 3:
        n_r = int(np.clip((budget / 40.0) ** (1.0 / 3.0), 8, 120))
        n_a = max(128, budget // n_r)
        omega = sphere_lattice(2, n_a)
        w_ang = 4.0 * np.pi / n_a
    else:
        raise ParameterError(f"unsupported sphere dimension {m}")
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    t = 0.5 * R * (nodes + 1.0)
    w_r = 0.5 * R * weights * np.sin(t) ** (m - 1)
    dirs = omega @ V.T  # (n_a, m+1) unit tangents at c
    total = 0.0
    for ti, wi in zip(t, w_r):
        pts = np.cos(ti) * c[None, :] + np.sin(ti) * dirs
        D, _, _ = tangential_jacobian(f, pts)
        total += wi * w_ang * float(np.sum(np.linalg.det(D)))
    return total


# ---------------------------------------------------------------------------
# Fiber tracing
# ---------------------------------------------------------------------------

def trace_fiber(f: SphereMap, target, seeds, step: float = 1e-3,
                sigma_min: float = 1e-3, max_steps: int = 200_000):
    """Closed fiber components of f: S^3 -> S^2 over the target value.

    Each seed is first corrected onto the fiber (Gauss-Newton on
    |f(x) - target| to below 1e-8; seeds that do not converge are dropped,
    so off-fiber seeds are harmless). From each remaining start the fiber
    is followed by a predictor along the kernel of the differential and a
    corrector back to the fiber; the traversal direction is the one induced
    from f and the global orientation convention. Components already traced
    are deduplicated. A second-singular-value drop below sigma_min raises
    a non-regular-value error.
    """
    if f.domain_dim != 3 or f.codomain_dim != 2:
        raise ParameterError("fiber tracing needs a map S^3 -> S^2")
    zc = np.asarray(target.coords if hasattr(target, "coords") else target, float)
    curves = []
    for seed in seeds:
        x0 = np.asarray(seed.coords if hasattr(seed, "coords") else seed, float)
        x0 = x0 / np.linalg.norm(x0)
        ok, x0, jac = _correct_to_fiber(f, x0, zc)
        if not ok:
            continue
        if any(
            float(np.min(np.linalg.norm(c.points - x0, axis=1))) < 3.0 * step
            for c in curves
        ):
            continue
        curves.append(_follow_fiber(f, x0, jac, zc, step, sigma_min, max_steps))
    return curves


def _correct_to_fiber(f: SphereMap, x, zc, tol: float = 1e-8, iters: int = 60,
                      min_step: float = 1e-15):
    """Gauss-Newton: move x on the domain sphere until |f(x) - target| < tol.

    Returns (ok, x, jac) with jac = tangential_jacobian(f, x) at the
    returned x when ok, so the caller can reuse it; jac is None otherwise.
    A flat spot (constant region) or a step below min_step means the seed
    is off the fiber.
    """
    for _ in range(iters):
        jac = tangential_jacobian(f, x[None, :])
        D, E, val = jac
        r = val[0] - zc
        if float(np.linalg.norm(r)) < tol:
            return True, x, jac
        # residual in the codomain tangent frame at f(x)
        W = _kernels.oriented_frames(val)[0]
        A = D[0]
        if float(np.linalg.norm(A)) < 1e-12:
            return False, x, None
        h, *_ = np.linalg.lstsq(A, -(W.T @ r), rcond=None)
        n = float(np.linalg.norm(h))
        if n < min_step:
            return False, x, None
        if n > 0.2:
            h *= 0.2 / n
            n = 0.2
        x = np.cos(n) * x + np.sin(n) * (E[0] @ (h / n))
        x /= np.linalg.norm(x)
    return False, x, None


def _fiber_direction(jac, prev=None):
    """Unit tangent along the fiber, oriented as induced from f.

    jac is tangential_jacobian(f, x) at the fiber point x.
    """
    D, E, _ = jac
    A = D[0]
    U, S, Vt = np.linalg.svd(A)
    sigma2 = float(S[1])
    v = Vt[2]  # kernel direction in frame coordinates
    a1 = A.T @ np.array([1.0, 0.0])
    a2 = A.T @ np.array([0.0, 1.0])
    det = float(np.linalg.det(np.column_stack([v, a1, a2])))
    if det < 0.0:
        v = -v
    tangent = E[0] @ v
    if prev is not None and float(np.dot(tangent, prev)) < 0.0:
        # the induced orientation never flips along a traced component;
        # a sign disagreement with the previous step means the SVD sign
        # wobbled at a near-degenerate point, keep continuity instead
        tangent = -tangent
    return tangent, sigma2


def _follow_fiber(f: SphereMap, x0, jac, zc, step, sigma_min, max_steps):
    pts = [x0]
    x = x0
    prev = None
    travelled = 0.0
    for nstep in range(max_steps):
        tangent, sigma2 = _fiber_direction(jac, prev)
        if sigma2 < sigma_min:
            raise NonRegularValueError(
                f"differential nearly singular along fiber (sigma2 = {sigma2:.2e}); "
                "retry with a different target"
            )
        x_new = np.cos(step) * x + np.sin(step) * tangent
        ok, x_new, jac = _correct_to_fiber(f, x_new / np.linalg.norm(x_new), zc)
        if not ok:
            raise NonRegularValueError("corrector failed to return to the fiber")
        travelled += step
        prev = tangent
        x = x_new
        pts.append(x)
        if travelled > 10.0 * step and float(np.linalg.norm(x - x0)) < 2.0 * step:
            break
    else:
        raise NonRegularValueError(
            f"fiber did not close within {max_steps} steps (length {travelled:.2f})"
        )
    return ClosedCurve(np.array(pts), tolerance=2.0 * step)


# ---------------------------------------------------------------------------
# Gauss linking
# ---------------------------------------------------------------------------

def gauss_linking(c1: ClosedCurve, c2: ClosedCurve) -> DegreeReport:
    """Linking number of two disjoint closed curves on S^3.

    Projects stereographically from the sphere point farthest from both
    curves and evaluates the discrete Gauss double sum over segment pairs.
    The operands are ordered canonically first, so the result is exactly
    symmetric in its arguments.
    """
    sep = _kernels.min_pairwise_distance(c1.points, c2.points)
    if sep <= 5.0 * max(c1.tolerance, c2.tolerance):
        raise IllConditionedLinkingError(
            f"curves only {sep:.3e} apart at tolerance "
            f"{max(c1.tolerance, c2.tolerance):.3e}"
        )
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
    m1, s1 = _midpoints_segments(p1)
    m2, s2 = _midpoints_segments(p2)
    raw = PROJECTION_SIGN * _kernels.gauss_linking_sum(m1, s1, m2, s2)
    return _report(raw, "linking")


def _midpoints_segments(pts):
    nxt = np.roll(pts, -1, axis=0)
    return (pts + nxt) / 2.0, nxt - pts


# ---------------------------------------------------------------------------
# Hopf invariant
# ---------------------------------------------------------------------------

def hopf_invariant(f: SphereMap, step: float = 1e-3, seed: int = 0,
                   max_tries: int = 20) -> DegreeReport:
    """Hopf invariant of f: S^3 -> S^2 by fiber tracing and linking.

    Traces the fibers over two regular values and sums the Gauss linking
    numbers over all pairs of components, one from each fiber. Targets are
    drawn away from the map's constant value and re-drawn if tracing finds
    a non-regular point.
    """
    if f.domain_dim != 3 or f.codomain_dim != 2:
        raise ParameterError("the Hopf invariant needs a map S^3 -> S^2")
    rng = np.random.default_rng(seed)
    last_err = None
    for _ in range(max_tries):
        z1, z2 = _pick_targets(f, rng)
        try:
            fib1 = trace_fiber(f, z1, _fiber_seeds(f.descriptor, z1), step)
            fib2 = trace_fiber(f, z2, _fiber_seeds(f.descriptor, z2), step)
            raw = 0.0
            for c1 in fib1:
                for c2 in fib2:
                    raw += gauss_linking(c1, c2).raw
            return _report(raw, "linking")
        except (NonRegularValueError, IllConditionedLinkingError) as err:
            last_err = err
    raise NonRegularValueError(
        f"no pair of regular values found in {max_tries} tries: {last_err}"
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


def _fiber_seeds(desc, target, n_per_component: int = 8):
    """Approximate fiber points of the described map over the target.

    Dispatches on the construction so every component gets at least one
    seed: analytic circles for the Hopf map and compositions with it,
    in-ball grids for bumps, recursion for wrappers. Seeds only need to be
    near the fiber; tracing corrects and deduplicates them.
    """
    variant = desc["variant"]
    p = desc.get("params", {})
    kids = desc.get("children", [])
    zc = np.asarray(target, dtype=np.float64)
    if variant == "constant":
        return []
    if variant == "hopf":
        return list(fiber_circle(zc, n_per_component))
    if variant == "compose_hopf":
        v = map_from_descriptor(kids[0])
        seeds = []
        for pre in _preimages_on_s2(v, zc):
            seeds.extend(fiber_circle(pre, n_per_component))
        return seeds
    if variant == "hopf_bump":
        return _ball_grid(np.array(p["center"]), p["support_radius"], 64)
    if variant == "patched":
        seeds = list(_fiber_seeds(kids[0], zc, n_per_component))
        for kid, sup in zip(kids[1:], p["supports"]):
            if kid["variant"] == "hopf_bump":
                seeds.extend(_fiber_seeds(kid, zc, n_per_component))
            else:
                seeds.extend(_ball_grid(np.array(sup["center"]), sup["radius"], 64))
        return seeds
    if variant == "orientation_flip":
        seeds = _fiber_seeds(kids[0], zc, n_per_component)
        return [s * np.array([-1.0, 1.0, 1.0, 1.0]) for s in seeds]
    if variant == "precompose_rotation":
        inv = np.array(p["matrix"]).T
        seeds = _fiber_seeds(kids[0], zc, n_per_component)
        return [inv @ s for s in seeds]
    # unknown construction: fall back to a global lattice
    return list(kronecker_lattice_s3(4096))


def _preimages_on_s2(v: SphereMap, zc, grid: int = 24):
    """All preimages of zc under a bubble map v: S^2 -> S^2 (one per ball)."""
    found = []
    for ball in v.supports or []:
        c = ball.center.coords
        pts = np.array(_ball_grid(c, ball.radius, grid))
        best = None
        for x in pts:
            ok, x, _ = _correct_to_fiber(v, x, zc, tol=1e-10, iters=80,
                                         min_step=1e-16)
            if ok:
                best = x
                break
        if best is not None:
            found.append(best)
    return found


def _ball_grid(center, radius, n):
    """Points spread over a geodesic ball (polar rings), as a seed pool."""
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
        ring = np.cos(t) * c[None, :] + np.sin(t) * (omega @ V.T)
        out.extend(ring)
    return out


# ---------------------------------------------------------------------------
# Structural bookkeeping
# ---------------------------------------------------------------------------

def bookkept_degree(desc) -> DegreeReport:
    """Exact integer invariant of a descriptor by structural recursion.

    S^m -> S^m variants carry the mapping degree, S^3 -> S^2 variants the
    Hopf invariant: bumps are 1, multi-bubbles are k, composing with the
    Hopf map squares, patching adds, reflection negates, rotation keeps.
    """
    return DegreeReport(value=_bookkeep(desc), raw=float(_bookkeep(desc)),
                        residual=0.0, method="bookkeeping")


def _bookkeep(desc) -> int:
    variant = desc["variant"]
    p = desc.get("params", {})
    kids = desc.get("children", [])
    if variant == "constant":
        return 0
    if variant == "identity":
        return 1
    if variant == "hopf":
        return 1
    if variant == "equator_collapse":
        # double cover of the sphere by the two hemispheres; the covers
        # agree in orientation exactly when m is odd
        m = p["dim"]
        return 1 + (-1) ** (m + 1)
    if variant == "bump_deg1":
        return 1
    if variant == "multi_bubble":
        return p["k"]
    if variant == "compose_hopf":
        return _bookkeep(kids[0]) ** 2
    if variant == "hopf_bump":
        return 1
    if variant == "patched":
        return sum(_bookkeep(k) for k in kids)
    if variant == "orientation_flip":
        return -_bookkeep(kids[0])
    if variant == "precompose_rotation":
        return _bookkeep(kids[0])
    raise ParameterError(f"unknown descriptor variant {variant!r}")
