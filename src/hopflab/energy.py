"""Fractional Sobolev energies of sphere maps.

The seminorm E_{s,p}(u, Omega) is the double integral over Omega x Omega
of |u(x) - u(y)|^p / |x - y|^(n + sp), with chordal (ambient Euclidean)
distances throughout. Two independent evaluation routes:

* energy_mc: unbiased stratified Monte Carlo. x is uniform in the region
  (or in a support ball); y is sampled in dyadic geodesic shells around x
  with exact shell-measure weights. A pilot sets the samples per stratum
  by Neyman allocation. The innermost ball (geodesic radius pi * 2^-J) is
  never sampled; its contribution is bounded in closed form from the
  map's Lipschitz hint and carried as a certified remainder.
* energy_quadrature: a deterministic product rule (outer low-discrepancy
  lattice, inner geodesic-polar grid with dyadic radial bands accumulating
  at the singularity) used as a cross-checking oracle on the whole sphere.
  Its outer rule uses the Hopf fiber symmetry where the map has it: an S^2
  lattice of fiber lifts for v o h, one node for the Hopf map. Its bands
  stop once the certified remainder is negligible.

Determinism: estimates are bit-identical given (map, params, region, n,
seed); every stratum draws from its own counter-based substream and the
reduction order is fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .geometry import (
    GeodesicBall,
    cap_area,
    geodesic_distances,
    geodesic_step,
    polar_directions,
    sample_shell_radii,
    sample_uniform_many,
    shell_measure,
    sphere_area,
    sphere_lattice,
    sphere_point,
    tangent_directions,
)
from .maps import SphereMap, hopf_lift_many
from . import _kernels

MC_SHELLS = 40  # dyadic shells of the step length per energy_mc source
QUAD_MIN_BAND_EXP = 34  # inner radial grid reaches pi * 2^-34 at most
QUAD_PAIR_BUDGET = 10 ** 9
QUAD_TAIL_RTOL = 1e-12  # radial bands stop once the certified rest is this small
QUAD_BLOCK = 8192  # inner points per eval_many call in energy_quadrature
_QUAD_GAUSS = 4  # Gauss-Legendre nodes per radial band
MC_PILOT_SHARE = 64  # energy_mc's pilot takes about n / MC_PILOT_SHARE samples
MC_DEFENSIVE = 0.1  # share of energy_mc's main samples split evenly
MC_BLOCK = 8192  # samples per eval_many call in energy_mc's main strata
_PILOT_KEY = 1 << 63  # sets the pilot's Philox key words apart


# ---------------------------------------------------------------------------
# Parameters and regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyParams:
    """Exponents of E_{s,p} on S^n; critical pins sp = n."""

    s: float
    p: float
    n: int
    critical: bool = False

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ParameterError(f"s must lie in (0,1), got {self.s}")
        if self.p <= 1.0:
            raise ParameterError(f"p must exceed 1, got {self.p}")
        if self.n not in (2, 3):
            raise ParameterError(f"unsupported sphere dimension {self.n}")
        if self.critical and abs(self.s * self.p - self.n) > 1e-12:
            raise ParameterError(
                f"critical regime needs s*p = n, got {self.s * self.p} != {self.n}"
            )

    @property
    def kernel_exponent(self) -> float:
        return self.n + self.s * self.p


@dataclass(frozen=True)
class Region:
    """Integration region on S^dim: the whole sphere, a geodesic ball, a
    ball complement, or a concentric ball difference (outer minus inner)."""

    variant: str
    dim: int
    outer: GeodesicBall | None = None
    inner: GeodesicBall | None = None

    def __post_init__(self):
        if self.variant not in ("whole", "ball", "complement", "difference"):
            raise ParameterError(f"unknown region variant {self.variant!r}")
        if self.variant != "whole":
            if self.outer is None:
                raise ParameterError("region needs its ball")
            if self.outer.center.dim != self.dim:
                raise ParameterError("region ball does not live on S^dim")
        if self.variant == "difference":
            if self.inner is None:
                raise ParameterError("difference region needs an inner ball")
            gap = geodesic_distances(
                self.inner.center.coords[None, :], self.outer.center.coords
            )[0]
            if gap > 1e-12:
                raise ParameterError("difference region supports concentric balls only")
            if not (self.inner.radius < self.outer.radius):
                raise ParameterError("difference region needs inner radius < outer radius")
        if self.measure() <= 0.0:
            raise ParameterError("region has no measure")

    def measure(self) -> float:
        if self.variant == "whole":
            return sphere_area(self.dim)
        if self.variant == "ball":
            return cap_area(self.dim, self.outer.radius)
        if self.variant == "complement":
            return sphere_area(self.dim) - cap_area(self.dim, self.outer.radius)
        return cap_area(self.dim, self.outer.radius) - cap_area(self.dim, self.inner.radius)

    def sample(self, n: int, rng):
        """n points uniform in the region, shape (n, dim+1)."""
        if self.variant == "whole":
            return sample_uniform_many(self.dim, n, rng)
        lo, hi = self._radial_range()
        c = self.outer.center.coords
        base = np.broadcast_to(c, (n, c.shape[0])).copy()
        dirs = tangent_directions(base, rng)
        t = sample_shell_radii(self.dim, lo, hi, n, rng)
        return geodesic_step(base, dirs, t)

    def contains(self, pts):
        if self.variant == "whole":
            return np.ones(pts.shape[0], dtype=bool)
        lo, hi = self._radial_range()
        d = geodesic_distances(pts, self.outer.center.coords)
        return (d >= lo) & (d <= hi)

    def _radial_range(self):
        if self.variant == "ball":
            return 0.0, self.outer.radius
        if self.variant == "complement":
            return self.outer.radius, float(np.pi)
        return self.inner.radius, self.outer.radius

    def to_dict(self):
        out = {"variant": self.variant, "dim": self.dim}
        if self.outer is not None:
            out["outer"] = {"center": self.outer.center.coords.tolist(),
                            "radius": self.outer.radius}
        if self.inner is not None:
            out["inner"] = {"center": self.inner.center.coords.tolist(),
                            "radius": self.inner.radius}
        return out


def whole_sphere(dim: int) -> Region:
    return Region("whole", dim)


def ball_region(ball: GeodesicBall) -> Region:
    return Region("ball", ball.center.dim, outer=ball)


def complement_region(ball: GeodesicBall) -> Region:
    return Region("complement", ball.center.dim, outer=ball)


def difference_region(outer: GeodesicBall, inner: GeodesicBall) -> Region:
    return Region("difference", outer.center.dim, outer=outer, inner=inner)


@dataclass(frozen=True)
class EnergyEstimate:
    """A Monte Carlo energy value with its provenance."""

    value: float
    std_error: float
    n_samples: int
    params: EnergyParams
    region: Region
    seed: int
    tail_bound: float
    strata_profile: list = field(repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "std_error": self.std_error,
                "n_samples": self.n_samples,
                "s": self.params.s,
                "p": self.params.p,
                "n": self.params.n,
                "region": self.region.to_dict(),
                "seed": self.seed,
                "tail_bound": self.tail_bound,
                "strata": self.strata_profile,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Stratum:
    """x uniform in source, y a geodesic step from x in a dyadic shell."""

    source: Region
    weight: float  # |source| times the shell measure
    key: int       # second Philox key word of the stratum's main stream
    label: dict    # its profile fields: j, t_lo, t_hi, shell weight (, ball)


def energy_mc(u: SphereMap, params: EnergyParams, region: Region, n: int,
              rng) -> EnergyEstimate:
    """Unbiased stratified MC estimate of E_{s,p}(u, region).

    rng is an integer seed or a numpy Generator (a Generator contributes a
    seed drawn from its state). A stratum pairs a source region of x with
    a dyadic shell of the step length (_strata). A pilot of about
    n / MC_PILOT_SHARE samples on its own Philox keys estimates each
    stratum's standard deviation sigma_j; the rest of n is allocated by
    Neyman allocation, n_j ~ weight_j * sigma_j (_neyman_allocation). The
    pilot counts toward n but not toward the estimate, which stays
    unbiased. The unsampled innermost ball contributes only through
    tail_bound, computed from the map's lipschitz_hint.
    """
    if u.domain_dim != params.n:
        raise ParameterError(
            f"map domain S^{u.domain_dim} does not match params.n = {params.n}"
        )
    if region.dim != params.n:
        raise ParameterError("region dimension does not match params.n")
    if n < 1_000:
        raise ParameterError("energy_mc needs at least 1000 samples")
    seed = int(rng.integers(2 ** 62)) if hasattr(rng, "integers") else int(rng)
    strata, pair_weight, tail_measure = _strata(u, params.n, region)
    if not strata:  # constant map: the energy vanishes exactly
        return EnergyEstimate(0.0, 0.0, n, params, region, seed, 0.0, [])
    pilot = max(2, n // (MC_PILOT_SHARE * len(strata)))
    n_main = n - pilot * len(strata)
    if n_main < 2 * len(strata):
        raise ParameterError("too few samples per stratum; raise n")
    tail = lipschitz_tail_bound(u, params, tail_measure,
                                strata[-1].label["t_lo"])
    weights = np.array([st.weight for st in strata])
    # the pilot: its own key words (bit 63 set), all strata in one batch
    _, var = _moments(u, params, pair_weight, [
        (st, pilot, _philox(seed, _PILOT_KEY | st.key)) for st in strata
    ], pilot * len(strata))
    alloc = _neyman_allocation(n_main, weights * np.sqrt(var)).tolist()
    mean, var = _moments(u, params, pair_weight, [
        (st, n_j, _philox(seed, st.key)) for st, n_j in zip(strata, alloc)
    ], MC_BLOCK)
    profile = [{**st.label, "n": n_j, "pilot": pilot,
                "contribution": w * m, "std_error": w * math.sqrt(v / n_j)}
               for st, n_j, w, m, v in zip(strata, alloc, weights.tolist(),
                                           mean, var)]
    return EnergyEstimate(sum(r["contribution"] for r in profile),
                          math.sqrt(sum(r["std_error"] ** 2 for r in profile)),
                          n, params, region, seed, tail, profile)


def _strata(u: SphereMap, dim: int, region: Region):
    """energy_mc's strata, its pair weight and the measure of its tail bound.

    Plain: x is uniform in the region, pair weight 1_region(y). A map
    constant outside support balls, on the whole sphere: with W their
    union, pairs outside W x W contribute nothing, so E(u, S^n) =
    E(W x W) + 2 E(W x W^c); x is uniform in one ball, pair weight
    2 - 1{y in W}. Each source is cut into MC_SHELLS dyadic shells of the
    step length, keyed j (plain) or (i + 1) 2^32 + j (ball i).
    """
    if (region.variant == "whole" and u.supports is not None
            and u.basepoint is not None):
        balls = list(u.supports)
        sources = [(ball_region(b), cap_area(dim, b.radius), {"ball": i}, i + 1)
                   for i, b in enumerate(balls)]
        tail_measure = 2.0 * sum(src[1] for src in sources)

        def pair_weight(y):
            in_w = np.zeros(y.shape[0], dtype=bool)
            for b in balls:
                in_w |= geodesic_distances(y, b.center.coords) <= b.radius
            return np.where(in_w, 1.0, 2.0)
    else:
        sources = [(region, region.measure(), {}, 0)]
        tail_measure = region.measure()

        def pair_weight(y):
            return region.contains(y).astype(np.float64)

    edges = np.pi * 2.0 ** (-np.arange(MC_SHELLS + 1, dtype=np.float64))
    strata = []
    for src, area, label, tag in sources:
        for j in range(MC_SHELLS):
            t_hi, t_lo = float(edges[j]), float(edges[j + 1])
            w_j = shell_measure(dim, t_lo, t_hi)
            strata.append(_Stratum(src, area * w_j, tag * 2 ** 32 + j, {
                **label, "j": j, "t_lo": t_lo, "t_hi": t_hi, "weight": w_j}))
    return strata, pair_weight, tail_measure


def _philox(seed: int, key: int):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def _pair_values(u: SphereMap, params: EnergyParams, x, y, t, pair_weight):
    """K(x, y) times the pair weight; u is evaluated where the weight is not 0."""
    wgt = pair_weight(y)
    vals = np.zeros(t.shape[0])
    keep = wgt != 0.0
    if not np.any(keep):
        return vals
    if np.all(keep):
        keep = slice(None)  # a basic index: no copies
    du = np.linalg.norm(u.eval_many(x[keep]) - u.eval_many(y[keep]), axis=1)
    chord = 2.0 * np.sin(0.5 * t[keep])
    vals[keep] = wgt[keep] * du ** params.p / chord ** params.kernel_exponent
    return vals


def _neyman_allocation(n_main: int, weighted_sigma):
    """n_main samples over the strata: 2 each, an MC_DEFENSIVE share of the
    rest split evenly, the remainder in proportion to weight * sigma (all
    of it evenly when every sigma is 0)."""
    k = weighted_sigma.shape[0]
    share = np.full(k, 1.0 / k)
    scale = float(np.sum(weighted_sigma))
    if scale > 0.0 and math.isfinite(scale):
        share = MC_DEFENSIVE * share + (1.0 - MC_DEFENSIVE) * weighted_sigma / scale
    spare = n_main - 2 * k
    alloc = np.floor(spare * share).astype(int)
    # the largest remainders take what the floors left over
    order = np.argsort(alloc - spare * share, kind="stable")
    alloc[order[:spare - int(np.sum(alloc))]] += 1
    return 2 + alloc


def _moments(u, params, pair_weight, jobs, block: int):
    """Mean and unbiased variance of the pair values of each job.

    A job (stratum, n_j, gen) draws n_j samples of its stratum from gen.
    The draws go in job order, in pieces that fill blocks of at most
    `block` samples, and each block is evaluated in one _pair_values call.
    Every piece's sum of squares is taken around its own mean and merged
    into its job's by the pairwise update of Chan, Golub and LeVeque.
    """
    count, mean, m2 = [0] * len(jobs), [0.0] * len(jobs), [0.0] * len(jobs)
    for pieces in _blocks(jobs, params.n, block):
        idx, xs, ys, ts = zip(*pieces)
        vals = _pair_values(u, params, np.concatenate(xs), np.concatenate(ys),
                            np.concatenate(ts), pair_weight)
        cuts = np.cumsum([t.shape[0] for t in ts[:-1]])
        for i, piece in zip(idx, np.split(vals, cuts)):
            m, p_mean = piece.shape[0], float(np.mean(piece))
            delta = p_mean - mean[i]
            mean[i] += delta * m / (count[i] + m)
            m2[i] += (float(np.sum((piece - p_mean) ** 2))
                      + delta * delta * count[i] * m / (count[i] + m))
            count[i] += m
    return mean, [q / (c - 1) for q, c in zip(m2, count)]


def _blocks(jobs, dim: int, block: int):
    """Lists of (job index, x, y, t) pieces of at most `block` samples:
    x uniform in the stratum's source, y a geodesic step in its shell."""
    pieces, room = [], block
    for i, (st, n_j, gen) in enumerate(jobs):
        while n_j:
            m = min(n_j, room)
            x = st.source.sample(m, gen)
            dirs = tangent_directions(x, gen)
            t = sample_shell_radii(dim, st.label["t_lo"], st.label["t_hi"], m, gen)
            pieces.append((i, x, geodesic_step(x, dirs, t), t))
            n_j -= m
            room -= m
            if not room:
                yield pieces
                pieces, room = [], block
    if pieces:
        yield pieces


def lipschitz_tail_bound(u: SphereMap, params: EnergyParams, measure: float,
                         eps: float) -> float:
    """Certified bound on the pair-integral over geodesic gaps below eps.

    With L the geodesic Lipschitz constant: |u(x)-u(y)|^p <= L^p t^p while
    the chordal kernel obeys |x-y| >= (2/pi) t, so the inner integral is at
    most sigma_{n-1} L^p (pi/2)^(n+sp) eps^((1-s)p) / ((1-s)p).
    """
    if u.lipschitz_hint is None:
        raise ParameterError(
            "map carries no lipschitz_hint; cannot certify the near-diagonal tail"
        )
    L = float(u.lipschitz_hint)
    if L == 0.0:
        return 0.0
    n, s, p = params.n, params.s, params.p
    sigma = sphere_area(n - 1)
    power = (1.0 - s) * p
    return (
        measure * sigma * L ** p * (np.pi / 2.0) ** params.kernel_exponent
        * eps ** power / power
    )


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------

def energy_quadrature(u: SphereMap, params: EnergyParams, resolution: int,
                      angular: int | None = None) -> float:
    """Deterministic product-rule value of E_{s,p}(u, S^n).

    resolution is the size of a near-uniform outer lattice on S^n; maps with
    the Hopf fiber symmetry use fewer outer nodes at the same spacing
    (_quad_outer_nodes). The inner geodesic-polar rule uses 4-point
    Gauss-Legendre on dyadic radial bands and an angular lattice
    (sqrt-of-resolution points by default, at least 48). Bands run from
    pi down to at most pi * 2^-QUAD_MIN_BAND_EXP; they stop early once the
    certified bound on everything nearer the diagonal (lipschitz_tail_bound)
    falls below QUAD_TAIL_RTOL of the running total, and maps without a
    lipschitz_hint run them all. Inner points are evaluated in blocks of
    about QUAD_BLOCK. Converges to the Monte Carlo limit as resolution
    grows. The pair budget applies to the requested rule, resolution x
    angular x 4 x QUAD_MIN_BAND_EXP, whichever outer rule runs.
    """
    if u.domain_dim != params.n:
        raise ParameterError("map domain does not match params.n")
    n_ang = int(angular if angular is not None else max(48, round(resolution ** 0.5)))
    pairs = resolution * n_ang * QUAD_MIN_BAND_EXP * _QUAD_GAUSS
    if pairs > QUAD_PAIR_BUDGET:
        raise ParameterError(
            f"quadrature would evaluate {pairs:.2e} pairs, over the 1e9 budget"
        )
    X, outer_w = _quad_outer_nodes(u, params.n, resolution)
    return _quad_rule(u, params, X, outer_w, n_ang)


def _quad_rule(u: SphereMap, params: EnergyParams, X, outer_w: float,
               n_ang: int) -> float:
    """The product rule on outer nodes X of common weight outer_w."""
    n = params.n
    frames = _kernels.oriented_frames(X)
    omega, w_ang = polar_directions(n, n_ang)
    ux = u.eval_many(X)
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_GAUSS)
    p = params.p
    measure = sphere_area(n)
    step = max(1, QUAD_BLOCK // (_QUAD_GAUSS * n_ang))
    total = 0.0
    for band in range(QUAD_MIN_BAND_EXP):
        hi = np.pi * 2.0 ** (-band)
        if (u.lipschitz_hint is not None and
                lipschitz_tail_bound(u, params, measure, hi) < QUAD_TAIL_RTOL * total):
            break
        lo = 0.5 * hi
        t = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        w_t = 0.5 * (hi - lo) * weights * np.sin(t) ** (n - 1)
        kern = w_t / (2.0 * np.sin(0.5 * t)) ** params.kernel_exponent
        cos_t = np.cos(t)[None, :, None, None]
        sin_t = np.sin(t)[None, :, None, None]
        band_sum = 0.0
        for i in range(0, X.shape[0], step):
            x = X[i:i + step]
            # unit tangents at each node of the block, one per angular node
            dirs = np.einsum("ndm,am->nad", frames[i:i + step], omega)
            Y = cos_t * x[:, None, None, :] + sin_t * dirs[:, None]
            uy = u.eval_many(Y.reshape(-1, n + 1)).reshape(Y.shape[:3] + (-1,))
            du = np.linalg.norm(uy - ux[i:i + step, None, None, :], axis=3)
            band_sum += float(np.einsum("bga,g->", du ** p, kern))
        total += outer_w * w_ang * band_sum
    return total


def _quad_outer_nodes(u: SphereMap, n: int, resolution: int):
    """Outer nodes of energy_quadrature and their common weight.

    The rule follows the map's descriptor variant:

    * hopf: U(2) acts transitively on S^3 by isometries that h intertwines
      with rotations of S^2, so the inner integral F(x) is constant and one
      node carries the whole measure exactly.
    * compose_hopf (v o h): the phase action e^(i theta)(w, z) is an
      isometry of S^3 fixing h, so F is constant on Hopf fibers, and h pushes
      the round measure of S^3 forward to |S^3|/|S^2| times that of S^2.
      A Fibonacci lattice on S^2 at the spacing of a resolution-point S^3
      lattice, k = ceil(|S^2| (resolution/|S^3|)^(2/3)) nodes, lifts to one
      point per fiber, each of weight |S^3|/k.
    * any other map: a resolution-point lattice on S^n.
    """
    variant = u.descriptor.get("variant")
    if variant == "hopf":
        return hopf_lift_many(np.array([[0.0, 0.0, 1.0]])), sphere_area(3)
    if variant == "compose_hopf":
        k = math.ceil(sphere_area(2) * (resolution / sphere_area(3)) ** (2.0 / 3.0))
        return hopf_lift_many(sphere_lattice(2, k)), sphere_area(3) / k
    return sphere_lattice(n, resolution), sphere_area(n) / resolution


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluingReport:
    """Smallest constant making the ball/annulus gluing inequality hold."""

    c_star: float
    c_star_std_error: float
    holds: bool
    lhs: EnergyEstimate
    ball_term: EnergyEstimate
    annulus_term: EnergyEstimate
    eta: float
    rho: float


def check_gluing_bound(u: SphereMap, A: Region, eta: float, rho: float,
                       params: EnergyParams, center, n: int = 200_000,
                       seed: int = 0) -> GluingReport:
    """Check E(u,A) <= (1 + C/(1-eta)^(sp+1)) E(u,B(rho))
                      + (1 + C eta^m/(1-eta)) E(u, A minus B(eta rho)).

    The ball sits at the given center; the annulus B(rho) minus B(eta rho)
    must lie inside A. Reports the smallest C >= 0 that makes the
    inequality hold for the estimated energies, with propagated error, and
    whether some C <= 1e6 suffices within 3 standard errors.
    """
    if not (0.0 < eta < 1.0):
        raise ParameterError(f"eta must lie in (0,1), got {eta}")
    cpt = np.asarray(center.coords if hasattr(center, "coords") else center, float)
    ball_rho = GeodesicBall(sphere_point(cpt), rho)
    ball_eta = GeodesicBall(sphere_point(cpt), eta * rho)
    if A.variant == "whole":
        rest = complement_region(ball_eta)
    elif A.variant == "ball":
        gap = geodesic_distances(cpt[None, :], A.outer.center.coords)[0]
        if gap > 1e-12 or rho > A.outer.radius:
            raise ParameterError("annulus is not inside the region A")
        rest = difference_region(A.outer, ball_eta)
    else:
        raise ParameterError("gluing check supports whole-sphere or ball regions")
    e_a = energy_mc(u, params, A, n, seed)
    e_ball = energy_mc(u, params, ball_region(ball_rho), n, seed + 1)
    e_rest = energy_mc(u, params, rest, n, seed + 2)
    sp = params.s * params.p
    m = params.n
    denom = (
        e_ball.value / (1.0 - eta) ** (sp + 1.0)
        + e_rest.value * eta ** m / (1.0 - eta)
    )
    gap = e_a.value - e_ball.value - e_rest.value
    if denom <= 0.0:
        c_star, c_se = (0.0, 0.0) if gap <= 0.0 else (np.inf, np.inf)
    else:
        c_star = max(0.0, gap / denom)
        c_se = (
            np.sqrt(e_a.std_error ** 2 + e_ball.std_error ** 2 + e_rest.std_error ** 2)
            / denom
        )
    holds = bool(c_star - 3.0 * c_se <= 1e6)
    return GluingReport(float(c_star), float(c_se), holds, e_a, e_ball, e_rest,
                        eta, rho)


@dataclass(frozen=True)
class PatchingReport:
    """Both sides of the disjoint-support patching inequality."""

    lhs: EnergyEstimate
    rhs_total: float
    rhs_std_error: float
    ratio: float
    holds: bool
    piece_estimates: list


def check_patching_bound(pieces, patched: SphereMap, params: EnergyParams,
                         n: int = 200_000, seed: int = 0) -> PatchingReport:
    """Check E(patched, S^n) <= 2^p sum_i E(piece_i, S^n) within 3 SE.

    The pieces must be exactly the maps the patched map was assembled
    from (background included); each contributes its whole-sphere energy
    to the right-hand side.
    """
    desc_kids = patched.descriptor.get("children", [])
    if [u.descriptor for u in pieces] != desc_kids:
        raise ParameterError("patched map was not assembled from these pieces")
    region = whole_sphere(params.n)
    lhs = energy_mc(patched, params, region, n, seed)
    piece_estimates = [
        energy_mc(u, params, region, n, seed + 1 + i) for i, u in enumerate(pieces)
    ]
    rhs = 2.0 ** params.p * sum(e.value for e in piece_estimates)
    rhs_se = 2.0 ** params.p * float(
        np.sqrt(sum(e.std_error ** 2 for e in piece_estimates))
    )
    slack = 3.0 * (lhs.std_error + rhs_se)
    ratio = lhs.value / rhs if rhs > 0 else np.inf
    return PatchingReport(lhs, float(rhs), rhs_se, float(ratio),
                          bool(lhs.value <= rhs + slack), piece_estimates)


@dataclass(frozen=True)
class FiberRatioReport:
    """E_{s,p}(v o h, S^3) / E_{s,p}(v, S^2) with uncertainty."""

    ratio: float | None
    ratio_std_error: float | None
    e3: EnergyEstimate
    e2: EnergyEstimate
    undefined: bool


def fiber_energy_comparison(v: SphereMap, s: float, n: int = 200_000,
                            seed: int = 0) -> FiberRatioReport:
    """Compare the energy of v o h on S^3 against that of v on S^2.

    Uses p = 3/s on both sides (the critical pairing on S^3; on S^2 the
    kernel exponent is then 2 + sp = 5). A constant v has both energies
    zero and the ratio is reported as undefined.
    """
    from .maps import composed_with_hopf

    p = 3.0 / s
    e3 = energy_mc(composed_with_hopf(v), EnergyParams(s, p, 3, critical=True),
                   whole_sphere(3), n, seed)
    e2 = energy_mc(v, EnergyParams(s, p, 2), whole_sphere(2), n, seed + 1)
    if e2.value == 0.0:
        return FiberRatioReport(None, None, e3, e2, undefined=True)
    ratio = e3.value / e2.value
    rel3 = (e3.std_error / e3.value) ** 2 if e3.value > 0 else 0.0
    rel2 = (e2.std_error / e2.value) ** 2
    rel = np.sqrt(rel3 + rel2)
    return FiberRatioReport(float(ratio), float(ratio * rel), e3, e2,
                            undefined=False)
