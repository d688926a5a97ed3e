"""Fractional Sobolev energies of sphere maps.

The seminorm E_{s,p}(u, Omega) is the double integral over Omega x Omega
of |u(x) - u(y)|^p / |x - y|^(n + sp), with chordal (ambient Euclidean)
distances throughout. Both estimators read one support decomposition:
a map lists in SphereMap.sources the pieces of the set W where it leaves
its basepoint (balls, Hopf tubes, unions of balls), and on the whole
sphere E(u) = integral over x in W, y anywhere, of K (2 - 1_W(y)).

* energy_mc: unbiased stratified Monte Carlo. A region is the whole
  sphere or a geodesic annulus {lo <= d(center, x) <= hi} (Region), which
  covers balls, their complements and concentric ball differences. x is
  uniform in the region, or in one source of the map (_strata); y is one
  geodesic step from x in a shell of ratio sqrt 2, with exact
  shell-measure weights, drawn a block of samples at a time (_blocks). A
  pilot sets the samples per stratum by Neyman allocation. In a source's
  strata, where most of the variance lies in where x lands, x is
  stratified further over MC_RINGS equal-measure rings about the centres,
  in proportion (_moments). The innermost ball (geodesic radius
  pi * 2^-40) is never sampled; its
  contribution is bounded in closed form from the map's Lipschitz hint and
  carried as a certified remainder.
* fiber_reduced_energy: E(v o h, S^3) at sp = 3 for v: S^2 -> S^2, from
  energy_mc's driver on S^2 with the kernel that integrates each Hopf
  fiber in closed form. hopf_energy is the Hopf map's energy in closed
  form, the reduction with v the identity.
* energy_quadrature: a deterministic product rule (outer nodes, inner
  geodesic-polar grid with dyadic radial bands accumulating at the
  singularity) used as a cross-checking oracle on the whole sphere. Its
  outer rule uses the Hopf fiber symmetry where the map has it: one node
  for the Hopf map, and a polar rule per Hopf tube, lifted with one phase,
  for maps whose sources are all tubes (v o h); other maps run a
  near-uniform lattice. Its bands stop once the certified remainder is
  negligible, and skip the outer nodes whose pairs are exact zeros off
  W (the sources' gap, SphereMap.support_gap).

Determinism: estimates are bit-identical given (map, params, region, n,
seed); every stratum draws from its own counter-based substream and the
reduction order is fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .errors import ParameterError, require_int
from .geometry import (
    Region,
    geodesic_step,
    polar_directions,
    sample_shell_radii,
    shell_measure,
    sphere_area,
    sphere_lattice,
    sphere_point,
    tangent_directions,
)
from .maps import HopfTubes, SphereMap, hopf_lift_many
from . import _kernels

MC_SHELLS = 80  # shells of the step length per energy_mc source, of ratio sqrt 2
QUAD_MIN_BAND_EXP = 34  # inner radial grid reaches pi * 2^-34 at most
QUAD_PAIR_BUDGET = 10 ** 9
QUAD_TAIL_RTOL = 1e-12  # radial bands stop once the certified rest is this small
QUAD_BLOCK = 8192  # inner points per eval_many call in energy_quadrature
_QUAD_GAUSS = 4  # Gauss-Legendre nodes per radial band
MC_PILOT_SHARE = 64  # energy_mc's pilot takes about n / MC_PILOT_SHARE samples
MC_DEFENSIVE = 0.1  # share of energy_mc's main samples split evenly
MC_BLOCK = 8192  # samples per eval_many call in energy_mc's main strata
MC_RINGS = 8  # equal-measure rings of x in each stratum of a map's source
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
        if not (1.0 < self.p < math.inf):
            raise ParameterError(f"p must be finite and exceed 1, got {self.p}")
        if self.n not in (2, 3):
            raise ParameterError(f"unsupported sphere dimension {self.n}")
        if self.critical and abs(self.s * self.p - self.n) > 1e-12:
            raise ParameterError(
                f"critical regime needs s*p = n, got {self.s * self.p} != {self.n}"
            )

    @property
    def kernel_exponent(self) -> float:
        return self.n + self.s * self.p


def whole_sphere(dim: int) -> Region:
    return Region(dim)


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
    """x uniform in source, y a geodesic step from x in one shell."""

    source: object  # a Region or a map's x source
    weight: float  # |source| times the shell measure
    key: int       # second Philox key word of the stratum's main stream
    label: dict    # its profile fields: j, t_lo, t_hi, shell weight (, source)
    rings: int     # most rings of x: MC_RINGS in a map's source, 1 in a Region


def energy_mc(u: SphereMap, params: EnergyParams, region: Region, n: int,
              rng) -> EnergyEstimate:
    """Unbiased stratified MC estimate of E_{s,p}(u, region).

    rng is an integer seed in [0, 2^64) or a numpy Generator (a Generator
    contributes a seed drawn from its state). A stratum pairs a source region of x with
    a shell of the step length (_strata). A pilot of about
    n / MC_PILOT_SHARE samples on its own Philox keys estimates each
    stratum's standard deviation sigma_j, within its rings of x (_moments);
    the rest of n is allocated by Neyman allocation, n_j ~ weight_j *
    sigma_j (_neyman_allocation). The pilot counts toward n but not toward
    the estimate, which stays unbiased. The unsampled innermost ball
    contributes only through tail_bound, computed from the map's
    lipschitz_hint. The driver
    (_stratified) is the one fiber_reduced_energy runs with its own pair
    kernel; here the kernel is the chordal |x - y|^-(n + sp).
    """
    if u.domain_dim != params.n:
        raise ParameterError(
            f"map domain S^{u.domain_dim} does not match params.n = {params.n}"
        )
    if region.dim != params.n:
        raise ParameterError("region dimension does not match params.n")
    exponent = params.kernel_exponent
    return _stratified(u, params, region, n, rng,
                       lambda t: (2.0 * np.sin(0.5 * t)) ** exponent)


def fiber_reduced_energy(v: SphereMap, params: EnergyParams, n: int,
                         rng) -> EnergyEstimate:
    """Unbiased stratified MC estimate of E_{s,p}(v o h, S^3), from one pass
    over S^2 x S^2, for v: S^2 -> S^2 and h the Hopf map.

    params are those of the S^3 energy, at sp = 3, where the S^3 kernel is
    |x - y|^-6 for every s. v o h reads x only through z = h(x). Over a
    pair (z, w) at angle theta, with a = cos(theta / 2), a point x over z
    and the points y of the fiber over w have <x, y>_C = a e^(i phi), phi
    running over the circle, so |x - y|^2 = 2 - 2 a cos(phi), and
    (1 / 2 pi) int_0^(2 pi) (2 - 2 a cos phi)^-3 dphi
        = (2 + a^2) / (16 (1 - a^2)^(5/2)).
    h pushes the measure of S^3 forward to pi/2 times that of S^2, and
    |z - w|^2 = 4 (1 - a^2), so with c = |z - w|
    E(v o h) = (pi^2 / 4) int int |v(z) - v(w)|^p (6 - c^2 / 2) / c^5 dz dw
             = (pi^2 / 4) (6 E_{s,p}(v, S^2) - E_{s/3,p}(v, S^2) / 2).
    The estimate runs energy_mc's driver on v over the whole S^2 with this
    pair kernel (_fiber_kernel_inverse): the same strata, streams, pilot and
    allocation as energy_mc(v, EnergyParams(s, p, 2), whole_sphere(2), n,
    rng), so both terms come from the same samples. As 0 < c <= 2, the
    kernel lies between pi^2 / c^5 and (3 pi^2 / 2) / c^5, so
    pi^2 E_{s,p}(v, S^2) <= E(v o h) <= (3 pi^2 / 2) E_{s,p}(v, S^2) for
    every v, and tail_bound is 3 pi^2 / 2 times v's
    lipschitz_tail_bound at the S^2 kernel exponent 2 + sp = 5. The result
    carries params and the whole S^3 as its region; its strata are v's.
    """
    if v.domain_dim != 2 or v.codomain_dim != 2:
        raise ParameterError("fiber_reduced_energy needs v: S^2 -> S^2")
    if params.n != 3 or abs(params.s * params.p - 3.0) > 1e-12:
        raise ParameterError(
            "the fiber reduction holds for the S^3 energy at s*p = 3, got "
            f"n = {params.n}, s*p = {params.s * params.p}")
    est = _stratified(v, EnergyParams(params.s, params.p, 2), whole_sphere(2),
                      n, rng, _fiber_kernel_inverse, 1.5 * np.pi ** 2)
    return replace(est, params=params, region=whole_sphere(3))


def _fiber_kernel_inverse(t):
    """1 / K at step t of fiber_reduced_energy's kernel
    K = (pi^2 / 4) (6 - c^2 / 2) / c^5, c = 2 sin(t / 2) the chord."""
    c2 = (2.0 * np.sin(0.5 * t)) ** 2
    return c2 * c2 * np.sqrt(c2) / ((0.25 * np.pi ** 2) * (6.0 - 0.5 * c2))


def hopf_energy(s: float) -> float:
    """E_{s,p}(h, S^3) of the Hopf map at p = 3/s, in closed form:
    2^(p-1) pi^4 (3 / (p - 3) - 1 / (p - 1)), fiber_reduced_energy's
    identity with v the identity of S^2 (25.6 pi^4 at s = 1/2)."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must lie in (0,1), got {s}")
    p = 3.0 / s
    return 2.0 ** (p - 1.0) * np.pi ** 4 * (3.0 / (p - 3.0) - 1.0 / (p - 1.0))


def _stratified(u: SphereMap, params: EnergyParams, region: Region, n: int,
                rng, inv_kernel, tail_scale: float = 1.0) -> EnergyEstimate:
    """energy_mc's driver with the pair kernel K given by its reciprocal
    inv_kernel(t) at step t, and a kernel at most tail_scale times the
    chordal one of params (its tail bound's factor)."""
    n = require_int(n, "n")
    if n < 1_000:
        raise ParameterError(f"the estimate needs at least 1000 samples, got n = {n}")
    seed = (int(rng.integers(2 ** 62)) if hasattr(rng, "integers")
            else require_int(rng, "seed"))
    if not 0 <= seed < 2 ** 64:  # the first word of every stratum's Philox key
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    strata, pair_weight, tail_measure = _strata(u, params.n, region)
    if not strata:  # constant map: the energy vanishes exactly
        return EnergyEstimate(0.0, 0.0, n, params, region, seed, 0.0, [])
    pilot = max(2, n // (MC_PILOT_SHARE * len(strata)))
    n_main = n - pilot * len(strata)
    if n_main < 2 * len(strata):  # 2 pilot and 2 main samples per stratum
        raise ParameterError(
            f"too few samples per stratum: n = {n} over {len(strata)} strata "
            f"({len(strata) // MC_SHELLS} sources x {MC_SHELLS} shells); "
            f"raise n to at least {4 * len(strata)}")
    tail = tail_scale * lipschitz_tail_bound(u, params, tail_measure,
                                             strata[-1].label["t_lo"])
    weights = np.array([st.weight for st in strata])
    kernel = (params.p, inv_kernel)
    # the pilot: its own key words (bit 63 set), all strata in one batch
    _, var = _moments(u, kernel, pair_weight, seed, [
        (st, pilot, _PILOT_KEY | st.key) for st in strata
    ], pilot * len(strata))
    alloc = _neyman_allocation(n_main, weights * np.sqrt(var)).tolist()
    mean, var = _moments(u, kernel, pair_weight, seed, [
        (st, n_j, st.key) for st, n_j in zip(strata, alloc)
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

    Plain: x is uniform in the region, pair weight 1_region(y). A map with
    x sources (SphereMap.sources), on the whole sphere: with W their
    union, pairs outside W x W contribute nothing, so E(u, S^n) =
    E(W x W) + 2 E(W x W^c); x is uniform in one source, pair weight
    2 - 1_W(y) (_pair_weight). Each source is cut into MC_SHELLS shells
    of the step length, [pi 2^(-(j+1)/2), pi 2^(-j/2)], keyed j (plain) or
    (i + 1) 2^32 + j (source i). Within a shell the kernel t^-(n+sp)
    swings by 2^((n+sp)/2), 5.7x on S^2 at sp = 3 against 32x across a
    dyadic shell, and the Neyman allocation acts only between strata. The
    innermost edge, pi 2^-40, is the dyadic shells' one. A source's strata
    draw x in up to MC_RINGS rings, a region's in one.
    """
    if region.center is None and u.sources is not None:
        sources = [(src, {"source": i}, i + 1, MC_RINGS)
                   for i, src in enumerate(u.sources)]
        tail_measure = 2.0 * sum(src.measure() for src in u.sources)
        pair_weight = _pair_weight(u.sources)
    else:
        sources = [(region, {}, 0, 1)]
        tail_measure = region.measure()

        def pair_weight(y):
            return region.contains(y).astype(np.float64)

    # edges pi 2^(-j/2): the innermost, pi 2^-40, bounds the tail
    edges = np.pi * 2.0 ** (-0.5 * np.arange(MC_SHELLS + 1))
    strata = []
    for src, label, tag, rings in sources:
        area = src.measure()
        for j in range(MC_SHELLS):
            t_hi, t_lo = float(edges[j]), float(edges[j + 1])
            w_j = shell_measure(dim, t_lo, t_hi)
            strata.append(_Stratum(src, area * w_j, tag * 2 ** 32 + j, {
                **label, "j": j, "t_lo": t_lo, "t_hi": t_hi, "weight": w_j}, rings))
    return strata, pair_weight, tail_measure


def _pair_weight(sources):
    """The pair weight 2 - 1_W(y) of x drawn in W, the union of sources."""

    def pair_weight(y):
        inside = sources[0].contains(y)
        for src in sources[1:]:
            inside |= src.contains(y)
        return np.where(inside, 1.0, 2.0)

    return pair_weight


def _streams(seed: int):
    """key -> the Generator of the Philox stream of key words (seed, key),
    at its start. One bit generator is re-keyed in place for every key, so
    one stream is live at a time; a new Philox would first seed itself from
    OS entropy it never uses, at more cost than a small stratum's draws."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen, start = np.random.Generator(bits), bits.state

    def stream(key: int):
        start["state"]["key"][1] = key
        bits.state = start
        return gen

    return stream


def _pair_values(u: SphereMap, kernel, x, y, t, pair_weight):
    """|u(x) - u(y)|^p K(t) times the pair weight, kernel = (p, inv_kernel)
    with inv_kernel(t) = 1 / K(t) at step t; u is evaluated where the
    weight is not 0."""
    wgt = pair_weight(y)
    vals = np.zeros(t.shape[0])
    keep = wgt != 0.0
    if not np.any(keep):
        return vals
    if np.all(keep):
        keep = slice(None)  # a basic index: no copies
    p, inv_kernel = kernel
    du = np.linalg.norm(u.eval_many(x[keep]) - u.eval_many(y[keep]), axis=1)
    vals[keep] = wgt[keep] * du ** p / inv_kernel(t[keep])
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


def _moments(u, kernel, pair_weight, seed: int, jobs, block: int):
    """Mean and variance per sample of the pair values of each job.

    A job (stratum, n_j, key) draws n_j samples of its stratum from the
    Philox stream of key words (seed, key) (_streams), in
    R = min(stratum.rings, n_j // 2) equal-measure rings of x (_blocks), so
    every ring holds at least 2 of them. The draws go in job order, in
    pieces that fill blocks of at most `block` samples, and each block is
    evaluated in one _pair_values call. Every (job, ring) keeps its own
    count, mean and sum of squares: a piece's rows of one ring are taken
    around their own mean and merged by the pairwise update of Chan, Golub
    and LeVeque (_merge). A job's mean is the mean of its R ring means, and
    its variance per sample is n_j sum_k s_k^2 / (R^2 n_k), with s_k^2 the
    unbiased variance of ring k's n_k values: n_j times the variance of the
    mean, which the standard error and the Neyman allocation both read.
    With R = 1 these are the job's plain mean and unbiased variance.
    """
    rings = [min(st.rings, n_j // 2) for st, n_j, _ in jobs]
    moments = [(np.zeros(r), np.zeros(r), np.zeros(r)) for r in rings]
    for idx, starts, sizes, x, y, t in _blocks(jobs, rings, block, u.domain_dim, seed):
        vals = _pair_values(u, kernel, x, y, t, pair_weight)
        for i, start, piece in zip(idx, starts, np.split(vals, np.cumsum(sizes[:-1]))):
            # row j of the piece lies in ring (start + j) mod r: column j
            # of the full rows, and the row full + j of the rest
            r, m = rings[i], piece.shape[0]
            ring = (start + np.arange(r)) % r
            full = m - m % r
            if full:
                rows = piece[:full].reshape(-1, r)
                p_mean = rows.mean(axis=0)
                _merge(moments[i], ring, full // r, p_mean,
                       ((rows - p_mean) ** 2).sum(axis=0))
            if full < m:
                _merge(moments[i], ring[:m - full], 1, piece[full:], 0.0)
    mean = [float(np.mean(mu)) for _, mu, _ in moments]
    var = [float(np.sum(q / (c - 1) * (c.sum() / c))) / c.shape[0] ** 2
           for c, _, q in moments]
    return mean, var


def _merge(moments, ring, m, p_mean, p_m2):
    """Chan, Golub and LeVeque's update of the (count, mean, sum of
    squares) arrays at the rings `ring` by pieces of m samples each, of
    means p_mean and sums of squares p_m2 around them."""
    count, mean, m2 = moments
    c = count[ring]
    delta = p_mean - mean[ring]
    mean[ring] += delta * m / (c + m)
    m2[ring] += p_m2 + delta * delta * c * m / (c + m)
    count[ring] = c + m


def _blocks(jobs, rings, block: int, dim: int, seed: int):
    """The jobs' samples on S^dim in blocks of at most `block`, as
    (job index, first row's ring and size of each piece; x, y, t).

    A piece, the run of one job's samples in one block, draws its raw
    variates from its job's stream, the jobs' streams one after another:
    x's (the source's draw), then a normal
    per coordinate for the tangent and a uniform for the radius. Each block
    then turns them into samples at once (_transform). Row j of a job's
    samples lies in ring j mod rings[i].
    """
    pieces, room, stream = [], block, _streams(seed)
    for i, (st, n_j, key) in enumerate(jobs):
        done, gen = 0, stream(key)
        while done < n_j:
            m = min(n_j - done, room)
            pieces.append((i, done % rings[i], m, st, rings[i], st.source.draw(m, gen),
                           gen.standard_normal((m, dim + 1)), gen.random(m)))
            done += m
            room -= m
            if not room:
                yield _transform(pieces)
                pieces, room = [], block
    if pieces:
        yield _transform(pieces)


def _transform(pieces):
    """One block of _blocks' pieces: x by one points call per run of
    pieces of one source, and y a geodesic step from x to a radius t of the
    distance law in each row's shell, by one call each of
    tangent_directions, sample_shell_radii and geodesic_step. All act row
    by row, so a piece's rows do not depend on the block around it."""
    idx, starts, sizes, strata, r, draws, normals, uniforms = zip(*pieces)
    ends = np.cumsum(sizes)
    r = np.repeat(r, sizes)
    ring = (np.arange(ends[-1]) + np.repeat(np.subtract(starts, ends - sizes), sizes)) % r
    xs = []
    for _, run in groupby(range(len(pieces)), key=lambda k: id(strata[k].source)):
        run = list(run)
        rows = slice(ends[run[0]] - sizes[run[0]], ends[run[-1]])
        raw = [_joined(a) for a in zip(*(draws[k] for k in run))]
        xs.append(strata[run[0]].source.points(raw, ring[rows], r[rows]))
    x = _joined(xs)
    t_lo, t_hi = (np.repeat([st.label[key] for st in strata], sizes)
                  for key in ("t_lo", "t_hi"))
    t = sample_shell_radii(x.shape[1] - 1, t_lo, t_hi, x.shape[0], _joined(uniforms))
    y = geodesic_step(x, tangent_directions(x, _joined(normals)), t)
    return idx, starts, sizes, x, y, t


def _joined(arrays):
    """The arrays end to end; one array is passed on as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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

def energy_quadrature(u: SphereMap, params: EnergyParams, resolution: int) -> float:
    """Deterministic product-rule value of E_{s,p}(u, S^n).

    resolution is the size of a near-uniform outer lattice on S^n; maps
    with Hopf tubes as their only x sources, and the Hopf map, use other
    outer rules (_quad_outer_nodes). The inner geodesic-polar rule uses
    4-point Gauss-Legendre on dyadic radial bands and an angular lattice
    (the rounded square root of resolution, at least 48 points). Bands run from
    pi down to at most pi * 2^-QUAD_MIN_BAND_EXP; they stop early once the
    certified bound on everything nearer the diagonal (lipschitz_tail_bound)
    falls below QUAD_TAIL_RTOL of the running total, and maps without a
    lipschitz_hint run them all. Inner points are evaluated in blocks of
    about QUAD_BLOCK. Converges to the Monte Carlo limit as resolution
    grows. The pair budget applies to the requested rule, resolution x
    angular points x 4 x QUAD_MIN_BAND_EXP, whichever outer rule runs.

    Pairs that are exactly zero are skipped, which leaves the rule as it
    is. The map's support gap (SphereMap.support_gap, the least of its
    sources' gaps) bounds from below the distance from x to W, where u
    differs from its basepoint. An outer node with gap(x) >= hi, and every
    inner point of the band below hi, lie off W, so the band evaluates only
    nodes with gap < hi. Maps without sources (the Hopf map, the identity)
    run every node.
    """
    if u.domain_dim != params.n:
        raise ParameterError("map domain does not match params.n")
    resolution = require_int(resolution, "resolution")
    if resolution < 1:
        raise ParameterError(f"resolution must be at least 1, got {resolution}")
    n_ang = max(48, round(resolution ** 0.5))
    pairs = resolution * n_ang * QUAD_MIN_BAND_EXP * _QUAD_GAUSS
    if pairs > QUAD_PAIR_BUDGET:
        raise ParameterError(
            f"quadrature would evaluate {pairs:.2e} pairs, over the 1e9 budget"
        )
    X, outer_w = _quad_outer_nodes(u, params.n, resolution)
    return _quad_rule(u, params, X, outer_w, n_ang,
                      _pair_weight(u.sources) if _tubes_only(u) else None)


def _quad_rule(u: SphereMap, params: EnergyParams, X, outer_w, n_ang: int,
               pair_weight=None) -> float:
    """The product rule on outer nodes X of weights outer_w (one per node,
    or one for all), with the pair weight pair_weight(y) when x ranges over
    the map's sources only (None: 1, x ranges over the whole sphere).

    The inner point at node x, radius t_g and direction omega_a is
    cos t_g x + sin t_g F omega_a, with F the node's oriented frame; that
    is column (g, a) of [x | F] [cos t_g ; sin t_g omega_a]. Each node's
    (n+1) x (n+1) matrix [x | F] is built once, each band's
    (n+1) x (4 n_ang) matrix once, and a block of nodes takes all its inner
    points from one batched matmul (both factors stored transposed, so the
    product comes out as rows of points). Pair values are (|du|^2)^(p/2).
    Memory is O(resolution): blocks of about QUAD_BLOCK inner points bound
    the temporaries.
    """
    n = params.n
    outer_w = np.broadcast_to(np.asarray(outer_w, dtype=np.float64), X.shape[:1])
    # rows x, e_1..e_n: the transposed basis [x | F] of each node
    basis = np.concatenate([X[:, None, :],
                            np.swapaxes(_kernels.oriented_frames(X), 1, 2)], axis=1)
    omega, w_ang = polar_directions(n, n_ang)
    ux = u.eval_many(X)
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_GAUSS)
    half_p = 0.5 * params.p
    measure = sphere_area(n)
    step = max(1, QUAD_BLOCK // (_QUAD_GAUSS * n_ang))
    # in the band below hi a node with gap >= hi adds only exact zeros
    # (see energy_quadrature)
    gap = u.support_gap(X)
    total = 0.0
    for band in range(QUAD_MIN_BAND_EXP):
        hi = np.pi * 2.0 ** (-band)
        if (u.lipschitz_hint is not None and
                lipschitz_tail_bound(u, params, measure, hi) < QUAD_TAIL_RTOL * total):
            break
        near = np.flatnonzero(gap < hi)
        lo = 0.5 * hi
        t = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        w_t = 0.5 * (hi - lo) * weights * np.sin(t) ** (n - 1)
        kern = w_t / (2.0 * np.sin(0.5 * t)) ** params.kernel_exponent
        # row (g, a): cos t_g, sin t_g omega_a
        coef = np.empty((_QUAD_GAUSS, n_ang, n + 1))
        coef[..., 0] = np.cos(t)[:, None]
        coef[..., 1:] = np.sin(t)[:, None, None] * omega
        coef = coef.reshape(-1, n + 1)
        band_sum = 0.0
        for i in range(0, near.shape[0], step):
            block = near[i:i + step]
            Y = np.matmul(coef, basis[block]).reshape(-1, n + 1)
            du = (u.eval_many(Y).reshape(block.shape[0], _QUAD_GAUSS, n_ang, -1)
                  - ux[block, None, None, :])
            vals = np.einsum("bgak,bgak->bga", du, du) ** half_p
            if pair_weight is not None:
                vals *= pair_weight(Y).reshape(vals.shape)
            band_sum += float(np.einsum("bga,g,b->", vals, kern, outer_w[block]))
        total += w_ang * band_sum
    return total


def _quad_outer_nodes(u: SphereMap, n: int, resolution: int):
    """Outer nodes of energy_quadrature and their weights (one for all, or
    one per node).

    * The Hopf map: U(2) acts transitively on S^3 by isometries that h
      intertwines with rotations of S^2, so the inner integral F(x) is
      constant and one node carries the whole measure exactly.
    * Maps whose x sources are all Hopf tubes (v o h, and its moves,
      _tubes_only): x ranges over the tubes, with the pair weight
      2 - 1_W(y) of _strata, on each tube's product rule (HopfTubes.nodes)
      with n_r = round(5 c) radii and n_a = round(8 c) angles (at least 1
      each), c = (resolution / 1000)^(1/3), as the spacing of the lattice
      follows resolution^(-1/3). At resolution 1000 (5 x 8 nodes per tube)
      it reads v o h within 0.13% of 12 x 24 nodes per tube for d = 4 and
      25 at s = 0.5 and 0.8; 4 x 8 nodes read 0.35% low at d = 25,
      s = 0.5, so the radii need the fifth node. The phase action
      e^(i theta)(w, z) is an isometry of S^3 that fixes h, so F is constant
      on Hopf fibers and one phase node is exact.
    * Any other map: a resolution-point lattice on S^n of equal weights.
    """
    if u.descriptor.get("variant") == "hopf":
        return hopf_lift_many(np.array([[0.0, 0.0, 1.0]])), sphere_area(3)
    if _tubes_only(u):
        scale = (resolution / 1000.0) ** (1.0 / 3.0)
        n_r, n_a = max(1, round(5.0 * scale)), max(1, round(8.0 * scale))
        rules = [src.nodes(n_r, n_a) for src in u.sources]
        return (np.concatenate([X for X, _ in rules]),
                np.concatenate([w for _, w in rules]))
    return sphere_lattice(n, resolution), sphere_area(n) / resolution


def _tubes_only(u: SphereMap) -> bool:
    return bool(u.sources) and all(isinstance(src, HopfTubes) for src in u.sources)


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
    must lie inside A, which for an annulus A means the same center and
    A.lo <= eta rho, rho <= A.hi. Reports the smallest C >= 0 that makes the
    inequality hold for the estimated energies, with propagated error, and
    whether some C <= 1e6 suffices within 3 standard errors.
    """
    if not (0.0 < eta < 1.0):
        raise ParameterError(f"eta must lie in (0,1), got {eta}")
    c = sphere_point(center.coords if hasattr(center, "coords") else center)
    if A.center is not None and (
            np.linalg.norm(c.coords - A.center.coords) > 1e-12
            or not A.lo <= eta * rho < rho <= A.hi):
        raise ParameterError("annulus is not inside the region A")
    rest = Region(c.dim, c if A.center is None else A.center, eta * rho, A.hi)
    e_a = energy_mc(u, params, A, n, seed)
    e_ball = energy_mc(u, params, Region(c.dim, c, 0.0, rho), n, seed + 1)
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
