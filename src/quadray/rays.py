"""External rays of the basin of infinity, traced through the escape-time
(Green/Boettcher) coordinate.

A ray point at angle theta and potential G solves f^k(z) = anchor(2^k theta,
2^k G) for the level k that lifts the potential into a fixed anchor band near
infinity, where the conformal coordinate is the identity plus an explicit
1/w correction.

One schedule walks every ray down from a potential g_top in the band:
substep j sits at potential g_top * 2^(-j/SUBSTEPS) on level
k = ceil(j/SUBSTEPS).  `_pullback` solves its equation by backward iteration
over the ray's doubling chain theta, 2 theta, ..., 2^L theta, L the levels
walked: the point of 2^i theta at a substep of level k is the square root
of (the point of 2^(i+1) theta at that substep of level k - 1) - c on the
branch nearer its point at the previous substep, and level 0 holds the
anchor points.  The angles are exact (r <- 2r mod den, the float r/den
correctly rounded).  The chain stops where it closes on itself, so rays of
one cycle share rows, and it never exceeds L + 1 rows, whatever the period
(1/(10^9 + 7) has about 5e8).  Backward iteration contracts, so the points
stay within rounding of the root where Newton on f^k from the previous
point runs out of precision.  A branch is ambiguous when
|y - x| >= BRANCH_RATIO |y + x|, x the previous point.  A sample that reads
an ambiguous branch or a non-finite value, in its own row or in a row it is
pulled back from, ends the descent: `trace_ray` keeps the samples above it
with status precision_exhausted, and `ray_point` raises PrecisionError.  The
circle-exit bisection needs points off the schedule; `_ray_point_near` pulls
them back too, on the branches nearer the forward orbit of a sample below.

Rays that land on one cycle are permuted by doubling, and f maps
R_theta(g) onto R_2theta(2g).  A portrait screen lists one ray per doubling
cycle, the smallest angle, picked by integer rotations of its binary word;
the cycles are counted before any candidate is built, against
PORTRAIT_CANDIDATE_BUDGET.  `_batch_landing` descends every member of those
cycles by the same pullback, but substep by substep over one flat array
(level blocks ran 20-40 % slower on screens of 400-4,400 cycles), and
reads the tails of the other rays of a cycle off the images of its ray's
tail under f.

A ray landing on a repelling point converges geometrically level by level;
on a parabolic point the residuals shrink like 1/k^2, so their ratio tends
to 1.  `estimate_landing` hands a periodic ray to Newton on its period
equation once that ratio reaches STALL_RATIO, which weakly repelling
landings reach too, and keeps descending when the refined point fails its
gates, one of them a bound from the geometric tail of the descent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angles import Angle, OrbitPortrait, validate_formal_portrait
from .dynamics import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, orbit_with_derivative
from .errors import PortraitError, PrecisionError, QuadrayError
from .orbits import PARABOLIC_CANDIDATE, REPELLING, PeriodicOrbit

#: Anchor potential: at G >= G0 the basin coordinate is the identity to ~1e-9.
ANCHOR_POTENTIAL = 16.0 * math.log(2.0)
SUBSTEPS = 8
MAX_HALVINGS = 200
#: A level residual at least this fraction of the one before marks a stall:
#: the ratio tends to 1 on parabolic landings (0.75 by level 12 on the
#: airplane's 1/7 rays), to |lambda|^(-1/m) on repelling ones, which stall
#: too when weakly repelling (0.81 at c = -1 on the 1/3 ray).
STALL_RATIO = 0.75
#: A root refined at a stall must lie within TAIL_SLACK * residual / (1 - q)
#: of the level point, q the stall ratio: the geometric tail of the descent
#: with a margin.  A repelling landing sits at about q times it (0.82 at
#: c = -1), a parabolic one with a single petal at about twice it (residuals
#: ~ 1/k^2, distances ~ 1/k): 1.3 to 2.1 on the airplane's 1/7 rays and at
#: c = 1/4 up to level 30, 3.7 by level 120 as the ratio swings with the ray
#: period.  A rejected stall descends on, so landings with more petals,
#: which sit farther out, finish the full descent.
TAIL_SLACK = 4.0
#: Portrait screens descend at most this many ray cycles: every period n <= 5
#: with the default cap 4n (n = 5: 54,664 cycles, a screen of about 8 s on a
#: 2-vCPU Xeon), not n = 6.
PORTRAIT_CANDIDATE_BUDGET = 2 ** 16
#: Working memory of one screen chunk of whole cycles, and what one cycle
#: member takes of it: SUBSTEPS + 1 complex and 7 float arrays.  Chunks of
#: 2 MiB ran fastest on a 2-vCPU Xeon (n = 4, cap 16: 0.49 s; 0.66 s with
#: one 16 MiB chunk).
SCREEN_CHUNK_BYTES = 2 ** 21
_SCREEN_MEMBER_BYTES = 16 * (SUBSTEPS + 1) + 8 * 7
#: A screen cycle leaves the screen when a pullback picks a square root y
#: with |y - x| >= BRANCH_RATIO |y + x|, x the point at the previous substep:
#: both roots nearly as far from x.
BRANCH_RATIO = 0.8
_BRANCH_MARGIN = (1.0 - BRANCH_RATIO ** 2) / (2.0 * (1.0 + BRANCH_RATIO ** 2))
#: A portrait screen descends SCREEN_LEVELS levels, and a ray cycle whose
#: tail lies within SCREEN_GATE of the orbit goes on to be matched.
SCREEN_LEVELS = 40
SCREEN_GATE = 0.2

DEFAULT_LANDING_TOL = 1e-8
DEFAULT_MATCH_TOL = 1e-6

STATUS_OK = "ok"
STATUS_PRECISION = "precision_exhausted"


@dataclass
class RayTrace:
    angle: Angle
    samples: list[tuple[float, complex]]  # (potential, point), potential decreasing
    status: str = STATUS_OK


@dataclass(frozen=True)
class LandingEstimate:
    z: complex
    residual: float
    converged: bool
    levels: int  # descent levels walked


@dataclass(frozen=True)
class TruncatedRay:
    parent: RayTrace
    exit_point: complex
    exit_is_last: bool


@dataclass(frozen=True)
class CircleOrderReport:
    order_at_circle: tuple[int, ...]
    order_at_infinity: tuple[int, ...]
    match: bool
    truncated: tuple[TruncatedRay, ...] = ()


def _anchor_seed(c: complex, theta_turns, potential):
    """Anchor points w - c/(2w), w = exp(potential + 2 pi i theta), of the
    angles theta (turns) at the potentials; numpy broadcasting applies."""
    w = np.exp(potential + 2j * np.pi * np.asarray(theta_turns))
    w -= c / (2.0 * w)
    return w


def _levels_below_anchor(potential: float) -> int:
    """Doublings that lift the potential into the anchor band."""
    return max(0, int(math.ceil(math.log2(ANCHOR_POTENTIAL / potential))))


def _level_potentials(g_top: float, k: int) -> list[float]:
    """Potentials of the SUBSTEPS substeps on level k of a descent from g_top."""
    return [g_top * 2.0 ** (-j / SUBSTEPS)
            for j in range((k - 1) * SUBSTEPS + 1, k * SUBSTEPS + 1)]


def _level_zero(c: complex, turns: np.ndarray, g_top: float) -> list[np.ndarray]:
    """Level 0 of a pullback from g_top: for each substep g of the first
    level, the anchor points of the angles `turns` at the potential 2g; the
    last substep's sit at g_top itself."""
    return [_anchor_seed(c, turns, 2.0 * g) for g in _level_potentials(g_top, 1)]


def _stable_sqrt(w: np.ndarray, re: np.ndarray, im: np.ndarray, norm: np.ndarray,
                 upper: np.ndarray, lower: np.ndarray) -> None:
    """The square root of w with real part >= 0 into (re, im), and |w| into
    norm; upper and lower are scratch.  The larger part sqrt((|w| + |a|) / 2)
    of the root of w = a + ib is the real one when a >= 0, and the product of
    the parts is b / 2.  numpy's complex sqrt took about 47 ns a value, each
    float ufunc here about 1 ns a value."""
    a, b = w.real, w.imag
    np.abs(w, out=norm)
    np.abs(a, out=upper)
    upper += norm
    upper *= 0.5
    np.sqrt(upper, out=upper)
    np.abs(b, out=lower)
    lower /= upper
    lower *= 0.5
    np.copysign(upper, a, out=upper)
    np.maximum(lower, upper, out=re)
    np.negative(upper, out=upper)
    np.maximum(lower, upper, out=im)
    np.copysign(im, b, out=im)


def _branch(re: np.ndarray, im: np.ndarray, prev_re: np.ndarray, prev_im: np.ndarray,
            norm: np.ndarray, prev_norm: np.ndarray, sign: np.ndarray,
            margin: np.ndarray) -> None:
    """Branch choice of the square roots y = re + i im against the points x
    = prev at the previous substep, norm and prev_norm holding |y|^2 and
    |x|^2: sign of Re(y conj(x)) into sign, which puts the root nearer x,
    and |Re(y conj(x))| - _BRANCH_MARGIN (|y|^2 + |x|^2) into margin.  The
    choice is ambiguous, |y - x| >= BRANCH_RATIO |y + x|, unless margin > 0.
    prev_norm is overwritten."""
    np.multiply(re, prev_re, out=margin)
    np.multiply(im, prev_im, out=sign)
    margin += sign
    np.copysign(1.0, margin, out=sign)
    np.abs(margin, out=margin)
    prev_norm += norm
    prev_norm *= _BRANCH_MARGIN
    margin -= prev_norm


def _doubling_chain(theta: Angle, levels: int):
    """The rows of a pullback `levels` levels deep: (turns, image), turns[i]
    the float 2^i theta mod 1 for i <= levels up to where doubling closes the
    chain, and image[i] the row of its double, i + 1 (no row, for the last
    of an open chain) or the row the chain closes on: row 0 exactly when
    theta is periodic, of period len(turns)."""
    r, den = theta.numerator, theta.denominator
    row: dict[int, int] = {}
    turns = []
    while len(turns) <= levels and r not in row:
        row[r] = len(turns)
        turns.append(r / den)
        r = 2 * r % den
    image = np.arange(1, len(turns) + 1)
    image[-1] = row.get(r, len(turns))
    return np.array(turns), image


def _pullback(c: complex, turns: np.ndarray, image: np.ndarray, g_top: float, levels: int):
    """The ray of the `_doubling_chain` (turns, image) descended by pullback
    from g_top (see the module docstring).

    Yields the anchor at g_top as a list of one point, then the points at
    the SUBSTEPS substeps of each level k = 1..levels; a level cut short is
    the last.  Level k descends the chain rows i <= levels - k (all rows of
    a chain that closes sooner) as a (SUBSTEPS, rows) block: the roots
    nearer the previous substep are the principal roots u_s times the
    running product of the `_branch` signs of u_s against u_(s-1), u_0 the
    previous level's last point.  Flipping a sign leaves `_branch`'s
    ambiguity margin alone.  Sample j of row 0 reads row i at sample
    j - i SUBSTEPS and before, so a failure there cuts the descent at j.
    """
    prev = np.array(_level_zero(c, turns, g_top))
    yield prev[-1, :1].tolist()
    bad = math.inf  # the first sample of row 0 that reads a failure
    for k in range(1, levels + 1):
        rows = min(len(turns), levels - k + 1)
        w = prev[:, image[:rows]] - c
        y = np.empty((SUBSTEPS + 1, rows), dtype=complex)
        y[0] = prev[-1, :rows]
        norm = np.empty((SUBSTEPS + 1, rows))
        sign, margin = np.empty(w.shape), np.empty(w.shape)
        with np.errstate(all="ignore"):
            norm[0] = np.abs(y[0]) ** 2
            _stable_sqrt(w, y.real[1:], y.imag[1:], norm[1:], sign, margin)
            _branch(y.real[1:], y.imag[1:], y.real[:-1], y.imag[:-1], norm[1:], norm[:-1],
                    sign, margin)
            y[1:] *= np.cumprod(sign, axis=0)
        ok = margin > 0
        if not ok.all():
            s, i = np.nonzero(~ok)
            bad = min(bad, int(np.min((k - 1 + i) * SUBSTEPS + s + 1)))
        reached = min(SUBSTEPS, max(0, bad - (k - 1) * SUBSTEPS - 1))
        yield y[1:reached + 1, 0].tolist()
        if reached < SUBSTEPS:
            return
        prev = y[1:]


def _ray_samples(qmap: QuadraticMap, theta: Angle, g_min: float):
    """Potentials and points of ray theta from the anchor band down to
    g_min, and whether the descent reached g_min."""
    if g_min <= 0:
        raise ValueError("potential must be positive")
    levels = _levels_below_anchor(g_min)
    g_top = g_min * 2.0 ** levels
    descent = _pullback(qmap.c, *_doubling_chain(theta, levels), g_top, levels)
    points = [z for block in descent for z in block]
    potentials = [g_top] + [g for k in range(1, levels + 1) for g in _level_potentials(g_top, k)]
    return potentials[:len(points)], points, len(points) == len(potentials)


def ray_point(qmap: QuadraticMap, theta: Angle, potential: float) -> complex:
    """The point of external ray theta at the given Green potential; raises
    PrecisionError when the descent fails above it."""
    _, points, reached = _ray_samples(qmap, theta, potential)
    if not reached:
        raise PrecisionError(f"ray {theta} met an ambiguous branch or a non-finite "
                             "point above this potential")
    return points[-1]


def trace_ray(qmap: QuadraticMap, theta: Angle, g_min: float,
              g_max: float = ANCHOR_POTENTIAL) -> RayTrace:
    """Sampled ray from potential ~g_max down to g_min (one sample per
    pullback substep, potentials strictly decreasing); a descent that fails
    keeps the samples above the failure, with status precision_exhausted."""
    potentials, points, reached = _ray_samples(qmap, theta, g_min)
    samples = [(g, z) for g, z in zip(potentials, points) if g <= g_max * (1.0 + 1e-12)]
    return RayTrace(angle=theta, samples=samples,
                    status=STATUS_OK if reached else STATUS_PRECISION)


def estimate_landing(qmap: QuadraticMap, theta: Angle,
                     landing_tol: float = DEFAULT_LANDING_TOL,
                     max_halvings: int = MAX_HALVINGS) -> LandingEstimate:
    """Landing point of a rational ray.

    Potentials descend geometrically; convergence is declared when
    consecutive level points differ by less than landing_tol, and after
    max_halvings levels the trace is declared stalled.  For a periodic angle
    whose doubling chain closes within its max_halvings + 1 rows, of period
    m, the last level point is then refined by Newton against f^m(z) = z, and
    replaced by the root when that lies within 0.05.  Parabolic landing slows
    below the geometric rate: once a level's residual is at least STALL_RATIO
    times the one before, a periodic ray is refined at once, and the root is
    returned when it also lies within TAIL_SLACK geometric tails of the level
    point and passes landing_tol on its last Newton step; otherwise the
    descent goes on.  `levels` counts the levels walked.
    """
    level_pts: list[complex] = []
    converged = exhausted = False
    residual = math.inf
    turns, image = _doubling_chain(theta, max_halvings)
    m = len(turns) if image[-1] == 0 else None
    descent = _pullback(qmap.c, turns, image, ANCHOR_POTENTIAL, max_halvings)
    x = next(descent)[0]
    for block in descent:
        x = block[-1] if block else x
        if len(block) < SUBSTEPS:
            exhausted = True
            break
        level_pts.append(x)
        if len(level_pts) >= 2:
            last, residual = residual, abs(level_pts[-1] - level_pts[-2])
            if residual < landing_tol:
                converged = True
                break
            if m is not None and residual >= STALL_RATIO * last:
                q = residual / last
                tail = TAIL_SLACK * residual / (1.0 - q) if q < 1.0 else math.inf
                est = _periodic_landing(qmap, x, m, min(tail, 0.05), landing_tol,
                                        len(level_pts))
                if est is not None and est.converged:
                    return est

    z = level_pts[-1] if level_pts else x
    if m is not None and not exhausted:
        est = _periodic_landing(qmap, z, m, 0.05, landing_tol, len(level_pts))
        if est is not None:
            return est
    return LandingEstimate(z=z, residual=residual, converged=converged,
                           levels=len(level_pts))


def _periodic_landing(qmap, x, m, radius, landing_tol, levels):
    """The root of f^m(z) = z that Newton reaches from the level point x, as
    a landing estimate converged when its last step is below landing_tol, or
    None unless it lies within radius of x."""
    refined, step = _refine_periodic(qmap, x, m)
    if refined is None or not abs(refined - x) < radius:
        return None
    return LandingEstimate(z=refined, residual=step, converged=step < landing_tol,
                           levels=levels)


def _refine_periodic(qmap, z0, m, iters=90):
    """Newton on f^m(z) - z from z0; linear but safe at parabolic double
    roots.  Returns (root or None, last step size)."""
    z = complex(z0)
    last = math.inf
    for _ in range(iters):
        w, d = orbit_with_derivative(qmap, np.array([z]), m)
        gp = d[0] - 1.0
        if not (np.isfinite(w[0]) and np.isfinite(gp)) or abs(gp) < 1e-30:
            return None, math.inf
        step = (w[0] - z) / gp
        z = z - step
        last = abs(step)
        if last < 1e-14 * (1.0 + abs(z)):
            break
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None, math.inf
    return z, last


def _batch_landing(qmap: QuadraticMap, r: np.ndarray, den: np.ndarray, levels: int):
    """Screen tails of the rays r/den, den = 2^m - 1 with m <= 20, at
    potential ANCHOR_POTENTIAL * 2^-levels, descended by pullback.

    Each ray is descended with the rest of its doubling cycle, in chunks of
    whole cycles that fit SCREEN_CHUNK_BYTES.  Returns (points, alive): alive
    is False for a ray whose cycle met a non-finite value or an ambiguous
    branch, and its point is 0.  Used as a screen before per-ray refinement.
    """
    r = np.asarray(r, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    if np.any((den < 1) | (den & (den + 1) != 0)):
        raise ValueError("screen denominators must be 2^m - 1, the rays' periods m")
    m = np.frexp(den + 1.0)[1] - 1  # den = 2^m - 1 is exact in a double
    points = np.zeros(len(r), dtype=complex)
    alive = np.zeros(len(r), dtype=bool)
    # a chunk takes the cycles whose first member falls in its window
    window = np.cumsum(m) - m
    window //= max(1, SCREEN_CHUNK_BYTES // _SCREEN_MEMBER_BYTES)
    starts = np.flatnonzero(np.diff(window, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(r)]):
        points[lo:hi], alive[lo:hi] = _pullback_cycles(qmap.c, r[lo:hi], den[lo:hi],
                                                       m[lo:hi], levels)
    return points, alive


def _pullback_cycles(c: complex, r: np.ndarray, den: np.ndarray, m: np.ndarray,
                     levels: int):
    """Points and alive flags of the rays r/den of period m after `levels`
    levels of pullback; see _batch_landing.

    The members theta 2^i of a cycle sit in consecutive rows, the first its
    ray; the image of a row under doubling is the next row, wrapping to the
    first at the last.  Level 0 holds each member's anchor points at the
    potentials 2g of the first level's substeps g.  The point at substep s of
    level k is the square root of (its image's point at substep s of level
    k - 1) - c nearer the point at the previous substep, as in `_pullback`,
    but walked substep by substep over one flat array.  Both kernels give
    the same bits, but `_pullback`'s level blocks, run in the same
    SCREEN_CHUNK_BYTES chunks with the shift-and-wrap image rule, took
    0.56-0.77 s on the n = 4, cap 16 screens (4,448 cycles; golden Siegel
    and rabbit parameters) against 0.42-0.54 s here, and 48 against 37 ms
    on the airplane and c = i screens at n = 3 (402 cycles), on a 2-vCPU
    Xeon.  A gather through an image-row index took about 20 % longer than
    this shift-and-wrap on a 4,448-cycle screen.
    """
    first = np.cumsum(m) - m
    last = first + m - 1
    pts = _member_anchors(c, r, den, m, first)
    real, imag = [p.real for p in pts], [p.imag for p in pts]
    w = np.empty_like(pts[0])
    norm, lower, upper, sign, margin = (np.empty(len(w)) for _ in range(5))
    ref_norm = np.abs(pts[-1]) ** 2
    worst = np.full(len(w), np.inf)
    with np.errstate(all="ignore"):
        for _ in range(levels):
            for s in range(SUBSTEPS):
                y = pts[s]
                np.subtract(y[1:], c, out=w[:-1])
                w[last] = y[first] - c
                _stable_sqrt(w, real[s], imag[s], norm, upper, lower)
                _branch(real[s], imag[s], real[s - 1], imag[s - 1], norm, ref_norm,
                        sign, margin)
                real[s] *= sign
                imag[s] *= sign
                np.minimum(worst, margin, out=worst)
                ref_norm, norm = norm, ref_norm
    points = pts[-1][first]
    alive = (np.minimum.reduceat(worst, first) > 0) & np.isfinite(points)
    points[~alive] = 0.0
    return points, alive


def _member_anchors(c, r, den, m, first):
    """Level 0 of a pullback: for each substep g of the first level, the
    anchor points at potential 2g of the members r 2^i / den, i < m, of each
    cycle, in consecutive rows from `first`.  Its index arrays are freed
    before the descent, which SCREEN_CHUNK_BYTES does not count."""
    cycle = np.repeat(np.arange(len(m)), m)
    shift = np.arange(len(cycle)) - first[cycle]
    # r < 2^m and i < m <= 20, so r 2^i fits int64
    theta = (r[cycle] << shift) % den[cycle] / den[cycle]
    return _level_zero(c, theta, ANCHOR_POTENTIAL)


def _cycle_count(m: int) -> int:
    """Doubling cycles of exact period m: the necklace count
    (1/m) sum_{d | m} mu(m/d) 2^d for m >= 2, and 1 at m = 1 (the words 0 and
    1 are one angle).  m doublings fix 2^m - 1 angles; removing those of
    exact period d for each proper divisor d of m leaves exact period m."""
    def exact(p: int) -> int:
        return 2 ** p - 1 - sum(exact(d) for d in range(1, p) if p % d == 0)
    return exact(m) // m


def _cycle_representatives(m: int) -> np.ndarray:
    """Numerators k of the smallest angle k/(2^m - 1) of every doubling cycle
    of exact period m, increasing.

    Doubling k/(2^m - 1) rotates the m-bit word of k, so k is the smallest
    angle of a cycle of exact period m when it is below each of its m - 1
    proper rotations (a word fixed by a shorter rotation equals one of them).
    Rotations are integer doublings mod 2^m - 1 over the words still smallest.
    """
    den = 2 ** m - 1
    k = np.arange(max(den, 1), dtype=np.int64)
    rot = k
    for _ in range(m - 1):
        rot = 2 * rot % den
        smallest = k < rot
        k, rot = k[smallest], rot[smallest]
    return k


def portrait_candidate_angles(n: int, ray_period_cap: int) -> np.ndarray:
    """One angle per doubling cycle whose exact period is a multiple of n up
    to the cap, its smallest, as int64 rows (numerator, denominator 2^m - 1).

    The cycles are counted first; more than PORTRAIT_CANDIDATE_BUDGET raise
    QuadrayError before any array is built.
    """
    periods = range(n, ray_period_cap + 1, n)
    count = sum(_cycle_count(m) for m in periods)
    if count > PORTRAIT_CANDIDATE_BUDGET:
        raise QuadrayError(
            f"{count} candidate ray cycles of period {n}, {2 * n}, ... <= {ray_period_cap}, "
            f"over the budget of {PORTRAIT_CANDIDATE_BUDGET}; lower the ray-period cap")
    rows = [np.empty((0, 2), dtype=np.int64)]
    for m in periods:
        k = _cycle_representatives(m)
        rows.append(np.column_stack([k, np.full_like(k, 2 ** m - 1)]))
    return np.concatenate(rows)


def _cycle_landing(qmap: QuadraticMap, pts: np.ndarray, m: int, tail: complex,
                   match_tol: float) -> list[int] | None:
    """Orbit-point indices j_0 .. j_{m-1} where the rays 2^i theta land, from
    the tail of a ray theta of period m and its images f^i(tail), or None.

    f maps R_theta(g) onto R_2theta(2g), so f^i(tail) lies on ray 2^i theta.
    Each is refined by Newton on f^m(z) = z, must move by at most 0.05, match
    an orbit point within match_tol, and the indices must step by one mod n.
    """
    n = len(pts)
    js: list[int] = []
    x = tail
    for i in range(m):
        refined, _ = _refine_periodic(qmap, x, m)
        if refined is None or abs(refined - x) > 0.05:
            return None
        d = np.abs(pts - refined)
        j = int(np.argmin(d))
        if not d[j] < match_tol or (js and j != (js[0] + i) % n):
            return None
        js.append(j)
        x = x * x + qmap.c
    return js


def portrait_at_orbit(qmap: QuadraticMap, orbit: PeriodicOrbit, n: int,
                      match_tol: float = DEFAULT_MATCH_TOL,
                      ray_period_cap: int | None = None) -> OrbitPortrait:
    """Assemble the orbit portrait of a repelling or parabolic cycle from
    coarse-traced candidate rays.

    Rays landing on one cycle are permuted by doubling, so one angle per
    doubling cycle (periods n, 2n, ... up to the cap; its smallest) is
    screened: the rays of all these cycles are descended together by pullback
    (`_batch_landing`), SCREEN_LEVELS levels deep.  When its tail
    lies within SCREEN_GATE of the orbit, the tails of the other rays of its
    cycle are its images under f; each is refined by Newton on the period
    equation and matched to an orbit point within match_tol, and the cycle is
    kept when f steps the matched points as doubling steps the angles.  The
    assembled portrait must pass formal validation.
    """
    if orbit.stability not in (REPELLING, PARABOLIC_CANDIDATE):
        raise QuadrayError(
            f"portrait extraction needs a repelling or parabolic orbit, got {orbit.stability}")
    if orbit.minimal_period != n:
        raise QuadrayError("n must equal the orbit's minimal period")
    if ray_period_cap is None:
        ray_period_cap = 4 * n
    pts = np.array(orbit.points)
    r, den = portrait_candidate_angles(n, ray_period_cap).T
    if not len(r):
        raise PortraitError("no candidate angles below the ray-period cap")

    tails, alive = _batch_landing(qmap, r, den, SCREEN_LEVELS)
    dist = np.min(np.abs(tails[:, None] - pts[None, :]), axis=1)
    accepted: dict[Angle, int] = {}
    for i in np.flatnonzero(alive & (dist < SCREEN_GATE)).tolist():
        ri, di = int(r[i]), int(den[i])
        js = _cycle_landing(qmap, pts, di.bit_length(), complex(tails[i]), match_tol)
        for idx, j in enumerate(js or ()):
            accepted[Angle(ri * 2 ** idx % di, di)] = j

    if not accepted:
        raise PortraitError(
            f"no candidate ray landed within {match_tol} of the orbit")
    sets = tuple(tuple(sorted(a for a, j in accepted.items() if j == i))
                 for i in range(n))
    portrait = OrbitPortrait(sets=sets)
    report = validate_formal_portrait(portrait)
    if not report.ok:
        raise PortraitError(
            f"assembled portrait failed validation: {report.failures}",
            report=report, portrait=portrait)
    return OrbitPortrait(sets=sets, ray_period=report.ray_period)


def _ray_point_near(qmap, theta, potential, x):
    """Ray point at a potential at most a substep above the ray point x: the
    anchor of 2^k theta at 2^k potential, k = _levels_below_anchor(potential),
    pulled back k times down the chain 2^k theta, ..., theta, in row i on the
    square root nearer f^i(x), which lies on ray 2^i theta.  Raises
    PrecisionError where that branch is ambiguous under `_branch`'s rule,
    which a non-finite value fails too."""
    k = _levels_below_anchor(potential)
    den = theta.denominator
    y = complex(_anchor_seed(qmap.c, theta.numerator * pow(2, k, den) % den / den,
                             potential * 2.0 ** k))
    near = [x]
    for _ in range(k - 1):
        near.append(near[-1] * near[-1] + qmap.c)
    for z in reversed(near[:k]):
        y = cmath.sqrt(y - qmap.c)
        dot = y.real * z.real + y.imag * z.imag
        if not abs(dot) > _BRANCH_MARGIN * (abs(y) ** 2 + abs(z) ** 2):
            raise PrecisionError(f"ray {theta} met an ambiguous branch or a non-finite "
                                 f"point at potential {potential}")
        y = y if dot > 0 else -y
    return y


def circle_exit_cyclic_order(qmap: QuadraticMap, rays: list[RayTrace],
                             center: complex, radius: float,
                             cfg: PrecisionConfig = DEFAULT_CONFIG) -> CircleOrderReport:
    """Compare the cyclic order of ray exit points on the circle
    |z - center| = radius with the cyclic order of their angles at infinity.

    Each ray is truncated at its last sampled crossing of the circle: the
    potentials of those two samples are bisected in log-potential, each by
    `_ray_point_near` from the inner sample, until the exit point lies within
    cfg.newton_tol of the circle.  A second crossing within the final
    potential band flags exit_is_last = False rather than guessing.
    """
    if not rays:
        raise QuadrayError("need at least one ray")
    truncated: list[TruncatedRay] = []
    for ray in rays:
        samples = ray.samples
        if len(samples) < 2:
            raise QuadrayError("ray trace too short to bracket the circle")
        if abs(samples[-1][1] - center) >= radius:
            raise QuadrayError(
                f"ray {ray.angle} does not end inside the circle; trace deeper")
        brackets = [i for i in range(len(samples) - 1)
                    if abs(samples[i][1] - center) >= radius > abs(samples[i + 1][1] - center)]
        if not brackets:
            raise QuadrayError(f"ray {ray.angle} never crosses the circle in its trace")
        last = brackets[-1]
        (hi, _), (lo, x) = samples[last], samples[last + 1]
        exit_is_last = sum(samples[i][0] <= 2.0 * hi for i in brackets) == 1
        for _ in range(60):
            mid = math.sqrt(lo * hi)  # bisect in log-potential
            zm = _ray_point_near(qmap, ray.angle, mid, x)
            if abs(abs(zm - center) - radius) < cfg.newton_tol:
                break
            if abs(zm - center) >= radius:
                hi = mid
            else:
                lo = mid
        truncated.append(TruncatedRay(parent=ray, exit_point=zm,
                                      exit_is_last=exit_is_last))

    idx = list(range(len(rays)))
    order_inf = tuple(sorted(idx, key=lambda i: rays[i].angle.as_fraction()))
    order_circ = tuple(sorted(
        idx, key=lambda i: cmath.phase(truncated[i].exit_point - center) % (2.0 * math.pi)))
    match = _cyclically_equal(order_inf, order_circ)
    return CircleOrderReport(order_at_circle=order_circ,
                             order_at_infinity=order_inf,
                             match=match,
                             truncated=tuple(truncated))


def _cyclically_equal(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return len(a) == len(b) and any(a == b[i:] + b[:i] for i in range(len(b)))
