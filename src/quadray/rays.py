"""External rays of the basin of infinity, traced through the escape-time
(Green/Boettcher) coordinate.

A ray point at angle theta and potential G solves f^k(z) = anchor(2^k theta,
2^k G) for the level k that lifts the potential into a fixed anchor band near
infinity, where the conformal coordinate is the identity plus an explicit
1/w correction.

One schedule walks every ray down from a potential g_top in the band:
substep j sits at potential g_top * 2^(-j/SUBSTEPS) on level
k = ceil(j/SUBSTEPS), where Newton from the previous point solves
f^k(z) = anchor(2^k theta, 2^k * potential).  The small steps keep each solve
in its convergence basin and on the correct inverse branch.  2^k theta is
exact: theta = r/den with r <- 2r mod den once per level, and the float r/den
is 2^k theta mod 1 correctly rounded.

`_descent` walks one ray in scalar Python; `_batch_landing` walks the
portrait candidates together in numpy.  Single rays stay scalar: at one
point, f^100 with its derivative takes about 20 us in a Python loop and
about 500 us through orbit_with_derivative on a one-element array (2-vCPU
Xeon, Python 3.11).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .angles import (Angle, OrbitPortrait, angle_period, doubling_orbit,
                     periodic_angles, validate_formal_portrait)
from .dynamics import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, orbit_with_derivative
from .errors import PortraitError, PrecisionError, QuadrayError
from .orbits import PARABOLIC_CANDIDATE, REPELLING, PeriodicOrbit

#: Anchor potential: at G >= G0 the basin coordinate is the identity to ~1e-9.
ANCHOR_POTENTIAL = 16.0 * math.log(2.0)
SUBSTEPS = 8
MAX_HALVINGS = 200

DEFAULT_LANDING_TOL = 1e-8
DEFAULT_MATCH_TOL = 1e-6

STATUS_OK = "ok"
STATUS_STALLED = "stalled"
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


def _anchor_seed(c: complex, theta_turns: float, potential: float) -> complex:
    w = cmath.exp(potential + 2j * math.pi * theta_turns)
    return w - c / (2.0 * w)


def _levels_below_anchor(potential: float) -> int:
    """Doublings that lift the potential into the anchor band."""
    return max(0, int(math.ceil(math.log2(ANCHOR_POTENTIAL / potential))))


def _level_potentials(g_top: float, k: int) -> list[float]:
    """Potentials of the SUBSTEPS substeps on level k of a descent from g_top."""
    return [g_top * 2.0 ** (-j / SUBSTEPS)
            for j in range((k - 1) * SUBSTEPS + 1, k * SUBSTEPS + 1)]


def _descent(qmap: QuadraticMap, theta: Angle, g_top: float):
    """Yield (potential, z) down ray theta from potential g_top: the anchor
    point, then one point per Newton substep, without end.

    Raises PrecisionError on Newton breakdown (a ray passing too close to a
    precritical point at this precision).
    """
    c = qmap.c
    r, den = theta.numerator, theta.denominator
    z = _anchor_seed(c, r / den, g_top)
    yield g_top, z
    for k in itertools.count(1):
        r = 2 * r % den
        for potential in _level_potentials(g_top, k):
            target = _anchor_seed(c, r / den, potential * 2.0 ** k)
            z = _newton_to_target(qmap, z, k, target, 16)
            yield potential, z


def _descent_to(qmap: QuadraticMap, theta: Angle, g_target: float):
    """The descent of ray theta from the anchor band down to g_target."""
    if g_target <= 0:
        raise ValueError("potential must be positive")
    levels = _levels_below_anchor(g_target)
    return itertools.islice(_descent(qmap, theta, g_target * 2.0 ** levels),
                            levels * SUBSTEPS + 1)


def _newton_to_target(qmap, x, k, target, iters):
    for _ in range(iters):
        w = x
        d = 1.0 + 0.0j
        for _ in range(k):
            d *= 2.0 * w
            w = w * w + qmap.c
        if d == 0 or not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise PrecisionError("ray Newton step broke down (precritical pinch?)")
        step = (w - target) / d
        x -= step
        if abs(step) < 1e-13 * (1.0 + abs(x)):
            return x
    if abs(step) > 1e-6 * (1.0 + abs(x)):
        raise PrecisionError("ray Newton failed to converge at this precision")
    return x


def ray_point(qmap: QuadraticMap, theta: Angle, potential: float) -> complex:
    """The point of external ray theta at the given Green potential."""
    for _, z in _descent_to(qmap, theta, potential):
        pass
    return z


def trace_ray(qmap: QuadraticMap, theta: Angle, g_min: float,
              g_max: float = ANCHOR_POTENTIAL) -> RayTrace:
    """Sampled ray from potential ~g_max down to g_min (one sample per
    Newton substep, potentials strictly decreasing)."""
    samples: list[tuple[float, complex]] = []
    status = STATUS_OK
    try:
        for g, z in _descent_to(qmap, theta, g_min):
            if g <= g_max * (1.0 + 1e-12):
                samples.append((g, z))
    except PrecisionError:
        status = STATUS_PRECISION
    return RayTrace(angle=theta, samples=samples, status=status)


def estimate_landing(qmap: QuadraticMap, theta: Angle,
                     landing_tol: float = DEFAULT_LANDING_TOL,
                     max_halvings: int = MAX_HALVINGS) -> LandingEstimate:
    """Landing point of a rational ray.

    Potentials descend geometrically; convergence is declared when
    consecutive level points differ by less than landing_tol.  Parabolic
    landing slows below the geometric rate, so after max_halvings the trace
    is declared stalled and the best point is kept.  For a periodic angle the
    estimate is then refined by Newton against f^m(z) = z, which recovers the
    landing point even from a stalled tail.
    """
    level_pts: list[complex] = []
    converged = False
    residual = math.inf
    status = STATUS_OK
    points = itertools.islice(_descent(qmap, theta, ANCHOR_POTENTIAL),
                              max_halvings * SUBSTEPS + 1)
    try:
        for j, (_, x) in enumerate(points):
            if j == 0 or j % SUBSTEPS:
                continue
            level_pts.append(x)
            if len(level_pts) >= 2:
                residual = abs(level_pts[-1] - level_pts[-2])
                if residual < landing_tol:
                    converged = True
                    break
        else:
            status = STATUS_STALLED
    except PrecisionError:
        status = STATUS_PRECISION

    z = level_pts[-1] if level_pts else x
    m = angle_period(theta)
    if m is not None and status != STATUS_PRECISION:
        refined, step = _refine_periodic(qmap, z, m)
        if refined is not None and abs(refined - z) < 0.05:
            return LandingEstimate(z=refined, residual=step, converged=step < landing_tol)
    return LandingEstimate(z=z, residual=residual, converged=converged)


def _refine_periodic(qmap, z0, m, iters=90):
    """Newton on f^m(z) - z from z0; linear but safe at parabolic double
    roots.  Returns (root or None, last step size)."""
    z = complex(z0)
    last = math.inf
    for _ in range(iters):
        arr = np.array([z])
        w, d = orbit_with_derivative(qmap, arr, m)
        gp = d[0] - 1.0
        if not np.isfinite(w[0]) or abs(gp) < 1e-30:
            return None, math.inf
        step = (w[0] - z) / gp
        z = z - step
        last = abs(step)
        if last < 1e-14 * (1.0 + abs(z)):
            break
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None, math.inf
    return z, last


def _batch_landing(qmap: QuadraticMap, angles: list[Angle], levels: int,
                   newton_iters: int = 8):
    """Vectorized coarse descent of many rays to a fixed depth.

    Returns (points, alive) where alive flags rays whose Newton solves stayed
    finite.  Used as a screen before per-ray refinement.
    """
    c = qmap.c
    # Candidate denominators are 2^m - 1 with m <= 24, so 2r fits int64 and
    # r, den are exact doubles: r / den rounds exactly as the scalar path's.
    r = np.array([a.numerator for a in angles], dtype=np.int64)
    den = np.array([a.denominator for a in angles], dtype=np.int64)
    x = _anchor_seed_vec(c, r / den, ANCHOR_POTENTIAL)
    alive = np.ones(len(angles), dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(1, levels + 1):
            r = 2 * r % den
            for potential in _level_potentials(ANCHOR_POTENTIAL, k):
                target = _anchor_seed_vec(c, r / den, potential * 2.0 ** k)
                for _ in range(newton_iters):
                    w, d = orbit_with_derivative(qmap, x, k)
                    step = (w - target) / d
                    ok = np.isfinite(step)
                    step = np.where(ok, step, 0.0)
                    x = x - np.where(alive, step, 0.0)
                    if np.all(np.abs(step[alive]) < 1e-12 * (1.0 + np.abs(x[alive]))):
                        break
                alive &= np.isfinite(x)
                x = np.where(np.isfinite(x), x, 0.0)
    return x, alive


def _anchor_seed_vec(c, theta_arr, potential):
    w = np.exp(potential + 2j * np.pi * theta_arr)
    return w - c / (2.0 * w)


def portrait_candidate_angles(n: int, ray_period_cap: int) -> list[Angle]:
    """Angles whose exact doubling period is a multiple of n up to the cap."""
    out = []
    m = n
    while m <= ray_period_cap:
        if m <= 24:
            out.extend(a for a in periodic_angles(m) if angle_period(a) == m)
        m += n
    return out


def portrait_at_orbit(qmap: QuadraticMap, orbit: PeriodicOrbit, n: int,
                      match_tol: float = DEFAULT_MATCH_TOL,
                      ray_period_cap: int | None = None,
                      screen_levels: int = 40,
                      screen_gate: float = 0.2) -> OrbitPortrait:
    """Assemble the orbit portrait of a repelling or parabolic cycle from
    coarse-traced candidate rays.

    Candidate angles (periods n, 2n, ... up to the cap) are descended in one
    vectorized pass; rays whose tails pass the distance gate are refined by
    Newton on their period equation and matched to orbit points within
    match_tol.  The assembled portrait must pass formal validation.
    """
    if orbit.stability not in (REPELLING, PARABOLIC_CANDIDATE):
        raise QuadrayError(
            f"portrait extraction needs a repelling or parabolic orbit, got {orbit.stability}")
    if orbit.minimal_period != n:
        raise QuadrayError("n must equal the orbit's minimal period")
    if ray_period_cap is None:
        ray_period_cap = 4 * n
    pts = np.array(orbit.points)
    candidates = portrait_candidate_angles(n, ray_period_cap)
    if not candidates:
        raise PortraitError("no candidate angles below the ray-period cap")

    tails, alive = _batch_landing(qmap, candidates, screen_levels)
    dist = np.min(np.abs(tails[:, None] - pts[None, :]), axis=1)
    survivors = [i for i in range(len(candidates)) if alive[i] and dist[i] < screen_gate]

    matches: dict[Angle, int] = {}
    for i in survivors:
        theta = candidates[i]
        m = angle_period(theta)
        refined, _ = _refine_periodic(qmap, complex(tails[i]), m)
        if refined is None or abs(refined - tails[i]) > 0.05:
            continue
        d = np.abs(pts - refined)
        j = int(np.argmin(d))
        if d[j] < match_tol:
            matches[theta] = j

    # Keep only full, f-equivariant angle cycles.
    accepted: dict[Angle, int] = {}
    for theta, j in matches.items():
        cyc = doubling_orbit(theta)
        ok = all(a in matches and matches[a] == (j + idx) % n
                 for idx, a in enumerate(cyc))
        if ok:
            for idx, a in enumerate(cyc):
                accepted[a] = (j + idx) % n

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


def _ray_point_continued(qmap, theta, potential, x_guess):
    """Ray point at a nearby potential, continued from a known ray point."""
    k = _levels_below_anchor(potential)
    den = theta.denominator
    r = theta.numerator * pow(2, k, den) % den
    target = _anchor_seed(qmap.c, r / den, potential * 2.0 ** k)
    return _newton_to_target(qmap, x_guess, k, target, 24)


def circle_exit_cyclic_order(qmap: QuadraticMap, rays: list[RayTrace],
                             center: complex, radius: float,
                             cfg: PrecisionConfig = DEFAULT_CONFIG) -> CircleOrderReport:
    """Compare the cyclic order of ray exit points on the circle
    |z - center| = radius with the cyclic order of their angles at infinity.

    Each ray is truncated at its last sampled crossing of the circle,
    bisection-refined onto the circle; a second crossing within the final
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
        g_hi, g_lo = samples[last][0], samples[last + 1][0]
        final_band = [i for i in brackets if samples[i][0] <= 2.0 * g_hi]
        exit_is_last = len(final_band) == 1
        x = samples[last + 1][1]
        lo, hi = g_lo, g_hi
        for _ in range(60):
            mid = math.sqrt(lo * hi)  # bisect in log-potential
            zm = _ray_point_continued(qmap, ray.angle, mid, x)
            if abs(zm - center) >= radius:
                hi = mid
            else:
                lo = mid
                x = zm
            if abs(abs(zm - center) - radius) < cfg.newton_tol:
                break
        exit_point = _ray_point_continued(qmap, ray.angle, math.sqrt(lo * hi), x)
        truncated.append(TruncatedRay(parent=ray, exit_point=exit_point,
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
    if len(a) != len(b):
        return False
    if len(a) <= 2:
        return True
    n = len(a)
    start = b.index(a[0])
    return all(a[i] == b[(start + i) % n] for i in range(n))
