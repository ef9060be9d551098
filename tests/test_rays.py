import cmath
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadray import (DEFAULT_CONFIG, Angle, OrbitPortrait, PortraitError, PrecisionError,
                     QuadraticMap, QuadrayError, angle_period,
                     circle_exit_cyclic_order, classify_portrait,
                     estimate_landing, green_potential, julia_orbits,
                     periodic_angles, portrait_at_orbit, ray_point, trace_ray, trace_rays,
                     validate_formal_portrait)
from quadray import rays as rays_mod
from quadray.angles import doubling_orbit
from quadray.dynamics import orbit_with_derivative
from quadray.orbits import PARABOLIC_CANDIDATE, REPELLING
from quadray.rays import (ANCHOR_POTENTIAL, MAX_HALVINGS, PORTRAIT_CANDIDATE_BUDGET,
                          SUBSTEPS, _anchor_seed, _batch_landing, _cycle_representatives,
                          _refine_periodic, portrait_candidate_angles)
from tests.conftest import GOLDEN_C


def joukowski_ray_point(theta, G):
    """Closed form for c = -2: the basin coordinate is w + 1/w."""
    w = cmath.exp(G + 2j * math.pi * float(theta))
    return w + 1.0 / w


def test_ray_point_squaring_is_radial(squaring):
    z = ray_point(squaring, Angle(1, 7), 0.25)
    assert z == pytest.approx(cmath.exp(0.25 + 2j * math.pi / 7.0), abs=1e-12)


def test_ray_point_chebyshev_closed_form(chebyshev):
    for theta, G in [(Angle(0), math.log(2.0)), (Angle(1, 2), math.log(2.0)),
                     (Angle(1, 3), 0.3), (Angle(3, 7), 1e-6), (Angle(5, 9), 1e-3)]:
        got = ray_point(chebyshev, theta, G)
        assert got == pytest.approx(joukowski_ray_point(theta, G), abs=1e-10)
    assert ray_point(chebyshev, Angle(0), math.log(2.0)) == pytest.approx(2.5)
    assert ray_point(chebyshev, Angle(1, 2), math.log(2.0)) == pytest.approx(-2.5)


def test_ray_functional_equation(basilica):
    for theta in (Angle(1, 7), Angle(2, 5), Angle(1, 3)):
        for G in (0.5, 0.05, 1e-3):
            lhs = ray_point(basilica, theta, G)
            lhs = lhs * lhs + basilica.c
            rhs = ray_point(basilica, theta.doubled(), 2.0 * G)
            assert abs(lhs - rhs) < 1e-9


def test_ray_point_potential_consistency(basilica):
    for G in (1.0, 0.1, 1e-4):
        z = ray_point(basilica, Angle(1, 3), G)
        assert green_potential(basilica, z) == pytest.approx(G, abs=1e-9)


def test_trace_monotone_potentials(basilica):
    trace = trace_ray(basilica, Angle(1, 3), g_min=1e-6)
    gs = [g for g, _ in trace.samples]
    assert all(b < a for a, b in zip(gs, gs[1:]))
    assert trace.status == "ok"


def test_landing_squaring_beta(squaring):
    est = estimate_landing(squaring, Angle(0))
    assert est.converged
    assert est.z == pytest.approx(1.0, abs=1e-8)


def test_landing_chebyshev_third(chebyshev):
    est = estimate_landing(chebyshev, Angle(1, 3))
    assert est.converged
    assert est.z == pytest.approx(2.0 * math.cos(2.0 * math.pi / 3.0), abs=1e-8)


def test_landing_basilica_alpha(basilica):
    alpha = (1.0 - math.sqrt(5.0)) / 2.0
    for theta in (Angle(1, 3), Angle(2, 3)):
        est = estimate_landing(basilica, theta)
        assert est.converged
        assert est.z == pytest.approx(alpha, abs=1e-9)


def test_landing_consistency_under_map(basilica):
    # image ray lands at image point
    est1 = estimate_landing(basilica, Angle(1, 7))
    est2 = estimate_landing(basilica, Angle(2, 7))
    assert est1.converged and est2.converged
    assert est1.z * est1.z + basilica.c == pytest.approx(est2.z, abs=1e-7)


def test_landing_parabolic_stall_then_refine(airplane_root):
    # rays of the 1/7 family land on the parabolic 3-cycle; the dyadic tail
    # stalls but Newton refinement recovers the cycle point
    est = estimate_landing(airplane_root, Angle(3, 7))
    z = est.z
    w = z
    for _ in range(3):
        w = w * w + airplane_root.c
    assert abs(w - z) < 1e-10
    d = 1.0 + 0j
    w = z
    for _ in range(3):
        d *= 2.0 * w
        w = w * w + airplane_root.c
    assert d == pytest.approx(1.0, abs=1e-5)  # parabolic multiplier


def test_portrait_basilica_alpha(basilica):
    orbits = julia_orbits(basilica, 1)
    alpha = (1.0 - math.sqrt(5.0)) / 2.0
    target = [o for o in orbits if abs(o.points[0] - alpha) < 1e-9]
    assert len(target) == 1
    portrait = portrait_at_orbit(basilica, target[0], 1)
    assert portrait.sets == ((Angle(1, 3), Angle(2, 3)),)
    cls = classify_portrait(portrait)
    assert cls.kind == "satellite" and cls.valence == 2 and cls.ray_cycles == 2


def test_portrait_squaring_beta(squaring):
    orbits = julia_orbits(squaring, 1)
    target = [o for o in orbits if abs(o.points[0] - 1.0) < 1e-9]
    portrait = portrait_at_orbit(squaring, target[0], 1)
    assert portrait.sets == ((Angle(0),),)
    cls = classify_portrait(portrait)
    assert cls.valence == 1 and cls.kind == "primitive"


def test_portrait_requires_matching_period(basilica):
    from quadray import QuadrayError
    orbits = julia_orbits(basilica, 1)
    with pytest.raises(QuadrayError):
        portrait_at_orbit(basilica, orbits[0], 2)


def test_valence_bound_near_indifferent_point(golden_siegel):
    # repelling orbits of a map with an indifferent fixed point carry at most
    # two rays per orbit point
    for n in (2, 3):
        for orbit in julia_orbits(golden_siegel, n):
            portrait = portrait_at_orbit(golden_siegel, orbit, n)
            assert all(len(s) <= 2 for s in portrait.sets)


def test_circle_exit_radial_rays(squaring):
    rays = [trace_ray(squaring, Angle(k, 7), g_min=1e-9) for k in (1, 2, 4)]
    report = circle_exit_cyclic_order(squaring, rays, 0.0, 1.5)
    assert report.match
    for tr in report.truncated:
        assert abs(abs(tr.exit_point) - 1.5) < 1e-9
        # radial rays exit at their own angle
        ang = cmath.phase(tr.exit_point) / (2.0 * math.pi) % 1.0
        assert ang == pytest.approx(float(tr.parent.angle), abs=1e-9)


def test_circle_exit_single_ray_vacuous(squaring):
    rays = [trace_ray(squaring, Angle(1, 3), g_min=1e-9)]
    report = circle_exit_cyclic_order(squaring, rays, 0.0, 2.0)
    assert report.match


def test_circle_exit_basilica_alpha_cluster(basilica):
    alpha = (1.0 - math.sqrt(5.0)) / 2.0
    rays = [trace_ray(basilica, Angle(1, 3), g_min=1e-10),
            trace_ray(basilica, Angle(2, 3), g_min=1e-10)]
    report = circle_exit_cyclic_order(basilica, rays, alpha, 0.3)
    assert report.match
    for tr in report.truncated:
        assert abs(abs(tr.exit_point - alpha) - 0.3) < 1e-9


# -- reference descent: tabulated angle orbits, one copy of the schedule per
# caller, and Newton on f^k at every substep, as the descent was first
# written ----------------------------------------------------------------

def ref_anchor_seed(c, theta_turns, potential):
    w = cmath.exp(potential + 2j * math.pi * theta_turns)
    return w - c / (2.0 * w)


def ref_newton_to_target(qmap, x, k, target, iters):
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


class RefAngleOrbit:
    """Float values of 2^k * theta mod 1 for all k, from the doubling orbit
    (tail plus cycle) built with Angle.doubled()."""

    def __init__(self, theta):
        orbit, seen = [], set()
        while theta not in seen:
            seen.add(theta)
            orbit.append(theta)
            theta = theta.doubled()
        self.tail_len = orbit.index(theta)
        self.values = [float(a) for a in orbit]
        self.cycle_len = len(orbit) - self.tail_len

    def at(self, k):
        if k < len(self.values):
            return self.values[k]
        return self.values[self.tail_len + (k - self.tail_len) % self.cycle_len]


def ref_descend(qmap, theta, g_target, on_sample=None):
    c = qmap.c
    ang = RefAngleOrbit(theta)
    if g_target >= ANCHOR_POTENTIAL:
        z = ref_anchor_seed(c, ang.at(0), g_target)
        if on_sample:
            on_sample(g_target, z)
        return z
    levels = int(math.ceil(math.log2(ANCHOR_POTENTIAL / g_target)))
    g_top = g_target * 2.0 ** levels
    x = ref_anchor_seed(c, ang.at(0), g_top)
    if on_sample:
        on_sample(g_top, x)
    for j in range(1, levels * SUBSTEPS + 1):
        k = -(-j // SUBSTEPS)
        potential = g_top * 2.0 ** (-j / SUBSTEPS)
        target = ref_anchor_seed(c, ang.at(k), potential * 2.0 ** k)
        x = ref_newton_to_target(qmap, x, k, target, 16)
        if on_sample:
            on_sample(potential, x)
    return x


def ref_trace(qmap, theta, g_min, g_max=ANCHOR_POTENTIAL):
    samples = []

    def keep(g, z):
        if g <= g_max * (1.0 + 1e-12):
            samples.append((g, z))

    try:
        ref_descend(qmap, theta, g_min, on_sample=keep)
    except PrecisionError:
        return samples, "precision_exhausted"
    return samples, "ok"


def ref_landing(qmap, theta, landing_tol=1e-8, max_halvings=MAX_HALVINGS):
    c = qmap.c
    ang = RefAngleOrbit(theta)
    level_pts = []
    x = ref_anchor_seed(c, ang.at(0), ANCHOR_POTENTIAL)
    converged, residual, status = False, math.inf, "ok"
    try:
        for lev in range(1, max_halvings + 1):
            for j in range(1, SUBSTEPS + 1):
                jj = (lev - 1) * SUBSTEPS + j
                k = -(-jj // SUBSTEPS)
                potential = ANCHOR_POTENTIAL * 2.0 ** (-jj / SUBSTEPS)
                target = ref_anchor_seed(c, ang.at(k), potential * 2.0 ** k)
                x = ref_newton_to_target(qmap, x, k, target, 16)
            level_pts.append(x)
            if len(level_pts) >= 2:
                residual = abs(level_pts[-1] - level_pts[-2])
                if residual < landing_tol:
                    converged = True
                    break
        else:
            status = "stalled"
    except PrecisionError:
        status = "precision_exhausted"
    z = level_pts[-1] if level_pts else x
    m = angle_period(theta)
    if m is not None and status != "precision_exhausted":
        refined, step = _refine_periodic(qmap, z, m)
        if refined is not None and abs(refined - z) < 0.05:
            return refined, step, step < landing_tol
    return z, residual, converged


def ref_batch_landing(qmap, angles, levels, newton_iters=8):
    c = qmap.c
    orbs = [RefAngleOrbit(a) for a in angles]
    x = _anchor_seed(c, np.array([o.at(0) for o in orbs]), ANCHOR_POTENTIAL)
    alive = np.ones(len(angles), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(1, levels * SUBSTEPS + 1):
            k = -(-j // SUBSTEPS)
            potential = ANCHOR_POTENTIAL * 2.0 ** (-j / SUBSTEPS)
            th = np.array([o.at(k) for o in orbs])
            target = _anchor_seed(c, th, potential * 2.0 ** k)
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


def ref_candidate_angles(n, ray_period_cap):
    """Every angle whose exact doubling period is a multiple of n up to the
    cap, as the portrait screen first listed them."""
    out = []
    for m in range(n, min(ray_period_cap, 24) + 1, n):
        out.extend(a for a in periodic_angles(m) if angle_period(a) == m)
    return out


def ref_portrait_at_orbit(qmap, orbit, n, match_tol=1e-6, ray_period_cap=None,
                          screen_levels=40, screen_gate=0.2):
    """The all-candidate screen: every candidate descended in lockstep,
    refined from its own tail, and kept in full f-equivariant cycles."""
    if ray_period_cap is None:
        ray_period_cap = 4 * n
    pts = np.array(orbit.points)
    candidates = ref_candidate_angles(n, ray_period_cap)
    if not candidates:
        raise PortraitError("no candidate angles below the ray-period cap")
    tails, alive = ref_batch_landing(qmap, candidates, screen_levels)
    dist = np.min(np.abs(tails[:, None] - pts[None, :]), axis=1)
    matches = {}
    for i in range(len(candidates)):
        if not (alive[i] and dist[i] < screen_gate):
            continue
        theta = candidates[i]
        refined, _ = _refine_periodic(qmap, complex(tails[i]), angle_period(theta))
        if refined is None or abs(refined - tails[i]) > 0.05:
            continue
        d = np.abs(pts - refined)
        j = int(np.argmin(d))
        if d[j] < match_tol:
            matches[theta] = j
    accepted = {}
    for theta, j in matches.items():
        cyc = doubling_orbit(theta)
        if all(a in matches and matches[a] == (j + idx) % n for idx, a in enumerate(cyc)):
            for idx, a in enumerate(cyc):
                accepted[a] = (j + idx) % n
    if not accepted:
        raise PortraitError(f"no candidate ray landed within {match_tol} of the orbit")
    sets = tuple(tuple(sorted(a for a, j in accepted.items() if j == i)) for i in range(n))
    report = validate_formal_portrait(OrbitPortrait(sets=sets))
    if not report.ok:
        raise PortraitError(f"assembled portrait failed validation: {report.failures}")
    return OrbitPortrait(sets=sets, ray_period=report.ray_period)


def mp_periodic_root(c, z0, m, bits=200):
    """A root of f^m(z) = z near z0 by multiplicity-2 Newton at `bits` bits:
    quadratic at the double roots of a parabolic cycle."""
    with mp.workprec(bits):
        cc, z = mp.mpc(c), mp.mpc(z0)
        for _ in range(100):
            w, d = z, mp.mpc(1)
            for _ in range(m):
                d, w = 2 * d * w, w * w + cc
            if w == z or d == 1:
                break
            step = 2 * (w - z) / (d - 1)
            z -= step
            if abs(step) < mp.mpf(2) ** (8 - bits):
                break
        return z


def mp_ray_root(c, theta, g, k, z0, bits=300):
    """The root of f^k(z) = anchor(2^k theta, 2^k g), with the anchor of the
    float angle, at `bits` bits: the ray point at potential g that the
    schedule solves for on level k.  It is pulled back from the anchor k
    times, each time on the branch nearer the forward orbit of z0, so no
    Newton basin limits it; z0 is a float estimate of the root."""
    den = theta.denominator
    with mp.workprec(bits):
        cc = mp.mpc(c)
        orbit = [mp.mpc(z0)]
        for _ in range(k):
            orbit.append(orbit[-1] ** 2 + cc)
        w = mp.exp(mp.mpf(g * 2.0 ** k)
                   + 2j * mp.pi * mp.mpf(theta.numerator * pow(2, k, den) % den / den))
        x = w - cc / (2 * w)
        for near in reversed(orbit[:-1]):
            x = mp.sqrt(x - cc)
            if abs(x - near) > abs(x + near):
                x = -x
        return complex(x)


REFERENCE_CS = (-1.0, -1.75, 1j, 0.25)
# odd and even denominators, 0, and a denominator above 2^63
REFERENCE_ANGLES = (Angle(0), Angle(1, 3), Angle(2, 7), Angle(22, 63), Angle(1, 4),
                    Angle(5, 12), Angle(12345, 2 ** 64 + 1))
# (c, angle) -> period of the parabolic cycle the ray lands on
PARABOLIC_LANDINGS = {(-1.75, Angle(2, 7)): 3, (0.25, Angle(0)): 1}


@pytest.mark.parametrize("c", REFERENCE_CS)
def test_scalar_descent_matches_reference(c):
    # The pullback and the Newton oracle solve the same equations on the same
    # schedule, so the potentials agree exactly and the points to rounding.
    # Each level point and the last sample lie within 1e-12 (1 + |z|) of the
    # 300-bit root.  The oracle stops where its Newton breaks down, as at
    # g_min = 1e-12 on 13 of the 28 cells; backward iteration contracts, and
    # the pullback reaches g_min on every cell.
    qmap = QuadraticMap(c)
    for theta in REFERENCE_ANGLES:
        for g_min, g_max in ((20.0, ANCHOR_POTENTIAL), (0.3, ANCHOR_POTENTIAL),
                             (1e-7, ANCHOR_POTENTIAL), (1e-12, 0.5)):
            trace = trace_ray(qmap, theta, g_min)
            assert trace.status == "ok", (theta, g_min)
            samples = [(g, z) for g, z in trace.samples if g <= g_max * (1.0 + 1e-12)]
            ref_samples, _ = ref_trace(qmap, theta, g_min, g_max)
            assert [g for g, _ in samples[:len(ref_samples)]] == [g for g, _ in ref_samples]
            for (_, z), (_, ref_z) in zip(samples, ref_samples):
                assert abs(z - ref_z) <= 1e-11 * (1.0 + abs(z)), (theta, g_min)
            # g_max drops the samples above it; step counts from the anchor
            first = len(samples) - rays_mod._levels_below_anchor(g_min) * SUBSTEPS - 1
            for j, (g, z) in enumerate(samples):
                step = j - first
                if step % SUBSTEPS and j < len(samples) - 1:
                    continue
                root = mp_ray_root(c, theta, g, -(-step // SUBSTEPS), z)
                assert abs(z - root) <= 1e-12 * (1.0 + abs(z)), (theta, g_min, step)
            # trace_ray keeps no sample above the anchor band (g_min = 20)
            last = rays_mod._ray_samples(qmap, theta, g_min)[1][-1]
            assert ray_point(qmap, theta, g_min) == last
        # A periodic ray may leave the descent at a stall and be refined from
        # an earlier level point: on a repelling landing the root agrees to
        # rounding; on a parabolic one both lie in the sqrt(eps) noise ball of
        # the double root, and the stall's is no farther from the true root.
        est = estimate_landing(qmap, theta)
        ref_z, ref_residual, ref_converged = ref_landing(qmap, theta)
        m = PARABOLIC_LANDINGS.get((c, theta))
        if angle_period(theta) is None:
            # the level points are the trace's, bit for bit, and the
            # oracle's to rounding
            levels = trace_ray(qmap, theta, ANCHOR_POTENTIAL * 2.0 ** -est.levels).samples[
                ::SUBSTEPS][1:]
            assert len(levels) == est.levels, theta
            assert est.z == levels[-1][1], theta
            assert est.residual == abs(levels[-1][1] - levels[-2][1]), theta
            assert est.converged == ref_converged, theta
            assert abs(est.z - ref_z) <= 1e-11 * (1.0 + abs(ref_z)), theta
            assert abs(est.residual - ref_residual) <= 1e-11, theta
        elif m is None:
            assert abs(est.z - ref_z) <= 1e-15 * abs(ref_z), theta
            assert est.converged == ref_converged, theta
        else:
            root = mp_periodic_root(c, ref_z, m)
            dist = float(abs(mp.mpc(est.z) - root))
            assert dist < 1e-8 and dist <= float(abs(mp.mpc(ref_z) - root)), theta


@pytest.mark.parametrize("c", REFERENCE_CS)
def test_batch_descent_matches_reference(c):
    # the pullback solves the Newton oracle's equations by square roots, so
    # the tails agree to the oracle's accuracy, not bit for bit; every
    # candidate angle is passed, each the first ray of its own cycle
    qmap = QuadraticMap(c)
    candidates = ref_candidate_angles(3, 6)
    den = np.array([2 ** angle_period(a) - 1 for a in candidates])
    r = np.array([a.numerator * (d // a.denominator) for a, d in zip(candidates, den)])
    points, alive = _batch_landing(qmap, r, den, 40)
    ref_points, ref_alive = ref_batch_landing(qmap, candidates, 40)
    assert alive.tolist() == ref_alive.tolist()
    diff = np.abs(points - ref_points)
    assert np.max(diff) <= 1e-8
    # the lockstep oracle stops on a step below 1e-12 and is up to 8e-9 off
    # (the 16/63 ray at c = -1.75, the 5/7 ray at c = i); there the 300-bit
    # root of the same equation lies within 1e-12 of the pullback
    for i in np.flatnonzero(diff > 1e-10):
        root = mp_ray_root(c, candidates[i], ANCHOR_POTENTIAL * 2.0 ** -40, 40, points[i])
        assert abs(points[i] - root) <= 1e-12, candidates[i]


def test_batch_descent_is_a_batch_of_one_cycle(monkeypatch):
    # cycles are descended apart from one another, so chunking the batch
    # changes no bit of any tail: the batch runs in several chunks and every
    # fifth cycle (all periods) is checked against its own one-cycle run
    qmap = QuadraticMap(1j)
    r, den = portrait_candidate_angles(3, 12).T
    chunks = []
    pullback = rays_mod._pullback
    monkeypatch.setattr(rays_mod, "SCREEN_CHUNK_BYTES", 2 ** 18)
    # the last row of each cycle, and no other, points back at an earlier row
    monkeypatch.setattr(rays_mod, "_pullback", lambda c, prev, image, *args: chunks.append(
        int(np.sum(image <= np.arange(len(image))))) or pullback(c, prev, image, *args))
    points, alive = _batch_landing(qmap, r, den, 40)
    assert len(chunks) > 2 and sum(chunks) == len(r)
    for i in [*range(0, len(r), 5), len(r) - 1]:
        one_points, one_alive = _batch_landing(qmap, r[i:i + 1], den[i:i + 1], 40)
        assert points[i:i + 1].tobytes() == one_points.tobytes(), (r[i], den[i])
        assert alive[i] and one_alive[0]


def test_ambiguous_branch_leaves_the_screen(monkeypatch):
    # for c = 1/2 > 1/4 the critical point lies on the 0-ray at potential
    # G(c)/2; below it the preimage of a real point left of c is imaginary,
    # as far from the real point before it as its negative is
    qmap = QuadraticMap(0.5)
    points, alive = _batch_landing(qmap, [0, 1], [1, 3], 40)
    assert alive.tolist() == [False, True]
    assert points[0] == 0 and np.isfinite(points[1])
    # the tail is finite: only the guard drops it
    monkeypatch.setattr(rays_mod, "_BRANCH_MARGIN", -1.0)
    points, alive = _batch_landing(qmap, [0, 1], [1, 3], 40)
    assert alive.tolist() == [True, True] and np.isfinite(points[0])


def test_ambiguous_branch_ends_the_trace(monkeypatch):
    # c = 1/2: the rays 0 and 1/2 meet at the critical point, at potential
    # G(c)/2, and each stops above it.  1/4 and 1/8 pull back from 1/2 and 0
    # and have no ambiguous branch of their own, so the failure reaches them
    # from a deeper chain row, one level (SUBSTEPS samples) later per doubling.
    qmap = QuadraticMap(0.5)
    g_crit = green_potential(qmap, 0j)
    g_min = ANCHOR_POTENTIAL * 2.0 ** -MAX_HALVINGS
    traces = [trace_ray(qmap, Angle(1, den), g_min) for den in (1, 2, 4, 8)]
    assert [t.status for t in traces] == ["precision_exhausted"] * 4
    stops = [len(t.samples) for t in traces]
    assert stops[0] == stops[1] and stops[2:] == [stops[1] + SUBSTEPS, stops[1] + 2 * SUBSTEPS]
    for trace in traces[:2]:
        assert g_crit < trace.samples[-1][0] < 2.0 * g_crit
        assert ray_point(qmap, trace.angle, 2.0 * g_crit) == trace_ray(
            qmap, trace.angle, 2.0 * g_crit).samples[-1][1]
        for g in (0.99 * g_crit, 1e-3):
            with pytest.raises(PrecisionError):
                ray_point(qmap, trace.angle, g)
    # estimate_landing stops at the last full level; the ray is periodic, but
    # a failed descent is refined only at the stalls before the failure
    calls = []
    monkeypatch.setattr(rays_mod, "_refine_periodic",
                        lambda q, z0, m: calls.append(z0) or _refine_periodic(q, z0, m))
    est = estimate_landing(qmap, Angle(0))
    levels = [z for _, z in traces[0].samples[SUBSTEPS::SUBSTEPS]]
    residuals = [abs(b - a) for a, b in zip(levels, levels[1:])]
    stalls = [b >= rays_mod.STALL_RATIO * a for a, b in zip(residuals, residuals[1:])]
    assert (est.z, est.residual, est.converged, est.levels) == (
        levels[-1], residuals[-1], False, len(levels))
    assert len(calls) == sum(stalls)


def test_screen_chunk_bounds_the_screen_memory(monkeypatch):
    # the screen as portrait_at_orbit runs it, measured with tracemalloc:
    # 4,448 cycles and 69,552 members, about 14 MB in one chunk; the
    # per-cycle inputs and outputs take under 64 bytes a cycle
    r, den = portrait_candidate_angles(4, 16).T
    for chunk_bytes in (2 ** 20, rays_mod.SCREEN_CHUNK_BYTES):
        monkeypatch.setattr(rays_mod, "SCREEN_CHUNK_BYTES", chunk_bytes)
        tracemalloc.start()
        try:
            _batch_landing(QuadraticMap(GOLDEN_C), r, den, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 * chunk_bytes <= peak <= chunk_bytes + 64 * len(r), (chunk_bytes, peak)


def test_airplane_portrait_work_count(monkeypatch, airplane_root):
    # the screen calls no orbit_with_derivative; what is left is Newton on
    # the period equation for the cycles that pass the screen gate (466
    # calls; the Newton screen made about 2,570)
    calls = []
    orbit = julia_orbits(airplane_root, 3)[0]
    count = rays_mod.orbit_with_derivative
    monkeypatch.setattr(rays_mod, "orbit_with_derivative",
                        lambda *args: calls.append(1) or count(*args))
    portrait = portrait_at_orbit(airplane_root, orbit, 3)
    assert portrait.ray_period == 3
    assert len(calls) < 1000


def necklace_count(m):
    """(1/m) sum_{d | m} mu(m/d) 2^d, the number of aperiodic binary necklaces."""
    def mu(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out
    return sum(mu(m // d) * 2 ** d for d in range(1, m + 1) if m % d == 0) // m


def test_cycle_representatives_one_per_cycle():
    for m in range(1, 11):
        den = 2 ** m - 1
        reps = [Angle(int(k), den) for k in _cycle_representatives(m)]
        cycles = {min(doubling_orbit(a)) for a in periodic_angles(m) if angle_period(a) == m}
        assert reps == sorted(cycles)
    for m in range(1, 19):
        # at m = 1 the necklaces 0 and 1 are the same angle
        assert len(_cycle_representatives(m)) == necklace_count(m) - (m == 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 16))
def test_cycle_representative_is_orbit_minimum(m, k):
    den = 2 ** m - 1
    theta = Angle(k % den, den)
    reps = set(_cycle_representatives(m).tolist())
    members = [a.numerator * (den // a.denominator) for a in doubling_orbit(theta)]
    if angle_period(theta) == m:
        assert [a in reps for a in members].count(True) == 1
        assert min(members) in reps
    else:
        assert not reps & set(members)


def test_candidate_budget_refuses_before_building(monkeypatch, squaring):
    def refuse(*args):
        raise AssertionError("candidates built past the budget")

    monkeypatch.setattr(rays_mod, "_cycle_representatives", refuse)
    monkeypatch.setattr(rays_mod, "_batch_landing", refuse)
    # period 6 with the default cap 24: about 7e5 ray cycles
    orbit = julia_orbits(squaring, 6)[0]
    with pytest.raises(QuadrayError, match="budget"):
        portrait_at_orbit(squaring, orbit, 6)
    with pytest.raises(QuadrayError, match="budget"):
        portrait_candidate_angles(6, 24)
    # period 5 with the default cap 20 still fits
    assert sum(necklace_count(m) for m in (5, 10, 15, 20)) <= PORTRAIT_CANDIDATE_BUDGET


def test_parabolic_landings_stop_at_the_stall(airplane_root):
    # Newton reaches a double root of f^3(z) = z only to about sqrt(eps), so
    # its last step, which sets `converged`, is rounding noise near
    # landing_tol; the landing is checked against the 200-bit root instead.
    for k in range(1, 7):
        est = estimate_landing(airplane_root, Angle(k, 7))
        root = mp_periodic_root(-1.75, est.z, 3)
        assert est.levels <= 40, (k, est)
        assert float(abs(mp.mpc(est.z) - root)) < 1e-7, (k, est)


@pytest.mark.parametrize("c", [-1.0, -0.76])
def test_weakly_repelling_landings_stop_at_the_stall(c):
    # alpha has multiplier about -1.24 at c = -1 and -1.01 at c = -0.76, so
    # the 1/3 and 2/3 rays landing there stall; the root taken at the stall
    # must be alpha, not the 2-cycle that f^2(z) = z also has near it
    qmap = QuadraticMap(c)
    with mp.workprec(200):
        alpha = (1 - mp.sqrt(1 - 4 * mp.mpf(c))) / 2
    for theta in (Angle(1, 3), Angle(2, 3)):
        est = estimate_landing(qmap, theta)
        assert est.converged and est.levels < MAX_HALVINGS, (theta, est)
        assert float(abs(mp.mpc(est.z) - alpha)) < 1e-12, (theta, est)


def test_newton_from_an_escaping_point_finds_no_root():
    # at c = 1/4, Newton on f^20(z) = z from level points of these rays meets
    # points whose orbit overflows to a finite f^20 with an infinite
    # derivative; that step finds no root instead of dividing by infinity
    qmap = QuadraticMap(0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 4, 7, 8):
            est = estimate_landing(qmap, Angle(k, 2 ** 20 - 1))
            assert est.converged, (k, est)


@pytest.mark.parametrize("c", [-1.0, -1.75, 1j, 0.25, -2.0, GOLDEN_C])
def test_portrait_screen_matches_all_candidate_screen(c):
    qmap = QuadraticMap(c)
    for n, cap in ((1, 4), (2, 4), (3, 6)):
        for orbit in julia_orbits(qmap, n):
            if orbit.stability not in (REPELLING, PARABOLIC_CANDIDATE):
                continue
            try:
                want = ref_portrait_at_orbit(qmap, orbit, n, ray_period_cap=cap)
            except PortraitError:
                with pytest.raises(PortraitError):
                    portrait_at_orbit(qmap, orbit, n, ray_period_cap=cap)
                continue
            got = portrait_at_orbit(qmap, orbit, n, ray_period_cap=cap)
            assert (got.sets, got.ray_period) == (want.sets, want.ray_period), (n, orbit)


CRITERION_8_FAMILIES = ([Angle(k, 63) for k in (22, 25, 37, 11, 44, 50)],
                        [Angle(k, 7) for k in (3, 6, 5, 1, 2, 4)])


@pytest.mark.parametrize("c, radii", [(0.0, (1.2, 3.8, 12.0)), (-1.0, (2.0, 6.3, 20.0))])
def test_circle_exit_points_lie_on_circle_and_ray(monkeypatch, c, radii):
    # the bisection's last point is the exit point: within newton_tol of the
    # circle, and within 1e-12 of the 300-bit ray point at its potential
    qmap = QuadraticMap(c)
    calls = []
    near = rays_mod._ray_point_near
    monkeypatch.setattr(rays_mod, "_ray_point_near",
                        lambda q, theta, g, x: calls.append((g, near(q, theta, g, x)))
                        or calls[-1][1])
    for family in CRITERION_8_FAMILIES:
        traces = [trace_ray(qmap, theta, g_min=1e-8) for theta in family]
        for r in radii:
            for trace in traces:
                calls.clear()
                exit_point = circle_exit_cyclic_order(qmap, [trace], 0j, r).truncated[0].exit_point
                g, z = calls[-1]
                assert exit_point == z
                assert abs(abs(exit_point) - r) < DEFAULT_CONFIG.newton_tol, (trace.angle, r)
                root = mp_ray_root(c, trace.angle, g, rays_mod._levels_below_anchor(g), z)
                assert abs(exit_point - root) < 1e-12, (trace.angle, r)


def _rational_angles():
    """Angles r/den with small odd and even denominators, and denominators
    above 2^63."""
    return st.one_of(st.integers(1, 10 ** 6), st.integers(2 ** 63 + 1, 2 ** 66)).flatmap(
        lambda den: st.builds(Angle, st.integers(0, den - 1), st.just(den)))


@settings(max_examples=60, deadline=None)
@given(_rational_angles(), st.sampled_from(REFERENCE_CS), st.sampled_from((0.3, 1e-4, 1e-8)))
def test_trace_samples_satisfy_the_functional_equation(theta, c, g_min):
    # f maps R_theta(g) onto R_2theta(2g): sample j of theta lies over sample
    # j - SUBSTEPS of 2 theta traced to 2 g_min, which starts at the same g_top
    qmap = QuadraticMap(c)
    trace = trace_ray(qmap, theta, g_min)
    image = trace_ray(qmap, theta.doubled(), 2.0 * g_min)
    gs = [g for g, _ in trace.samples]
    assert all(b < a for a, b in zip(gs, gs[1:]))
    for (g, z), (g2, w) in zip(trace.samples[SUBSTEPS:], image.samples):
        assert g2 == 2.0 * g
        assert abs(z * z + c - w) <= 1e-12 * (1.0 + abs(w)), (g, z, w)
    if trace.status == "ok":
        assert len(trace.samples) == len(image.samples) + SUBSTEPS
        assert ray_point(qmap, theta, g_min) == trace.samples[-1][1]
    else:
        with pytest.raises(PrecisionError):
            ray_point(qmap, theta, g_min)


#: chains of every kind: periodic, preperiodic (5/12), open at any depth
#: (1/(10^9 + 7)), and at c = 1/2 the rays 0 and 1/2, whose own branches turn
#: ambiguous, and 1/4 and 1/8, which are cut from a deeper row
KERNEL_ANGLES = [Angle(1, 3), Angle(11, 63), Angle(5, 12), Angle(1, 10 ** 9 + 7),
                 Angle(0), Angle(1, 2), Angle(1, 4), Angle(1, 8)]
DEEP = ANCHOR_POTENTIAL * 2.0 ** -MAX_HALVINGS


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(KERNEL_ANGLES), _rational_angles()),
                min_size=1, max_size=6),
       st.sampled_from((0.5, -1.0, -1.75, 1j, 0.25)), st.sampled_from((0.3, 1e-4, 1e-8, DEEP)))
@example(KERNEL_ANGLES, 0.5, DEEP)
@example(KERNEL_ANGLES[::-1], 0.5, 1e-8)
@example(KERNEL_ANGLES, -1.0, 1e-8)
def test_rays_descended_together_match_each_alone(thetas, c, g_min):
    # one descent of many chains laid end to end gives every ray the points,
    # cut, samples and status it gets alone, bit for bit
    qmap = QuadraticMap(c)
    _, points = rays_mod._rays_samples(qmap.c, thetas, g_min)
    traces = trace_rays(qmap, thetas, g_min)
    for theta, pts, trace in zip(thetas, points, traces):
        assert repr(pts) == repr(rays_mod._ray_samples(qmap, theta, g_min)[1]), theta
        alone = trace_ray(qmap, theta, g_min)
        assert trace.angle == theta
        assert (repr(trace.samples), trace.status) == (repr(alone.samples), alone.status)
        # 1/8 is cut two levels below 1/2, which is cut above G(0)
        if c == 0.5 and theta in KERNEL_ANGLES[4:] and g_min < green_potential(qmap, 0j) / 4:
            assert trace.status == "precision_exhausted", theta


@settings(max_examples=60, deadline=None)
@given(_rational_angles(), st.sampled_from(REFERENCE_CS), st.sampled_from((0.3, 1e-4, 1e-8)),
       st.integers(0, 10 ** 6), st.floats(0.01, 0.99))
def test_ray_point_near_pulls_back_to_the_ray(theta, c, g_min, pick, u):
    # the circle-exit bisection's points, from a sample x: at the potentials
    # of x and of the sample above it, those samples; between them, the
    # 300-bit root of the equation of its own level
    qmap = QuadraticMap(c)
    samples = trace_ray(qmap, theta, g_min).samples
    j = 1 + pick % (len(samples) - 1)
    (g_hi, z_hi), (g, x) = samples[j - 1], samples[j]
    for potential, want in ((g_hi, z_hi), (g, x)):
        z = rays_mod._ray_point_near(qmap, theta, potential, x)
        assert abs(z - want) <= 1e-14 * (1.0 + abs(want)), (potential, z, want)
    potential = g * (g_hi / g) ** u
    z = rays_mod._ray_point_near(qmap, theta, potential, x)
    root = mp_ray_root(c, theta, potential, rays_mod._levels_below_anchor(potential), z)
    assert abs(z - root) <= 1e-12 * (1.0 + abs(z)), (potential, z, root)


def test_ray_point_near_raises_at_an_ambiguous_branch():
    # c = 1/2: below the critical potential G(c)/2 the 0-ray's preimage of a
    # real point left of c is imaginary, as far from the real point x as its
    # negative, as in test_ambiguous_branch_ends_the_trace
    qmap = QuadraticMap(0.5)
    g_crit = green_potential(qmap, 0j)
    g, x = trace_ray(qmap, Angle(0), 1e-8).samples[-1]
    assert g_crit < g < 2.0 * g_crit
    assert rays_mod._ray_point_near(qmap, Angle(0), g, x) == pytest.approx(x, rel=1e-14)
    for potential in (0.99 * g_crit, g_crit * 2.0 ** (-1 / SUBSTEPS), 1e-3):
        with pytest.raises(PrecisionError):
            rays_mod._ray_point_near(qmap, Angle(0), potential, x)


def test_landing_period_comes_from_the_chain(monkeypatch):
    # estimate_landing refines on f^m with m read off the doubling chain of
    # at most MAX_HALVINGS + 1 rows, never from the full period: a landing
    # on 1/(10^9 + 7), of period about 5e8, returns unrefined
    periods = []
    monkeypatch.setattr(rays_mod, "_refine_periodic",
                        lambda q, z0, m: periods.append(m) or (None, math.inf))
    qmap = QuadraticMap(-1.0)
    est = estimate_landing(qmap, Angle(1, 10 ** 9 + 7))
    assert periods == [] and 2 <= est.levels <= MAX_HALVINGS
    # with a landing tolerance of inf the descent stops at its second level
    # and the level point is refined once, on the period the chain gives
    monkeypatch.setattr(rays_mod, "DEFAULT_LANDING_TOL", math.inf)
    for den in range(1, 2001, 2):
        periods.clear()
        estimate_landing(qmap, Angle(1, den))
        m = angle_period(Angle(1, den))
        assert periods == ([m] if m <= MAX_HALVINGS + 1 else []), den


def test_long_period_ray_builds_only_its_levels(monkeypatch):
    # 1/(10^9 + 7) has a doubling period of about 5e8, but a descent L levels
    # deep reads only the angles theta 2^i, i <= L
    rows = []
    chain = rays_mod._doubling_chain
    monkeypatch.setattr(rays_mod, "_doubling_chain",
                        lambda theta, levels: rows.append(levels) or chain(theta, levels))
    theta = Angle(1, 10 ** 9 + 7)
    trace = trace_ray(QuadraticMap(-1.0), theta, 1e-8)
    levels = rays_mod._levels_below_anchor(1e-8)
    assert trace.status == "ok" and trace.samples[-1][0] == 1e-8
    assert rows == [levels]
    turns, image = chain(theta, levels)
    assert len(turns) == levels + 1
    den = theta.denominator
    assert turns.tolist() == [pow(2, i, den) / den for i in range(levels + 1)]


def test_doubling_chain_closes_on_itself():
    # a periodic angle's cycle and a preperiodic angle's tail and cycle each
    # take one row per angle, however deep the descent
    turns, image = rays_mod._doubling_chain(Angle(11, 63), 40)
    assert turns.tolist() == [k / 63 for k in (11, 22, 44, 25, 50, 37)]
    assert image.tolist() == [1, 2, 3, 4, 5, 0]
    turns, image = rays_mod._doubling_chain(Angle(5, 12), 40)
    assert turns.tolist() == [5 / 12, 10 / 12, 8 / 12, 4 / 12]
    assert image.tolist() == [1, 2, 3, 2]
    turns, image = rays_mod._doubling_chain(Angle(5, 12), 2)
    assert turns.tolist() == [5 / 12, 10 / 12, 8 / 12]
    assert image.tolist() == [1, 2, 3]
    # one row short of the period the chain is open; with the period it closes on row 0
    assert rays_mod._doubling_chain(Angle(11, 63), 4)[1].tolist() == [1, 2, 3, 4, 5]
    assert rays_mod._doubling_chain(Angle(11, 63), 5)[1].tolist() == [1, 2, 3, 4, 5, 0]
