import cmath
import math

import numpy as np
import pytest

from quadray import (Angle, PrecisionError, QuadraticMap, angle_period,
                     circle_exit_cyclic_order, classify_portrait,
                     estimate_landing, green_potential, julia_orbits,
                     portrait_at_orbit, ray_point, trace_ray)
from quadray.dynamics import orbit_with_derivative
from quadray.rays import (ANCHOR_POTENTIAL, MAX_HALVINGS, SUBSTEPS,
                          _anchor_seed, _anchor_seed_vec, _batch_landing,
                          _newton_to_target, _refine_periodic,
                          portrait_candidate_angles)


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
# caller, as the descent was first written ---------------------------------

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
        z = _anchor_seed(c, ang.at(0), g_target)
        if on_sample:
            on_sample(g_target, z)
        return z
    levels = int(math.ceil(math.log2(ANCHOR_POTENTIAL / g_target)))
    g_top = g_target * 2.0 ** levels
    x = _anchor_seed(c, ang.at(0), g_top)
    if on_sample:
        on_sample(g_top, x)
    for j in range(1, levels * SUBSTEPS + 1):
        k = -(-j // SUBSTEPS)
        potential = g_top * 2.0 ** (-j / SUBSTEPS)
        target = _anchor_seed(c, ang.at(k), potential * 2.0 ** k)
        x = _newton_to_target(qmap, x, k, target, 16)
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
    x = _anchor_seed(c, ang.at(0), ANCHOR_POTENTIAL)
    converged, residual, status = False, math.inf, "ok"
    try:
        for lev in range(1, max_halvings + 1):
            for j in range(1, SUBSTEPS + 1):
                jj = (lev - 1) * SUBSTEPS + j
                k = -(-jj // SUBSTEPS)
                potential = ANCHOR_POTENTIAL * 2.0 ** (-jj / SUBSTEPS)
                target = _anchor_seed(c, ang.at(k), potential * 2.0 ** k)
                x = _newton_to_target(qmap, x, k, target, 16)
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
    x = _anchor_seed_vec(c, np.array([o.at(0) for o in orbs]), ANCHOR_POTENTIAL)
    alive = np.ones(len(angles), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(1, levels * SUBSTEPS + 1):
            k = -(-j // SUBSTEPS)
            potential = ANCHOR_POTENTIAL * 2.0 ** (-j / SUBSTEPS)
            th = np.array([o.at(k) for o in orbs])
            target = _anchor_seed_vec(c, th, potential * 2.0 ** k)
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


REFERENCE_CS = (-1.0, -1.75, 1j, 0.25)
# odd and even denominators, 0, and a denominator above 2^63
REFERENCE_ANGLES = (Angle(0), Angle(1, 3), Angle(2, 7), Angle(22, 63), Angle(1, 4),
                    Angle(5, 12), Angle(12345, 2 ** 64 + 1))


@pytest.mark.parametrize("c", REFERENCE_CS)
def test_scalar_descent_matches_reference(c):
    # repr round-trips every float exactly, so equal reprs are equal bits
    qmap = QuadraticMap(c)
    for theta in REFERENCE_ANGLES:
        # g_min = 1e-12 exhausts the precision on some rays (1/4 at c = -1)
        for g_min, g_max in ((20.0, ANCHOR_POTENTIAL), (0.3, ANCHOR_POTENTIAL),
                             (1e-7, ANCHOR_POTENTIAL), (1e-12, 0.5)):
            trace = trace_ray(qmap, theta, g_min, g_max)
            assert repr((trace.samples, trace.status)) == repr(
                ref_trace(qmap, theta, g_min, g_max)), (theta, g_min)
            if trace.status == "ok":
                assert repr(ray_point(qmap, theta, g_min)) == repr(
                    ref_descend(qmap, theta, g_min))
            else:
                with pytest.raises(PrecisionError):
                    ray_point(qmap, theta, g_min)
        est = estimate_landing(qmap, theta)
        assert repr((est.z, est.residual, est.converged)) == repr(ref_landing(qmap, theta))


@pytest.mark.parametrize("c", REFERENCE_CS)
def test_batch_descent_matches_reference(c):
    qmap = QuadraticMap(c)
    candidates = portrait_candidate_angles(3, 6)
    points, alive = _batch_landing(qmap, candidates, 40)
    ref_points, ref_alive = ref_batch_landing(qmap, candidates, 40)
    assert points.tobytes() == ref_points.tobytes()
    assert alive.tobytes() == ref_alive.tobytes()
