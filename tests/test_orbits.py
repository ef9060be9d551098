import cmath
import math

import numpy as np
import pytest

from quadray import (DEFAULT_CONFIG, AmbiguousOrbitError, PeriodicOrbit,
                     PeriodicPoint, PrecisionConfig, QuadraticMap,
                     alpha_beta_fixed_points, classify_orbit,
                     fixed_points_of_iterate, group_into_orbits, julia_orbits)
from tests.conftest import GOLDEN_ALPHA, GOLDEN_C, GOLDEN_LAMBDA


def mobius_count(n):
    """Independent oracle: number of minimal-period-n points, sum mu(n/d) 2^d."""
    def mu(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out
    return sum(mu(n // d) * 2 ** d for d in range(1, n + 1) if n % d == 0)


def test_fixed_points_squaring_level3(squaring):
    pts = fixed_points_of_iterate(squaring, 3)
    assert len(pts) == 8
    zs = sorted((p.z for p in pts), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expected = sorted([0j] + [cmath.exp(2j * math.pi * k / 7.0) for k in range(7)],
                      key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for a, b in zip(zs, expected):
        assert a == pytest.approx(b, abs=1e-10)


def test_fixed_points_chebyshev_level2(chebyshev):
    pts = fixed_points_of_iterate(chebyshev, 2)
    zs = sorted(p.z.real for p in pts)
    s5 = math.sqrt(5.0)
    assert zs == pytest.approx(
        sorted([-1.0, (-1.0 - s5) / 2.0, (-1.0 + s5) / 2.0, 2.0]))


def test_fixed_points_level1(squaring):
    pts = fixed_points_of_iterate(squaring, 1)
    assert sorted(p.z.real for p in pts) == pytest.approx([0.0, 1.0])


def test_coefficient_oracle_small_levels(basilica):
    # independent route: roots of the expanded polynomial f^n(z) - z
    for n in (1, 2, 3, 4, 5):
        poly = np.array([1.0 + 0j])  # f^0 = z
        coeffs = np.array([1.0, 0.0], dtype=complex)  # z
        for _ in range(n):
            coeffs = np.polymul(coeffs, coeffs)
            coeffs[-1] += basilica.c
        minus_z = coeffs.copy()
        minus_z[-2] -= 1.0
        roots = np.roots(minus_z)
        pts = fixed_points_of_iterate(basilica, n)
        got = np.array(sorted((p.z for p in pts for _ in range(p.multiplicity)),
                              key=lambda z: (round(z.real, 7), round(z.imag, 7))))
        want = np.array(sorted(roots, key=lambda z: (round(z.real, 7), round(z.imag, 7))))
        assert len(got) == len(want) == 2 ** n
        assert np.max(np.abs(got - want)) < 1e-7


def test_group_into_orbits_squaring_level3(squaring):
    pts = fixed_points_of_iterate(squaring, 3)
    orbits = group_into_orbits(pts, squaring, 3)
    by_period = {}
    for o in orbits:
        by_period.setdefault(o.minimal_period, []).append(o)
    assert len(by_period[1]) == 2          # 0 and 1
    assert len(by_period[3]) == 2          # necklace count (2^3 - 2)/3
    for o in by_period[3]:
        assert abs(o.multiplier) == pytest.approx(8.0, rel=1e-9)


def test_group_chebyshev_two_cycle_multiplier(chebyshev):
    pts = fixed_points_of_iterate(chebyshev, 2)
    orbits = group_into_orbits(pts, chebyshev, 2)
    two = [o for o in orbits if o.minimal_period == 2]
    assert len(two) == 1
    assert two[0].multiplier == pytest.approx(-4.0, abs=1e-9)
    fixed = sorted(o.points[0].real for o in orbits if o.minimal_period == 1)
    assert fixed == pytest.approx([-1.0, 2.0])


def test_group_basilica_superattracting(basilica):
    pts = fixed_points_of_iterate(basilica, 2)
    orbits = group_into_orbits(pts, basilica, 2)
    two = [o for o in orbits if o.minimal_period == 2]
    assert len(two) == 1
    assert two[0].multiplier == pytest.approx(0.0, abs=1e-12)
    assert two[0].stability == "attracting"
    assert set(round(z.real) for z in two[0].points) == {0, -1}


def test_census_matches_mobius(squaring, chebyshev):
    for qmap in (squaring, chebyshev):
        cfg = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)
        for n in range(1, 9):
            pts = fixed_points_of_iterate(qmap, n, cfg)
            orbits = group_into_orbits(pts, qmap, n, cfg)
            count = sum(o.minimal_period for o in orbits if o.minimal_period == n)
            assert count == mobius_count(n), (qmap.c, n)


def test_multiplier_cyclic_invariance(basilica):
    pts = fixed_points_of_iterate(basilica, 3)
    orbits = group_into_orbits(pts, basilica, 3)
    for o in orbits:
        if o.minimal_period == 1:
            continue
        lams = []
        for start in range(o.minimal_period):
            lam = 1.0 + 0j
            for k in range(o.minimal_period):
                lam *= 2.0 * o.points[(start + k) % o.minimal_period]
            lams.append(lam)
        assert max(abs(l - lams[0]) for l in lams) < 10.0 * DEFAULT_CONFIG.newton_tol


def test_circle_multipliers_squaring(squaring):
    # every minimal-period-n cycle on the unit circle has |multiplier| = 2^n
    for n in (4, 6):
        orbits = [o for o in julia_orbits(squaring, n)]
        assert orbits
        for o in orbits:
            assert abs(o.multiplier) == pytest.approx(2.0 ** n, rel=1e-9)


def test_classify_repelling(squaring):
    o = PeriodicOrbit(points=(1.0 + 0j,), minimal_period=1,
                      multiplier=2.0 + 0j, stability="")
    assert classify_orbit(o) == "repelling"


def test_classify_parabolic_airplane(airplane_root):
    pts = fixed_points_of_iterate(airplane_root, 3)
    orbits = group_into_orbits(pts, airplane_root, 3)
    par = [o for o in orbits if o.minimal_period == 3]
    assert len(par) == 1
    assert par[0].stability == "parabolic_candidate"
    assert par[0].multiplier == pytest.approx(1.0, abs=1e-5)
    assert par[0].multiplicity == 2


def test_classify_golden_siegel_indifferent(golden_siegel):
    o = PeriodicOrbit(points=(GOLDEN_ALPHA,), minimal_period=1,
                      multiplier=GOLDEN_LAMBDA, stability="")
    assert classify_orbit(o) == "indifferent_candidate"


def test_parabolic_total_count(airplane_root):
    # level 3 at the parabolic parameter: alpha, beta simple, three double
    # roots; multiplicities account for the full degree 8
    pts = fixed_points_of_iterate(airplane_root, 3)
    assert sum(p.multiplicity for p in pts) == 8
    assert len(pts) == 5


def test_alpha_beta_examples():
    fp0 = alpha_beta_fixed_points(QuadraticMap(0.0))
    assert (fp0.alpha, fp0.beta) == (0.0, 1.0)
    fp2 = alpha_beta_fixed_points(QuadraticMap(-2.0))
    assert (fp2.alpha.real, fp2.beta.real) == pytest.approx((-1.0, 2.0))
    fpa = alpha_beta_fixed_points(QuadraticMap(-1.75))
    s8 = math.sqrt(8.0)
    assert fpa.alpha.real == pytest.approx((1.0 - s8) / 2.0)
    assert fpa.beta.real == pytest.approx((1.0 + s8) / 2.0)
    assert not fpa.degenerate


def test_alpha_beta_degenerate():
    fp = alpha_beta_fixed_points(QuadraticMap(0.25))
    assert fp.degenerate
    assert fp.alpha == pytest.approx(fp.beta)


def test_level_cap_enforced(squaring):
    from quadray import QuadrayError
    with pytest.raises(QuadrayError):
        fixed_points_of_iterate(squaring, 21)


def test_count_identity_with_multiplicity(basilica, airplane_root):
    # levels account for the full degree 2^n once multiplicities are counted
    for qmap, n in ((basilica, 6), (airplane_root, 3), (airplane_root, 6)):
        pts = fixed_points_of_iterate(qmap, n)
        orbits = group_into_orbits(pts, qmap, n)
        total = sum(o.minimal_period * o.multiplicity for o in orbits)
        assert total == 2 ** n


def test_julia_orbits_excludes_attracting(basilica):
    orbits = julia_orbits(basilica, 2, minimal_only=False)
    pts = [z for o in orbits for z in o.points]
    assert all(abs(z) > 1e-9 for z in pts)           # 0 dropped
    assert all(abs(z + 1.0) > 1e-9 for z in pts)     # -1 dropped
    assert len(pts) == 2                             # the two fixed points


def _match_tol(image, multiplicity, cfg):
    """Tolerance for matching an image f(z), as group_into_orbits documents it."""
    scale = 1e-6 if multiplicity > 1 else 10.0 * cfg.dedup_tol
    return scale * max(1.0, abs(image))


def _quadratic_orbits(pts, qmap):
    """Reference grouping: from every point, follow the nearest point to its
    image (a full scan each step) until the walk returns; the cycle is listed
    from its lexicographically smallest point."""
    zs = np.array([p.z for p in pts])
    cycles = set()
    for i in range(len(zs)):
        cycle = [i]
        j = int(np.argmin(np.abs(zs - (zs[i] ** 2 + qmap.c))))
        while j != i:
            assert len(cycle) < len(zs), "the nearest-image walk never returns"
            cycle.append(j)
            j = int(np.argmin(np.abs(zs - (zs[j] ** 2 + qmap.c))))
        k = min(range(len(cycle)), key=lambda a: (zs[cycle[a]].real, zs[cycle[a]].imag))
        cycles.add(tuple(complex(zs[a]) for a in cycle[k:] + cycle[:k]))
    return cycles


@pytest.mark.parametrize("name", ["squaring", "basilica", "chebyshev", "airplane_root"])
def test_grouping_matches_quadratic_walk(name, request):
    qmap = request.getfixturevalue(name)
    tight = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)
    cfg = tight if name == "chebyshev" else DEFAULT_CONFIG
    lex = lambda z: (z.real, z.imag)
    for n in range(1, 9):
        pts = fixed_points_of_iterate(qmap, n, cfg)
        orbits = group_into_orbits(pts, qmap, n, cfg)
        assert {o.points for o in orbits} == _quadratic_orbits(pts, qmap), (name, n)
        # the orbits partition the points
        assert (sorted((z for o in orbits for z in o.points), key=lex)
                == sorted((p.z for p in pts), key=lex))
        mult = {p.z: p.multiplicity for p in pts}
        for o in orbits:
            assert len(o.points) == o.minimal_period
            # every orbit closes under f within the match tolerance
            for z, w in zip(o.points, o.points[1:] + o.points[:1]):
                image = z * z + qmap.c
                assert abs(image - w) <= _match_tol(image, mult[z], cfg), (name, n, z)


OMEGA = cmath.exp(2j * math.pi / 3.0)


@pytest.mark.parametrize("zs_periods, message", [
    # f(1) = 1 lies within tolerance of both 1 and 1 + 1e-10
    ([(1.0 + 0j, 1), (1.0 + 1e-10 + 0j, 1)], "matches two points"),
    # the 2-cycle of z^2 given without its mate omega^2
    ([(0j, 1), (1.0 + 0j, 1), (OMEGA, 2)], "matches no enumerated point"),
    # both points carry minimal period 3, but they form a 2-cycle
    ([(OMEGA, 3), (OMEGA ** 2, 3)], "cycle of length 2"),
    # f(-1) = f(1) = 1: not a permutation
    ([(-1.0 + 0j, 1), (1.0 + 0j, 1)], "cycle overlap"),
], ids=["two_matches", "missing_mate", "period_mismatch", "not_bijective"])
def test_grouping_rejects_ambiguous_points(squaring, zs_periods, message):
    pts = [PeriodicPoint(z=z, period_tested=6, minimal_period=m, residual=0.0)
           for z, m in zs_periods]
    with pytest.raises(AmbiguousOrbitError, match=message):
        group_into_orbits(pts, squaring, 6)
