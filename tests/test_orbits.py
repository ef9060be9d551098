import cmath
import itertools
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadray import orbits as orbits_mod
from quadray import (DEFAULT_CONFIG, AmbiguousOrbitError,
                     IncompleteEnumerationError, IterateRoots,
                     PrecisionConfig, QuadraticMap, alpha_beta_fixed_points,
                     fixed_points_of_iterate, group_into_orbits, julia_orbits)
from quadray.cli import write_orbits
from quadray.dynamics import orbit_with_derivative, preimage_tree
from tests.conftest import GOLDEN_C, GOLDEN_LAMBDA
from tests.test_compare_orbits import compare_orbits


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
    zs = sorted(pts.z.tolist(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expected = sorted([0j] + [cmath.exp(2j * math.pi * k / 7.0) for k in range(7)],
                      key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for a, b in zip(zs, expected):
        assert a == pytest.approx(b, abs=1e-10)


def test_fixed_points_chebyshev_level2(chebyshev):
    pts = fixed_points_of_iterate(chebyshev, 2)
    zs = sorted(pts.z.real)
    s5 = math.sqrt(5.0)
    assert zs == pytest.approx(
        sorted([-1.0, (-1.0 - s5) / 2.0, (-1.0 + s5) / 2.0, 2.0]))


def test_fixed_points_level1(squaring):
    pts = fixed_points_of_iterate(squaring, 1)
    assert sorted(pts.z.real) == pytest.approx([0.0, 1.0])


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
        got = np.array(sorted(np.repeat(pts.z, pts.multiplicity),
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
    assert orbits_mod._classify_multiplier(2.0 + 0j, orbits_mod.DEFAULT_CLASS_TOL) == "repelling"
    # group_into_orbits classifies the same way: at c = 0, beta = 1 has
    # multiplier 2 and alpha = 0, which is attracting, is dropped
    assert [o.stability for o in julia_orbits(squaring, 1)] == ["repelling"]


def test_classify_parabolic_airplane(airplane_root):
    pts = fixed_points_of_iterate(airplane_root, 3)
    orbits = group_into_orbits(pts, airplane_root, 3)
    par = [o for o in orbits if o.minimal_period == 3]
    assert len(par) == 1
    assert par[0].stability == "parabolic_candidate"
    assert par[0].multiplier == pytest.approx(1.0, abs=1e-5)
    assert par[0].multiplicity == 2


def test_classify_golden_siegel_indifferent(golden_siegel):
    assert orbits_mod._classify_multiplier(
        GOLDEN_LAMBDA, orbits_mod.DEFAULT_CLASS_TOL) == "indifferent_candidate"


def test_parabolic_total_count(airplane_root):
    # level 3 at the parabolic parameter: alpha, beta simple, three double
    # roots; multiplicities account for the full degree 8
    pts = fixed_points_of_iterate(airplane_root, 3)
    assert pts.multiplicity.sum() == 8
    assert len(pts) == 5


def ref_newton_roots(qmap, n, seeds, cfg, maxit, last=False):
    """_newton_roots polishing every unsettled point on its own, near a
    multiple root or not.  The pass contract is _newton_roots': a first pass
    tests the settled seeds and hands back the moving ones, the last pass
    tests them all and returns the roots of the never-settled ones apart."""
    z = np.array(seeds, dtype=complex)
    active = np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(maxit):
            if len(active) == 0:
                break
            za = z[active]
            g, gp = orbit_with_derivative(qmap, za, n)
            g -= za
            gp -= 1.0
            step = np.where(np.abs(gp) > 1e-30, g / gp, 0.0)
            za -= step
            fin = np.isfinite(za)
            z[active[fin]] = za[fin]
            active = active[fin & (np.abs(step) >= 1e-13 * (1.0 + np.abs(za)))]
    moving = np.zeros(len(z), dtype=bool)
    moving[active] = True
    if not last:
        stragglers = z[moving]
        z, moving = z[~moving], moving[~moving]
    with np.errstate(all="ignore"):
        w, d = orbit_with_derivative(qmap, z, n)
        g = np.abs(w - z)
        gp = np.abs(d - 1.0)
        last_step = g / np.maximum(gp, 1e-30)
        plausible = (np.isfinite(z) & np.isfinite(g) & np.isfinite(gp)
                     & (g < 1e-3) & ((g < cfg.newton_tol) | (last_step < 1e-6)))
    z, moving = z[plausible], moving[plausible]
    last_step = last_step[plausible]
    for i in np.where(last_step > 0.1 * cfg.dedup_tol * np.maximum(1.0, np.abs(z)))[0]:
        z[i] = orbits_mod._mp_polish_root(qmap.c, z[i], n)
    with np.errstate(all="ignore"):
        w, d = orbit_with_derivative(qmap, z, n)
        g = np.abs(w - z)
        err = g / np.maximum(np.abs(d - 1.0), 1.0)
        keep = np.isfinite(z) & np.isfinite(g) & (g < 1e-3) & (err < cfg.newton_tol)
    z, moving = z[keep], moving[keep]
    if last:
        return z[~moving], z[moving]
    return z, stragglers


@pytest.mark.parametrize("n", [3, 6])
def test_near_parabolic_cluster_polished_once(n, airplane_root, monkeypatch, tmp_path):
    # the straggler pass of the seeds tree(beta, n + 2), alpha, beta and the
    # critical tail at the airplane root: its unsettled seeds crowd around
    # the double roots of the parabolic 3-cycle, so one polish per cluster,
    # and the same orbits as polishing each of them (about 75 calls).  The
    # enumeration's own seeds are closed under f and need no straggler pass.
    calls = []
    polish = orbits_mod._mp_polish_root

    def counted(*args, **kwargs):
        calls.append(args)
        return polish(*args, **kwargs)

    monkeypatch.setattr(orbits_mod, "_mp_polish_root", counted)
    fp = alpha_beta_fixed_points(airplane_root)
    seeds = np.concatenate([preimage_tree(airplane_root, fp.beta, n + 2)[0],
                            [fp.alpha, fp.beta], orbits_mod._critical_orbit_tail(airplane_root)])
    settled, stragglers = orbits_mod._newton_roots(airplane_root, n, seeds, DEFAULT_CONFIG,
                                                   orbits_mod.FIRST_PASS_STEPS)
    steps = orbits_mod.NEWTON_STEPS - orbits_mod.FIRST_PASS_STEPS
    for name, newton in (("clustered", orbits_mod._newton_roots), ("each", ref_newton_roots)):
        found = np.array([], dtype=complex)
        for roots in (settled, *newton(airplane_root, n, stragglers, DEFAULT_CONFIG, steps,
                                       last=True)):
            found = np.concatenate([found, orbits_mod._unseen(found, roots,
                                                              DEFAULT_CONFIG.dedup_tol, [])])
        z, mult = orbits_mod._merge_parabolic(airplane_root, n, found, DEFAULT_CONFIG)
        assert mult.sum() == 2 ** n
        (tmp_path / name).mkdir()
        write_orbits(tmp_path / name, group_into_orbits(IterateRoots(z, mult), airplane_root, n))
        if name == "clustered":
            assert 1 <= len(calls) <= 3
    assert len(calls) > 30
    assert compare_orbits.main([str(tmp_path / "clustered" / "orbits.csv"),
                                str(tmp_path / "each" / "orbits.csv")]) == 0


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


def test_level_cap_enforced(squaring, monkeypatch):
    # the first level over the budget is refused before its seeds are built
    from quadray import QuadrayError
    budget = orbits_mod.ENUMERATION_BUDGET_BYTES
    level = next(n for n in range(1, 64) if orbits_mod.enumeration_bytes(n) > budget)
    monkeypatch.setattr(orbits_mod, "preimage_tree",
                        lambda *args: pytest.fail("seeds built past the budget"))
    tracemalloc.start()
    try:
        with pytest.raises(QuadrayError, match="budget"):
            fixed_points_of_iterate(squaring, level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_enumeration_bytes_bounds_the_whole_enumeration():
    # the traced peak of fixed_points_of_iterate, its seeds included
    for (c, cfg), n in itertools.product(
            [(0j, DEFAULT_CONFIG), (-1 + 0j, DEFAULT_CONFIG), (-1.749 + 0j, TIGHT)], range(8, 15)):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fixed_points_of_iterate(QuadraticMap(c), n, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = orbits_mod.enumeration_bytes(n)
        assert 0.5 * bound <= peak <= bound, (c, n, peak / bound)
    # the first level refused, as enumeration_bytes documents
    assert orbits_mod.enumeration_bytes(22) <= orbits_mod.ENUMERATION_BUDGET_BYTES
    assert orbits_mod.enumeration_bytes(23) > orbits_mod.ENUMERATION_BUDGET_BYTES


@pytest.mark.parametrize("name", ["squaring", "basilica", "chebyshev",
                                  "airplane_root", "golden_siegel"])
def test_first_seed_round_holds_tree_of_depth_n(name, request):
    # f^-1(beta) = {beta, -beta}, so tree(beta, n + 2) is tree(beta, n + 1)
    # and tree(-beta, n + 1): the seeds' tree(-beta, n + 1) is the half
    # of the deeper tree that does not repeat tree(beta, n + 1)
    from scipy.spatial import cKDTree

    qmap = request.getfixturevalue(name)
    beta = alpha_beta_fixed_points(qmap).beta
    for n in range(1, 11):
        deep = preimage_tree(qmap, beta, n + 2)[0]
        halves = np.concatenate([preimage_tree(qmap, beta, n + 1)[0],
                                 preimage_tree(qmap, -beta, n + 1)[0]])
        assert len(deep) == len(halves)
        for leaves, tree in ((halves, deep), (deep, halves)):
            gap, _ = cKDTree(np.column_stack([tree.real, tree.imag])).query(
                np.column_stack([leaves.real, leaves.imag]))
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(leaves))), (n, gap.max())


def test_budget_refuses_before_allocating(squaring, monkeypatch):
    from quadray import QuadrayError
    # level 28 would build 2^29 seeds
    with pytest.raises(QuadrayError, match="budget"):
        fixed_points_of_iterate(squaring, 28)
    monkeypatch.setattr(orbits_mod, "ENUMERATION_BUDGET_BYTES", orbits_mod.enumeration_bytes(5))
    assert fixed_points_of_iterate(squaring, 5).multiplicity.sum() == 32
    with pytest.raises(QuadrayError, match="budget"):
        fixed_points_of_iterate(squaring, 6)


def test_incomplete_enumeration_carries_partial_columns(squaring, monkeypatch):
    # Newton loses the roots of z^8 = z with Re z >= 0.1 in both passes and
    # in the closure, so the level stays incomplete
    newton = orbits_mod._newton_roots

    def lossy(*args, **kwargs):
        roots, rest = newton(*args, **kwargs)
        if kwargs.get("last"):  # the roots of the never-settled seeds
            rest = rest[rest.real < 0.1]
        return roots[roots.real < 0.1], rest

    monkeypatch.setattr(orbits_mod, "_newton_roots", lossy)
    with pytest.raises(IncompleteEnumerationError) as info:
        fixed_points_of_iterate(squaring, 3)
    found = info.value.found
    assert isinstance(found, IterateRoots)
    # 0 and the 7th roots of unity e^(2 pi i k / 7), k = 2..5
    assert len(found) == len(found.multiplicity) == 5
    assert np.all(found.z.real < 0.1)
    assert f"found {found.multiplicity.sum()} of 8 roots" in str(info.value)


TIGHT = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)
#: the census parameters, c = -1.749 with the acceptance suite's tolerances
CENSUS = [(0j, DEFAULT_CONFIG), (-1 + 0j, DEFAULT_CONFIG), (GOLDEN_C, DEFAULT_CONFIG),
          (-1.749 + 0j, TIGHT)]


def _worst_newton_error(qmap, roots, n):
    """The largest Newton error estimate |f^n(z) - z| / |(f^n)'(z) - 1| over
    the simple roots, relative to max(1, |z|)."""
    z = roots.z[roots.multiplicity == 1]
    w, d = orbit_with_derivative(qmap, z, n)
    return float(np.max(np.abs(w - z) / np.abs(d - 1.0) / np.maximum(1.0, np.abs(z))))


@pytest.mark.parametrize("c, cfg", CENSUS, ids=["0", "-1", "golden", "-1.749"])
def test_simple_roots_are_newton_accurate(c, cfg):
    # a plausible but unconverged copy of a root must never stand in for the
    # converged one; keeping the first in (re, im) order instead leaves roots
    # 2.4e-13 off at c = -1, n = 12 and up to 5.0e-11 off at golden Siegel,
    # n = 10 and 11
    qmap = QuadraticMap(c)
    for n in range(1, 13):
        roots = fixed_points_of_iterate(qmap, n, cfg)
        assert _worst_newton_error(qmap, roots, n) <= 1e-13, n


@pytest.mark.parametrize("name", ["basilica", "golden_siegel"])
def test_straggler_passes_give_the_default_roots(name, request, monkeypatch):
    # with a one-step first pass every level from n = 3 on needs the straggler
    # passes; the roots must be those of the default passes
    qmap = request.getfixturevalue(name)
    default = {n: fixed_points_of_iterate(qmap, n) for n in range(1, 11)}
    passes = []
    newton = orbits_mod._newton_roots

    def counted(*args, **kwargs):
        passes.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(orbits_mod, "_newton_roots", counted)
    monkeypatch.setattr(orbits_mod, "FIRST_PASS_STEPS", 1)
    for n, want in default.items():
        passes.clear()
        got = fixed_points_of_iterate(qmap, n)
        assert n < 3 or len(passes) > 1, n
        gap = np.abs(got.z[:, None] - want.z[None, :])
        match = gap.argmin(axis=1)
        assert sorted(match.tolist()) == list(range(len(want))), n
        assert np.all(gap.min(axis=1) <= compare_orbits.RTOL * np.maximum(1.0, np.abs(got.z))), n
        assert np.array_equal(got.multiplicity, want.multiplicity[match]), n
        periods = [sorted(o.minimal_period for o in group_into_orbits(r, qmap, n))
                   for r in (got, want)]
        assert periods[0] == periods[1], n
        assert _worst_newton_error(qmap, got, n) <= 1e-13, n


def test_warns_near_the_resolution_limit(chebyshev):
    # at c = -2 two roots of f^11(z) = z lie 2.3 dedup_tol apart near -2
    with pytest.warns(UserWarning, match=r"lie 2\.3 dedup_tol apart; level 11"):
        fixed_points_of_iterate(chebyshev, 11)


def test_resolved_levels_do_not_warn(chebyshev):
    # the closest pair at c = -2, n = 10 lies 18 dedup_tol apart
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed_points_of_iterate(chebyshev, 10)
        for c, cfg in CENSUS:
            fixed_points_of_iterate(QuadraticMap(c), 12, cfg)


def _rotation_parameter(quotients):
    """c = lambda/2 - lambda^2/4 with lambda = e^(2 pi i theta) and theta the
    continued fraction [0; a_1, a_2, ...]: alpha has rotation number theta."""
    theta = Fraction(0)
    for a in reversed(quotients):
        theta = 1 / (a + theta)
    lam = cmath.exp(2j * math.pi * float(theta))
    return lam / 2.0 - lam ** 2 / 4.0


# the merged pair is 2 cos(2 pi 2047/4095) and 2 cos(2 pi 2048/4097)
CHEBYSHEV_12_MESSAGE = (r"found 4095 of 4096 roots .*; dedup merged "
                        r"\(-1\.9999994114384159-0j\) into \(-1\.9999994120129025\+0j\), "
                        r"5\.74e-10 \(0\.29 dedup_tol\) apart")


def _fails_at(check, error, reason):
    return pytest.mark.xfail(strict=True, raises=error, reason=f"{check}: {reason}")


@pytest.mark.parametrize("c, n, message", [
    pytest.param(-1.25 + 0j, 4, r"matches no enumerated point \(min dist 6\.98e-06\)",
                 marks=_fails_at("image match", AmbiguousOrbitError,
                                 "the 2-cycle (multiplier -1) is a triple root of "
                                 "f^4(z) - z, settled 6.98e-6 off, outside the 1e-6 "
                                 "multiple-root radius"),
                 id="-1.25-n4"),
    pytest.param(_rotation_parameter([2, 3, 10 ** 8]), 7,
                 r"matches no enumerated point \(min dist 1\.22e-08\)",
                 marks=_fails_at("image match", AmbiguousOrbitError,
                                 "near-Cremer alpha: an image lands 1.22e-8 off"),
                 id="near-cremer-2-3-1e8-n7"),
    pytest.param(_rotation_parameter([2, 3, 10 ** 8]), 14,
                 r"matches no enumerated point \(min dist 1\.02e-08\)",
                 marks=_fails_at("image match", AmbiguousOrbitError,
                                 "near-Cremer alpha: an image lands 1.02e-8 off"),
                 id="near-cremer-2-3-1e8-n14"),
    pytest.param(-2 + 0j, 11, "matches two points within tolerance",
                 marks=_fails_at("image match", AmbiguousOrbitError,
                                 "two roots lie 2.3 dedup_tol apart near 2"),
                 id="-2-n11"),
    pytest.param(-2 + 0j, 12, CHEBYSHEV_12_MESSAGE,
                 marks=_fails_at("root count", IncompleteEnumerationError,
                                 "dedup merges two roots 5.7e-10 apart"),
                 id="-2-n12"),
])
def test_known_failing_cells(c, n, message):
    # under the default config a fixed tolerance, not the roots, decides
    # these cells (ROADMAP items 1 and 2); each keeps raising from the check
    # it names until mended, and then the strict xfail flips
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            julia_orbits(QuadraticMap(c), n)
        except (AmbiguousOrbitError, IncompleteEnumerationError) as exc:
            assert re.search(message, str(exc)), str(exc)
            raise


def test_retired_near_cremer_cell_matches_300_bit_roots():
    # theta = [0; 3, 1, 10^8], n = 4 failed the image match (an image 2.03e-8
    # off) until seed round 1 was closed under f; Newton at 300 bits from
    # every float root finds 16 distinct roots, 2 fixed points, one 2-cycle
    # and three 4-cycles
    import mpmath as mp

    qmap = QuadraticMap(_rotation_parameter([3, 1, 10 ** 8]))
    roots = fixed_points_of_iterate(qmap, 4)
    assert sorted(o.minimal_period for o in group_into_orbits(roots, qmap, 4)) == [1, 1, 2, 4, 4, 4]
    with mp.workprec(300):
        c = mp.mpc(qmap.c)
        exact = []
        for z0 in roots.z.tolist():
            z = mp.mpc(z0)
            for _ in range(100):
                w, d = z, mp.mpc(1)
                for _ in range(4):
                    d, w = 2 * d * w, w * w + c
                step = (w - z) / (d - 1)
                z -= step
                if abs(step) < mp.mpf(2) ** -280:
                    break
            exact.append(z)
        assert max(abs(mp.mpc(z0) - z) for z0, z in zip(roots.z.tolist(), exact)) < 1e-8
        assert min(abs(a - b) for k, a in enumerate(exact) for b in exact[k + 1:]) > 1e-3


def _one_point_per_cycle(qmap, n, cfg):
    """The complete roots of f^n(z) = z, and the first point of each cycle."""
    complete = fixed_points_of_iterate(qmap, n, cfg)
    heads = np.array([o.points[0] for o in group_into_orbits(complete, qmap, n, cfg)])
    return complete, heads


CLOSURE_CELLS = [("basilica", 8, DEFAULT_CONFIG), ("golden_siegel", 10, DEFAULT_CONFIG),
                 ("airplane_root", 6, DEFAULT_CONFIG), ("chebyshev", 9, TIGHT)]


@pytest.mark.parametrize("name, n, cfg", CLOSURE_CELLS, ids=[c[0] for c in CLOSURE_CELLS])
def test_closure_restores_every_cycle_from_one_point(name, n, cfg, request):
    qmap = request.getfixturevalue(name)
    complete, heads = _one_point_per_cycle(qmap, n, cfg)
    closed = orbits_mod._close_under_f(qmap, n, heads, cfg, [])
    z, mult = orbits_mod._merge_parabolic(qmap, n, closed, cfg)
    assert mult.sum() == 2 ** n
    gap = np.abs(z[:, None] - complete.z[None, :])
    match = gap.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(complete)))
    assert np.array_equal(mult, complete.multiplicity[match])
    # a double root is merged from a cluster, to its ~sqrt(eps) accuracy floor:
    # compare it at the multiple-root match radius of group_into_orbits
    rtol = np.where(mult > 1, 1e-6, compare_orbits.RTOL)
    assert np.all(gap.min(axis=1) <= rtol * np.maximum(1.0, np.abs(z)))


@pytest.mark.parametrize("name, n, cfg", CLOSURE_CELLS, ids=[c[0] for c in CLOSURE_CELLS])
def test_closure_does_not_invent_a_dropped_cycle(name, n, cfg, request):
    qmap = request.getfixturevalue(name)
    complete = fixed_points_of_iterate(qmap, n, cfg)
    cycle = next(o for o in group_into_orbits(complete, qmap, n, cfg)
                 if o.minimal_period == n)
    dropped = np.array(cycle.points)
    kept = complete.z[np.abs(complete.z[:, None] - dropped[None, :]).min(axis=1) > 0]
    closed = orbits_mod._close_under_f(qmap, n, kept, cfg, [])
    # at the airplane root the images of the merged double roots add copies
    # of them, which the parabolic merge collapses again
    z, mult = orbits_mod._merge_parabolic(qmap, n, closed, cfg)
    assert mult.sum() == 2 ** n - n
    assert len(z) == len(kept) == len(complete) - n


def _count_seed_trees(monkeypatch):
    """A list that gets the arguments of each preimage tree orbits builds."""
    trees = []
    tree = orbits_mod.preimage_tree
    monkeypatch.setattr(orbits_mod, "preimage_tree", lambda *args: trees.append(args) or tree(*args))
    return trees


@pytest.mark.parametrize("c, n, cfg", [(-1.99 + 0j, n, DEFAULT_CONFIG) for n in (10, 13, 14)]
                         + [(-2 + 0j, n, TIGHT) for n in range(10, 14)])
def test_first_round_completes_near_chebyshev(c, n, cfg, monkeypatch):
    # the seeds from tree(-beta, n + 1), closed under f, find every root
    # (tree(beta, n + 2) alone left c = -1.99 at n = 10 one root short)
    trees = _count_seed_trees(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        roots = fixed_points_of_iterate(QuadraticMap(c), n, cfg)
    assert roots.multiplicity.sum() == 2 ** n
    assert len(trees) == 1


@pytest.mark.parametrize("c, n", [(-1 + 0j, 10), (-2 + 0j, 12)])
def test_one_seed_tree_per_enumeration(c, n, monkeypatch):
    # a complete level and a failing one each build one preimage tree: no
    # second seed set runs when the count stays short
    trees = _count_seed_trees(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if c == -2:
            with pytest.raises(IncompleteEnumerationError, match=CHEBYSHEV_12_MESSAGE):
                fixed_points_of_iterate(QuadraticMap(c), n)
        else:
            assert fixed_points_of_iterate(QuadraticMap(c), n).multiplicity.sum() == 2 ** n
    assert len(trees) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0),
                          st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0)),
                max_size=60))
def test_complex_argsort_orders_as_lexsort(parts):
    # _dedup and group_into_orbits order points by (real, imag) with one
    # stable complex argsort; duplicates and signed zeros keep lexsort's order
    z = np.array([complex(re, im) for re, im in parts], dtype=complex)
    assert np.array_equal(np.argsort(z, kind="stable"), np.lexsort((z.imag, z.real)))


def _sweep_dedup(points, tol):
    """Reference dedup: sweep the (re, im) sorted list and keep a point unless
    a kept one lies within tol * max(1, |z|) of it."""
    if len(points) == 0:
        return points
    points = points[np.lexsort((points.imag, points.real))]
    out = []
    for p in points:
        tol_abs = tol * max(1.0, abs(p))
        j = len(out) - 1
        dup = False
        while j >= 0 and p.real - out[j].real <= tol_abs:
            if abs(p - out[j]) <= tol_abs:
                dup = True
                break
            j -= 1
        if not dup:
            out.append(complex(p))
    return np.array(out, dtype=complex)


coords = st.floats(-5.0, 5.0, allow_subnormal=False)
# steps in units of tol * max(1, |z|): below 1 chains points, above 1 splits them
chain_steps = st.lists(st.floats(0.0, 2.0), max_size=8)


@st.composite
def dedup_inputs(draw):
    """(points, tol): chains, repeats and optionally a cluster of over a
    thousand coincident points; tol is dedup_tol, the parabolic merge radius,
    or large enough that tol * max(1, |z|) differs along a chain."""
    tol = draw(st.sampled_from([1e-9, 1e-4, 0.05]))
    points = []
    for _ in range(draw(st.integers(0, 12))):
        z = complex(draw(coords), draw(coords))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        for step in draw(chain_steps):
            points.append(z)
            z += step * tol * max(1.0, abs(z)) * cmath.exp(1j * angle)
        points.append(z)
        points.extend([points[-1]] * draw(st.integers(0, 3)))
    if draw(st.booleans()):
        # Newton sends well over a thousand seeds to the root 0 at c = 0
        points.extend([0j] * draw(st.integers(1000, 1600)))
        points.extend(complex(draw(coords), 0.0) * 1e-10 for _ in range(3))
    order = draw(st.permutations(range(len(points))))
    return np.array([points[k] for k in order], dtype=complex), tol


@settings(max_examples=300, deadline=None)
@given(dedup_inputs())
# exactly tol apart by abs (and np.hypot), one ulp over by numpy's complex abs
@example((np.array([0.0002779291950021079 - 0.7670634002641398j,
                    0.0003779291950021074 - 0.7670634002540613j]), 1e-4))
def test_dedup_equals_sweep(points_tol):
    points, tol = points_tol
    got = orbits_mod._dedup(points, tol)
    want = _sweep_dedup(points, tol)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _brute_radius_pairs(z, radius, w=None):
    """Reference for _radius_pairs: every pair measured with np.hypot."""
    queries = z if w is None else w
    gap = queries[:, None] - z[None, :]
    dist = np.hypot(gap.real, gap.imag)
    if w is None:
        return np.nonzero(np.triu(dist <= radius[None, :], 1))  # radius of j
    return np.nonzero(dist <= radius[:, None])  # radius of the query i


def _hypot(gap):
    return float(np.hypot(gap.real, gap.imag))


@st.composite
def radius_pair_inputs(draw):
    """(z, radius, w or None): conjugate pairs, runs of points along the
    projection direction, repeated points, and radii drawn from the
    distances of neighbours on those runs (or of each w to the point it
    was placed near), so that many pairs lie exactly at their radius."""
    z, exact = [], []
    for _ in range(draw(st.integers(1, 10))):
        p = complex(draw(coords), draw(coords))
        shape = draw(st.sampled_from(["point", "conjugates", "line", "copies"]))
        if shape == "conjugates":
            z += [p, p.conjugate()]
        elif shape == "line":
            step = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05]))
            z += [p + k * step * orbits_mod.PROJECTION for k in range(draw(st.integers(2, 6)))]
            exact.append(_hypot(z[-1] - z[-2]))
        elif shape == "copies":
            z += [p] * draw(st.integers(2, 4))
        else:
            z.append(p)
    z = np.array(z, dtype=complex)
    w = None
    if draw(st.booleans()):
        w, exact = [], []
        for k in draw(st.lists(st.integers(0, len(z) - 1), min_size=1, max_size=12)):
            near = z[k].conjugate() if draw(st.booleans()) else z[k]
            w.append(near + draw(st.sampled_from([0.0, 1e-9, -1e-3, 0.05, 0.05j]))
                     * orbits_mod.PROJECTION)
            exact.append(_hypot(w[-1] - z[k]))
        w = np.array(w)
    levels = st.sampled_from([1e-9, 1e-3, 0.05, 0.5] + exact)
    radius = np.array([draw(levels) for _ in range(len(z) if w is None else len(w))])
    return z, radius, w


@settings(max_examples=300, deadline=None)
@given(radius_pair_inputs())
def test_radius_pairs_match_brute_force(z_radius_w):
    z, radius, w = z_radius_w
    i, j = orbits_mod._radius_pairs(z, radius, w)
    want = set(zip(*(k.tolist() for k in _brute_radius_pairs(z, radius, w))))
    assert len(i) == len(want)
    assert set(zip(i.tolist(), j.tolist())) == want


@settings(max_examples=300, deadline=None)
@given(radius_pair_inputs())
def test_radius_pairs_keep_their_order(z_radius_w):
    # the pairs come grouped by query (for w) or by the sorted position of
    # the first point (without w), and within a group in the order of the
    # points' sorted projections, whatever order the queries come in
    z, radius, w = z_radius_w
    i, j = orbits_mod._radius_pairs(z, radius, w)
    rank = np.empty(len(z), dtype=np.intp)
    rank[np.argsort(z.real * orbits_mod.PROJECTION.real + z.imag * orbits_mod.PROJECTION.imag)] = (
        np.arange(len(z)))
    wi, wj = _brute_radius_pairs(z, radius, w)
    if w is None:
        first, second = np.minimum(rank[wi], rank[wj]), np.maximum(rank[wi], rank[wj])
    else:
        first, second = wi, rank[wj]
    order = np.lexsort((second, first))
    assert np.array_equal(i, wi[order]) and np.array_equal(j, wj[order])


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
    zs = pts.z
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
        # the input order does not matter
        perm = random.Random(n).sample(range(len(pts)), len(pts))
        shuffled = IterateRoots(z=pts.z[perm], multiplicity=pts.multiplicity[perm])
        assert group_into_orbits(shuffled, qmap, n, cfg) == orbits, (name, n)
        # the orbits partition the points
        assert (sorted((z for o in orbits for z in o.points), key=lex)
                == sorted(pts.z.tolist(), key=lex))
        mult = dict(zip(pts.z.tolist(), pts.multiplicity.tolist()))
        for o in orbits:
            assert len(o.points) == o.minimal_period
            # every orbit closes under f within the match tolerance
            for z, w in zip(o.points, o.points[1:] + o.points[:1]):
                image = z * z + qmap.c
                assert abs(image - w) <= _match_tol(image, mult[z], cfg), (name, n, z)


OMEGA = cmath.exp(2j * math.pi / 3.0)


@pytest.mark.parametrize("zs, message", [
    # f(1) = 1 lies within tolerance of both 1 and 1 + 1e-10
    ([1.0 + 0j, 1.0 + 1e-10 + 0j], "matches two points"),
    # the 2-cycle of z^2 given without its mate omega^2; the query stops at
    # the largest tolerance, but the error names the true nearest distance,
    # |omega^2 - 0| = 1
    ([0j, 1.0 + 0j, OMEGA],
     r"matches no enumerated point \(min dist 1\.00e\+00\)"),
    # {omega, omega^2} is a 2-cycle, and 2 does not divide the level 3
    ([OMEGA, OMEGA ** 2], "has length 2, which does not divide level 3"),
    # a 5-cycle of z^2, longer than the level 3
    ([cmath.exp(2j * math.pi * 2 ** k / 31) for k in range(5)],
     "has length 5, which does not divide level 3"),
    # f(-1) = f(1) = 1: not a permutation
    ([-1.0 + 0j, 1.0 + 0j], "cycle overlap"),
], ids=["two_matches", "missing_mate", "period_mismatch", "longer_than_level",
        "not_bijective"])
def test_grouping_rejects_ambiguous_points(squaring, zs, message):
    pts = IterateRoots(z=np.array(zs, dtype=complex), multiplicity=np.ones(len(zs), dtype=int))
    with pytest.raises(AmbiguousOrbitError, match=message):
        group_into_orbits(pts, squaring, 3)
