"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Heavy enumerations are cached per (parameter, level) and shared between
criteria.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import pytest

from quadray import (Angle, OrbitPortrait, QuadraticMap, alpha_beta_fixed_points,
                     circle_exit_cyclic_order, classify_portrait,
                     count_orbits_near_point, distortion_ratio,
                     default_tree_basepoint, estimate_landing,
                     fixed_points_of_iterate, group_into_orbits, julia_orbits,
                     periodic_pressure_estimate, portrait_at_orbit,
                     tree_pressure_estimate, trace_ray, validate_formal_portrait,
                     verify_hypothesis_h)
from quadray.cli import run_command
from quadray.dynamics import PrecisionConfig
from tests.conftest import GOLDEN_C

C_SQUARING = 0j
C_BASILICA = -1 + 0j
C_CHEBYSHEV = -2 + 0j
C_AIRPLANE = -1.75 + 0j
C_NEAR_AIRPLANE = -1.749 + 0j

#: test parameters of the bunch/counting suites (criteria 6 and 7)
SUITE_PARAMS = (C_SQUARING, C_BASILICA, GOLDEN_C, C_NEAR_AIRPLANE)

#: real-axis parameters need the tighter dedup scale: distinct roots near the
#: interval endpoints approach ~1e-10 separation at level 14
TIGHT = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)
DEFAULT = PrecisionConfig()


def _cfg_for(c: complex) -> PrecisionConfig:
    return TIGHT if abs(c.imag) < 1e-12 and c.real < -1.3 else DEFAULT

_ORBIT_CACHE: dict = {}


def cached_julia_orbits(c: complex, n: int):
    key = (c, n)
    if key not in _ORBIT_CACHE:
        _ORBIT_CACHE[key] = julia_orbits(QuadraticMap(c), n, _cfg_for(c),
                                         minimal_only=False)
    return _ORBIT_CACHE[key]


def minimal_orbits(c: complex, n: int):
    return [o for o in cached_julia_orbits(c, n) if o.minimal_period == n]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_pressure_oracle_squaring():
    started = time.monotonic()
    qmap = QuadraticMap(C_SQUARING)
    z = default_tree_basepoint(qmap)
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0):
        target = (1.0 - t) * math.log(2.0)
        per = periodic_pressure_estimate(qmap, t, 12).value
        tre = tree_pressure_estimate(qmap, z, t, 12).value
        worst = max(worst, abs(per - target), abs(tre - target))
    elapsed = time.monotonic() - started
    ok = worst < 5e-3 and elapsed < 10.0
    assert report(1, ok, f"c=0 closed form: worst |err|={worst:.2e} "
                         f"(tol 5e-3), runtime {elapsed:.1f}s (cap 10s)")


def test_criterion_2_pressure_equality_consistency():
    rows = []
    ok = True
    for c in (C_SQUARING, C_BASILICA, -1.99 + 0j):
        qmap = QuadraticMap(c)
        cfg = _cfg_for(c)
        z = default_tree_basepoint(qmap)
        for t in (0.0, 1.0):
            per = {n: periodic_pressure_estimate(qmap, t, n, cfg) for n in (10, 12)}
            tre = {n: tree_pressure_estimate(qmap, z, t, n) for n in (10, 12)}
            # The tree sum is ~ h_t(z) e^{nP}, so the raw value gap is
            # ~ log h_t(z) / n.  The growth rate (log S_12 - log S_10) / 2
            # cancels that basepoint factor and the period-2 swing of both
            # sums, leaving the pressures themselves to compare.
            rate_gap = abs((per[12].log_sum - per[10].log_sum) / 2
                           - (tre[12].log_sum - tre[10].log_sum) / 2)
            gap = {n: abs(per[n].value - tre[n].value) for n in (10, 12)}
            broke = []
            if not rate_gap < 0.05:
                broke.append("growth-rate gap exceeds 0.05")
            if not gap[12] <= gap[10] + 1e-12:
                broke.append("raw gap increased from n=10 to n=12")
            ok &= not broke
            rows.append(f"c={c.real:g} t={t:g}: rate gap={rate_gap:.4f} "
                        f"raw d10={gap[10]:.4f} d12={gap[12]:.4f}"
                        + "".join(f" <-- {b}" for b in broke))
    assert report(2, ok, "periodic vs tree growth rate (log S12 - log S10)/2 "
                         "within 0.05, raw gap non-increasing from n=10 to "
                         "n=12 [" + "; ".join(rows) + "]")


def test_criterion_3_orbit_census():
    def mobius_count(n):
        def mu(m):
            out, p = 1, 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    out = -out
                p += 1
            return -out if m > 1 else out
        return sum(mu(n // d) * 2 ** d for d in range(1, n + 1) if n % d == 0)

    ok = True
    for c in (C_SQUARING, C_CHEBYSHEV):
        qmap = QuadraticMap(c)
        cfg = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)
        for n in range(1, 13):
            pts = fixed_points_of_iterate(qmap, n, cfg)
            orbits = group_into_orbits(pts, qmap, n, cfg)
            count = sum(o.minimal_period for o in orbits if o.minimal_period == n)
            if count != mobius_count(n):
                ok = False
                print(f"  census mismatch c={c} n={n}: {count} != {mobius_count(n)}")
    qmap = QuadraticMap(C_CHEBYSHEV)
    pts = fixed_points_of_iterate(qmap, 2)
    orbits = group_into_orbits(pts, qmap, 2)
    lam = [o.multiplier for o in orbits if o.minimal_period == 2][0]
    mult_ok = abs(lam - (-4.0)) < 1e-9
    ok &= mult_ok
    assert report(3, ok, "minimal-period counts match the Moebius sums for "
                         f"n<=12 at c=0,-2; period-2 multiplier {lam:.12f} "
                         "within 1e-9 of -4")


def test_criterion_4_formal_portrait_exact():
    portrait = OrbitPortrait(sets=(
        tuple(Angle(k, 63) for k in (22, 25, 37)),
        tuple(Angle(k, 63) for k in (11, 44, 50)),
    ))
    rep = validate_formal_portrait(portrait)
    cls = classify_portrait(portrait) if rep.ok else None
    ok = (rep.ok and rep.ray_period == 6 and portrait.orbit_period == 2
          and cls.kind == "satellite" and cls.valence == 3 and cls.ray_cycles == 3)
    assert report(4, ok, "63-denominator portrait: conditions (1)-(4) pass, "
                         f"satellite with valence={cls.valence} r={cls.ray_cycles} "
                         f"p=2 ray period {rep.ray_period} (exact arithmetic)")


def test_criterion_5_airplane_portrait():
    qmap = QuadraticMap(C_AIRPLANE)
    orbits = minimal_orbits(C_AIRPLANE, 3)
    assert len(orbits) == 1
    orbit = orbits[0]
    pts = list(orbit.points)
    angles = [Angle(k, 7) for k in (3, 6, 5, 1, 2, 4)]
    landings = {}
    worst = 0.0
    for theta in angles:
        est = estimate_landing(qmap, theta)
        dist = min(abs(est.z - p) for p in pts)
        worst = max(worst, dist)
        landings[theta] = min(range(3), key=lambda i: abs(est.z - pts[i]))
    pairwise = all(
        sum(1 for th in angles if landings[th] == i) == 2 for i in range(3))
    portrait = portrait_at_orbit(qmap, orbit, 3)
    cls = classify_portrait(portrait)
    ok = (worst < 1e-4 and pairwise and cls.kind == "primitive"
          and cls.valence == 2 and cls.ray_cycles == 1
          and portrait.sets == ((Angle(3, 7), Angle(4, 7)),
                                (Angle(1, 7), Angle(6, 7)),
                                (Angle(2, 7), Angle(5, 7))))
    assert report(5, ok, f"airplane-root rays land pairwise within 1e-4 "
                         f"(worst {worst:.1e}); portrait primitive, valence 2")


def test_criterion_6_bunch_bound_suite():
    started = time.monotonic()
    ok = True
    observed = 0
    for c in SUITE_PARAMS:
        qmap = QuadraticMap(c)
        for n in range(1, 15):
            orbits = minimal_orbits(c, n)
            for delta in (0.1, 0.3):
                rep = verify_hypothesis_h(qmap, n, delta, _cfg_for(c),
                                          orbits=orbits)
                observed = max(observed, rep.max_cluster)
                if rep.max_cluster > 2 * n:
                    ok = False
                    print(f"  bunch bound violated: c={c} n={n} delta={delta} "
                          f"max={rep.max_cluster}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 300.0
    assert report(6, ok, f"certified max bunch <= 2n for 4 parameters, "
                         f"n<=14, delta in {{0.1,0.3}}; largest observed "
                         f"{observed}; suite {elapsed:.0f}s (cap 300s)")


def test_criterion_7_orbit_counts_near_points():
    ok = True
    worst_fixed = 0
    for c in SUITE_PARAMS:
        qmap = QuadraticMap(c)
        fp = alpha_beta_fixed_points(qmap)
        for z0 in (fp.alpha, fp.beta):
            for n in range(1, 15):
                count = count_orbits_near_point(
                    qmap, z0, 1, n, 0.3, 0.5, _cfg_for(c),
                    orbits=minimal_orbits(c, n))
                worst_fixed = max(worst_fixed, count)
                if count > 1:
                    ok = False
                    print(f"  count>1 at c={c} z0={z0:.4f} n={n}: {count}")
    # basilica 2-cycle: base point chosen so |(f^i)'(z0)| <= 1 along the cycle
    worst_cycle = 0
    qmap = QuadraticMap(C_BASILICA)
    for n in range(1, 8):
        count = count_orbits_near_point(qmap, 0.0, 2, n, 0.3, 0.5, DEFAULT,
                                        orbits=minimal_orbits(C_BASILICA, 2 * n))
        worst_cycle = max(worst_cycle, count)
        if count > 2:
            ok = False
    assert report(7, ok, "orbit counts near fixed points <= 1 (worst "
                         f"{worst_fixed}) and near the basilica 2-cycle <= 2 "
                         f"(worst {worst_cycle}), n p <= 14, delta=0.3, r0=0.5")


def test_criterion_8_circle_exit_order():
    families = {
        "63-portrait": [Angle(k, 63) for k in (22, 25, 37, 11, 44, 50)],
        "7-portrait": [Angle(k, 7) for k in (3, 6, 5, 1, 2, 4)],
    }
    ok = True
    for c, center, radii in ((C_SQUARING, 0j, (1.2, 3.8, 12.0)),
                             (C_BASILICA, 0j, (2.0, 6.3, 20.0))):
        qmap = QuadraticMap(c)
        for name, family in families.items():
            traces = [trace_ray(qmap, th, g_min=1e-8) for th in family]
            for r in radii:
                rep = circle_exit_cyclic_order(qmap, traces, center, r)
                if not rep.match:
                    ok = False
                    print(f"  order mismatch: c={c} family={name} r={r}")
    assert report(8, ok, "cyclic order of exits along S(r) matches the order "
                         "at infinity for both ray families at c=0,-1, three "
                         "radii spanning x10")


def test_criterion_9_distortion_near_unit_multiplier():
    qmap = QuadraticMap(GOLDEN_C)
    alpha = alpha_beta_fixed_points(qmap).alpha
    full = distortion_ratio(qmap, alpha, 1e-4, 20, seed=0)
    half = distortion_ratio(qmap, alpha, 5e-5, 20, seed=0)
    ok = (full.sup_ratio_minus_one < 1e-2
          and half.sup_ratio_minus_one <= 0.5 * full.sup_ratio_minus_one * 1.0001)
    assert report(9, ok, f"golden-Siegel distortion sup {full.sup_ratio_minus_one:.2e} "
                         f"< 1e-2 at r=1e-4, n=20; halving r gives "
                         f"{half.sup_ratio_minus_one:.2e} (at most half)")


def test_criterion_10_determinism(tmp_path):
    jobs = [
        ("orbits", ["orbits", "--c", "-1,0", "--n", "6"]),
        ("rays", ["rays", "--c", "-2,0", "--angles", "1/3,2/3", "--g-min", "1e-6"]),
        ("portrait", ["portrait", "--preset", "airplane_root", "--period", "3"]),
        ("pressure", ["pressure", "--c", "0,0", "--t", "0:2:0.5", "--n", "10"]),
        ("bunches", ["bunches", "--preset", "basilica", "--n", "8", "--delta", "0.1"]),
        ("near-point", ["near-point", "--c", "0,0", "--z0", "beta", "--n", "6"]),
        ("disc-pattern", ["disc-pattern", "--c", "0,0", "--period", "1", "--n", "5"]),
        ("distortion", ["distortion", "--preset", "golden_siegel", "--center",
                        "alpha", "--r", "1e-4", "--n", "10", "--samples", "256"]),
        ("bryuno", ["bryuno", "--alpha", "golden", "--terms", "15"]),
        ("render", ["render", "--preset", "basilica", "--layers", "julia,rays",
                    "--angles", "1/3,2/3", "--points", "3000", "--seed", "5",
                    "--g-min", "1e-5"]),
    ]
    ok = True
    for name, args in jobs:
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        rc1 = run_command(args + ["--output-dir", str(first)])
        rc2 = run_command([args[0], "--from-manifest", str(first / "manifest.json"),
                           "--output-dir", str(second)])
        if rc1 != 0 or rc2 != 0:
            ok = False
            print(f"  {name}: nonzero exit ({rc1}, {rc2})")
            continue
        h1 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(first.iterdir()) if p.name != "manifest.json"}
        h2 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(second.iterdir()) if p.name != "manifest.json"}
        if h1 != h2:
            ok = False
            print(f"  {name}: outputs differ on manifest re-run")
    assert report(10, ok, "all ten commands reproduce byte-identical "
                          "CSV/JSON/SVG when re-run from their manifests")
