"""Enumeration of the fixed points of f^n, grouping into cycles, multipliers
and stability classification.

The enumeration is Newton-from-seeds on g(z) = f^n(z) - z, never on expanded
polynomial coefficients (those overflow binary64 past n ~ 12).  Seeds come
from backward trees of the beta fixed point, which accumulate on the Julia
set, plus the critical orbit (interior attracting cycles, Siegel boundaries).
Unsettled points near super-repelling chains are polished in software
floating point; parabolic collisions are merged and counted by winding
number.

f maps Fix(f^n) onto itself and so permutes the enumerated points; the
cycles of that permutation are the periodic orbits.  `group_into_orbits`
builds it with one KD-tree query and raises AmbiguousOrbitError when an image
matches no point or two, when it is not a bijection, or when a cycle's length
differs from the minimal period of its points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.spatial import cKDTree

from .dynamics import (DEFAULT_CONFIG, PrecisionConfig, QuadraticMap,
                       orbit_with_derivative, preimage_tree)
from .errors import AmbiguousOrbitError, IncompleteEnumerationError, QuadrayError

#: Enumeration caps: 2^n root finding is exponential work.
LEVEL_CAP_BINARY64 = 20
LEVEL_CAP_EXTENDED = 28

#: |multiplier - 1| below this marks a candidate multiple root of g_n.
PARABOLIC_GATE = 1e-3
#: Coarser merge radius for parabolic clusters (double roots carry an
#: irreducible ~sqrt(eps) noise floor in binary64).
PARABOLIC_MERGE_TOL = 1e-4

REPELLING = "repelling"
ATTRACTING = "attracting"
PARABOLIC_CANDIDATE = "parabolic_candidate"
INDIFFERENT_CANDIDATE = "indifferent_candidate"

DEFAULT_CLASS_TOL = 1e-6


@dataclass(frozen=True)
class FixedPoints:
    """The two fixed points of f_c in closed form; beta has the larger real
    part (ties broken by imaginary part), degenerate at c = 1/4."""

    alpha: complex
    beta: complex
    degenerate: bool = False


@dataclass(frozen=True)
class PeriodicPoint:
    z: complex
    period_tested: int
    minimal_period: int
    residual: float
    multiplicity: int = 1


@dataclass(frozen=True)
class PeriodicOrbit:
    points: tuple[complex, ...]
    minimal_period: int
    multiplier: complex
    stability: str
    multiplicity: int = 1

    def __len__(self) -> int:
        return self.minimal_period


def alpha_beta_fixed_points(qmap: QuadraticMap) -> FixedPoints:
    disc = cmath.sqrt(1.0 - 4.0 * qmap.c)
    r1 = (1.0 + disc) / 2.0
    r2 = (1.0 - disc) / 2.0
    if (r1.real, r1.imag) >= (r2.real, r2.imag):
        beta, alpha = r1, r2
    else:
        beta, alpha = r2, r1
    return FixedPoints(alpha=alpha, beta=beta, degenerate=abs(r1 - r2) == 0.0)


def _critical_orbit_tail(qmap: QuadraticMap, keep: int = 256, total: int = 1200) -> list[complex]:
    """Late critical-orbit points: attracting cycles and Siegel boundaries
    live here; empty when the critical orbit escapes."""
    z = 0.0j
    tail: list[complex] = []
    for k in range(total):
        z = z * z + qmap.c
        if abs(z) > 1e8:
            return []
        if k >= total - keep:
            tail.append(z)
    return tail


def _mp_polish_root(c: complex, z0: complex, n: int, bits: int = 120, iters: int = 80) -> complex:
    with mp.workprec(bits):
        cc = mp.mpc(c)
        z = mp.mpc(z0)
        tiny = mp.mpf(2) ** (4 - bits)
        for _ in range(iters):
            w = z
            d = mp.mpc(1)
            for _ in range(n):
                d = d * 2 * w
                w = w * w + cc
            gp = d - 1
            if abs(gp) < mp.mpf(2) ** (-bits // 2):
                break
            step = (w - z) / gp
            z = z - step
            if abs(step) < (1 + abs(z)) * tiny:
                break
        return complex(z)


def _newton_roots(qmap: QuadraticMap, n: int, seeds: np.ndarray,
                  cfg: PrecisionConfig, maxit: int = 140) -> np.ndarray:
    """Vectorized Newton on f^n(z) - z; returns plausible roots only.

    Points whose final Newton step cannot certify dedup resolution (noise
    floor near super-repelling chains) are re-polished in extended precision.
    """
    z = np.asarray(seeds, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(maxit):
            w, d = orbit_with_derivative(qmap, z, n)
            g = w - z
            gp = d - 1.0
            step = np.where(np.abs(gp) > 1e-30, g / gp, 0.0)
            z_new = z - step
            fin = np.isfinite(z_new)
            z = np.where(fin, z_new, z)
            if np.all(~fin | (np.abs(step) < 1e-13 * (1.0 + np.abs(z)))):
                break
        w, d = orbit_with_derivative(qmap, z, n)
        g = np.abs(w - z)
        gp = np.abs(d - 1.0)
        last_step = g / np.maximum(gp, 1e-30)
        plausible = (np.isfinite(z) & np.isfinite(g) & np.isfinite(gp)
                     & (g < 1e-3) & ((g < cfg.newton_tol) | (last_step < 1e-6)))
    z = z[plausible]
    last_step = last_step[plausible]

    unsettled = np.where(last_step > 0.1 * cfg.dedup_tol * np.maximum(1.0, np.abs(z)))[0]
    if len(unsettled) > 4096:
        raise QuadrayError(
            f"{len(unsettled)} points unresolvable at level {n}; raise dedup_tol or precision")
    for i in unsettled:
        z[i] = _mp_polish_root(qmap.c, z[i], n)

    with np.errstate(all="ignore"):
        w, d = orbit_with_derivative(qmap, z, n)
        g = np.abs(w - z)
        err = g / np.maximum(np.abs(d - 1.0), 1.0)
        keep = np.isfinite(z) & np.isfinite(g) & (g < 1e-3) & (err < cfg.newton_tol)
    return z[keep]


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Merge points within tol * max(1, |z|); sweep over the lex-sorted list."""
    if len(points) == 0:
        return points
    order = np.lexsort((points.imag, points.real))
    points = points[order]
    out: list[complex] = []
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


def _winding_multiplicity(qmap: QuadraticMap, n: int, z0: complex,
                          radius: float, samples: int = 512) -> int:
    """Root multiplicity of g_n at z0 as the winding number of g_n around a
    small circle; exact when the circle isolates the root cluster."""
    th = 2.0 * np.pi * np.arange(samples) / samples
    ring = z0 + radius * np.exp(1j * th)
    w, _ = orbit_with_derivative(qmap, ring, n)
    g = w - ring
    if not np.all(np.isfinite(g)) or np.any(g == 0):
        return 1
    turns = np.angle(g / np.roll(g, 1)).sum() / (2.0 * np.pi)
    return int(round(turns))


def _merge_parabolic(qmap: QuadraticMap, n: int, found: np.ndarray,
                     cfg: PrecisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Collapse near-unit-multiplier clusters and assign winding multiplicities.

    Returns (points, multiplicities).
    """
    w, d = orbit_with_derivative(qmap, found, n)
    near_one = np.abs(d - 1.0) < PARABOLIC_GATE
    if near_one.any():
        merged = _dedup(found[near_one], PARABOLIC_MERGE_TOL)
        # Multiplicity-2 Newton re-centers a double root quadratically.
        with np.errstate(all="ignore"):
            for _ in range(6):
                w2, d2 = orbit_with_derivative(qmap, merged, n)
                gp = d2 - 1.0
                step = np.where(np.abs(gp) > 1e-30, 2.0 * (w2 - merged) / gp, 0.0)
                merged = merged - np.where(np.isfinite(step), step, 0.0)
        found = _dedup(np.concatenate([found[~near_one], merged]), cfg.dedup_tol)
        w, d = orbit_with_derivative(qmap, found, n)
        near_one = np.abs(d - 1.0) < PARABOLIC_GATE

    mult = np.ones(len(found), dtype=int)
    for idx in np.where(near_one)[0]:
        if len(found) > 1:
            others = np.abs(found - found[idx])
            others[idx] = np.inf
            radius = min(PARABOLIC_MERGE_TOL, 0.45 * float(others.min()))
        else:
            radius = PARABOLIC_MERGE_TOL
        if radius > 1e-12:
            mult[idx] = max(1, _winding_multiplicity(qmap, n, complex(found[idx]), radius))
    return found, mult


def level_cap(cfg: PrecisionConfig) -> int:
    return LEVEL_CAP_BINARY64 if cfg.mantissa_bits == 53 else LEVEL_CAP_EXTENDED


def fixed_points_of_iterate(qmap: QuadraticMap, n: int,
                            cfg: PrecisionConfig = DEFAULT_CONFIG,
                            extra_seeds: tuple[complex, ...] = ()) -> list[PeriodicPoint]:
    """All roots of f^n(z) = z, deduplicated, with multiplicity summing to 2^n.

    Raises IncompleteEnumerationError (carrying the partial set) when the
    seed-escalation rounds fail to account for the full degree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > level_cap(cfg):
        raise QuadrayError(f"level {n} exceeds the enumeration cap {level_cap(cfg)}")
    fp = alpha_beta_fixed_points(qmap)

    def tree(base: complex, depth: int) -> np.ndarray:
        leaves, _ = preimage_tree(qmap, base, depth, DEFAULT_CONFIG)
        return leaves

    rounds = [
        lambda: np.concatenate([tree(fp.beta, n),
                                np.array([fp.alpha, fp.beta], dtype=complex),
                                np.array(_critical_orbit_tail(qmap) or [0j], dtype=complex),
                                np.array(list(extra_seeds) or [0j], dtype=complex)]),
        lambda: tree(fp.beta, n + 2),
        lambda: np.concatenate([tree(fp.beta, n + 3), tree(fp.alpha, n + 1)]),
    ]

    found = np.array([], dtype=complex)
    mult = np.array([], dtype=int)
    for build in rounds:
        roots = _newton_roots(qmap, n, build(), cfg)
        found = _dedup(np.concatenate([found, roots]), cfg.dedup_tol)
        found, mult = _merge_parabolic(qmap, n, found, cfg)
        if int(mult.sum()) == 2 ** n:
            break
    total = int(mult.sum())
    points = _attach_periods(qmap, n, found, mult, cfg)
    if total != 2 ** n:
        raise IncompleteEnumerationError(
            f"found {total} of {2 ** n} roots of f^{n}(z) = z at c = {qmap.c}",
            found=points)
    return points


def _attach_periods(qmap, n, found, mult, cfg) -> list[PeriodicPoint]:
    """Residuals and minimal periods: the minimal period of z is the smallest
    divisor d of n with |f^d(z) - z| <= 10 dedup_tol max(1, |z|), found in one
    pass that iterates every root n - 1 times."""
    w, d = orbit_with_derivative(qmap, found, n)
    res = np.abs(w - found) / np.maximum(np.abs(d - 1.0), 1.0)
    period = np.full(len(found), n)
    unset = np.ones(len(found), dtype=bool)
    tol = 10.0 * cfg.dedup_tol * np.maximum(1.0, np.abs(found))
    fd = found.copy()
    with np.errstate(all="ignore"):
        for step in range(1, n):
            fd = fd * fd + qmap.c
            if n % step == 0:
                hit = unset & (np.abs(fd - found) <= tol)
                period[hit] = step
                unset &= ~hit
    return [PeriodicPoint(z=complex(z), period_tested=n, minimal_period=int(p),
                          residual=float(r), multiplicity=int(m))
            for z, p, r, m in zip(found, period, res, mult)]


def _classify_multiplier(lam: complex, tol_class: float) -> str:
    mod = abs(lam)
    if mod > 1.0 + tol_class:
        return REPELLING
    if mod < 1.0 - tol_class:
        return ATTRACTING
    arg = cmath.phase(lam) / (2.0 * math.pi)
    frac = Fraction(arg).limit_denominator(64)
    root = cmath.exp(2j * math.pi * float(frac))
    if abs(lam - root) < tol_class:
        return PARABOLIC_CANDIDATE
    return INDIFFERENT_CANDIDATE


def classify_orbit(orbit: PeriodicOrbit, tol_class: float = DEFAULT_CLASS_TOL) -> str:
    """Stability from the multiplier: repelling/attracting outside the
    1 +- tol_class annulus, otherwise indifferent, refined to parabolic when
    the multiplier sits near a root of unity of order <= 64."""
    return _classify_multiplier(orbit.multiplier, tol_class)


def group_into_orbits(points: list[PeriodicPoint], qmap: QuadraticMap, n: int,
                      cfg: PrecisionConfig = DEFAULT_CONFIG,
                      tol_class: float = DEFAULT_CLASS_TOL) -> list[PeriodicOrbit]:
    """Partition Fix(f^n) into cycles; each orbit carries its minimal period,
    multiplier and stability class.

    pi(i) is the enumerated point nearest to f(z_i), from one k = 2 KD-tree
    query, matched within 10 dedup_tol max(1, |f(z_i)|), or 1e-6 max(1,
    |f(z_i)|) when z_i is a multiple root.  AmbiguousOrbitError is raised when
    f(z_i) matches no point, when it matches two, when pi is not a bijection,
    or when a cycle's length differs from its points' minimal period.  Each
    cycle of pi is one orbit, listed from its lexicographically smallest
    point; the multiplier is the product of 2 z along it.
    """
    pts = sorted(points, key=lambda p: (p.z.real, p.z.imag))
    arr = np.array([p.z for p in pts], dtype=complex)
    image = arr * arr + qmap.c
    # Multiple roots carry the ~sqrt(eps) accuracy floor of a collapsed
    # collision, so their images match at a coarser tolerance.
    coarse = np.array([p.multiplicity > 1 for p in pts])
    tol = np.where(coarse, 1e-6, 10.0 * cfg.dedup_tol) * np.maximum(1.0, np.abs(image))
    dist, idx = cKDTree(np.column_stack([arr.real, arr.imag])).query(
        np.column_stack([image.real, image.imag]), k=2)
    unmatched = np.flatnonzero(dist[:, 0] > tol)
    if len(unmatched):
        i = unmatched[0]
        raise AmbiguousOrbitError(
            f"orbit image {complex(image[i])!r} matches no enumerated point "
            f"(min dist {dist[i, 0]:.2e})")
    doubled = np.flatnonzero(dist[:, 1] <= tol)
    if len(doubled):
        raise AmbiguousOrbitError(
            f"orbit image {complex(image[doubled[0]])!r} matches two points "
            "within tolerance; raise precision")
    pi = idx[:, 0]
    if np.any(np.bincount(pi, minlength=len(pts)) != 1):
        raise AmbiguousOrbitError("cycle overlap: two orbits share a point")

    nxt = pi.tolist()
    seen = [False] * len(pts)
    orbits: list[PeriodicOrbit] = []
    for i in range(len(pts)):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = nxt[j]
        m = len(cycle)
        periods = {pts[j].minimal_period for j in cycle}
        if periods != {m}:
            raise AmbiguousOrbitError(
                f"cycle of length {m} through {pts[i].z!r} carries minimal "
                f"periods {sorted(periods)}")
        zs = arr[cycle]
        lam = 1.0 + 0.0j
        for w in zs:
            lam *= 2.0 * w
        lam = complex(lam)
        orbits.append(PeriodicOrbit(
            points=tuple(complex(w) for w in zs),
            minimal_period=m,
            multiplier=lam,
            stability=_classify_multiplier(lam, tol_class),
            multiplicity=max(pts[j].multiplicity for j in cycle)))
    orbits.sort(key=lambda o: (o.minimal_period, o.points[0].real, o.points[0].imag))
    return orbits


def julia_orbits(qmap: QuadraticMap, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                 minimal_only: bool = True) -> list[PeriodicOrbit]:
    """Orbits at level n restricted to the Julia set: attracting cycles are
    dropped, indifferent candidates kept (flagged by their stability class)."""
    points = fixed_points_of_iterate(qmap, n, cfg)
    orbits = group_into_orbits(points, qmap, n, cfg)
    kept = [o for o in orbits if o.stability != ATTRACTING]
    if minimal_only:
        kept = [o for o in kept if o.minimal_period == n]
    return kept
