"""Enumeration of the fixed points of f^n, grouping into cycles, multipliers
and stability classification.

The enumeration is Newton-from-seeds on g(z) = f^n(z) - z, never on expanded
polynomial coefficients (those overflow binary64 past n ~ 12).  The seeds
are one set: tree(-beta, n + 1), alpha, beta and the critical orbit
(interior attracting cycles, Siegel boundaries).  Backward trees accumulate
on the Julia set, and since f^-1(beta) = {beta, -beta}, tree(-beta, n + 1) is
the half of tree(beta, n + 2) that does not repeat tree(beta, n + 1).  That
repeated half is the worse one: at c = -2, where beta = 2 = f^2(0), every
leaf of tree(beta, n + 1) but beta itself is precritical, with (f^n)' = 0,
and no leaf of tree(-beta, n + 1) is.

Newton runs on the seeds in two passes, and the root count is checked after
each.  The first pass takes FIRST_PASS_STEPS steps and keeps only the seeds
that settled (their last step fell below 1e-13 (1 + |z|)); if the count is
still short, a second pass continues the seeds still moving for the rest of
NEWTON_STEPS.  Newton iterates only the seeds that still move.  Unsettled
points near super-repelling chains are polished in software floating point,
one per cluster near a multiple root.  Every pass ends by closing the found
roots under f, which permutes Fix(f^n): the images with no found root
nearby are polished by Newton and join the found roots, then their images,
until none is new.  So the seeds need to reach each cycle once, not each
root; on the census cells the first pass and its closure already account
for all 2^n roots.

Within a pass, dedup keeps the first of each close group in (re, im) order,
solved over the close pairs.  Earlier roots win the merge: the roots of a
pass or of a closure step join the found ones only where no found root lies
within dedup_tol, and the roots of seeds that never settled join after
those of the settled ones, so a plausible but unconverged copy never
replaces a converged root.  Parabolic collisions are merged and counted by
winding number.  Once the count holds, a UserWarning names any two roots
within RESOLUTION_MARGIN dedup_tol of each other; when it fails, the error
names the widest merge.  Levels whose enumeration would pass
ENUMERATION_BUDGET_BYTES are refused up front.  The roots leave enumeration
as `IterateRoots`, two aligned arrays: the points and their multiplicities.

f maps Fix(f^n) onto itself and so permutes the enumerated points; the
cycles of that permutation are the periodic orbits, and their lengths the
minimal periods.  `group_into_orbits` builds it from the points close to
each image, and raises AmbiguousOrbitError when an image matches no point or
two, when it is not a bijection, or when its n-th power is not the identity.

Dedup, the closure and grouping find close points with `_radius_pairs`, a
binary search over the points sorted by their projection on a fixed
direction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import (DEFAULT_CONFIG, PrecisionConfig, QuadraticMap,
                       orbit_with_derivative, preimage_tree)
from .errors import AmbiguousOrbitError, IncompleteEnumerationError, QuadrayError

#: Newton steps a seed may take, over both passes.
NEWTON_STEPS = 140
#: Steps of the first pass.  Converged seeds already account for all
#: 2^n roots after 5-10 steps on the census cells; 16 closed all twelve.
FIRST_PASS_STEPS = 16
#: Roots closer than this many dedup_tol * max(1, |z|) are warned about:
#: the level is near the resolution of the tolerances.
RESOLUTION_MARGIN = 10.0

#: Critical-orbit points among the seeds, at most.
CRITICAL_TAIL = 256
#: Peak bytes per seed of a whole enumeration: 8.2-9.3 complex arrays of the
#: seeds' size (tracemalloc, n = 6..17); twelve bound it.  Dedup over many
#: near-copies of one root can pass it at small n (0.31 MB, golden, n = 8).
BYTES_PER_SEED = 12 * 16
#: 2^n root finding is exponential work: levels whose enumeration would pass
#: this many bytes (n > 22) are refused before anything is allocated.
ENUMERATION_BUDGET_BYTES = 2 ** 31

#: Peak bytes per candidate pair of `_radius_pairs`: index arrays, gathered
#: points, differences and distances.  tracemalloc measures 64.2 bytes per
#: candidate once candidates outnumber points (4.1 M over 16,384 points at
#: c = -1.749); nine 8-byte words bound it.
BYTES_PER_CANDIDATE = 9 * 8
#: Projection direction of `_radius_pairs`.  A generic one: along the real
#: axis, a point and its conjugate (a pair whenever c is real) would always
#: share a window.
PROJECTION = cmath.exp(1j)

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


@dataclass(frozen=True, eq=False)
class IterateRoots:
    """The distinct roots of f^n(z) = z as aligned columns: the points z and
    their root multiplicities."""

    z: np.ndarray
    multiplicity: np.ndarray

    def __len__(self) -> int:
        return len(self.z)


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
    r1, r2 = (1.0 + disc) / 2.0, (1.0 - disc) / 2.0
    beta, alpha = (r1, r2) if (r1.real, r1.imag) >= (r2.real, r2.imag) else (r2, r1)
    return FixedPoints(alpha=alpha, beta=beta, degenerate=abs(r1 - r2) == 0.0)


def _critical_orbit_tail(qmap: QuadraticMap) -> list[complex]:
    """The last CRITICAL_TAIL of 1,200 critical-orbit points: attracting
    cycles and Siegel boundaries live here; empty when the orbit escapes."""
    z = 0.0j
    orbit: list[complex] = []
    for _ in range(1200):
        z = z * z + qmap.c
        if abs(z) > 1e8:
            return []
        orbit.append(z)
    return orbit[-CRITICAL_TAIL:]


def _mp_polish_root(c: complex, z0: complex, n: int, bits: int = 120, iters: int = 80) -> complex:
    import mpmath as mp  # loaded on first use, off the start-up path

    with mp.workprec(bits):
        cc = mp.mpc(c)
        z = mp.mpc(z0)
        tiny = mp.mpf(2) ** (4 - bits)
        for _ in range(iters):
            w, d = z, mp.mpc(1)
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


def _newton_roots(qmap: QuadraticMap, n: int, seeds: np.ndarray, cfg: PrecisionConfig,
                  maxit: int, last: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One Newton pass on f^n(z) - z of at most `maxit` steps; returns
    (roots, rest), the plausible roots of the seeds that settled and the rest.

    Only the active seeds are iterated: a seed settles, leaving the active
    set, once its step is below 1e-13 (1 + |z|) or its update is not finite.
    A first pass tests only the settled seeds; the rest are the seeds still
    moving, at the points they reached, for the last pass to continue.  The
    last pass tests every seed, and the rest are the plausible roots of the
    seeds that never settled, to be merged after the settled ones.  Points
    whose final Newton step cannot certify dedup resolution (noise floor near
    super-repelling chains) are re-polished in extended precision; near a
    multiple root, one per cluster, which counts with the rest.
    """
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

    unsettled = last_step > 0.1 * cfg.dedup_tol * np.maximum(1.0, np.abs(z))
    if unsettled.sum() > 4096:
        raise QuadrayError(
            f"{unsettled.sum()} points unresolvable at level {n}; raise dedup_tol or precision")
    # _merge_parabolic collapses each cluster of points near a multiple root
    # into one point, so only the cluster's first is polished.
    near = unsettled & (gp[plausible] < PARABOLIC_GATE)
    clusters = _dedup(z[near], PARABOLIC_MERGE_TOL)
    z = np.concatenate([z[~near], clusters])
    moving = np.concatenate([moving[~near], np.ones(len(clusters), dtype=bool)])
    polish = np.concatenate([unsettled[~near], np.ones(len(clusters), dtype=bool)])
    for i in np.flatnonzero(polish):
        z[i] = _mp_polish_root(qmap.c, z[i], n)

    with np.errstate(all="ignore"):
        w, d = orbit_with_derivative(qmap, z, n)
        g = np.abs(w - z)
        err = g / np.maximum(np.abs(d - 1.0), 1.0)
        keep = np.isfinite(z) & np.isfinite(g) & (g < 1e-3) & (err < cfg.newton_tol)
    z, moving = z[keep], moving[keep]
    if last:
        return z[~moving], z[moving]
    return z, stragglers


def _radius_pairs(z: np.ndarray, radius: np.ndarray,
                  w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs within a radius, distances taken with np.hypot.

    Without w: the pairs i < j with |z_i - z_j| <= radius[j].  With w: the
    pairs (i, j) with |w_i - z_j| <= radius[i].

    A pair within r projects onto the unit vector PROJECTION within r, so
    each point's candidates are the points whose sorted projections lie
    within max(radius), plus the projections' rounding error, of its own; a
    binary search finds that window.  QuadrayError is raised before the
    candidates are gathered when they would pass ENUMERATION_BUDGET_BYTES.
    """
    if len(z) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    queries = z if w is None else w

    def project(u):
        return u.real * PROJECTION.real + u.imag * PROJECTION.imag

    proj = project(z)
    order = np.argsort(proj)
    key = proj[order]
    # each rounded projection is off by at most 2 eps (|Re u| + |Im u|)
    scale = max(float(np.max(np.abs(u.real) + np.abs(u.imag))) for u in (z, queries))
    reach = float(radius.max()) * (1.0 + 1e-9) + 8.0 * np.finfo(float).eps * scale
    if w is None:
        lo = np.arange(1, len(z) + 1)  # sorted positions after each point's own
        hi = np.searchsorted(key, key + reach, side="right")
    else:
        # a binary search over sorted queries runs several times faster
        at = project(w)
        by_at = np.argsort(at)
        lo, hi = np.empty_like(by_at), np.empty_like(by_at)
        lo[by_at] = np.searchsorted(key, at[by_at] - reach, side="left")
        hi[by_at] = np.searchsorted(key, at[by_at] + reach, side="right")
    count = hi - lo
    total = int(count.sum())
    if total * BYTES_PER_CANDIDATE > ENUMERATION_BUDGET_BYTES:
        raise QuadrayError(
            f"{total} candidate pairs within {reach:.2e} need about "
            f"{total * BYTES_PER_CANDIDATE / 2 ** 30:.1f} GiB, over the "
            f"{ENUMERATION_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")
    first = np.repeat(np.arange(len(lo)), count)
    j = order[np.arange(total) - np.repeat(np.cumsum(count) - count - lo, count)]
    if w is None:
        i = order[first]
        i, j = np.minimum(i, j), np.maximum(i, j)
        near = radius[j]
    else:
        i = first
        near = radius[i]
    gap = queries[i] - z[j]
    close = np.hypot(gap.real, gap.imag) <= near
    return i[close], j[close]


def _dedup(points: np.ndarray, tol: float, merges: list | None = None) -> np.ndarray:
    """Merge points within tol * max(1, |z|) as a sweep over the (re, im)
    sorted list does: z_j is dropped when some kept z_i, i < j, has
    |z_i - z_j| <= tol * max(1, |z_j|).

    Bit-identical copies collapse first (Newton sends many seeds to the same
    float), then `_radius_pairs` lists the close pairs.  The rule runs over a
    DAG in index order, so it has one fixed point, the sweep's result;
    iterating it from "all kept" reaches it after at most the longest path's
    length + 1.  A list `merges` gets the `_widest_merge` of the pairs.
    """
    if len(points) == 0:
        return points
    pts = points[np.argsort(points, kind="stable")]
    pts = pts[np.concatenate([[True], pts[1:] != pts[:-1]])]
    # np.hypot rounds |z| as Python's abs does; np.abs can differ by an ulp
    i, j = _radius_pairs(pts, tol * np.maximum(1.0, np.hypot(pts.real, pts.imag)))
    kept = np.ones(len(pts), dtype=bool)
    while True:
        new = np.ones(len(pts), dtype=bool)
        new[j[kept[i]]] = False
        if np.array_equal(new, kept):
            if merges is not None:
                joined = kept[i] & ~kept[j]
                merges.append(_widest_merge(pts[i[joined]], pts[j[joined]], tol))
            return pts[kept]
        kept = new


def _widest_merge(kept: np.ndarray, dropped: np.ndarray, tol: float):
    """(ratio, kept point, dropped point) of the aligned merged pairs with the
    largest ratio |kept - dropped| / (tol max(1, |dropped|)), or (0.0, None,
    None) for no pairs."""
    if not len(kept):
        return 0.0, None, None
    gap = kept - dropped
    scale = tol * np.maximum(1.0, np.hypot(dropped.real, dropped.imag))
    ratio = np.hypot(gap.real, gap.imag) / scale
    k = int(np.argmax(ratio))
    return float(ratio[k]), complex(kept[k]), complex(dropped[k])


def _unseen(found: np.ndarray, new: np.ndarray, tol: float, merges: list) -> np.ndarray:
    """The points of `new` farther than tol * max(1, |z|) from every root in
    `found`, deduplicated among themselves: a root found earlier wins the
    merge over every later copy.  The widest merges go into `merges`."""
    if len(found) and len(new):
        i, j = _radius_pairs(found, tol * np.maximum(1.0, np.hypot(new.real, new.imag)), new)
        merges.append(_widest_merge(found[j], new[i], tol))
        new = np.delete(new, i)
    return _dedup(new, tol, merges)


def _close_under_f(qmap: QuadraticMap, n: int, found: np.ndarray, cfg: PrecisionConfig,
                   merges: list) -> np.ndarray:
    """`found` with the roots its images under f lead to: f permutes Fix(f^n),
    so one root of a cycle gives the whole cycle.

    An image with no found root within dedup_tol max(1, |f(z)|) is polished
    by a last Newton pass and joins through `_unseen`, so earlier roots win
    the merge; then only the new roots' images are followed.  A cycle has at
    most n points, so n steps reach every point of every cycle met; the
    steps stop early once nothing is new.  Near a multiple root the images
    can add copies of it, which `_merge_parabolic` collapses.
    """
    new = found
    for _ in range(n):
        if not len(new):
            break
        image = new * new + qmap.c
        hit, _ = _radius_pairs(found, cfg.dedup_tol * np.maximum(
            1.0, np.hypot(image.real, image.imag)), image)
        image = np.delete(image, hit)
        if not len(image):
            break
        added = []
        for roots in _newton_roots(qmap, n, image, cfg, NEWTON_STEPS, last=True):
            added.append(_unseen(found, roots, cfg.dedup_tol, merges))
            found = np.concatenate([found, added[-1]])
        new = np.concatenate(added)
    return found


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
    return int(round(np.angle(g / np.roll(g, 1)).sum() / (2.0 * np.pi)))


def _merge_parabolic(qmap: QuadraticMap, n: int, found: np.ndarray,
                     cfg: PrecisionConfig):
    """Collapse near-unit-multiplier clusters and assign winding multiplicities;
    returns (points, multiplicities)."""
    _, d = orbit_with_derivative(qmap, found, n)
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
        _, d = orbit_with_derivative(qmap, found, n)
        near_one = np.abs(d - 1.0) < PARABOLIC_GATE

    mult = np.ones(len(found), dtype=int)
    for idx in np.flatnonzero(near_one):
        gap = np.abs(np.delete(found, idx) - found[idx]).min(initial=np.inf)
        radius = min(PARABOLIC_MERGE_TOL, 0.45 * float(gap))
        if radius > 1e-12:
            mult[idx] = max(1, _winding_multiplicity(qmap, n, complex(found[idx]), radius))
    return found, mult


def enumeration_bytes(n: int) -> int:
    """Peak bytes of fixed_points_of_iterate at level n: its 2^(n+1) + 2 +
    CRITICAL_TAIL seeds and the first Newton pass over them all, its largest
    step.  n = 22 needs 1.5 GiB and n = 23 3.0 GiB, so the 2 GiB budget first
    refuses n = 23."""
    return BYTES_PER_SEED * (2 ** (n + 1) + 2 + CRITICAL_TAIL)


def fixed_points_of_iterate(qmap: QuadraticMap, n: int,
                            cfg: PrecisionConfig = DEFAULT_CONFIG) -> IterateRoots:
    """All roots of f^n(z) = z, deduplicated, with multiplicity summing to 2^n,
    as the aligned columns of an IterateRoots.

    The seeds are tree(-beta, n + 1) with alpha, beta and the critical tail.
    A first Newton pass of FIRST_PASS_STEPS runs on them all and, only when
    the count is still short, a second pass continues the stragglers for the
    rest of NEWTON_STEPS.  A pass's roots join the found ones through
    `_unseen`, those of never-settled seeds last; then `_close_under_f` adds
    the roots the images of the found ones lead to, the parabolic merge runs
    and the count is checked.  A UserWarning names the closest two roots
    when they lie within RESOLUTION_MARGIN dedup_tol max(1, |z|).

    Raises QuadrayError when enumeration_bytes(n) exceeds the budget, and
    IncompleteEnumerationError, whose `found` holds the partial IterateRoots,
    when both passes fail to account for the full degree; its message names
    the widest pair of distinct roots that dedup merged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if enumeration_bytes(n) > ENUMERATION_BUDGET_BYTES:
        raise QuadrayError(
            f"level {n} needs about {enumeration_bytes(n) / 2 ** 30:.1f} GiB to "
            f"enumerate, over the {ENUMERATION_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")
    fp = alpha_beta_fixed_points(qmap)

    def passes():
        roots, stragglers = _newton_roots(
            qmap, n, np.concatenate([preimage_tree(qmap, -fp.beta, n + 1)[0],
                                     [fp.alpha, fp.beta], _critical_orbit_tail(qmap)]),
            cfg, FIRST_PASS_STEPS)
        yield (roots,)
        yield _newton_roots(qmap, n, stragglers, cfg, NEWTON_STEPS - FIRST_PASS_STEPS,
                            last=True)

    found = np.array([], dtype=complex)
    merges = [(0.0, None, None)]
    for groups in passes():
        for roots in groups:
            found = np.concatenate([found, _unseen(found, roots, cfg.dedup_tol, merges)])
        found = _close_under_f(qmap, n, found, cfg, merges)
        found, mult = _merge_parabolic(qmap, n, found, cfg)
        if int(mult.sum()) == 2 ** n:
            _warn_unresolved(found, n, cfg)
            return IterateRoots(z=found, multiplicity=mult)
    ratio, kept, dropped = max(merges, key=lambda m: m[0])
    widest = (f"; dedup merged {dropped!r} into {kept!r}, {abs(kept - dropped):.2e} "
              f"({ratio:.2f} dedup_tol) apart" if ratio > 0 else "")
    raise IncompleteEnumerationError(
        f"found {int(mult.sum())} of {2 ** n} roots of f^{n}(z) = z at c = {qmap.c}{widest}",
        found=IterateRoots(z=found, multiplicity=mult))


def _warn_unresolved(found: np.ndarray, n: int, cfg: PrecisionConfig) -> None:
    """Warn when two roots lie within RESOLUTION_MARGIN dedup_tol max(1, |z|):
    a merge or image match at that distance is decided by the tolerance, not
    by the roots."""
    tol = cfg.dedup_tol * np.maximum(1.0, np.hypot(found.real, found.imag))
    i, j = _radius_pairs(found, RESOLUTION_MARGIN * tol)
    if len(i):
        gap = found[i] - found[j]
        ratio = np.hypot(gap.real, gap.imag) / tol[j]
        k = int(np.argmin(ratio))
        warnings.warn(
            f"roots {complex(found[i[k]])!r} and {complex(found[j[k]])!r} of f^{n}(z) = z "
            f"lie {ratio[k]:.1f} dedup_tol apart; level {n} is near the resolution "
            "limit, lower dedup_tol", stacklevel=3)


def _classify_multiplier(lam: complex, tol_class: float) -> str:
    """Stability from the multiplier: repelling/attracting outside the
    1 +- tol_class annulus, otherwise indifferent, refined to parabolic when
    the multiplier sits near a root of unity of order <= 64."""
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


def group_into_orbits(roots: IterateRoots, qmap: QuadraticMap, n: int,
                      cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[PeriodicOrbit]:
    """Partition Fix(f^n), given as the columns of `roots` in any order, into
    cycles; each orbit carries its minimal period (its cycle length),
    multiplier, stability class and multiplicity (the largest of its points').

    pi(i) is the one enumerated point within 10 dedup_tol max(1, |f(z_i)|) of
    f(z_i), or within 1e-6 max(1, |f(z_i)|) when z_i is a multiple root; the
    points within tolerance of every image come from one `_radius_pairs`
    search.  AmbiguousOrbitError is raised when f(z_i) matches no point (the
    message gives the distance to the nearest one), when it matches two, when
    pi is not a bijection, or when pi^n is not the identity, so that some
    cycle's length does not divide n.  Each cycle of pi is one orbit, listed
    from its lexicographically smallest point; the multiplier is the product
    of 2 z along it.  Cycle lengths and heads come from n vectorized steps of
    pi in O(N) memory, so Python loops once per orbit, not once per point.
    """
    order = np.argsort(roots.z, kind="stable")
    z, mult = roots.z[order], roots.multiplicity[order]
    image = z * z + qmap.c
    # Multiple roots carry the ~sqrt(eps) accuracy floor of a collapsed
    # collision, so their images match at a coarser tolerance.
    tol = np.where(mult > 1, 1e-6, 10.0 * cfg.dedup_tol) * np.maximum(1.0, np.abs(image))
    i, j = _radius_pairs(z, tol, image)
    hits = np.bincount(i, minlength=len(z))
    unmatched = np.flatnonzero(hits == 0)
    if len(unmatched):
        gap = image[unmatched[0]] - z
        raise AmbiguousOrbitError(
            f"orbit image {complex(image[unmatched[0]])!r} matches no enumerated point "
            f"(min dist {np.hypot(gap.real, gap.imag).min():.2e})")
    doubled = np.flatnonzero(hits > 1)
    if len(doubled):
        raise AmbiguousOrbitError(
            f"orbit image {complex(image[doubled[0]])!r} matches two points "
            "within tolerance; raise precision")
    pi = np.empty(len(z), dtype=np.intp)
    pi[i] = j
    if np.any(np.bincount(pi, minlength=len(z)) != 1):
        raise AmbiguousOrbitError("cycle overlap: two orbits share a point")

    # Walk pi^k(i) for k = 1..n: the first k with pi^k(i) = i is the cycle
    # length of i, and its head, the smallest index on the cycle, lies `ahead`
    # steps on.  Every point of Fix(f^n) must be back after n steps.
    index = np.arange(len(z))
    length = np.zeros(len(z), dtype=int)
    head = index.copy()
    ahead = np.zeros(len(z), dtype=int)
    j = index
    for k in range(1, n + 1):
        j = pi[j]
        closer = j < head
        head[closer] = j[closer]
        ahead[closer] = k
        length[(j == index) & (length == 0)] = k
    bad = np.flatnonzero(j != index)
    if len(bad):
        # the failing cycle with the smallest head, walked in full
        i = int(head[bad].min())
        cycle = [i]
        while pi[cycle[-1]] != i:
            cycle.append(int(pi[cycle[-1]]))
        raise AmbiguousOrbitError(
            f"cycle through {complex(z[i])!r} has length {len(cycle)}, which does "
            f"not divide level {n}")

    # Orbits by (minimal period, head), each from its head in cycle order;
    # index order is (re, im) order, so the head is the smallest point.
    walk = np.lexsort(((length - ahead) % length, head, length))
    starts = np.flatnonzero(head[walk] == walk)
    zs = z[walk].tolist()
    twice = (2.0 * z[walk]).tolist()
    orbits: list[PeriodicOrbit] = []
    for s, m, mu in zip(starts.tolist(), length[walk[starts]].tolist(),
                        np.maximum.reduceat(mult[walk], starts).tolist()):
        lam = math.prod(twice[s:s + m], start=1.0 + 0.0j)
        orbits.append(PeriodicOrbit(
            points=tuple(zs[s:s + m]), minimal_period=m, multiplier=lam,
            stability=_classify_multiplier(lam, DEFAULT_CLASS_TOL), multiplicity=mu))
    return orbits


def julia_orbits(qmap: QuadraticMap, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                 minimal_only: bool = True) -> list[PeriodicOrbit]:
    """Orbits at level n restricted to the Julia set: attracting cycles are
    dropped, indifferent candidates kept (flagged by their stability class)."""
    orbits = group_into_orbits(fixed_points_of_iterate(qmap, n, cfg), qmap, n, cfg)
    kept = [o for o in orbits if o.stability != ATTRACTING]
    if minimal_only:
        kept = [o for o in kept if o.minimal_period == n]
    return kept
