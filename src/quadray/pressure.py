"""Finite-level estimators of the geometric pressure for f_c.

Two routes to the same limit: the periodic estimator sums |(f^n)'|^-t over
the fixed points of f^n on the Julia set; the tree estimator sums the same
weight over the 2^n preimages of a basepoint.  Both are aggregated in log
space, and the comparison reports the finite-level discrepancy without
extrapolating the limit (a limsup is not observable at finite n).

The two sums differ at finite n by more than their limits do.  The tree sum
carries the basepoint factor of the transfer operator: sum ~ h_t(z) e^{nP},
with h_t its eigenfunction, so the tree `.value` differs from the periodic
one by about log h_t(z) / n, i.e. O(1/n) (about 0.8/n at c = -1, t = 1 and
the default basepoint).  The growth rate (log_sum_n - log_sum_{n-2}) / 2
cancels that factor, and the period-2 swing both sums show when f has an
attracting 2-cycle.  `.value` stays (1/n) log_sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .angles import Angle
from .dynamics import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, preimage_tree
from .errors import BranchPointError
from .orbits import julia_orbits

MODE_PERIODIC = "periodic"
MODE_TREE = "tree"


@dataclass(frozen=True)
class PressureEstimate:
    t: float
    n: int
    log_sum: float
    value: float
    mode: str
    basepoint: complex | None = None


@dataclass(frozen=True)
class PressureCurve:
    t_grid: tuple[float, ...]
    estimates: tuple[PressureEstimate, ...]
    discrepancy: float

    def value(self, t: float, n: int, mode: str) -> float:
        for e in self.estimates:
            if e.t == t and e.n == n and e.mode == mode:
                return e.value
        raise KeyError((t, n, mode))


def _warn_negative_t(t: float) -> None:
    if t < 0:
        warnings.warn("pressure estimators are designed for t >= 0; "
                      "negative t accepted but outside the guaranteed regime",
                      stacklevel=3)


def _julia_log_derivatives(qmap: QuadraticMap, n: int,
                           cfg: PrecisionConfig) -> np.ndarray:
    """log|(f^n)'(z)| for every point z of Fix(f^n) on the Julia set, orbit
    by orbit."""
    log_derivs = []
    for orbit in julia_orbits(qmap, n, cfg, minimal_only=False):
        for z in orbit.points:
            w = z
            log_deriv = 0.0
            for _ in range(n):
                log_deriv += math.log(2.0 * abs(w))
                w = w * w + qmap.c
            log_derivs.append(log_deriv)
    return np.array(log_derivs)


def _periodic_estimate(log_derivs: np.ndarray, t: float, n: int) -> PressureEstimate:
    log_sum = float(logsumexp(-t * log_derivs))
    return PressureEstimate(t=t, n=n, log_sum=log_sum, value=log_sum / n,
                            mode=MODE_PERIODIC)


def periodic_pressure_estimate(qmap: QuadraticMap, t: float, n: int,
                               cfg: PrecisionConfig = DEFAULT_CONFIG) -> PressureEstimate:
    """(1/n) log sum of |(f^n)'(z)|^-t over Fix(f^n) restricted to the Julia
    set (attracting cycle points dropped, indifferent candidates kept)."""
    _warn_negative_t(t)
    return _periodic_estimate(_julia_log_derivatives(qmap, n, cfg), t, n)


def tree_pressure_estimate(qmap: QuadraticMap, z: complex, t: float, n: int,
                           cfg: PrecisionConfig = DEFAULT_CONFIG) -> PressureEstimate:
    """(1/n) log sum of |(f^n)'(x)|^-t over the 2^n preimages x of z.

    The basepoint must avoid the forward critical orbit: a tree node equal to
    the critical value collapses a branch and the weight degenerates there.
    """
    _warn_negative_t(t)
    z = complex(z)
    leaves, log_derivs = preimage_tree(qmap, z, n, cfg)
    if not np.all(np.isfinite(log_derivs)):
        # A path passed through 0, i.e. some tree node equals c; that happens
        # exactly when z lies on the forward orbit of the critical point.
        level = n
        w = qmap.c
        for j in range(1, n + 1):
            if w == z:
                level = n - j + 1
                break
            w = w * w + qmap.c
        raise BranchPointError(
            f"basepoint {z} is on the critical orbit; branch collapses at "
            f"tree level {level}", level=level)
    log_sum = float(logsumexp(-t * log_derivs))
    return PressureEstimate(t=t, n=n, log_sum=log_sum, value=log_sum / n,
                            mode=MODE_TREE, basepoint=z)


def default_tree_basepoint(qmap: QuadraticMap,
                           cfg: PrecisionConfig = DEFAULT_CONFIG) -> complex:
    """Reproducible generic basepoint: low potential on the 1/7 ray, far from
    the measure-zero exceptional set."""
    from .rays import ray_point

    return ray_point(qmap, Angle(1, 7), 0.01, cfg)


def pressure_comparison(qmap: QuadraticMap, z: complex, t_grid, n: int,
                        cfg: PrecisionConfig = DEFAULT_CONFIG) -> PressureCurve:
    """Both estimators over a t grid at levels n and n-1.

    Reports the maximal |periodic - tree| gap of `.value` at level n; no
    pass/fail is attached because the convergence rate is not quantified.
    That gap includes the tree sum's basepoint term log h_t(z) / n, which
    decays only like 1/n (about 0.8/n at c = -1, t = 1, default basepoint);
    (log_sum_n - log_sum_{n-2}) / 2 cancels it (level n-2 is not computed
    here).
    """
    ts = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    estimates: list[PressureEstimate] = []
    levels = [n] if n <= 1 else [n - 1, n]
    for level in levels:
        log_derivs = _julia_log_derivatives(qmap, level, cfg)
        for t in ts:
            estimates.append(_periodic_estimate(log_derivs, t, level))
            estimates.append(tree_pressure_estimate(qmap, z, t, level, cfg))
    disc = 0.0
    for t in ts:
        per = next(e for e in estimates if e.mode == MODE_PERIODIC and e.n == n and e.t == t)
        tre = next(e for e in estimates if e.mode == MODE_TREE and e.n == n and e.t == t)
        disc = max(disc, abs(per.value - tre.value))
    return PressureCurve(t_grid=tuple(ts), estimates=tuple(estimates), discrepancy=disc)
