"""Finite-level estimators of the geometric pressure for f_c.

Two routes to the same limit: the periodic estimator sums |(f^n)'|^-t over
the fixed points of f^n on the Julia set, read off the cycle multipliers; the
tree estimator sums the same weight over the 2^n preimages of a basepoint.
Both are aggregated in log space, and the comparison reports the finite-level
discrepancy without extrapolating the limit (a limsup is not observable at
finite n).

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
    """log|(f^n)'(z)| = (n/m) log|lambda| for every point z of Fix(f^n) on the
    Julia set, orbit by orbit (minimal period m, multiplier lambda)."""
    orbits = julia_orbits(qmap, n, cfg, minimal_only=False)
    return np.repeat([n / len(o) * math.log(abs(o.multiplier)) for o in orbits],
                     [len(o) for o in orbits])


def _tree_log_derivatives(qmap: QuadraticMap, z: complex, n: int) -> np.ndarray:
    """log|(f^n)'(x)| over the 2^n preimages x of z.

    The basepoint must avoid the forward critical orbit: a tree node equal to
    the critical value collapses a branch and the weight degenerates there.
    """
    _, log_derivs = preimage_tree(qmap, z, n)
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
    return log_derivs


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a), as scipy.special.logsumexp (scipy 1.17) computes it for
    a real array: the m ties at the maximum a_max are taken out of the sum s
    of exp(a - a_max) over the rest, the result is log1p(s / m) + log m +
    a_max, and log sum exp(a) where that is not finite."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        ties = a == a_max
        m = np.sum(ties, dtype=float)
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _estimate(log_derivs: np.ndarray, t: float, n: int, mode: str,
              basepoint: complex | None = None) -> PressureEstimate:
    log_sum = _logsumexp(-t * log_derivs)
    return PressureEstimate(t=t, n=n, log_sum=log_sum, value=log_sum / n,
                            mode=mode, basepoint=basepoint)


def periodic_pressure_estimate(qmap: QuadraticMap, t: float, n: int,
                               cfg: PrecisionConfig = DEFAULT_CONFIG) -> PressureEstimate:
    """(1/n) log sum of |(f^n)'(z)|^-t over Fix(f^n) restricted to the Julia
    set (attracting cycle points dropped, indifferent candidates kept)."""
    _warn_negative_t(t)
    return _estimate(_julia_log_derivatives(qmap, n, cfg), t, n, MODE_PERIODIC)


def tree_pressure_estimate(qmap: QuadraticMap, z: complex, t: float, n: int) -> PressureEstimate:
    """(1/n) log sum of |(f^n)'(x)|^-t over the 2^n preimages x of z, which
    must avoid the forward critical orbit (BranchPointError otherwise)."""
    _warn_negative_t(t)
    return _estimate(_tree_log_derivatives(qmap, z, n), t, n, MODE_TREE, complex(z))


def default_tree_basepoint(qmap: QuadraticMap) -> complex:
    """Reproducible generic basepoint: low potential on the 1/7 ray, far from
    the measure-zero exceptional set."""
    from .rays import ray_point

    return ray_point(qmap, Angle(1, 7), 0.01)


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
    for t in ts:
        _warn_negative_t(t)
    z = complex(z)
    estimates: list[PressureEstimate] = []
    for level in ([n] if n <= 1 else [n - 1, n]):
        tree = _tree_log_derivatives(qmap, z, level)
        periodic = _julia_log_derivatives(qmap, level, cfg)
        pairs = [(_estimate(periodic, t, level, MODE_PERIODIC),
                  _estimate(tree, t, level, MODE_TREE, z)) for t in ts]
        estimates += [e for pair in pairs for e in pair]
    # pairs now holds level n
    disc = max((abs(per.value - tre.value) for per, tre in pairs), default=0.0)
    return PressureCurve(t_grid=tuple(ts), estimates=tuple(estimates), discrepancy=disc)
