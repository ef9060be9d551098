"""Core evaluation of f_c(z) = z^2 + c: iterates, orbit derivatives,
Green potential of the basin of infinity, and inverse-image trees.

Everything here is a pure function of its inputs; all other modules build
on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadrayError


def _require_finite(z: complex, what: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise QuadrayError(f"{what} must be finite, got {z!r}")


@dataclass(frozen=True)
class QuadraticMap:
    """The map z -> z^2 + c for a fixed finite parameter c."""

    c: complex

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        _require_finite(self.c, "parameter c")

    @property
    def escape_radius(self) -> float:
        """Radius beyond which |f(z)| > |z| is guaranteed: max(4, 2|c|)."""
        return max(4.0, 2.0 * abs(self.c))


@dataclass(frozen=True)
class PrecisionConfig:
    """The two tolerances of the enumeration of Fix(f^n).

    newton_tol bounds the first-order error estimate |g(z)| / max(1, |g'(z)|)
    accepted for a refined root (the raw residual |g(z)| is meaningless near
    super-repelling chains where its evaluation noise exceeds any fixed
    tolerance).  dedup_tol is relative: points z, w coincide when
    |z - w| <= dedup_tol * max(1, |z|).
    """

    newton_tol: float = 1e-9
    dedup_tol: float = 1e-9

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if not self.dedup_tol >= self.newton_tol:
            raise ValueError("dedup_tol must be >= newton_tol")


DEFAULT_CONFIG = PrecisionConfig()
#: green_potential gives up on escape after this many steps
GREEN_ESCAPE_STEPS = 4096


def orbit_with_derivative(qmap: QuadraticMap, z, n: int):
    """Vectorized (f^n(z), (f^n)'(z)) for an array of starting points.

    Overflow is tolerated (entries become non-finite); callers filter.
    """
    w = np.asarray(z, dtype=complex).copy()
    d = np.ones_like(w)
    with np.errstate(all="ignore"):
        if w.size <= 1:
            # an in-place ufunc costs about 3x more on a one-point array
            for _ in range(n):
                d = d * 2.0 * w
                w = w * w + qmap.c
            return w, d
        # in place, in the order of d = d * 2 * w, w = w * w + c
        for _ in range(n):
            d *= 2.0
            d *= w
            w *= w
            w += qmap.c
    return w, d


def green_potential(qmap: QuadraticMap, z: complex) -> float:
    """Green's function of the basin of infinity: lim 2^-k log|f^k(z)|.

    Returns 0.0 for points that fail to escape within GREEN_ESCAPE_STEPS steps;
    satisfies G(f(z)) = 2 G(z) on escaping orbits.
    """
    z = complex(z)
    _require_finite(z, "z")
    r_esc = qmap.escape_radius
    for k in range(GREEN_ESCAPE_STEPS):
        a = abs(z)
        if a > 1e12:
            # Beyond this point log|z_k| carries the limit to full precision.
            return math.log(a) * 2.0 ** (-k)
        z = z * z + qmap.c
    a = abs(z)
    if a > r_esc:
        # Escaped but slowly; use what we have.
        return math.log(a) * 2.0 ** (-GREEN_ESCAPE_STEPS)
    return 0.0


def preimage_tree(qmap: QuadraticMap, z: complex, n: int):
    """Full backward tree under f^n rooted at z.

    Returns (leaves, log_derivatives) where leaves[i] enumerates the 2^n
    preimages (with multiplicity at a branch-point hit) and
    log_derivatives[i] = log|(f^n)'(leaves[i])| accumulated along the path.
    The leaves are the plain binary64 square-root expansion, unrefined:
    enumeration uses them only as Newton seeds and pressure reads only the
    log-derivatives.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z = complex(z)
    _require_finite(z, "z")
    leaves = np.array([z], dtype=complex)
    logd = np.zeros(1)
    with np.errstate(all="ignore"):
        for _ in range(n):
            w = np.sqrt(leaves - qmap.c)
            a = np.abs(w)
            inc = np.where(a > 0, np.log(np.maximum(a, 1e-300) * 2.0), -np.inf)
            leaves = np.concatenate([w, -w])
            logd = np.concatenate([logd + inc, logd + inc])
    return leaves, logd
