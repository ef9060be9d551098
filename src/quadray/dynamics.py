"""Core evaluation of f_c(z) = z^2 + c: iterates, orbit derivatives,
Green potential of the basin of infinity, and inverse-image trees.

Everything here is a pure function of its inputs; all other modules build
on these primitives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import BranchPointError, EscapeError, PrecisionError, QuadrayError

#: Orbits are truncated once they pass this radius; at that size the escape
#: to infinity is unconditional for any parameter this package accepts.
TRUNCATION_RADIUS = 1e8


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

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    @property
    def escape_radius(self) -> float:
        """Radius beyond which |f(z)| > |z| is guaranteed: max(4, 2|c|)."""
        return max(4.0, 2.0 * abs(self.c))


@dataclass(frozen=True)
class PrecisionConfig:
    """Numerical knobs shared by the root finders and potential routines.

    newton_tol bounds the first-order error estimate |g(z)| / max(1, |g'(z)|)
    accepted for a refined root (the raw residual |g(z)| is meaningless near
    super-repelling chains where its evaluation noise exceeds any fixed
    tolerance).  dedup_tol is relative: points z, w coincide when
    |z - w| <= dedup_tol * max(1, |z|).
    """

    mantissa_bits: int = 53
    newton_tol: float = 1e-9
    dedup_tol: float = 1e-9
    max_iter: int = 4096

    def __post_init__(self):
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be >= 53")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.dedup_tol < self.newton_tol:
            raise ValueError("dedup_tol must be >= newton_tol")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


DEFAULT_CONFIG = PrecisionConfig()


@dataclass
class OrbitSegment:
    """A finite forward orbit z_0, f(z_0), ..., possibly truncated on escape."""

    points: list[complex]
    map: QuadraticMap
    escaped: bool = False

    def __len__(self) -> int:
        return len(self.points)


def evaluate(qmap: QuadraticMap, z: complex) -> complex:
    """One application of the map: z^2 + c."""
    z = complex(z)
    _require_finite(z, "z")
    w = z * z + qmap.c
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise QuadrayError(f"evaluation overflowed at z={z!r}")
    return w


def iterate_orbit(qmap: QuadraticMap, z: complex, n: int) -> OrbitSegment:
    """Forward orbit of length n+1, truncated (and flagged) past the
    truncation radius."""
    if n < 0:
        raise ValueError("n must be >= 0")
    z = complex(z)
    _require_finite(z, "z")
    pts = [z]
    escaped = abs(z) > TRUNCATION_RADIUS
    for _ in range(n):
        if escaped:
            break
        z = z * z + qmap.c
        pts.append(z)
        if abs(z) > TRUNCATION_RADIUS:
            escaped = True
    return OrbitSegment(points=pts, map=qmap, escaped=escaped)


def derivative_along_orbit(qmap: QuadraticMap, z: complex, n: int) -> complex:
    """(f^n)'(z) by the chain rule: the product of 2*z_i over the orbit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = complex(z)
    d = 1.0 + 0.0j
    for _ in range(n):
        d *= 2.0 * z
        z = z * z + qmap.c
    return d


def orbit_with_derivative(qmap: QuadraticMap, z, n: int):
    """Vectorized (f^n(z), (f^n)'(z)) for an array of starting points.

    Overflow is tolerated (entries become non-finite); callers filter.
    """
    w = np.asarray(z, dtype=complex).copy()
    d = np.ones_like(w)
    with np.errstate(all="ignore"):
        for _ in range(n):
            d = d * 2.0 * w
            w = w * w + qmap.c
    return w, d


def green_potential(qmap: QuadraticMap, z: complex, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Green's function of the basin of infinity: lim 2^-k log|f^k(z)|.

    Returns 0.0 for points that fail to escape within cfg.max_iter; satisfies
    G(f(z)) = 2 G(z) on escaping orbits.
    """
    z = complex(z)
    _require_finite(z, "z")
    r_esc = qmap.escape_radius
    for k in range(cfg.max_iter):
        a = abs(z)
        if a > 1e12:
            # Beyond this point log|z_k| carries the limit to full precision.
            return math.log(a) * 2.0 ** (-k)
        z = z * z + qmap.c
    a = abs(z)
    if a > r_esc:
        # Escaped but slowly; use what we have.
        return math.log(a) * 2.0 ** (-(cfg.max_iter))
    return 0.0


def _mp_preimage_tree(c: complex, z: complex, n: int, bits: int):
    """Software floating-point backward tree (leaves, path log-derivatives)."""
    with mp.workprec(bits):
        cc = mp.mpc(c)
        level = [(mp.mpc(z), mp.mpf(0))]
        for _ in range(n):
            nxt = []
            for w, ld in level:
                s = mp.sqrt(w - cc)
                if s == 0:
                    nxt.append((s, mp.mpf("-inf")))
                    nxt.append((-s, mp.mpf("-inf")))
                    continue
                inc = mp.log(2 * abs(s))
                nxt.append((s, ld + inc))
                nxt.append((-s, ld + inc))
            level = nxt
        leaves = np.array([complex(w) for w, _ in level])
        logd = np.array([float(ld) for _, ld in level])
    return leaves, logd


def _expand_tree(c: complex, z: complex, depth: int):
    leaves = np.array([z], dtype=complex)
    logd = np.zeros(1)
    with np.errstate(all="ignore"):
        for _ in range(depth):
            w = np.sqrt(leaves - c)
            a = np.abs(w)
            inc = np.where(a > 0, np.log(np.maximum(a, 1e-300) * 2.0), -np.inf)
            leaves = np.concatenate([w, -w])
            logd = np.concatenate([logd + inc, logd + inc])
    return leaves, logd


def preimage_tree(qmap: QuadraticMap, z: complex, n: int,
                  cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Full backward tree under f^n rooted at z.

    Returns (leaves, log_derivatives) where leaves[i] enumerates the 2^n
    preimages (with multiplicity at a branch-point hit) and
    log_derivatives[i] = log|(f^n)'(leaves[i])| accumulated along the path.
    Leaves are refined by one vectorized Newton pass against f^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z = complex(z)
    _require_finite(z, "z")
    if cfg.mantissa_bits > 53:
        return _mp_preimage_tree(qmap.c, z, n, cfg.mantissa_bits)
    leaves, logd = _expand_tree(qmap.c, z, n)
    if n >= 1:
        leaves = _refine_preimages(qmap, z, n, leaves, cfg)
    return leaves, logd


def _refine_preimages(qmap, z, n, leaves, cfg):
    """One-or-two Newton corrections on f^n(x) = z for every leaf."""
    x = leaves
    with np.errstate(all="ignore"):
        for _ in range(2):
            w, d = orbit_with_derivative(qmap, x, n)
            step = (w - z) / d
            usable = np.isfinite(step) & (np.abs(d) > 1e-100)
            x = np.where(usable, x - step, x)
    return x


def preimages(qmap: QuadraticMap, z: complex, n: int,
              cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[complex]:
    """All 2^n solutions of f^n(x) = z, with multiplicity, sorted by (re, im).

    A branch-point hit (some tree node equal to c) produces the double root 0
    twice.  Raises PrecisionError when the refined leaves fail the residual
    contract.
    """
    leaves, _ = preimage_tree(qmap, z, n, cfg)
    if n >= 1 and cfg.mantissa_bits == 53:
        w, d = orbit_with_derivative(qmap, leaves, n)
        err = np.abs(w - z) / np.maximum(1.0, np.abs(d))
        if not np.all(np.isfinite(leaves)) or float(np.max(err)) > cfg.newton_tol:
            raise PrecisionError(
                f"preimage refinement at depth {n} exceeded newton_tol; "
                "raise mantissa_bits")
    order = np.lexsort((leaves.imag, leaves.real))
    return [complex(v) for v in leaves[order]]
