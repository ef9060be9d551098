"""Sup-metric clustering of periodic orbits, orbit counting near indifferent
points, disc-pattern counting, and distortion measurement.

The orbit-to-orbit distance rho_n takes the max of pointwise distances along
one period, minimized over cyclic alignment of base points.  Bunches require
*pairwise* closeness, so clusters come from complete-linkage agglomeration
(a certified lower bound for the largest bunch) cut strictly below the
threshold r, with the largest connected component of the graph
{rho_n < r} reported as the matching upper bound.

Only the pairs with rho_n < r are ever computed in full.  Each orbit, and
each of its n cyclic rotations, is a vector in R^(2n) (real parts, then
imaginary parts).  Since max(|Re w|, |Im w|) <= |w|, the L-infinity distance
between the base vector of y and a rotation of x never exceeds the sup
distance at that alignment, so a KD-tree query for L-infinity distance <= r
returns every (orbit, orbit, shift) triple with rho_n < r, and usually few
others; rho_n is then evaluated exactly on those candidates only.

Complete linkage merges two clusters at the largest distance between their
members, so every cluster below the cut is pairwise closer than r and lies
inside one connected component of {rho_n < r}.  Components therefore never
merge below the cut, and clustering each component on its own (with the
same distances, in the same index order) gives the clusters of clustering
all orbits at once.

scipy (linkage, sparse components, the KD-tree) loads on first use, so
importing the package stays cheap: the first clustering in a process pays
for it.  The scipy functions then live on as module attributes
(`bunches.linkage`, `bunches.fcluster`, ...), which can be patched.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, orbit_with_derivative
from .errors import EscapeError, QuadrayError
from .orbits import PeriodicOrbit, julia_orbits

MODE_H = "H"
MODE_BMS = "BMS"

DISTORTION_SAMPLE_PAIRS = 2048

#: Peak bytes per entry of the (K n, n) rotated orbit array of _close_pairs:
#: tracemalloc measures 2.3-2.5 complex arrays of that size at the peak of the
#: search (n = 8..14); three bound it.
BYTES_PER_ROTATION_ENTRY = 3 * 16
#: K orbits of period n hold K n^2 rotated points, and K grows like 2^n / n:
#: searches that would pass this many bytes are refused before any is built.
CLUSTER_BUDGET_BYTES = 2 ** 31
#: rho_n is evaluated over the candidate triples of _close_pairs in chunks of
#: this many bytes of gathered points, however many candidates there are.
CHUNK_BYTES = 2 ** 20
#: Peak bytes per entry of a component's K x K rho_n matrix: tracemalloc
#: measures 41 bytes per entry while the matrix is built, linked and
#: certified (K = 335, n = 12); six doubles bound it.
BYTES_PER_DISTANCE_ENTRY = 6 * 8

#: where each scipy name used here is imported from, on first use
_SCIPY = {"linkage": "scipy.cluster.hierarchy", "fcluster": "scipy.cluster.hierarchy",
          "coo_matrix": "scipy.sparse", "connected_components": "scipy.sparse.csgraph",
          "cKDTree": "scipy.spatial"}


def __getattr__(name: str):
    """Import a scipy name of _SCIPY on first access and bind it here, so
    later lookups (and patches) go through the module globals."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY[name]), name)
    globals()[name] = value
    return value


def _scipy(name: str):
    """The scipy function `name` as this module binds it now, patched or
    not; imported on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


@dataclass(frozen=True)
class BunchReport:
    n: int
    mode: str
    threshold: float
    clusters: tuple[tuple[int, ...], ...]
    max_cluster: int
    bound: float            # exp(delta * n) in H mode, 2n in BMS mode
    hard_bound: int         # the 2n bound, always
    passed: bool
    component_max: int = 0  # connectivity upper bound on the largest bunch

    def to_dict(self) -> dict:
        return {"n": self.n, "mode": self.mode, "threshold": self.threshold,
                "clusters": [list(c) for c in self.clusters],
                "max_cluster": self.max_cluster, "bound": self.bound,
                "component_max": self.component_max, "pass": self.passed}


@dataclass(frozen=True)
class DiscPattern:
    """p discs repeated n times around a cycle; C-scaled copies must be
    pairwise disjoint."""

    centers: tuple[complex, ...]
    radii: tuple[float, ...]
    p: int
    n: int
    C: float

    def __post_init__(self):
        if len(self.centers) != self.p or len(self.radii) != self.p:
            raise ValueError("need exactly p centers and radii")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        for i in range(self.p):
            for j in range(i + 1, self.p):
                if abs(self.centers[i] - self.centers[j]) <= self.C * (self.radii[i] + self.radii[j]):
                    raise QuadrayError(
                        f"C-scaled discs {i} and {j} are not disjoint")

    def separation_ok(self, r0: float, delta: float) -> bool:
        """diam B_i <= r0 exp(-delta n p) dist(C B_i, critical point)."""
        bound = r0 * math.exp(-delta * self.n * self.p)
        for ctr, rad in zip(self.centers, self.radii):
            dist_crit = abs(ctr) - self.C * rad
            if dist_crit <= 0 or 2.0 * rad > bound * dist_crit:
                return False
        return True

    @classmethod
    def around_orbit(cls, orbit: PeriodicOrbit, n: int,
                     delta: float, r0: float, C: float = 2.0) -> "DiscPattern":
        """Largest admissible pattern around a cycle: radii saturate the
        separation inequality with a 10% margin."""
        p = orbit.minimal_period
        bound = r0 * math.exp(-delta * n * p)
        radii = []
        for ctr in orbit.points:
            d_crit = abs(ctr)
            if d_crit == 0:
                raise QuadrayError("pattern center at the critical point")
            radii.append(0.9 * bound * d_crit / (2.0 + C * bound))
        return cls(centers=tuple(orbit.points), radii=tuple(radii), p=p, n=n, C=C)


@dataclass(frozen=True)
class PatternCountReport:
    count: int
    bound: int
    passed: bool


@dataclass(frozen=True)
class DistortionReport:
    center: complex
    r: float
    n: int
    sup_ratio_minus_one: float
    per_step_log_derivative_bound: float


def orbit_metric(qmap: QuadraticMap, x: complex, y: complex, n: int) -> float:
    """max over i < n of |f^i(x) - f^i(y)| (Euclidean stand-in for the
    spherical metric; bi-Lipschitz equivalent on the bounded dynamical region)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    radius = max(qmap.escape_radius, 1e8)
    x, y = complex(x), complex(y)
    best = 0.0
    for _ in range(n):
        best = max(best, abs(x - y))
        x = x * x + qmap.c
        y = y * y + qmap.c
        if abs(x) > radius or abs(y) > radius:
            raise EscapeError("an orbit escaped inside the metric window")
    return best


def _orbit_array(orbits: list[PeriodicOrbit], n: int) -> np.ndarray:
    """The (K, n) array of K orbits' points in cycle order, (0, n) for none;
    raises QuadrayError when an orbit's minimal period is not n."""
    if any(o.minimal_period != n for o in orbits):
        raise QuadrayError(f"all orbits must have minimal period {n}")
    return np.array([o.points for o in orbits], dtype=complex).reshape(len(orbits), n)


def _orbit_distance_matrix(A: np.ndarray) -> np.ndarray:
    """Pairwise rho_n between the rows of the (K, n) orbit array A, minimized
    over cyclic base alignment."""
    K, n = A.shape
    D = np.full((K, K), np.inf)
    for rot in range(n):
        rolled = np.roll(A, -rot, axis=1)
        cur = np.zeros((K, K))
        for i in range(n):
            cur = np.maximum(cur, np.abs(rolled[:, None, i] - A[None, :, i]))
        D = np.minimum(D, cur)
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    return D


def _close_pairs(A: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Orbit index pairs (a, b), a != b, with rho_n < threshold.

    A is the (K, n) array of orbit points.  Candidates come from an
    L-infinity KD-tree query of every cyclic rotation against every base
    vector; rho_n is then computed exactly for the candidates only, in
    chunks of CHUNK_BYTES of gathered points.
    """
    K, n = A.shape
    shift = np.arange(n)
    rotated = A[:, (shift[:, None] + shift) % n].reshape(K * n, n)  # row a * n + rot

    def tree(Z):
        # at n = 14 (28 dimensions) leaves of 64 query 1.5-3x faster than
        # the default 16
        return _scipy("cKDTree")(np.concatenate([Z.real, Z.imag], axis=1), leafsize=64)

    cand = tree(A).sparse_distance_matrix(tree(rotated), threshold, p=np.inf,
                                          output_type="ndarray")
    b, j = cand["i"].astype(np.intp), cand["j"].astype(np.intp)
    del cand
    a = j // n
    rho = np.empty(len(j))
    step = max(1, CHUNK_BYTES // (16 * n))
    for lo in range(0, len(j), step):
        part = slice(lo, lo + step)
        rho[part] = np.abs(rotated[j[part]] - A[b[part]]).max(axis=1)
    keep = (a != b) & (rho < threshold)
    return a[keep], b[keep]


def close_pair_bytes(K: int, n: int) -> int:
    """Peak bytes of the close-pair search over K orbits of period n: the
    K n^2 rotated points, their float copy for the KD-tree and the input."""
    return BYTES_PER_ROTATION_ENTRY * K * n * n


def distance_matrix_bytes(k: int) -> int:
    """Peak bytes of clustering one component of k orbits: its k x k rho_n
    matrix and the temporaries that build it."""
    return BYTES_PER_DISTANCE_ENTRY * k * k


def bunch_clusters(orbits: list[PeriodicOrbit], mode: str, param: float) -> BunchReport:
    """Cluster same-period orbits under rho_n.

    mode "H": param is delta, threshold exp(-delta n), bound exp(delta n).
    mode "BMS": param is the radius r itself.
    Every emitted cluster is re-certified pairwise; a violation means the
    clustering step is buggy and raises.  Raises QuadrayError when
    close_pair_bytes exceeds CLUSTER_BUDGET_BYTES, before the search, and
    when distance_matrix_bytes of the largest component does, before any
    distance matrix is built.
    """
    if mode not in (MODE_H, MODE_BMS):
        raise ValueError("mode must be 'H' or 'BMS'")
    if not orbits:
        return BunchReport(n=0, mode=mode, threshold=0.0, clusters=(),
                           max_cluster=0, bound=0.0, hard_bound=0, passed=True)
    n = orbits[0].minimal_period
    A = _orbit_array(orbits, n)
    threshold = math.exp(-param * n) if mode == MODE_H else float(param)
    bound = math.exp(param * n) if mode == MODE_H else float(2 * n)

    K = len(orbits)
    if close_pair_bytes(K, n) > CLUSTER_BUDGET_BYTES:
        raise QuadrayError(
            f"{K} orbits of period {n} need about {close_pair_bytes(K, n) / 2 ** 30:.1f} GiB "
            f"for the close-pair search, over the {CLUSTER_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")
    a, b = _close_pairs(A, threshold)
    graph = _scipy("coo_matrix")((np.ones(len(a), dtype=bool), (a, b)), shape=(K, K))
    _, comp_labels = _scipy("connected_components")(graph, directed=False)
    sizes = np.bincount(comp_labels)
    comp_max = int(sizes.max())

    if distance_matrix_bytes(comp_max) > CLUSTER_BUDGET_BYTES:
        raise QuadrayError(
            f"a component of {comp_max} orbits needs about "
            f"{distance_matrix_bytes(comp_max) / 2 ** 30:.1f} GiB for its distance matrix, "
            f"over the {CLUSTER_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")

    cut = np.nextafter(threshold, 0.0)  # strict rho_n < threshold
    groups = []
    linkage, fcluster = _scipy("linkage"), _scipy("fcluster")
    order = np.argsort(comp_labels, kind="stable")
    for members in np.split(order, np.cumsum(sizes)[:-1]):
        if len(members) == 1:
            groups.append(members.tolist())
            continue
        D = _orbit_distance_matrix(A[members])
        condensed = D[np.triu_indices(len(members), 1)]
        labels = fcluster(linkage(condensed, method="complete"), t=cut,
                          criterion="distance")
        for lab in np.unique(labels):
            local = np.flatnonzero(labels == lab)
            if not (D[np.ix_(local, local)] < threshold).all():
                raise QuadrayError(
                    "internal error: emitted cluster fails the pairwise certificate")
            groups.append(members[local].tolist())
    clusters = tuple(tuple(g) for g in sorted(groups, key=lambda g: (-len(g), g)))

    max_cluster = max(len(c) for c in clusters)
    return BunchReport(n=n, mode=mode, threshold=threshold, clusters=clusters,
                       max_cluster=max_cluster, bound=bound, hard_bound=2 * n,
                       passed=max_cluster <= min(bound, 2 * n),
                       component_max=comp_max)


def verify_hypothesis_h(qmap: QuadraticMap, n: int, delta: float,
                        cfg: PrecisionConfig = DEFAULT_CONFIG,
                        orbits: list[PeriodicOrbit] | None = None) -> BunchReport:
    """Enumerate the minimal-period-n orbits on the Julia set and check that
    the largest certified bunch stays within min(exp(delta n), 2n).

    Pre-enumerated orbits may be passed to amortize scans over delta.
    """
    if orbits is None:
        orbits = julia_orbits(qmap, n, cfg, minimal_only=True)
    if not orbits:
        return BunchReport(n=n, mode=MODE_H, threshold=math.exp(-delta * n),
                           clusters=(), max_cluster=0,
                           bound=math.exp(delta * n), hard_bound=2 * n,
                           passed=True)
    return bunch_clusters(orbits, MODE_H, delta)


def count_orbits_near_point(qmap: QuadraticMap, z0: complex, p: int, n: int,
                            delta: float, r0: float,
                            cfg: PrecisionConfig = DEFAULT_CONFIG,
                            orbits: list[PeriodicOrbit] | None = None) -> int:
    """Number of minimal-period-(n p) orbits, other than the base orbit,
    entirely inside the union of discs B(f^i(z0), r_n |(f^i)'(z0)|) with
    r_n = r0 exp(-delta n p).

    z0 must be periodic of minimal period p at working tolerance.
    """
    z0 = complex(z0)
    w, _ = orbit_with_derivative(qmap, np.array([z0]), p)
    if abs(w[0] - z0) > 1e-6 * max(1.0, abs(z0)):
        raise QuadrayError(f"z0 = {z0} is not periodic of period {p} within tolerance")
    for d in range(1, p):
        if p % d == 0:
            wd, _ = orbit_with_derivative(qmap, np.array([z0]), d)
            if abs(wd[0] - z0) <= 1e-6 * max(1.0, abs(z0)):
                raise QuadrayError(f"z0 has minimal period {d}, not {p}")

    r_n = r0 * math.exp(-delta * n * p)
    centers = []
    radii = []
    z = z0
    deriv = 1.0 + 0.0j
    for _ in range(p):
        centers.append(z)
        radii.append(r_n * abs(deriv))
        deriv *= 2.0 * z
        z = z * z + qmap.c

    level = n * p
    if orbits is None:
        orbits = julia_orbits(qmap, level, cfg, minimal_only=True)
    A = _orbit_array(orbits, level)
    inside = np.zeros(A.shape, dtype=bool)
    near_base = np.zeros(len(A), dtype=bool)
    for ctr, rad in zip(centers, radii):
        dist = np.abs(A - ctr)
        inside |= dist < rad
        # The base orbit can only appear in the census when level == p.
        if level == p:
            near_base |= (dist < 1e-7).any(axis=1)
    return int((inside.all(axis=1) & ~near_base).sum())


def count_orbits_in_disc_pattern(qmap: QuadraticMap, pattern: DiscPattern,
                                 cfg: PrecisionConfig = DEFAULT_CONFIG,
                                 orbits: list[PeriodicOrbit] | None = None) -> PatternCountReport:
    """Points x in B_0 of minimal period n*p whose orbit follows the pattern:
    f^(kp+i)(x) in B_i for all k < n, i < p.  At most p such points exist.
    Point s follows it when points s + i, s + i + p, ... lie in B_i for each
    i; that depends on s mod p only, so each class counts n times."""
    p, n = pattern.p, pattern.n
    level = n * p
    if orbits is None:
        orbits = julia_orbits(qmap, level, cfg, minimal_only=True)
    A = _orbit_array(orbits, level)
    K = len(A)
    follows = np.ones((K, p), dtype=bool)  # [k, s]: starts s, s + p, ... of orbit k
    for i, (ctr, rad) in enumerate(zip(pattern.centers, pattern.radii)):
        # [k, a]: points a, a + p, ... of orbit k lie in B_i.  np.hypot rounds
        # as abs() of a complex scalar does; np.abs can differ by an ulp.
        gap = A - ctr
        in_disc = (np.hypot(gap.real, gap.imag) < rad).reshape(K, n, p).all(axis=1)
        follows &= np.roll(in_disc, -i, axis=1)
    count = n * int(follows.sum())
    return PatternCountReport(count=count, bound=p, passed=count <= p)


def _low_discrepancy_disc(center: complex, r: float, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points in a disc (Halton in polar form)."""
    # scipy.stats costs about 0.5 s and 30 MB to import; only distortion needs it
    from scipy.stats import qmc

    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    uv = sampler.random(count)
    return center + r * np.sqrt(uv[:, 0]) * np.exp(2j * np.pi * uv[:, 1])


def distortion_ratio(qmap: QuadraticMap, center: complex, r: float, n: int,
                     samples: int = DISTORTION_SAMPLE_PAIRS, period: int = 1,
                     seed: int = 0) -> DistortionReport:
    """Measure sup |(g^i)'(x) / (g^i)'(y) - 1| over sampled pairs in
    B(center, r), i <= n, for g = f^period.

    Also reports the sampled sup of |log |g'(x)|| over the initial disc (the
    per-step bound L r that controls the one-step expansion).  The first call
    in a process imports scipy.stats for the sampler (about 0.5 s)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if samples < 1:
        raise ValueError("need at least one sample pair")
    pts = _low_discrepancy_disc(complex(center), r, 2 * samples, seed)
    x = pts[:samples].copy()
    y = pts[samples:].copy()
    _, gp = orbit_with_derivative(qmap, pts, period)
    with np.errstate(divide="ignore"):
        per_step = float(np.max(np.abs(np.log(np.abs(gp)))))
    dx = np.ones_like(x)
    dy = np.ones_like(y)
    sup = 0.0
    radius = max(qmap.escape_radius, 1e8)
    for _ in range(n):
        for _ in range(period):
            dx = dx * 2.0 * x
            x = x * x + qmap.c
            dy = dy * 2.0 * y
            y = y * y + qmap.c
        if np.any(np.abs(x) > radius) or np.any(np.abs(y) > radius):
            raise EscapeError("a sampled orbit escaped inside the distortion window")
        sup = max(sup, float(np.max(np.abs(dx / dy - 1.0))))
    return DistortionReport(center=complex(center), r=float(r), n=n,
                            sup_ratio_minus_one=sup,
                            per_step_log_derivative_bound=per_step)


def good_bad_partition(orbit: PeriodicOrbit, delta: float) -> dict:
    """Indices along the cycle split by distance to the critical point 0:
    good when |f^i(x)| >= exp(-n delta / 2), bad otherwise."""
    n = orbit.minimal_period
    cutoff = math.exp(-n * delta / 2.0)
    good, bad = [], []
    for i, z in enumerate(orbit.points):
        (good if abs(z) >= cutoff else bad).append(i)
    return {"good": good, "bad": bad, "a_bound": len(bad)}
