"""Sup-metric clustering of periodic orbits, orbit counting near indifferent
points, disc-pattern counting, and distortion measurement.

The orbit-to-orbit distance rho_n takes the max of pointwise distances along
one period, minimized over cyclic alignment of base points.  Bunches require
*pairwise* closeness, so clusters come from complete-linkage agglomeration
(a certified lower bound for the largest bunch) cut strictly below the
threshold r, with the largest connected component of the graph
{rho_n < r} reported as the matching upper bound.

Only the pairs with rho_n < r are ever computed in full.  Each orbit is
rotated to its anchor, the point of least real part, and each cyclic
rotation of an orbit is a vector in R^(2n) (real and imaginary parts).  The
chain rule along an orbit bounds how far a close orbit can be at each point,
its window radius: at most r, and down to the rounding where the orbit
expands.  Each anchored orbit takes as candidates the rotations within its
window in one coordinate, read off that coordinate's sorted order, drops
those outside its windows in any coordinate, and evaluates rho_n exactly on
the rest (the windows and the proofs are in _close_pairs).
A sweep over several thresholds (bunch_sweep) searches once, at the
largest, and each threshold keeps the pairs below it; the components of
{rho_n < r} come from label propagation over those pairs.

Complete linkage merges two clusters at the largest distance between their
members, so every cluster below the cut is pairwise closer than r and lies
inside one connected component of {rho_n < r}.  Components therefore never
merge below the cut, and clustering each component on its own (with the
same distances, in the same index order) gives the clusters of clustering
all orbits at once.  The linkage is scipy's nearest-neighbour chain, ported
with its tie rule, so that tied distances (the self-conjugate orbits of a
real c make many) merge as scipy merges them.  Everything here runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, orbit_with_derivative
from .errors import EscapeError, QuadrayError
from .orbits import PeriodicOrbit, julia_orbits

MODE_H = "H"
MODE_BMS = "BMS"

DISTORTION_SAMPLE_PAIRS = 2048

#: Peak bytes per point held by _close_pairs before its candidates: the
#: doubled copy of the K orbits, the K anchored ones and the rows searched
#: while they are built, then the K anchored orbits and the rows searched,
#: each as complex numbers and as coordinates, and each coordinate's sort
#: order: at most (3 rows + 3 K) n points of 16 bytes.
BYTES_PER_ROTATION_ENTRY = 16
#: Peak bytes per point of the window radii, W and anchored R: two doubles
BYTES_PER_RADIUS_ENTRY = 2 * 8
#: a rotation enters the close-pair search when its base point's real part
#: exceeds its orbit's least one by at most 2 r ANCHOR_SLACK; the slack
#: covers rounding (see _close_pairs)
ANCHOR_SLACK = 1.0 + 2.0 ** -40
#: K orbits of period n hold up to K n^2 rotated points, and K grows like
#: 2^n / n: searches that would pass this many bytes are refused before any
#: is built.
CLUSTER_BUDGET_BYTES = 2 ** 31
#: _close_pairs gathers and filters its candidates in chunks of this many,
#: however many there are
CHUNK_CANDIDATES = 2 ** 15
#: Peak bytes per candidate of a chunk: its query, row and sort position,
#: then its coordinate differences; tracemalloc measures about 47 (n = 8..14,
#: delta = 0.02..0.3); eight doubles bound it.
BYTES_PER_CANDIDATE = 8 * 8
#: the relative widening of each factor of the window bound (see _close_pairs)
WINDOW_SLACK = 1e-9
#: a query whose windows all lie below this share of r takes coordinate 0
NARROW_WINDOW = 1e-3
#: Bytes of array headers and small temporaries, which outweigh the rest
#: of a search over a few dozen orbits
BYTES_PER_SEARCH = 2 ** 14
#: Peak bytes per (orbit, orbit, shift) triple found: its (a, b, rho) in the
#: chunk's list and in their concatenation, the sort order and the sorted
#: copies, seven doubles.
BYTES_PER_TRIPLE = 7 * 8
#: Peak bytes per entry of a component's K x K rho_n matrix: tracemalloc
#: measures 33 bytes per entry while the matrix is built, linked and
#: certified (K = 186..630, n = 11..13); five doubles bound it.
BYTES_PER_DISTANCE_ENTRY = 5 * 8
#: the least block of _orbit_distance_matrix, in 24-byte point differences
BLOCK_POINTS = 2 ** 14

@dataclass(frozen=True)
class BunchReport:
    n: int
    mode: str
    threshold: float
    clusters: tuple[tuple[int, ...], ...]
    max_cluster: int
    bound: float            # exp(delta * n) in H mode, 2n in BMS mode
    hard_bound: int         # 2n, always; where it comes from: see bunch_sweep
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
    over cyclic base alignment: one max over the n points of every rotation
    per block of rows, a block holding at most max(K^2, BLOCK_POINTS) points."""
    K, n = A.shape
    D = np.empty((K, K))
    # rotations[a, s] is orbit a rotated to start at its point s (a view)
    rotations = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([A, A], axis=1), n, axis=1)[:, :n]
    step = max(1, max(K * K, BLOCK_POINTS) // (K * n * n))
    for i in range(0, K, step):
        D[i:i + step] = np.abs(rotations[i:i + step, :, None] - A).max(axis=3).min(axis=1)
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    return D


def _anchor_mask(A: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """The (K, n) mask of the rotations _close_pairs searches: [a, s] holds
    when point s of orbit a lies within 2 radius ANCHOR_SLACK of the least
    real part of orbit a; radius is one float or one per orbit, (K, 1)."""
    re = A.real
    return re - re.min(axis=1, keepdims=True) <= 2.0 * radius * ANCHOR_SLACK


def _window_radii(A: np.ndarray, threshold: float) -> np.ndarray:
    """The (K, n) window radii W <= r = threshold at the points of A, the
    chain-rule bound proved in _close_pairs; a non-finite A keeps W = r."""
    K, n = A.shape
    s = WINDOW_SLACK
    z = A.T  # the bound steps along the points, one row each
    nxt = np.roll(z, -1, axis=0)
    W = np.full((n, K), threshold * (1.0 + s))
    # 0 inf (at r = 0) and overflow give NaN, which np.fmin passes over
    with np.errstate(over="ignore", invalid="ignore"):
        g = nxt - z * z  # the c implied at each point
        two_eta = (math.hypot(np.ptp(g.real), np.ptp(g.imag))
                   + 2.0 ** -48 * float((np.abs(z) ** 2 + np.abs(nxt)).max())) if K else 0.0
        fac = 2.0 * (1.0 - s) * np.abs(z) - threshold * (1.0 + s)
        gain = np.divide(1.0 + s, fac, out=np.full_like(fac, np.inf), where=fac > 0)
        for _ in range(3 if math.isfinite(two_eta) else 0):
            before = W.copy()
            for k in range(n - 1, -1, -1):
                np.fmin(W[k], (W[(k + 1) % n] + two_eta) * gain[k], out=W[k])
            if np.array_equal(W, before):
                break
    return np.minimum(W, threshold).T


def _close_pairs(A: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered orbit index pairs (a, b), a != b, with rho = rho_n(a, b) <
    threshold, each pair once, sorted by (a, b).

    A is the (K, n) array of orbit points, r = threshold and W =
    _window_radii(A, r), a window radius per point.  Each orbit y is queried
    once, rotated to its anchor m (a point of least real part), against the
    rotations of _anchor_mask at each orbit's widest window.  Of its 2n real
    coordinates, the query takes the one whose window, the rows within W of
    it in that coordinate's sorted order, holds the fewest rows; a query
    whose windows are all below NARROW_WINDOW r takes coordinate 0.  The
    windows are counted, and checked against CLUSTER_BUDGET_BYTES, before any
    is gathered; then, in chunks, candidates differing by more than W in
    some coordinate are dropped and rho_n is computed exactly for the rest.

    The windows.  Let |x_k - y_k| < r at every k, for x and y aligned.  With
    g_k = z_(k+1) - z_k^2 (indices mod n) the c implied at a point, x_(k+1)
    - y_(k+1) = (x_k - y_k)(x_k + y_k) + g^x_k - g^y_k, where |x_k + y_k| >
    2 |y_k| - r and |g^x_k - g^y_k| <= 2 eta, the spread of g over A plus its
    rounding (under 8 u (|z_k|^2 + |z_(k+1)|), u = 2^-53).  So |x_k - y_k| <=
    (|x_(k+1) - y_(k+1)| + 2 eta) / (2 |y_k| - r) where that factor is
    positive.  _window_radii runs this backwards round each cycle from r for
    up to three laps, each factor widened by WINDOW_SLACK against rounding,
    and caps it at r.  By symmetry, (*) |x_k - y_k| <= W at either orbit's
    point where W < r.  An expanding orbit's windows shrink towards eta,
    never past its near duplicates.

    No pair is lost.  Let rho_n(x, y) < r at shift s, that is |x_(s+i) -
    y_i| < r for all i; the row that meets anchored y is x rotated by s + m.
    The computed |w| is a faithful rounding of hypot(Re w, Im w), so it is >=
    |fl(Re w)| and >= |fl(Im w)|, the differences the filter takes, and each
    is within a factor 1 + u of the exact one.  So with R the widest window
    of x, by (*) where W < r, each aligned coordinate differs by less than R
    / (1 - u) exactly, and by at most either orbit's W after rounding (W is a
    float and rounding monotone): the filter keeps the row.  With k a point
    of least real part of x, min Re y <= Re y_(k-s) < min Re x + R / (1 - u),
    and then Re x_(s+m) < Re y_m + R / (1 - u) < min Re x + 2 R / (1 - u).
    The mask computes fl(Re x_(s+m) - min Re x) < 2 R (1 + u) / (1 - u) and
    compares it with fl(2 R ANCHOR_SLACK) >= 2 R (1 + 2^-40)(1 - u), which is
    larger: that row is searched.  Last, the window holds it: in a coordinate
    with row value x, query value q and query window w, x - q <= w exactly,
    by (*) where w < r and, where w = r, since fl(x - q) < r and rounding is
    monotone; so x <= fl(q + w), and likewise x >= fl(q - w).  The window
    runs from the first row >= fl(q - w) (side "left") to the last row <=
    fl(q + w) (side "right").
    """
    K, n = A.shape
    W = _window_radii(A, threshold)
    mask = _anchor_mask(A, W.max(axis=1, keepdims=True))
    owner = np.nonzero(mask)[0]
    anchor = np.argmin(A.real, axis=1)
    # R[i, b]: the window radius at point i of anchored orbit b
    R = np.take_along_axis(W, (anchor[:, None] + np.arange(n)) % n, axis=1).T.copy()
    del W
    # rotations[a, s] is orbit a rotated to start at its point s (a view)
    rotations = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([A, A], axis=1), n, axis=1)[:, :n]
    anchored = rotations[np.arange(K), anchor]
    rotated = rotations[mask]
    del rotations
    # the 2n interleaved (Re, Im) coordinates, one contiguous row each:
    # Q[d, b] of anchored orbit b, X[d, j] of searched row j
    Q, X = anchored.view(float).T.copy(), rotated.view(float).T.copy()
    rows = X.shape[1]
    order = np.empty((2 * n, rows), dtype=np.intp)  # each coordinate's sort
    axis = np.zeros(K, dtype=np.intp)  # the query's window coordinate,
    lo = np.zeros(K, dtype=np.intp)    # its window's first sorted position
    count = np.full(K, rows)           # and length
    admitted = np.full(2 * n, np.inf)  # all windows of each coordinate
    wide = np.flatnonzero(R.max(axis=0) >= NARROW_WINDOW * threshold)
    for d in range(2 * n if len(wide) else 1):
        at = wide if d else np.arange(K)  # narrow queries keep coordinate 0
        order[d] = np.argsort(X[d], kind="stable")
        ranked = X[d, order[d]]
        q, w = Q[d, at], R[d // 2, at]
        left = np.searchsorted(ranked, q - w, side="left")
        size = np.maximum(np.searchsorted(ranked, q + w, side="right") - left, 0)
        fewer = size < count[at]
        axis[at[fewer]], lo[at[fewer]], count[at[fewer]] = d, left[fewer], size[fewer]
        admitted[d] = size.sum()
    total = int(count.sum())
    _check_budget(close_pair_bytes(K, n, rows, total),
                  f"the close-pair search over {total} candidates")
    ends = np.cumsum(count)
    # candidate t (counted over all queries) of query b is row
    # order.flat[t + base[b]]
    base = axis * rows + lo - (ends - count)
    found = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    kept = 0
    for start in range(0, total, CHUNK_CANDIDATES):
        stop = min(start + CHUNK_CANDIDATES, total)
        q = slice(np.searchsorted(ends, start, side="right"),
                  np.searchsorted(ends, stop - 1, side="right") + 1)
        span = np.minimum(ends[q], stop) - np.maximum(ends[q] - count[q], start)
        b = np.repeat(np.arange(q.start, q.stop), span)
        j = np.repeat(base[q], span)
        j += np.arange(start, stop)
        j = order.take(j)
        for d in np.argsort(admitted, kind="stable"):  # the most selective first
            near = np.abs(X[d].take(j) - Q[d].take(b)) <= R[d // 2].take(b)
            b, j = b[near], j[near]
        rho = np.zeros(len(j))
        for i in range(n):
            np.maximum(rho, np.abs(rotated[j, i] - anchored[b, i]), out=rho)
        a = owner[j]
        keep = (rho < threshold) & (a != b)  # every orbit meets its own anchor row
        found.append((a[keep], b[keep], rho[keep]))
        kept += len(found[-1][0])
        _check_budget(close_pair_bytes(K, n, rows, total, kept),
                      f"the close-pair search with {kept} close triples")
    del Q, X, R, anchored, rotated, order
    a, b, rho = (np.concatenate(col) for col in zip(*found))
    del found
    # a pair found at several shifts keeps the least rho, which is rho_n
    by_pair = np.lexsort((rho, b, a))
    a, b, rho = a[by_pair], b[by_pair], rho[by_pair]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[first], b[first], rho[first]


def close_pair_bytes(K: int, n: int, rows: int, candidates: int = 0, found: int = 0) -> int:
    """Peak bytes of the close-pair search over K orbits of period n, of
    which `rows` rotations are searched (the count of _anchor_mask at each
    orbit's widest window radius), whose
    windows hold `candidates` rows in all, once `found` (orbit, orbit,
    shift) triples have passed."""
    return (BYTES_PER_SEARCH + BYTES_PER_ROTATION_ENTRY * (3 * rows + 3 * K) * n
            + BYTES_PER_RADIUS_ENTRY * K * n
            + BYTES_PER_CANDIDATE * min(candidates, CHUNK_CANDIDATES) + BYTES_PER_TRIPLE * found)


def distance_matrix_bytes(k: int) -> int:
    """Peak bytes of clustering one component of k orbits: its k x k rho_n
    matrix and the temporaries that build it, the least block included."""
    return BYTES_PER_DISTANCE_ENTRY * k * k + 24 * BLOCK_POINTS


def _check_budget(need: int, what: str) -> None:
    """Raise QuadrayError when `what` needs more than CLUSTER_BUDGET_BYTES."""
    if need > CLUSTER_BUDGET_BYTES:
        raise QuadrayError(f"{what}: about {need / 2 ** 30:.1f} GiB, over the "
                           f"{CLUSTER_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")


def _components(K: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component labels of the undirected graph on K vertices with
    edges (a[i], b[i]), numbered 0, 1, ... in order of their least vertex.

    Each vertex holds the least vertex it has heard of: a round passes
    labels along every edge, then jumps each label to its label's label.
    Labels only fall and stay inside the component, so the fixed point is
    each component's least vertex."""
    label = np.arange(K)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            return np.unique(label, return_inverse=True)[1]
        label = low


def _complete_linkage(D: np.ndarray, cut: float) -> np.ndarray:
    """Flat cluster labels of complete linkage over the symmetric distance
    matrix D, joining the merges of height <= cut: the partition
    scipy.cluster.hierarchy gives as fcluster(linkage(condensed D,
    "complete"), cut, "distance").

    A port of scipy's nearest-neighbour chain.  The chain grows from the
    least live cluster; its top x steps to its nearest live cluster y, the
    lowest index among equals, unless none is strictly nearer than the
    element below x, which is then y.  Mutual neighbours merge: the lower
    index dies, the higher takes the union, and the union's distance to each
    cluster i is max(D[x, i], D[y, i]).  Complete linkage never merges below
    a child merge's height, so joining the merges of height <= cut in any
    order gives fcluster's clusters."""
    k = len(D)
    D = np.array(D, dtype=float)
    np.fill_diagonal(D, np.inf)  # and a dead cluster's row and column
    live = np.ones(k, dtype=bool)
    label = np.arange(k)
    chain = []
    for _ in range(k - 1):
        if not chain:
            chain.append(int(np.argmax(live)))
        while True:
            x = chain[-1]
            y = int(np.argmin(D[x]))
            if len(chain) > 1 and not D[x, y] < D[x, chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        if D[x, y] <= cut:
            label[label == label[x]] = label[y]
        D[y] = D[:, y] = np.maximum(D[x], D[y])
        D[x] = D[:, x] = np.inf
        live[x] = False
    return label


def _clusters(A: np.ndarray, comp_labels: np.ndarray,
              threshold: float) -> tuple[tuple[int, ...], ...]:
    """Complete-linkage clusters cut strictly below threshold, component by
    component, each re-certified pairwise; largest first, then in index order."""
    cut = np.nextafter(threshold, 0.0)  # strict rho_n < threshold
    sizes = np.bincount(comp_labels)
    alone = sizes[comp_labels] == 1
    # one stable sort lists every component's members in index order
    by_label, ends = np.argsort(comp_labels, kind="stable"), np.cumsum(sizes)
    groups = []
    for label in np.flatnonzero(sizes > 1):
        members = by_label[ends[label] - sizes[label]:ends[label]]
        D = _orbit_distance_matrix(A[members])
        labels = _complete_linkage(D, cut)
        for lab in np.unique(labels):
            local = np.flatnonzero(labels == lab)
            if not (D[np.ix_(local, local)] < threshold).all():
                raise QuadrayError(
                    "internal error: emitted cluster fails the pairwise certificate")
            alone[members[local]] = len(local) == 1
            if len(local) > 1:
                groups.append(tuple(members[local].tolist()))
    return (tuple(sorted(groups, key=lambda g: (-len(g), g)))
            + tuple(zip(np.flatnonzero(alone).tolist())))


def bunch_sweep(orbits: list[PeriodicOrbit], mode: str, params: list[float],
                n: int | None = None) -> list[BunchReport]:
    """Cluster same-period orbits under rho_n at each of params.

    mode "H": a param is delta, threshold exp(-delta n), bound exp(delta n).
    mode "BMS": a param is the radius r itself, bound 2n.  A report passes
    when its largest bunch is within min(bound, hard_bound), hard_bound = 2n.
    The paper (its abstract in PAPER.md) states only exp(delta n), for n large
    enough; 2n is this repository's own cap, the bound acceptance criterion 6
    checks at every n.
    n defaults to the orbits' period (0 with no orbits).  One close-pair
    search at the largest threshold serves every param.  Every emitted
    cluster is re-certified pairwise; a violation means the clustering step
    is buggy and raises.  Raises QuadrayError when close_pair_bytes of the
    anchored rotations exceeds CLUSTER_BUDGET_BYTES, before the search; when
    it does with the search's candidates, before they are gathered; and when
    distance_matrix_bytes of the largest component at any param does, before
    any distance matrix is built.
    """
    if mode not in (MODE_H, MODE_BMS):
        raise ValueError("mode must be 'H' or 'BMS'")
    if n is None:
        n = orbits[0].minimal_period if orbits else 0
    thresholds = [math.exp(-p * n) if mode == MODE_H else float(p) for p in params]
    bounds = [math.exp(p * n) if mode == MODE_H else float(2 * n) for p in params]
    if not orbits:
        return [BunchReport(n=n, mode=mode, threshold=t, clusters=(), max_cluster=0,
                            bound=bound, hard_bound=2 * n, passed=True)
                for t, bound in zip(thresholds, bounds)]
    A = _orbit_array(orbits, n)
    K = len(orbits)
    widest = max(thresholds)
    rows = int(_anchor_mask(A, widest).sum())
    _check_budget(close_pair_bytes(K, n, rows),
                  f"the close-pair search over {K} orbits of period {n}")
    a, b, rho = _close_pairs(A, widest)
    comp_labels = [_components(K, a[rho < t], b[rho < t]) for t in thresholds]
    comp_max = [int(np.bincount(labels).max()) for labels in comp_labels]
    _check_budget(distance_matrix_bytes(max(comp_max)),
                  f"the distance matrix of a component of {max(comp_max)} orbits")
    reports = []
    for t, bound, labels, cmax in zip(thresholds, bounds, comp_labels, comp_max):
        clusters = _clusters(A, labels, t)
        max_cluster = len(clusters[0])
        reports.append(BunchReport(n=n, mode=mode, threshold=t, clusters=clusters,
                                   max_cluster=max_cluster, bound=bound, hard_bound=2 * n,
                                   passed=max_cluster <= min(bound, 2 * n),
                                   component_max=cmax))
    return reports


def verify_hypothesis_h(qmap: QuadraticMap, n: int, delta: float,
                        cfg: PrecisionConfig = DEFAULT_CONFIG,
                        orbits: list[PeriodicOrbit] | None = None) -> BunchReport:
    """Enumerate the minimal-period-n orbits on the Julia set and check that
    the largest certified bunch stays within min(exp(delta n), 2n).

    Pre-enumerated orbits may be passed; a scan over delta runs faster as
    one bunch_sweep.
    """
    if orbits is None:
        orbits = julia_orbits(qmap, n, cfg, minimal_only=True)
    return bunch_sweep(orbits, MODE_H, [delta], n)[0]


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
    if not abs(w[0] - z0) <= 1e-6 * max(1.0, abs(z0)):  # NaN is not periodic
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


def _scrambled_halton(count: int, seed: int) -> np.ndarray:
    """The first count points (rows u, v) of scipy's qmc.Halton(d=2,
    scramble=True, seed=seed), bit for bit: Owen's randomized Halton
    (arXiv:1706.02808).  Base b shuffles its digits once for each of the
    ceil(54 / log2 b) - 1 digits a double resolves, base 2 first, from one
    generator; the digits are summed from low to high while the place value
    is divided by b, since any other order moves the last bits."""
    rng = np.random.default_rng(seed)
    uv = np.zeros((2, count))
    for u, b in zip(uv, (2, 3)):
        perms = np.tile(np.arange(b), (math.ceil(54 / math.log2(b)) - 1, 1))
        for perm in perms:
            rng.shuffle(perm)
        q, s = np.arange(count), 1.0 / b
        for perm in perms:
            u += perm[q % b] * s
            q //= b
            s /= b
    return uv


def _low_discrepancy_disc(center: complex, r: float, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points in a disc (Halton in polar form)."""
    u, v = _scrambled_halton(count, seed)
    return center + r * np.sqrt(u) * np.exp(2j * np.pi * v)


def distortion_ratio(qmap: QuadraticMap, center: complex, r: float, n: int,
                     samples: int = DISTORTION_SAMPLE_PAIRS, period: int = 1,
                     seed: int = 0) -> DistortionReport:
    """Measure sup |(g^i)'(x) / (g^i)'(y) - 1| over sampled pairs in
    B(center, r), i <= n, for g = f^period.

    Also reports the sampled sup of |log |g'(x)|| over the initial disc (the
    per-step bound L r that controls the one-step expansion)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if samples < 1:
        raise ValueError("need at least one sample pair")
    center = complex(center)
    if not np.isfinite(center):
        raise QuadrayError(f"distortion center {center} is not finite")
    if not (math.isfinite(r) and r > 0):
        raise QuadrayError(f"distortion radius {r} is not finite and positive")
    pts = _low_discrepancy_disc(center, r, 2 * samples, seed)
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
    return DistortionReport(center=center, r=float(r), n=n,
                            sup_ratio_minus_one=sup,
                            per_step_log_derivative_bound=per_step)

