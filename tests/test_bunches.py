import cmath
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.sparse.csgraph import connected_components

import quadray.bunches as bunches
from quadray import (DiscPattern, EscapeError, QuadraticMap, QuadrayError,
                     count_orbits_in_disc_pattern, count_orbits_near_point,
                     distortion_ratio, julia_orbits, orbit_metric,
                     verify_hypothesis_h)
from quadray.bunches import _orbit_array, _orbit_distance_matrix, bunch_sweep
from quadray.cli import run_command
from quadray.orbits import PeriodicOrbit
from tests.conftest import GOLDEN_ALPHA, GOLDEN_C
from tests.test_acceptance import SUITE_PARAMS, minimal_orbits


def test_metric_circle_chords(squaring):
    x = cmath.exp(2j * math.pi / 7.0)
    y = cmath.exp(2j * math.pi * 2.0 / 7.0)
    # gaps along the orbit are 1/7, 2/7, 3/7 of a turn
    expected = 2.0 * math.sin(3.0 * math.pi / 7.0)
    assert orbit_metric(squaring, x, y, 3) == pytest.approx(expected, abs=1e-12)


def test_metric_identical_points(basilica):
    assert orbit_metric(basilica, 0.25 + 0.1j, 0.25 + 0.1j, 5) == 0.0


def test_metric_antipodes(squaring):
    assert orbit_metric(squaring, 1.0, -1.0, 1) == 2.0


def test_metric_escape_raises(squaring):
    with pytest.raises(EscapeError):
        orbit_metric(squaring, 3.0, 4.0, 60)


def test_metric_properties(basilica):
    pts = [0.3 + 0.2j, -0.5 + 0.4j, 0.1 - 0.6j]
    n, m = 6, 3
    for x, y in itertools.combinations(pts, 2):
        assert orbit_metric(basilica, x, y, n) == orbit_metric(basilica, y, x, n)
        assert orbit_metric(basilica, x, y, n) >= orbit_metric(basilica, x, y, m)
    x, y, z = pts
    assert (orbit_metric(basilica, x, z, n)
            <= orbit_metric(basilica, x, y, n) + orbit_metric(basilica, y, z, n) + 1e-12)


def test_bunches_squaring_all_singletons(squaring):
    # oracle: the six period-5 cycles on the circle, pairwise rho_5 via the
    # angle formula; the closest pair stays above exp(-1)
    orbits = julia_orbits(squaring, 5)
    assert len(orbits) == 6
    angles = []
    for o in orbits:
        k = round((cmath.phase(o.points[0]) / (2 * math.pi) % 1.0) * 31)
        angles.append(k)
    min_pair = math.inf
    for a, b in itertools.combinations(range(len(orbits)), 2):
        best = math.inf
        for rot in range(5):
            worst = 0.0
            for i in range(5):
                ka = (angles[a] * 2 ** ((i + rot) % 5)) % 31
                kb = (angles[b] * 2 ** (i % 5)) % 31
                gap = abs(ka - kb) / 31.0
                gap = min(gap, 1.0 - gap)
                worst = max(worst, 2.0 * math.sin(math.pi * gap))
            best = min(best, worst)
        min_pair = min(min_pair, best)
    assert min_pair > math.exp(-1.0)

    report = bunch_sweep(orbits, "H", [0.2])[0]
    assert report.threshold == pytest.approx(math.exp(-1.0))
    assert report.max_cluster == 1
    assert len(report.clusters) == 6


def test_bunches_single_orbit(basilica):
    orbits = julia_orbits(basilica, 3)
    report = bunch_sweep(orbits[:1], "H", [0.1])[0]
    assert report.max_cluster == 1 and report.clusters == ((0,),)


def test_bunches_duplicate_orbit_degenerate(basilica, squaring):
    orbits = julia_orbits(basilica, 3)
    report = bunch_sweep([orbits[0], orbits[0]], "H", [0.1])[0]
    assert report.max_cluster == 2
    assert report.clusters[0] == (0, 1)
    # an exact copy and one moved by 1e-15 of a repelling orbit, whose
    # expansion narrows its search windows: at c = -3 (a Cantor Julia set)
    # they shrink to the rounding of the implied c, where only eta keeps the
    # moved copy in them
    for qmap in (squaring, QuadraticMap(-3.0)):
        orbits = julia_orbits(qmap, 10, minimal_only=True)
        K, base = len(orbits), orbits[7]
        moved = _orbit([z + complex(1e-15, 1e-15) for z in base.points])
        for report in bunch_sweep(orbits + [base, moved], "H", [0.1, 0.3]):
            assert report.clusters[0] == (7, K, K + 1), qmap
            assert report.max_cluster == report.component_max == 3


def test_bunches_strict_cut_boundary(squaring):
    pair = julia_orbits(squaring, 4)[:2]
    rho = _orbit_distance_matrix(_orbit_array(pair, 4))[0, 1]
    apart = bunch_sweep(pair, "BMS", [rho])[0]
    assert apart.clusters == ((0,), (1,))
    assert apart.component_max == 1
    joined = bunch_sweep(pair, "BMS", [np.nextafter(rho, np.inf)])[0]
    assert joined.clusters == ((0, 1),)
    assert joined.component_max == 2


def _dense_reference(orbits, threshold):
    """Complete linkage and components over the full rho_n matrix."""
    D = _orbit_distance_matrix(_orbit_array(orbits, orbits[0].minimal_period))
    K = len(orbits)
    labels = (fcluster(linkage(D[np.triu_indices(K, 1)], method="complete"),
                       t=np.nextafter(threshold, 0.0), criterion="distance")
              if K > 1 else np.ones(1, dtype=int))
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    clusters = tuple(tuple(g) for g in
                     sorted(groups.values(), key=lambda g: (-len(g), g)))
    _, comp = connected_components(D < threshold, directed=False)
    return clusters, max(map(len, clusters)), int(np.bincount(comp).max())


def test_sparse_clustering_matches_dense_reference():
    multi = 0
    for c in SUITE_PARAMS:
        qmap = QuadraticMap(c)
        for n in range(1, 13):
            orbits = minimal_orbits(c, n)
            if not orbits:
                continue
            for mode, param in (("H", 0.1), ("H", 0.3), ("BMS", 0.3), ("BMS", 0.6)):
                rep = bunch_sweep(orbits, mode, [param])[0]
                want = _dense_reference(orbits, rep.threshold)
                assert (rep.clusters, rep.max_cluster, rep.component_max) == want, \
                    (c, n, mode, param)
                multi += rep.max_cluster > 1
    assert multi > 0  # the grid exercises clusters of more than one orbit


def test_cluster_certificate_rejects_faulty_linkage(squaring, monkeypatch):
    # one component of 30 orbits holds pairs at rho_8 >= 1.95, so a linkage
    # step that lumps each component into one cluster must be caught
    orbits = julia_orbits(squaring, 8)
    assert bunch_sweep(orbits, "BMS", [1.95])[0].component_max == 30
    monkeypatch.setattr(bunches, "_complete_linkage",
                        lambda D, cut: np.zeros(len(D), dtype=int))
    with pytest.raises(QuadrayError, match="pairwise certificate"):
        bunch_sweep(orbits, "BMS", [1.95])[0]


def test_close_pair_bytes_bounds_the_search(basilica, monkeypatch):
    # the search as bunch_sweep runs it, measured with tracemalloc, against
    # the bound it last checked: its candidates and the triples it found
    checked = []
    close_pair_bytes = bunches.close_pair_bytes
    monkeypatch.setattr(bunches, "close_pair_bytes",
                        lambda *args: checked.append(args) or close_pair_bytes(*args))
    for n in (10, 12):
        orbits = julia_orbits(basilica, n)
        tracemalloc.start()
        try:
            A = np.array([o.points for o in orbits], dtype=complex)
            bunches._close_pairs(A, math.exp(-0.1 * n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rotations searched: each orbit's own anchor window
        radii = bunches._window_radii(A, math.exp(-0.1 * n))
        rows = int(bunches._anchor_mask(A, radii.max(axis=1, keepdims=True)).sum())
        assert checked[-1][:3] == (len(orbits), n, rows)
        bound = close_pair_bytes(*checked[-1])
        assert 0.5 * bound <= peak <= bound, (n, peak, bound)
    # every level the enumeration budget admits (n <= 20) fits: fewer than
    # 2^20 / 20 orbits of minimal period 20, with all their rotations searched
    K = 2 ** 20 // 20
    assert bunches.close_pair_bytes(K, 20, K * 20) <= bunches.CLUSTER_BUDGET_BYTES


def test_cluster_budget_refuses_before_searching(basilica, monkeypatch):
    orbits = julia_orbits(basilica, 8)

    def search(*_):
        raise AssertionError("close-pair search run past the budget")

    monkeypatch.setattr(bunches, "_close_pairs", search)
    rows = int(bunches._anchor_mask(_orbit_array(orbits, 8), math.exp(-0.1 * 8)).sum())
    monkeypatch.setattr(bunches, "CLUSTER_BUDGET_BYTES",
                        bunches.close_pair_bytes(len(orbits), 8, rows) - 1)
    with pytest.raises(QuadrayError, match="budget"):
        bunch_sweep(orbits, "H", [0.1])[0]
    with pytest.raises(QuadrayError, match="budget"):
        verify_hypothesis_h(basilica, 8, 0.1, orbits=orbits)


def test_wide_threshold_search_stays_small(squaring):
    # at r = 2.5 every (orbit, orbit, shift) triple of z^2 is a candidate
    # (378,510 at n = 11); rho_n over them once took a 136.8 MiB gather
    orbits = julia_orbits(squaring, 11)
    tracemalloc.start()
    try:
        rep = bunch_sweep(orbits, "BMS", [2.5])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 136.8 * 2 ** 20 / 3, peak
    assert rep.clusters == _dense_reference(orbits, 2.5)[0]


def _loop_distance_matrix(A):
    """Reference _orbit_distance_matrix: one point of every pair at a time."""
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


def _brute_close_pairs(A, threshold):
    """(a, b, rho_n) for every ordered pair a != b with rho_n < threshold:
    every rotation of orbit a against orbit b, differences taken as
    _close_pairs takes them."""
    K, n = A.shape
    out = []
    for a, b in itertools.permutations(range(K), 2):
        rho = min(np.abs(np.roll(A[a], -s) - A[b]).max() for s in range(n))
        if rho < threshold:
            out.append((a, b, rho))
    return out


@st.composite
def close_orbit_sets(draw):
    """(A, step): a few orbits within a few steps of 0, on a grid of step/2
    (ties in the least real part) or anywhere, plus rotated copies of them
    moved by up to +-step in each coordinate (pairs near the edge of the
    anchor window, where the anchor of the copy faces a point up to 2 steps
    right of its orbit's least real part) or not at all (duplicates)."""
    n = draw(st.integers(1, 5))
    step = draw(st.sampled_from([0.1, 0.3, 1.0]))
    coord = (st.sampled_from([0.0, 0.5, 1.0, 1.98, 2.0])
             | st.floats(-3.0, 3.0)).map(lambda k: k * step)
    base = [[complex(draw(coord), draw(coord)) for _ in range(n)]
            for _ in range(draw(st.integers(1, 4)))]
    frac = (st.sampled_from([-1.0, -0.999, -0.995, 0.0, 0.995, 0.999, 1.0])
            | st.floats(-1.0, 1.0))
    orbits = list(base)
    for _ in range(draw(st.integers(0, 5))):
        src, k = draw(st.sampled_from(base)), draw(st.integers(0, n - 1))
        orbits.append([src[(i + k) % n] + complex(draw(frac), draw(frac)) * step
                       for i in range(n)])
    return np.array(orbits).reshape(len(orbits), n), step


def test_close_pairs_keep_a_pair_at_the_anchor_edge():
    # y sits within 0.9999 of x at every point, and its anchor (point 1)
    # faces the point of x 1.999 right of x's least real part
    x = [0.0, 1.999, 5.0]
    y = [0.9999, 1.999 - 0.9995, 5.0]
    A = np.array([x, y], dtype=complex)
    a, b, rho = bunches._close_pairs(A, 1.0)
    assert list(zip(a.tolist(), b.tolist(), rho.tolist())) == _brute_close_pairs(A, 1.0)
    assert len(a) == 2


@settings(max_examples=300, deadline=None)
@given(close_orbit_sets(), st.data())
def test_close_pairs_match_brute_force(orbit_set, data):
    A, step = orbit_set
    K, n = A.shape
    everything = _brute_close_pairs(A, math.inf)
    # a pair's own rho_n (excluded) and the next float up (included), the
    # step the copies moved by, and a radius admitting every rotation
    rhos = [rho for _, _, rho in everything] or [step]
    rho = data.draw(st.sampled_from(rhos))
    threshold = data.draw(st.sampled_from(
        [rho, np.nextafter(rho, math.inf), np.nextafter(rho, 0.0), step, 10.0]))
    if threshold == 10.0:
        assert bunches._anchor_mask(A, threshold).all()
    a, b, got = bunches._close_pairs(A, threshold)
    assert list(zip(a.tolist(), b.tolist(), got.tolist())) == _brute_close_pairs(A, threshold)
    # one search at the widest threshold gives each threshold's report
    orbits = [_orbit(row) for row in A]
    radii = [step, threshold, rho]
    assert bunches.bunch_sweep(orbits, "BMS", radii) == \
        [bunch_sweep(orbits, "BMS", [r])[0] for r in radii]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.integers(2, 9), st.floats(0.01, 0.5))
@example(1.0, 0.0, 1.0, 9, 0.02)  # c = i: pairs whose anchor row lies past
@example(1.0, 0.0, 1.0, 9, 0.2)   # twice the least window of its orbit
def test_close_pairs_on_orbit_sets_match_brute_force(imag, x, y, n, delta):
    # real orbit sets of a real or complex c, |c| <= 2: the per-orbit
    # windows lose no pair, and every pair stays inside them at every point
    c = complex(x, y * imag)
    assume(abs(c) <= 2.0)
    try:
        orbits = julia_orbits(QuadraticMap(c), n, minimal_only=True)
    except QuadrayError:
        assume(False)
    assume(orbits)
    A, r = _orbit_array(orbits, n), math.exp(-delta * n)
    a, b, rho = bunches._close_pairs(A, r)
    want = _brute_close_pairs(A, r)
    assert list(zip(a.tolist(), b.tolist(), rho.tolist())) == want
    W = bunches._window_radii(A, r)
    assert (W <= r).all()
    for p, q, _ in want:
        for s in range(n):
            gap = np.abs(np.roll(A[p], -s) - A[q])
            if gap.max() < r:
                assert (gap <= W[q]).all() and (gap <= np.roll(W[p], -s)).all(), (p, q, s)
    D = _loop_distance_matrix(A)
    assert np.array_equal(bunches._orbit_distance_matrix(A).view(np.int64), D.view(np.int64))


def test_distance_kernel_matches_the_point_loop():
    # components with tied distances (the self-conjugate orbits of a real c)
    # and one large enough to take its rows in several blocks
    tied = 0
    for c, n, delta in ((-1.0, 10, 0.02), (-1.0, 12, 0.02), (0.0, 8, 0.01), (-1.75, 9, 0.01)):
        A = _orbit_array(minimal_orbits(c, n), n)
        a, b, rho = bunches._close_pairs(A, math.exp(-delta * n))
        labels = bunches._components(len(A), a, b)
        for label in np.flatnonzero(np.bincount(labels) > 1):
            sub = A[labels == label]
            want = _loop_distance_matrix(sub)
            assert np.array_equal(_orbit_distance_matrix(sub).view(np.int64), want.view(np.int64))
            off = want[np.triu_indices(len(sub), 1)]
            tied += len(np.unique(off)) < len(off)
    assert tied > 0
    A = _orbit_array(julia_orbits(QuadraticMap(0j), 12), 12)
    assert len(A) ** 2 > bunches.BLOCK_POINTS  # several blocks of rows
    assert np.array_equal(_orbit_distance_matrix(A).view(np.int64),
                          _loop_distance_matrix(A).view(np.int64))


def test_sweep_matches_single_delta_reports():
    deltas = [0.02, 0.05, 0.1, 0.3]
    multi = 0
    for c in SUITE_PARAMS:
        orbits = minimal_orbits(c, 12)
        reports = bunches.bunch_sweep(orbits, "H", deltas, 12)
        assert reports == [verify_hypothesis_h(QuadraticMap(c), 12, d, orbits=orbits)
                           for d in deltas], c
        multi += sum(rep.max_cluster > 1 for rep in reports)
    assert multi > 0  # some threshold joins orbits


def test_bunches_command_searches_once_per_level(tmp_path, monkeypatch):
    calls = []
    search = bunches._close_pairs

    def counted(A, threshold):
        calls.append((A.shape[1], threshold))
        return search(A, threshold)

    monkeypatch.setattr(bunches, "_close_pairs", counted)
    assert run_command(["bunches", "--c", "-1,0", "--n", "6,8", "--delta", "0.1,0.2,0.3",
                        "--output-dir", str(tmp_path)]) == 0
    assert calls == [(6, math.exp(-0.1 * 6)), (8, math.exp(-0.1 * 8))]


def test_distance_matrix_budget_refuses_before_building(squaring, monkeypatch):
    # at r = 2.5 the K = 186 orbits of z^2 at n = 11 form one component; the
    # close-pair search is let through, and the component's 186 x 186 matrix
    # is refused before it is built
    orbits = julia_orbits(squaring, 11)
    K = len(orbits)

    def build(*_):
        raise AssertionError("distance matrix built past the budget")

    monkeypatch.setattr(bunches, "_orbit_distance_matrix", build)
    monkeypatch.setattr(bunches, "close_pair_bytes", lambda *_: 0)
    monkeypatch.setattr(bunches, "CLUSTER_BUDGET_BYTES", bunches.distance_matrix_bytes(K) - 1)
    with pytest.raises(QuadrayError, match="distance matrix .* budget"):
        bunch_sweep(orbits, "BMS", [2.5])[0]


@st.composite
def distance_matrices(draw):
    """A symmetric k x k matrix with zero diagonal whose entries come from a
    few levels (many ties, as the self-conjugate orbits of a real c give)
    or from anywhere in [0, 4]."""
    k = draw(st.integers(2, 14))
    anywhere = st.floats(0.0, 4.0)
    entry = draw(st.sampled_from([st.sampled_from(draw(st.lists(anywhere, min_size=1, max_size=3))),
                                  anywhere]))
    D = np.zeros((k, k))
    for i, j in itertools.combinations(range(k), 2):
        D[i, j] = D[j, i] = draw(entry)
    return D


def _partition(labels):
    """The clusters of a label array, as sorted index tuples."""
    return sorted(tuple(np.flatnonzero(labels == lab).tolist()) for lab in np.unique(labels))


@settings(max_examples=400, deadline=None)
@given(distance_matrices(), st.data())
def test_linkage_and_components_match_scipy(D, data):
    # scipy serves as the oracle only: the tie rule of its nearest-neighbour
    # chain decides which of several equally near clusters merge
    k = len(D)
    condensed = D[np.triu_indices(k, 1)]
    cut = data.draw(st.sampled_from(condensed.tolist()) | st.floats(0.0, 4.0))
    cut = data.draw(st.sampled_from([cut, np.nextafter(cut, 0.0), np.nextafter(cut, 5.0)]))
    assert _partition(bunches._complete_linkage(D, cut)) == \
        _partition(fcluster(linkage(condensed, method="complete"), t=cut, criterion="distance"))
    a, b = np.nonzero((D < cut) & ~np.eye(k, dtype=bool))
    want = connected_components(D < cut, directed=False)[1]
    assert np.array_equal(bunches._components(k, a, b), want)
    # one direction of each edge suffices
    assert np.array_equal(bunches._components(k, a[a < b], b[a < b]), want)


#: sha256 of bunches.json from the two bunch-sweep jobs of the benchmark
#: (bench/workloads.py, seed 0): n = 14, delta = 0.1, 0.2, 0.3; then at n =
#: 16, delta = 0.05, 0.1, 0.2, 0.3, where each orbit's expansion narrows its
#: search windows the most: c = 0 and the golden Siegel parameter, every
#: orbit alone at each delta (so the two agree)
BENCH_N14 = ["--n", "14", "--delta", "0.1,0.2,0.3"]
EXPANDING_N16 = ["--n", "16", "--delta", "0.05,0.1,0.2,0.3"]
BENCH_BUNCHES = [
    (BENCH_N14 + ["--c", "-1.0,0.0"],
     "3a796cce43cd1cccc4dd09358c3a3c42b2d3f81da8604b92d2381a6fdeffcabb"),
    (BENCH_N14 + ["--c", "-1.749,0.0", "--newton-tol", "1e-12", "--dedup-tol", "2e-11"],
     "3f1cbc46bfeee23f429777cad3311a5fe8607300f52283c191398c568035de0f"),
    (EXPANDING_N16 + ["--c", "0.0,0.0"],
     "bb26785b4342e0efbfd4b846ab9b693d3251da39c320d4868d932e50f0c8b3a1"),
    (EXPANDING_N16 + ["--c", f"{GOLDEN_C.real!r},{GOLDEN_C.imag!r}"],
     "bb26785b4342e0efbfd4b846ab9b693d3251da39c320d4868d932e50f0c8b3a1"),
]


@pytest.mark.parametrize("cargs, digest", BENCH_BUNCHES,
                         ids=["c=-1", "c=-1.749", "n=16-c=0", "n=16-golden"])
def test_bench_bunches_output_is_pinned(tmp_path, cargs, digest):
    assert run_command(["bunches", *cargs, "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "bunches.json").read_bytes()).hexdigest() == digest


def test_bunches_bms_mode(squaring):
    orbits = julia_orbits(squaring, 4)
    report = bunch_sweep(orbits, "BMS", [0.05])[0]
    assert report.mode == "BMS"
    assert report.threshold == 0.05
    assert report.max_cluster == 1


def test_verify_hypothesis_h_squaring(squaring):
    report = verify_hypothesis_h(squaring, 8, 0.1)
    assert report.passed
    assert report.max_cluster == 1


def test_verify_hypothesis_h_no_orbits(basilica):
    # the only period-2 orbit of the basilica is attracting, off the Julia set
    report = verify_hypothesis_h(basilica, 2, 0.1)
    assert report.passed
    assert report.max_cluster == 0


def test_verify_hypothesis_h_basilica(basilica):
    report = verify_hypothesis_h(basilica, 10, 0.1)
    assert report.passed
    assert report.max_cluster <= 20


def test_near_point_repelling_fixed(squaring):
    # a repelling fixed point repels periodic orbits
    assert count_orbits_near_point(squaring, 1.0, 1, 6, 0.3, 0.5) == 0


def test_near_point_beta_excludes_itself(basilica):
    count = count_orbits_near_point(basilica, (1 + math.sqrt(5.0)) / 2.0, 1, 1, 0.3, 0.5)
    assert count == 0  # r_1 < |alpha - beta|, and beta's own orbit is excluded


def test_near_point_golden_alpha(golden_siegel):
    for n in (6, 10):
        count = count_orbits_near_point(golden_siegel, GOLDEN_ALPHA, 1, n, 0.3, 0.5)
        assert count <= 1


def test_near_point_requires_periodicity(squaring):
    from quadray import QuadrayError
    with pytest.raises(QuadrayError):
        count_orbits_near_point(squaring, 0.5 + 0.5j, 1, 4, 0.3, 0.5)


def test_disc_pattern_validation():
    with pytest.raises(Exception):
        DiscPattern(centers=(0.0 + 0j, 0.1 + 0j), radii=(0.1, 0.1), p=2, n=1, C=2.0)


def test_disc_pattern_around_basilica_cycle(basilica):
    orbits = [o for o in julia_orbits(basilica, 2, minimal_only=True)]
    # the 2-cycle is attracting, use the repelling fixed points' level instead
    all_orbits = julia_orbits(basilica, 2, minimal_only=False)
    cycle = [o for o in all_orbits if o.minimal_period == 1][0]
    pattern = DiscPattern.around_orbit(cycle, 5, 0.3, 0.5)
    assert pattern.separation_ok(0.5, 0.3)
    report = count_orbits_in_disc_pattern(basilica, pattern)
    assert report.count <= report.bound
    assert report.passed


def test_disc_pattern_superattracting_cycle_counts_zero(basilica):
    # pattern around the superattracting 2-cycle: no period-10 points nearby
    pts = (0.0 + 0j, -1.0 + 0j)
    rn = 0.5 * math.exp(-0.3 * 10)
    pattern = DiscPattern(centers=pts, radii=(rn, rn), p=2, n=5, C=2.0)
    report = count_orbits_in_disc_pattern(basilica, pattern)
    assert report.count == 0
    assert report.passed


def test_disc_pattern_beta_matches_fixed_point_bound(squaring):
    all1 = julia_orbits(squaring, 1, minimal_only=False)
    beta_orbit = [o for o in all1 if abs(o.points[0] - 1.0) < 1e-9][0]
    for n in (2, 4, 6):
        pattern = DiscPattern.around_orbit(beta_orbit, n, 0.3, 0.5)
        report = count_orbits_in_disc_pattern(squaring, pattern)
        assert report.count == 0


def test_distortion_identity_regime(golden_siegel):
    rep = distortion_ratio(golden_siegel, GOLDEN_ALPHA, 1e-4, 0, samples=64)
    assert rep.sup_ratio_minus_one == 0.0


def test_distortion_golden_small(golden_siegel):
    rep = distortion_ratio(golden_siegel, GOLDEN_ALPHA, 1e-4, 20, samples=512)
    assert rep.sup_ratio_minus_one < 1e-2
    # per-step bound: |log|f'|| stays of order r near an indifferent point
    assert rep.per_step_log_derivative_bound < 1e-3


def test_distortion_monotone_in_radius(golden_siegel):
    big = distortion_ratio(golden_siegel, GOLDEN_ALPHA, 1e-4, 20, samples=512)
    small = distortion_ratio(golden_siegel, GOLDEN_ALPHA, 5e-5, 20, samples=512)
    assert small.sup_ratio_minus_one <= big.sup_ratio_minus_one


def test_distortion_repelling_negative_control(squaring):
    # outside the |g'| = 1 hypothesis the distortion grows with n
    early = distortion_ratio(squaring, 1.0, 1e-4, 3, samples=256)
    late = distortion_ratio(squaring, 1.0, 1e-4, 8, samples=256)
    assert late.sup_ratio_minus_one > early.sup_ratio_minus_one


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 5000))
def test_scrambled_halton_is_scipys_bit_for_bit(seed, count):
    # scipy's sampler is the oracle; summing the digits in another order
    # (by the inverse of the base, or by its powers) moves the last bits
    from scipy.stats import qmc
    ref = qmc.Halton(d=2, scramble=True, seed=seed).random(count).T
    got = bunches._scrambled_halton(count, seed)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_non_finite_point_is_refused(basilica):
    # a NaN z0 compares as neither far from its image nor close to it
    with pytest.raises(QuadrayError, match="not periodic"):
        count_orbits_near_point(basilica, complex(math.nan, 0.0), 1, 4, 0.3, 0.5)
    with pytest.raises(QuadrayError, match="not finite"):
        distortion_ratio(basilica, complex(math.nan, 0.0), 1e-4, 4)
    with pytest.raises(QuadrayError, match="not finite"):
        distortion_ratio(basilica, complex(0.0, math.inf), 1e-4, 4)
    for r in (math.nan, -1e-4):
        with pytest.raises(QuadrayError, match="radius"):
            distortion_ratio(basilica, 0.5, r, 4, samples=8)


def test_cluster_pairwise_certificate(squaring):
    # clusters emitted for tight thresholds stay pairwise-certified
    orbits = julia_orbits(squaring, 6)
    for delta in (0.05, 0.2, 0.5):
        report = bunch_sweep(orbits, "H", [delta])[0]
        assert report.passed or report.max_cluster <= 2 * 6


def _brute_near_point(z0, p, n, delta, r0, qmap, orbits):
    """Reference count_orbits_near_point once the orbits are given: one
    broadcast per orbit against the p discs."""
    r_n = r0 * math.exp(-delta * n * p)
    centers, radii = [], []
    z, deriv = complex(z0), 1.0 + 0.0j
    for _ in range(p):
        centers.append(z)
        radii.append(r_n * abs(deriv))
        deriv *= 2.0 * z
        z = z * z + qmap.c
    centers_arr, radii_arr = np.array(centers), np.array(radii)
    level = n * p
    count = 0
    for orbit in orbits:
        pts = np.array(orbit.points)
        if level == p and np.min(np.abs(pts[:, None] - centers_arr[None, :])) < 1e-7:
            continue
        inside = np.abs(pts[:, None] - centers_arr[None, :]) < radii_arr[None, :]
        if bool(inside.any(axis=1).all()):
            count += 1
    return count, centers, radii


def _brute_disc_pattern(pattern, orbits):
    """Reference count_orbits_in_disc_pattern: every start of every orbit,
    followed point by point."""
    p, n = pattern.p, pattern.n
    level = n * p
    centers, radii = np.array(pattern.centers), np.array(pattern.radii)
    count = 0
    for orbit in orbits:
        for start in range(level):
            if abs(orbit.points[start] - centers[0]) >= radii[0]:
                continue
            if all(abs(orbit.points[(start + j) % level] - centers[j % p]) < radii[j % p]
                   for j in range(level)):
                count += 1
    return count


def _orbit(points):
    return PeriodicOrbit(points=tuple(points), minimal_period=len(points),
                         multiplier=0j, stability="repelling")


#: offsets from a disc center in units of its radius: inside, on the rim,
#: just outside and far out
DISC_FRACTIONS = st.sampled_from([0.0, 0.3, 0.99, 1.0, 1.01, 3.0]) | st.floats(0.0, 1.2)


@st.composite
def near_disc_orbits(draw, centers, radii, level):
    """Synthetic orbits of `level` points, each placed near one of the discs
    B(centers[i], radii[i]): the one its index says (most of the time) or
    any other; some points sit within 1e-7 of a center, as the base orbit's
    do."""
    orbits = []
    for _ in range(draw(st.integers(0, 6))):
        shift = draw(st.integers(0, len(centers) - 1))
        follow = draw(st.booleans())
        points = []
        for j in range(level):
            i = (j + shift) % len(centers) if follow else draw(
                st.integers(0, len(centers) - 1))
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            if draw(st.integers(0, 5)) == 0:
                gap = draw(st.sampled_from([0.0, 5e-8, 2e-7]))
            else:
                gap = draw(DISC_FRACTIONS) * radii[i]
            points.append(complex(centers[i] + gap * cmath.exp(1j * angle)))
        orbits.append(_orbit(points))
    return orbits


#: (c, z0, p): beta of z^2, the superattracting 2-cycle of the basilica, the
#: 2-cycle {omega, omega^2} of z^2 and beta of the basilica
NEAR_POINT_BASES = [(0j, 1.0, 1), (-1 + 0j, 0.0, 2),
                    (0j, cmath.exp(2j * math.pi / 3.0), 2),
                    (-1 + 0j, (1 + math.sqrt(5.0)) / 2.0, 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_near_point_count_matches_brute_force(data):
    c, z0, p = data.draw(st.sampled_from(NEAR_POINT_BASES))
    n = data.draw(st.integers(1, 4))
    delta = data.draw(st.sampled_from([0.01, 0.3]))
    r0 = data.draw(st.sampled_from([0.05, 0.5, 5.0]))
    qmap = QuadraticMap(c)
    _, centers, radii = _brute_near_point(z0, p, n, delta, r0, qmap, [])
    orbits = data.draw(near_disc_orbits(centers, radii, n * p))
    want = _brute_near_point(z0, p, n, delta, r0, qmap, orbits)[0]
    assert count_orbits_near_point(qmap, z0, p, n, delta, r0, orbits=orbits) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_disc_pattern_count_matches_brute_force(data):
    p = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    # unit-spaced centers with radii up to 0.2: the 2-scaled discs are disjoint
    centers = tuple(complex(k, data.draw(st.floats(-0.5, 0.5))) for k in range(p))
    radii = tuple(data.draw(st.floats(0.01, 0.2)) for _ in range(p))
    pattern = DiscPattern(centers=centers, radii=radii, p=p, n=n, C=2.0)
    orbits = data.draw(near_disc_orbits(centers, radii, n * p))
    report = count_orbits_in_disc_pattern(QuadraticMap(0j), pattern, orbits=orbits)
    assert report.count == _brute_disc_pattern(pattern, orbits)
    assert report.passed == (report.count <= p)


def test_counts_of_known_orbit_sets():
    # nonzero counts, fixed by hand, and the level == p base-orbit exclusion
    squaring = QuadraticMap(0j)
    omega = cmath.exp(2j * math.pi / 3.0)
    r = 0.5 * math.exp(-0.3 * 2)  # r_1 at p = 2, n = 1; |2 omega| = 2 doubles it
    inner = _orbit([omega + 0.5 * r, omega ** 2 - r])       # in B_0, then B_1
    swapped = _orbit([omega ** 2 + 0.1 * r, omega - 0.1j * r])
    base = _orbit([omega, omega ** 2 + 1e-8])               # the base 2-cycle
    outside = _orbit([omega + 1.5 * r, omega ** 2])
    orbits = [inner, swapped, base, outside]
    assert count_orbits_near_point(squaring, omega, 2, 1, 0.3, 0.5, orbits=orbits) == 2
    assert count_orbits_near_point(squaring, omega, 2, 1, 0.3, 0.5, orbits=[]) == 0

    pattern = DiscPattern(centers=(0j, 1 + 0j), radii=(0.1, 0.1), p=2, n=2, C=2.0)
    # points 0 and 2 in B_0, 1 and 3 in B_1: starts 0 and 2 follow the pattern
    follows = _orbit([0.05j, 1.05, -0.05, 1 - 0.05j])
    shifted = _orbit([1.05, 0.05j, 1 - 0.05j, -0.05])        # starts 1 and 3
    broken = _orbit([0.05j, 1.05, -0.05, 0.5 + 0j])
    report = count_orbits_in_disc_pattern(squaring, pattern, orbits=[follows, shifted, broken])
    assert report.count == 4
    assert report.count == _brute_disc_pattern(pattern, [follows, shifted, broken])
    assert not report.passed
    assert count_orbits_in_disc_pattern(squaring, pattern, orbits=[]).count == 0
    # on the rim of B_1 by abs(), one ulp inside by np.abs: not in B_1
    rim = DiscPattern(centers=(0j, 1 + 0j), radii=(0.125, 0.011417297568355678),
                      p=2, n=3, C=2.0)
    orbit = _orbit([0.9965801368281407 + 0.010893081274375084j, 0j, 1 + 0j, 0j, 1 + 0j, 0j])
    assert np.abs(orbit.points[0] - 1) < rim.radii[1] <= abs(orbit.points[0] - 1)
    assert count_orbits_in_disc_pattern(squaring, rim, orbits=[orbit]).count == 0
    assert _brute_disc_pattern(rim, [orbit]) == 0
