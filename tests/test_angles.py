import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadray import (Angle, OrbitPortrait, QuadrayError, angle_period,
                     bryuno_sums, bryuno_sums_from_quotients, classify_portrait,
                     cyclic_order_preserved, periodic_angles, unlinked,
                     validate_formal_portrait)


def A(text):
    return Angle.parse(text)


# ---------------------------------------------------------------- doubling

def test_double_basic():
    assert A("3/7").doubled() == A("6/7")
    assert A("6/7").doubled() == A("5/7")      # 12/7 mod 1


def test_double_63_denominator_orbit():
    # the period-2 portrait orbit: 22->44, 25->50, 37->74=11 (mod 63)
    assert A("37/63").doubled() == A("11/63")
    assert A("22/63").doubled() == A("44/63")
    assert A("25/63").doubled() == A("50/63")


def test_double_reduces():
    assert A("1/6").doubled() == A("1/3")


def test_angle_normalization():
    assert Angle(8, 6) == Angle(1, 3)
    assert Angle(-1, 3) == Angle(2, 3)
    assert str(Angle(4, 8)) == "1/2"


# ---------------------------------------------------------------- periods

def test_angle_period_examples():
    assert angle_period(A("3/7")) == 3            # ord_7(2) = 3
    assert angle_period(A("22/63")) == 6          # ray period of the portrait
    assert angle_period(A("1/2")) is None         # strictly preperiodic
    assert angle_period(A("0/1")) == 1


def test_angle_period_is_minimal_small_denominators():
    # exhaustive check against brute-force doubling for odd denominators
    for den in list(range(1, 64, 2)) + [127, 255, 1023]:
        for num in range(den):
            a = Angle(num, den)
            m = angle_period(a)
            b = a
            for k in range(1, m):
                b = b.doubled()
                assert b != a
            assert b.doubled() == a


def test_periodic_angles_counts():
    assert periodic_angles(1) == [A("0/1")]
    assert set(periodic_angles(2)) == {A("0/1"), A("1/3"), A("2/3")}
    level3 = periodic_angles(3)
    assert len(level3) == 7
    assert all(a.denominator in (1, 7) for a in level3)


def test_periodic_angles_cap():
    with pytest.raises(QuadrayError):
        periodic_angles(25)


def test_double_is_two_to_one_on_odd_denominators():
    # every angle has exactly two halves and doubling either half returns it
    for den in (7, 15, 63):
        for num in range(den):
            a = Angle(num, den)
            h1, h2 = a.halves()
            assert h1 != h2
            assert h1.doubled() == a and h2.doubled() == a


# ---------------------------------------------------------------- cyclic order

def test_cyclic_order_positive_example():
    angles = [A("22/63"), A("25/63"), A("37/63")]
    assert cyclic_order_preserved(angles, lambda a: a.doubled())


def test_cyclic_order_identity():
    assert cyclic_order_preserved([A("0/1"), A("1/4"), A("1/2")], lambda a: a)


def test_cyclic_order_transposition_fails():
    table = {A("0/1"): A("0/1"), A("1/5"): A("2/5"), A("2/5"): A("1/5")}
    assert not cyclic_order_preserved(list(table), table)


# ---------------------------------------------------------------- unlinked

def test_unlinked_portrait_sets():
    a = [A("22/63"), A("25/63"), A("37/63")]
    b = [A("11/63"), A("44/63"), A("50/63")]
    assert unlinked(a, b)
    assert unlinked(b, a)


def test_unlinked_interleaved():
    assert not unlinked([A("1/8"), A("5/8")], [A("3/8"), A("7/8")])


def test_unlinked_singletons():
    assert unlinked([A("0/1")], [A("1/2")])


def test_unlinked_requires_disjoint():
    with pytest.raises(QuadrayError):
        unlinked([A("1/3")], [A("1/3"), A("2/3")])


def test_unlinked_symmetric_small_scan():
    import itertools
    angles = [Angle(k, 15) for k in range(15)]
    for a_pair in itertools.combinations(angles, 2):
        for b_pair in itertools.combinations(angles, 2):
            if set(a_pair) & set(b_pair):
                continue
            assert unlinked(a_pair, b_pair) == unlinked(b_pair, a_pair)


# ---------------------------------------------------------------- portraits

def portrait_63():
    return OrbitPortrait(sets=(
        (A("22/63"), A("25/63"), A("37/63")),
        (A("11/63"), A("44/63"), A("50/63")),
    ))


def portrait_airplane():
    # The printed form of this example sometimes carries 4/8, which is not
    # periodic under doubling; the valid companion of 3/7 here is 4/7.
    return OrbitPortrait(sets=(
        (A("3/7"), A("4/7")),
        (A("6/7"), A("1/7")),
        (A("5/7"), A("2/7")),
    ))


def test_validate_63_portrait():
    report = validate_formal_portrait(portrait_63())
    assert report.ok
    assert report.ray_period == 6


def test_validate_airplane_portrait():
    report = validate_formal_portrait(portrait_airplane())
    assert report.ok
    assert report.ray_period == 3


def test_validate_rejects_preperiodic():
    p = OrbitPortrait(sets=((A("1/8"), A("5/8")), (A("1/4"), A("1/4"))))
    report = validate_formal_portrait(p)
    assert not report.ok
    assert not report.common_period


def test_classify_63_satellite():
    cls = classify_portrait(portrait_63())
    assert cls.kind == "satellite"
    assert cls.valence == 3 and cls.ray_cycles == 3


def test_classify_airplane_primitive():
    cls = classify_portrait(portrait_airplane())
    assert cls.kind == "primitive"
    assert cls.valence == 2 and cls.ray_cycles == 1


def test_classify_beta_portrait():
    cls = classify_portrait(OrbitPortrait(sets=((A("0/1"),),)))
    assert cls.kind == "primitive" and cls.valence == 1 and cls.ray_cycles == 1


def test_portrait_json_roundtrip():
    p = portrait_airplane()
    q = OrbitPortrait.from_json(p.to_json())
    assert q.sets == p.sets


def _single_cycle_portraits(max_level):
    """All portraits built from one doubling cycle with denominator 2^n - 1,
    split into p sets of every divisor size."""
    from quadray.angles import doubling_orbit
    seen = set()
    for n in range(1, max_level + 1):
        for a in periodic_angles(n):
            if angle_period(a) != n:
                continue
            cyc = tuple(doubling_orbit(a))
            key = frozenset(cyc)
            if key in seen:
                continue
            seen.add(key)
            for p in range(1, n + 1):
                if n % p:
                    continue
                sets = tuple(tuple(cyc[i::p]) for i in range(p))
                yield OrbitPortrait(sets=sets)


def test_dichotomy_on_single_cycle_portraits():
    # Exhaustive over portraits assembled from one angle cycle, denominators
    # 2^n - 1 with n <= 10: every valid one classifies primitive or satellite,
    # never (r > 1, valence != r).
    checked = 0
    for portrait in _single_cycle_portraits(10):
        if not validate_formal_portrait(portrait).ok:
            continue
        cls = classify_portrait(portrait)
        assert cls.kind in ("primitive", "satellite")
        if cls.ray_cycles > 1:
            assert cls.valence == cls.ray_cycles
        checked += 1
    assert checked > 100


def test_dichotomy_on_paired_cycle_portraits():
    # Portraits merging two distinct cycles of equal length (valence-2
    # primitive candidates), denominators up to 2^6 - 1.
    from quadray.angles import doubling_orbit
    import itertools
    for n in range(2, 7):
        cycles = []
        seen = set()
        for a in periodic_angles(n):
            if angle_period(a) != n:
                continue
            cyc = tuple(doubling_orbit(a))
            key = frozenset(cyc)
            if key not in seen:
                seen.add(key)
                cycles.append(cyc)
        for c1, c2 in itertools.combinations(cycles, 2):
            for shift in range(n):
                sets = tuple((c1[i], c2[(i + shift) % n]) for i in range(n))
                portrait = OrbitPortrait(sets=sets)
                if not validate_formal_portrait(portrait).ok:
                    continue
                cls = classify_portrait(portrait)
                assert cls.kind in ("primitive", "satellite")
                if cls.ray_cycles > 1:
                    assert cls.valence == cls.ray_cycles


# ---------------------------------------------------------------- properties
# Each check is compared with a brute-force version written from the
# definition: chords that cross, triples that keep their orientation, and
# periods found by doubling until the angle returns.

ODD_DENOMINATORS = (1, 3, 5, 7, 9, 15, 21, 31, 63)
odd_angles = st.builds(Angle, st.integers(0, 62), st.sampled_from(ODD_DENOMINATORS))
small_angles = st.builds(Angle, st.integers(0, 11), st.integers(1, 12))


def _between(x, lo, hi):
    return lo < x < hi


def brute_unlinked(a_set, b_set):
    """No chord joining two points of A crosses a chord joining two of B."""
    for a1, a2 in itertools.combinations(sorted(a_set), 2):
        for b1, b2 in itertools.combinations(b_set, 2):
            if _between(b1, a1, a2) != _between(b2, a1, a2):
                return False
    return True


def _positively_oriented(x, y, z):
    return x < y < z or y < z < x or z < x < y


def brute_cyclic_order(table):
    """Every triple of sources in positive cyclic order keeps its orientation."""
    return all(_positively_oriented(*(table[a] for a in triple))
               == _positively_oriented(*triple)
               for triple in itertools.combinations(table, 3))


def brute_period(a):
    b = a
    for k in range(1, a.denominator + 1):
        b = b.doubled()
        if b == a:
            return k
    return None


def brute_report(sets):
    p = len(sets)
    cond1 = p > 0 and all(sets)
    cond2 = cond1 and all(
        len({a.doubled() for a in sets[i]}) == len(sets[i])
        and {a.doubled() for a in sets[i]} == set(sets[(i + 1) % p])
        and brute_cyclic_order({a: a.doubled() for a in sets[i]})
        for i in range(p))
    periods = {brute_period(a) for s in sets for a in s}
    common = periods.pop() if cond1 and len(periods) == 1 else None
    cond3 = common is not None and common % p == 0
    cond4 = all(not set(sets[i]) & set(sets[k]) and brute_unlinked(sets[i], sets[k])
                for i, k in itertools.combinations(range(p), 2))
    return cond1, cond2, cond3, cond4, common if cond3 else None


@settings(max_examples=300, deadline=None)
@given(st.sets(small_angles, max_size=6), st.sets(small_angles, max_size=6))
def test_unlinked_matches_chord_crossings(a_set, b_set):
    if a_set & b_set:
        with pytest.raises(QuadrayError):
            unlinked(a_set, b_set)
        return
    assert unlinked(a_set, b_set) == brute_unlinked(a_set, b_set)
    assert unlinked(b_set, a_set) == unlinked(a_set, b_set)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_angles, min_size=1, max_size=7, unique=True), st.data())
def test_cyclic_order_matches_triple_orientations(sources, data):
    images = data.draw(st.lists(small_angles, min_size=len(sources),
                                max_size=len(sources), unique=True))
    table = dict(zip(sources, images))
    assert cyclic_order_preserved(sources, table) == brute_cyclic_order(table)


@settings(max_examples=300, deadline=None)
@given(st.sets(odd_angles, min_size=1, max_size=7))
def test_doubling_order_matches_triple_orientations(angles):
    # doubling is injective on odd denominators: no two angles differ by 1/2
    table = {a: a.doubled() for a in angles}
    assert cyclic_order_preserved(angles, Angle.doubled) == brute_cyclic_order(table)


def _orbit_sets(start, p):
    sets = [tuple(start)]
    for _ in range(p - 1):
        sets.append(tuple(a.doubled() for a in sets[-1]))
    return sets


portrait_sets = st.one_of(
    # arbitrary sets, empty ones included: mostly invalid portraits
    st.lists(st.lists(odd_angles, max_size=4), max_size=3),
    # sets built by doubling one set p - 1 times: conditions (2)-(4) vary
    st.builds(_orbit_sets, st.sets(odd_angles, min_size=1, max_size=4),
              st.integers(1, 4)),
)


@settings(max_examples=400, deadline=None)
@given(portrait_sets)
def test_validate_formal_portrait_matches_brute_force(sets):
    portrait = OrbitPortrait(sets=tuple(map(tuple, sets)))
    report = validate_formal_portrait(portrait)
    assert (report.finite_nonempty, report.bijective_order_preserving,
            report.common_period, report.pairwise_unlinked,
            report.ray_period) == brute_report(portrait.sets)
    assert report.ok == all(brute_report(portrait.sets)[:4])


# ---------------------------------------------------------------- bryuno

def test_bryuno_golden_gives_fibonacci():
    report = bryuno_sums((math.sqrt(5.0) - 1.0) / 2.0, 20)
    fib = [1, 2]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    assert list(report.convergent_denominators) == fib
    # independent oracle for the partial sum
    fib_plus = fib + [fib[-1] + fib[-2]]
    expected = sum(math.log(fib_plus[i + 1]) / fib_plus[i] for i in range(20))
    assert report.bryuno_partial == pytest.approx(expected, rel=1e-12)
    assert report.bryuno_partial < math.inf


def test_bryuno_silver_gives_pell():
    report = bryuno_sums(math.sqrt(2.0) - 1.0, 15)
    pell = [2, 5]
    while len(pell) < 15:
        pell.append(2 * pell[-1] + pell[-2])
    assert list(report.convergent_denominators) == pell
    assert report.bryuno_partial < 2.0  # bounded partial sums


def test_bryuno_rational_rejected():
    with pytest.raises(QuadrayError):
        bryuno_sums(0.5, 10)


def test_bryuno_synthetic_fast_growth():
    # Partial quotients a_{k+1} = 2^{q_k} make every term contribute
    # log 2 + log(q_k)/q_k: the partial sums grow linearly at slope -> log 2.
    # The construction towers (q_5 already needs a 10^8-bit integer), so the
    # literal recursion is checked on its feasible head.
    quots = [1]
    q_hist = [1]
    q_prev, q_cur = 1, 1
    for _ in range(3):
        a_next = 2 ** q_prev
        quots.append(a_next)
        q_prev, q_cur = a_next * q_prev + q_cur, q_prev
        q_hist.append(q_prev)
    n_terms = 3
    report = bryuno_sums_from_quotients(quots, n_terms)
    assert list(report.convergent_denominators) == q_hist[:n_terms]
    # oracle: the same recurrence run here, summed directly
    expected = sum(math.log(q_hist[k]) / q_hist[k - 1] for k in range(1, n_terms + 1))
    assert report.bryuno_partial == pytest.approx(expected, rel=1e-12)
    # every term exceeds log 2, so the partial sums grow at least linearly
    assert report.bryuno_partial > n_terms * math.log(2.0)
    # and the per-term excess log(q_k)/q_k is already small by the third term
    term3 = math.log(q_hist[3]) / q_hist[2]
    assert term3 == pytest.approx(math.log(2.0) + math.log(q_hist[2]) / q_hist[2],
                                  rel=1e-4)


def test_bryuno_denominators_strictly_increase():
    report = bryuno_sums(math.pi % 1.0, 12)
    qs = report.convergent_denominators
    assert all(b > a for a, b in zip(qs, qs[1:]))
