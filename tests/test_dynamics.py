import cmath
import math

import numpy as np
import pytest

from quadray import DEFAULT_CONFIG, PrecisionConfig, QuadraticMap, green_potential
from quadray.dynamics import orbit_with_derivative, preimage_tree
from tests.conftest import mp_preimage_tree


def iterate(qmap, z, n):
    """f^n(z) by orbit_with_derivative on one point."""
    return complex(orbit_with_derivative(qmap, [z], n)[0][0])


def derivative(qmap, z, n):
    """(f^n)'(z) by orbit_with_derivative on one point."""
    return complex(orbit_with_derivative(qmap, [z], n)[1][0])


def sorted_leaves(leaves):
    return leaves[np.lexsort((leaves.imag, leaves.real))]


def test_iterate_angle_doubling_on_circle(squaring):
    z = cmath.exp(2j * math.pi / 7.0)
    # angles double each step; after three doublings 8/7 == 1/7 mod 1
    for k in range(4):
        assert iterate(squaring, z, k) == pytest.approx(cmath.exp(2j * math.pi * (2 ** k) / 7.0))
    assert iterate(squaring, z, 3) == pytest.approx(z)


def test_iterate_superattracting_two_cycle(basilica):
    w, d = orbit_with_derivative(basilica, np.array([0.0, -1.0]), 2)
    assert w.tolist() == [0.0, -1.0]
    assert d.tolist() == [0.0, 0.0]  # the critical point is on the cycle


def test_iterate_plain_growth(squaring):
    assert [iterate(squaring, 3.0, n) for n in range(3)] == [3.0, 9.0, 81.0]


def test_iterate_escape_truncates(squaring):
    # overflow is tolerated: the escaping entry turns non-finite, the others
    # are unaffected
    with np.errstate(all="raise"):
        w, d = orbit_with_derivative(squaring, np.array([1e6, 0.5]), 6)
    assert not np.isfinite(w[0]) and not np.isfinite(d[0])
    assert w[1] == 0.5 ** 64


def test_derivative_chain_rule(squaring):
    assert derivative(squaring, 1.0, 2) == pytest.approx(4.0)


def test_derivative_two_cycle_chebyshev(chebyshev):
    # 2-cycle points solve z^2 + z - 1 = 0, so their product is -1 and
    # (f^2)' = 4 z1 z2 = -4.
    z = (-1.0 + math.sqrt(5.0)) / 2.0
    assert derivative(chebyshev, z, 2) == pytest.approx(-4.0, abs=1e-12)


def test_derivative_circle_product(squaring):
    z = cmath.exp(2j * math.pi / 7.0)
    # product of 2 z_i over angles 1/7, 2/7, 4/7: moduli give 8, angles sum
    # to one full turn
    assert derivative(squaring, z, 3) == pytest.approx(8.0)


def test_green_is_log_abs_for_squaring(squaring):
    assert green_potential(squaring, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_green_zero_on_julia_circle(squaring):
    # |exp(0.7i)| is 1 only up to representation error, so the potential is
    # zero at that same scale
    assert abs(green_potential(squaring, cmath.exp(0.7j))) < 1e-12
    assert green_potential(squaring, 0.5) == 0.0


def test_green_chebyshev_joukowski(chebyshev):
    # z = w + 1/w conjugates f to squaring; z = 3 gives w = (3 + sqrt 5)/2
    expected = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert green_potential(chebyshev, 3.0) == pytest.approx(expected, abs=1e-10)


def test_green_functional_equation(basilica):
    for z in (0.3 + 1.2j, 2.0 - 0.5j, -1.9 + 0.1j):
        g = green_potential(basilica, z)
        gf = green_potential(basilica, z * z + basilica.c)
        assert abs(gf - 2.0 * g) < 10.0 * DEFAULT_CONFIG.newton_tol


def test_preimages_fourth_roots(squaring):
    got = sorted_leaves(preimage_tree(squaring, 1.0, 2)[0])
    expected = sorted([1, -1, 1j, -1j], key=lambda z: (z.real, z.imag))
    assert len(got) == 4
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-12)


def test_preimages_eighth_roots(squaring):
    got = sorted_leaves(preimage_tree(squaring, 1.0, 3)[0])
    assert len(got) == 8
    expected = sorted((cmath.exp(2j * math.pi * k / 8.0) for k in range(8)),
                      key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    for g, e in zip(sorted(got, key=lambda z: (round(z.real, 12), round(z.imag, 12))),
                    expected):
        assert g == pytest.approx(e, abs=1e-12)


def test_preimages_chebyshev(chebyshev):
    got = sorted_leaves(preimage_tree(chebyshev, 2.0, 1)[0])
    assert got[0] == pytest.approx(-2.0) and got[1] == pytest.approx(2.0)


def test_preimage_roundtrip(basilica):
    # the unrefined leaves of the square-root expansion solve f^6(x) = z to
    # newton_tol, and their log-derivatives are log|(f^6)'(x)|
    leaves, logd = preimage_tree(basilica, 0.5 + 0.5j, 6)
    w, d = orbit_with_derivative(basilica, leaves, 6)
    assert np.max(np.abs(w - (0.5 + 0.5j))) < DEFAULT_CONFIG.newton_tol
    assert np.allclose(logd, np.log(np.abs(d)), atol=1e-12)


def test_preimage_branch_degeneracy_reports_double_root():
    qmap = QuadraticMap(-1.0)
    # preimages of f(0) = c: both square-root branches give 0
    got = sorted_leaves(preimage_tree(qmap, qmap.c, 1)[0])
    assert len(got) == 2
    assert all(abs(z) < 1e-12 for z in got)


def test_semigroup_property(basilica):
    z = np.array([0.3 + 0.4j])
    a, b = 3, 4
    whole, d_whole = orbit_with_derivative(basilica, z, a + b)
    first, d_first = orbit_with_derivative(basilica, z, a)
    second, d_second = orbit_with_derivative(basilica, first, b)
    assert second == pytest.approx(whole)
    assert d_first * d_second == pytest.approx(d_whole)


@pytest.mark.parametrize("c", [-1.75 + 0j, 0.25 + 0j, -0.1226 + 0.7449j])
def test_one_point_and_batch_orbits_agree_bitwise(c):
    # a one-point array takes the out-of-place loop, a batch the in-place one;
    # the points include escaping ones, whose entries overflow
    qmap = QuadraticMap(c)
    rng = np.random.default_rng(7)
    z = 1.5 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for n in (1, 9, 40):
        w, d = orbit_with_derivative(qmap, z, n)
        for k in range(z.size):
            w1, d1 = orbit_with_derivative(qmap, z[k:k + 1], n)
            np.testing.assert_array_equal(w1, w[k:k + 1])
            np.testing.assert_array_equal(d1, d[k:k + 1])


def test_extended_precision_tree_matches_binary64(basilica):
    lo = sorted_leaves(preimage_tree(basilica, 1.0 + 0.2j, 5)[0])
    hi = sorted_leaves(mp_preimage_tree(basilica.c, 1.0 + 0.2j, 5, bits=100)[0])
    assert np.allclose(lo, hi, atol=1e-12)


def test_precision_config_invariants():
    with pytest.raises(ValueError):
        PrecisionConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        PrecisionConfig(newton_tol=1e-6, dedup_tol=1e-9)
    with pytest.raises(ValueError):
        PrecisionConfig(dedup_tol=math.nan)
