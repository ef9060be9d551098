import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from quadray import (BranchPointError, PrecisionConfig, QuadraticMap,
                     default_tree_basepoint, julia_orbits,
                     periodic_pressure_estimate, pressure_comparison,
                     tree_pressure_estimate)
from quadray.pressure import _julia_log_derivatives, _logsumexp
from tests.conftest import mp_preimage_tree

TIGHT = PrecisionConfig(newton_tol=1e-12, dedup_tol=2e-11)


def test_periodic_squaring_t0(squaring):
    # 2^10 - 1 circle points (the superattracting origin is off the Julia set)
    est = periodic_pressure_estimate(squaring, 0.0, 10)
    assert est.value == pytest.approx(math.log(1023.0) / 10.0, abs=1e-12)


def test_periodic_squaring_t1(squaring):
    # every circle point has |(f^10)'| = 2^10
    est = periodic_pressure_estimate(squaring, 1.0, 10)
    assert est.value == pytest.approx(math.log(1023.0 / 1024.0) / 10.0, abs=1e-9)


def test_periodic_squaring_t2(squaring):
    est = periodic_pressure_estimate(squaring, 2.0, 8)
    expected = (math.log(255.0) - 16.0 * math.log(2.0)) / 8.0
    assert est.value == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0])
def test_periodic_chebyshev_closed_form(chebyshev, t):
    # Fix(f^n) = {2 cos th : 2^n th = +-th mod 2 pi} and (f^n)'(2 cos th) =
    # 2^n sin(2^n th) / sin th, so |(f^n)'| = 2^n at 2^n - 1 points and 4^n at
    # beta = 2: the sum is (2^n - 1) 2^(-nt) + 4^(-nt) at every n
    for n in range(1, 11):
        want = math.log((2 ** n - 1) * 2.0 ** (-n * t) + 4.0 ** (-n * t))
        got = periodic_pressure_estimate(chebyshev, t, n).log_sum
        assert abs(got - want) <= 1e-12, (n, got, want)


def test_tree_squaring_t1_exact_zero(squaring):
    est = tree_pressure_estimate(squaring, 1.0 + 0j, 1.0, 10)
    assert est.value == pytest.approx(0.0, abs=1e-10)


def test_tree_squaring_t0_log2(squaring):
    est = tree_pressure_estimate(squaring, 1.0 + 0j, 0.0, 10)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_tree_counting_independent_of_derivatives(chebyshev):
    est = tree_pressure_estimate(chebyshev, 1j, 0.0, 8)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_tree_branch_point_error(basilica):
    # basepoint = c is the critical value: its backward tree passes through 0
    with pytest.raises(BranchPointError):
        tree_pressure_estimate(basilica, basilica.c, 1.0, 3)


def test_comparison_squaring_closed_form(squaring):
    curve = pressure_comparison(squaring, 1.0 + 0.01j, [0.0, 0.5, 1.0, 2.0], 12)
    for t in curve.t_grid:
        target = (1.0 - t) * math.log(2.0)
        assert curve.value(t, 12, "periodic") == pytest.approx(target, abs=1e-3)
        assert curve.value(t, 12, "tree") == pytest.approx(target, abs=1e-3)
    assert curve.discrepancy < 1e-3


def test_comparison_basilica_levels(basilica):
    z = default_tree_basepoint(basilica)
    curve = pressure_comparison(basilica, z, [0.0, 1.0], 10)
    # at t=0 both sides are pure counting and nearly coincide; at t=1 the
    # tree prefactor bias (~0.8/n here) dominates the gap
    per0 = curve.value(0.0, 10, "periodic")
    tree0 = curve.value(0.0, 10, "tree")
    assert abs(per0 - tree0) < 1e-3
    assert curve.discrepancy < 0.12
    # both levels present for the trend readout
    levels = {e.n for e in curve.estimates}
    assert levels == {9, 10}


def test_degenerate_grid_counting(basilica):
    curve = pressure_comparison(basilica, default_tree_basepoint(basilica), [0.0], 8)
    per = curve.value(0.0, 8, "periodic")
    tree = curve.value(0.0, 8, "tree")
    count_in_julia = 2 ** 8 - 2  # the superattracting 2-cycle is excluded
    assert per == pytest.approx(math.log(count_in_julia) / 8.0, abs=1e-12)
    assert tree == pytest.approx(math.log(2.0), abs=1e-12)
    assert curve.discrepancy == pytest.approx(abs(per - tree))


def test_monotone_in_t_when_derivatives_expand(squaring):
    values = [periodic_pressure_estimate(squaring, t, 8).value
              for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_tree_mode_records_basepoint(squaring):
    est = tree_pressure_estimate(squaring, 2.0 + 0j, 1.0, 4)
    assert est.basepoint == 2.0 + 0j
    assert est.mode == "tree"
    assert est.value * est.n == pytest.approx(est.log_sum)


def test_negative_t_warns(squaring):
    with pytest.warns(UserWarning):
        periodic_pressure_estimate(squaring, -0.5, 4)


def test_comparison_warns_on_negative_t_and_refuses_critical_basepoint(basilica):
    with pytest.warns(UserWarning):
        curve = pressure_comparison(basilica, default_tree_basepoint(basilica),
                                    [-0.5, 0.0], 4)
    assert curve.value(-0.5, 4, "tree") > curve.value(0.0, 4, "tree")
    with pytest.raises(BranchPointError):
        pressure_comparison(basilica, basilica.c, [0.0, 1.0], 4)
    # an empty grid compares nothing
    assert pressure_comparison(basilica, 0.3 + 0.2j, [], 4).discrepancy == 0.0


def _mp_log_derivative(c, z0, n, multiplicity):
    """log|(f^n)'(z)| at the root of f^n(z) = z near z0, Newton-polished at
    60 digits (a double root takes the multiplicity-2 step)."""
    with mp.workdps(60):
        c, z = mp.mpc(c), mp.mpc(z0)
        for _ in range(100):
            w, d = z, mp.mpc(1)
            for _ in range(n):
                d, w = 2 * w * d, w * w + c
            if d == 1:
                break
            step = multiplicity * (w - z) / (d - 1)
            z -= step
            if abs(step) < mp.mpf(10) ** -50:
                break
        w, log_deriv = z, mp.mpf(0)
        for _ in range(n):
            log_deriv += mp.log(2 * abs(w))
            w = w * w + c
        return float(log_deriv)


@pytest.mark.parametrize("name, levels, cfg, tol", [
    ("chebyshev", range(1, 11), TIGHT, 1e-11),
    ("golden_siegel", range(1, 9), PrecisionConfig(), 1e-11),
    # the parabolic 3-cycle is a double root: binary64 holds it to ~sqrt(eps)
    ("airplane_root", [6], PrecisionConfig(), 1e-6),
])
def test_multiplier_log_derivatives_match_mp_reference(name, levels, cfg, tol, request):
    qmap = request.getfixturevalue(name)
    for n in levels:
        orbits = julia_orbits(qmap, n, cfg, minimal_only=False)
        want = [_mp_log_derivative(qmap.c, z, n, o.multiplicity)
                for o in orbits for z in o.points]
        got = _julia_log_derivatives(qmap, n, cfg)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=f"n = {n}")


def test_periodic_estimate_stable_under_tighter_precision(basilica):
    from quadray import PrecisionConfig
    loose = periodic_pressure_estimate(basilica, 1.0, 8)
    tight = periodic_pressure_estimate(
        basilica, 1.0, 8, PrecisionConfig(newton_tol=1e-13, dedup_tol=1e-12))
    assert abs(loose.value - tight.value) < 1e-9


def test_basilica_sums_match_independent_references(basilica):
    # Periodic sum against every root of the expanded f^n(z) - z (integer
    # coefficients at c = -1) found by mpmath at 60 digits; the attracting
    # 2-cycle {0, -1} is off the Julia set and is dropped, as in the estimator.
    f_n = np.array([1, 0, -1], dtype=object)  # exact f^n, highest degree first
    for n in range(1, 6):
        g = list(f_n)
        g[-2] -= 1  # f^n(z) - z
        with mp.workdps(60):
            roots = mp.polyroots(g, maxsteps=200, extraprec=200)
            julia = [r for r in roots if min(abs(r), abs(r + 1)) > 1e-30]
            assert len(roots) - len(julia) == (2 if n % 2 == 0 else 0)
            log_terms = []
            for r in julia:
                w, log_deriv = r, mp.mpf(0)
                for _ in range(n):
                    log_deriv += mp.log(2 * abs(w))
                    w = w * w - 1
                log_terms.append(-log_deriv)
            ref = float(mp.log(mp.fsum(mp.exp(x) for x in log_terms)) / n)
        assert periodic_pressure_estimate(basilica, 1.0, n).value == pytest.approx(
            ref, abs=1e-12)
        f_n = np.convolve(f_n, f_n)  # f^{n+1} = (f^n)^2 - 1
        f_n[-1] -= 1
    # Tree sum against the 120-bit software floating-point preimage tree.
    z = default_tree_basepoint(basilica)
    fast = tree_pressure_estimate(basilica, z, 1.0, 10)
    _, wide = mp_preimage_tree(basilica.c, z, 10)
    assert fast.value == pytest.approx(logsumexp(-wide) / 10, abs=1e-12)


@st.composite
def logsumexp_inputs(draw):
    """Arrays of one to forty entries: finite values on a drawn scale (up to
    far past exp's overflow), the maximum repeated, and -inf entries."""
    scale = draw(st.sampled_from([1e-12, 1.0, 30.0, 710.0, 1e5, 1e300]))
    values = draw(st.lists(st.floats(-scale, scale, allow_subnormal=False),
                           min_size=1, max_size=30))
    values += [max(values)] * draw(st.integers(0, 4))
    values += [-math.inf] * draw(st.integers(0, 5))
    return np.array(draw(st.permutations(values)))


@settings(max_examples=500, deadline=None)
@given(logsumexp_inputs())
@example(np.array([0.5]))
@example(np.array([-math.inf]))
@example(np.array([-math.inf, -math.inf]))
@example(np.array([3.0, 3.0, 3.0]))
def test_logsumexp_matches_scipy_bit_for_bit(a):
    got, want = _logsumexp(a), logsumexp(a)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, got, want)
