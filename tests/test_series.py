import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from zetaderiv.geometry import ComplexPoint, q_value
from zetaderiv.series import (DELTA_MIN, choose_truncation, eval_deriv, head,
                              log_term_mag, series_is_practical, tail_bound,
                              tail_monotonicity_conditions, tail_ratio_upper,
                              term)
from zetaderiv.zeros import series_evaluator

mp.mp.dps = 30


def _mp_deriv(s: complex, k: int) -> complex:
    return complex(mp.diff(mp.zeta, mp.mpc(s), k))


def test_term_values():
    s = ComplexPoint(2.0, 0.0)
    assert term(1, 0, s).to_complex() == 1.0
    assert term(1, 5, s).is_zero()
    got = term(3, 2, ComplexPoint(2.5, 1.0)).to_complex()
    want = complex(mp.log(3) ** 2 / mp.mpc(3) ** complex(2.5, 1.0))
    assert got == pytest.approx(want, rel=1e-13)


def test_term_rejects_bad_args():
    s = ComplexPoint(2.0, 0.0)
    with pytest.raises(ValueError):
        term(0, 1, s)
    with pytest.raises(ValueError):
        term(2, -1, s)


def test_log_term_mag():
    assert log_term_mag(2, 3, 2.0) == pytest.approx(
        3 * math.log(math.log(2)) - 2 * math.log(2))


def test_head_empty_for_m2():
    assert head(2, 10, ComplexPoint(5.0, 1.0)).is_zero()


def test_head_matches_direct_sum():
    s = ComplexPoint(3.0, 2.0)
    got = head(5, 4, s).to_complex()
    want = sum(complex(mp.log(n) ** 4 / mp.mpc(n) ** complex(3.0, 2.0))
               for n in range(2, 5))
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k,sigma,t", [
    (0, 2.5, 0.0), (1, 2.0, 0.0), (1, 3.0, 5.0), (2, 2.5, -3.0),
    (3, 4.0, 10.0), (5, 6.0, 1.0),
])
def test_eval_deriv_matches_mpmath(k, sigma, t):
    res = eval_deriv(ComplexPoint(sigma, t), k, 1e-12)
    want = _mp_deriv(complex(sigma, t), k)
    bound = res.abs_error_bound.to_complex().real
    assert abs(res.value.to_complex() - want) <= bound + 1e-12 * abs(want)


def test_eval_deriv_sign_convention():
    # odd derivatives are negative real at real s > 1
    assert eval_deriv(ComplexPoint(3.0, 0.0), 1).value.to_complex().real < 0
    assert eval_deriv(ComplexPoint(3.0, 0.0), 2).value.to_complex().real > 0


def test_eval_deriv_error_bound_is_honest():
    # at sigma = 2, k = 1 the certified bound stays well above the true error
    res = eval_deriv(ComplexPoint(2.0, 0.0), 1, 1e-12)
    true_err = abs(res.value.to_complex() - _mp_deriv(2.0 + 0j, 1))
    assert true_err <= res.abs_error_bound.to_complex().real


def test_eval_deriv_extreme_k_no_underflow():
    # k = 800 near the strip line: magnitude around e^-922
    sigma = q_value(2) * 800
    res = eval_deriv(ComplexPoint(sigma, 7.7475), 800)
    assert math.isfinite(res.value.log_abs())
    assert res.value.log_abs() < -900.0
    assert res.abs_error_bound.log_abs() < res.value.log_abs() - 20.0


def test_eval_deriv_domain_guard():
    with pytest.raises(ValueError):
        eval_deriv(ComplexPoint(1.0 + DELTA_MIN, 0.0), 3)


def test_series_evaluator_near_unity_scale():
    sigma = q_value(2) * 800
    v = series_evaluator(800, M_ref=2)(complex(sigma, 1.0))
    assert -5.0 < v.log_abs() < 5.0


def _brute_tail(M, k, sigma, bound):
    """Partial tail plus a certified remainder, as (sum, remainder)."""
    total = 0.0
    n = M + 1
    while True:
        q = math.exp(log_term_mag(n, k, sigma))
        tb = tail_bound(n, k, sigma)
        if tb.valid and q * tb.R < 1e-3 * bound:
            return total, q * (1.0 + tb.R)
        total += q
        n += 1


def test_tail_bound_dominates_brute_force():
    cases = [(2, 3, 6.0), (3, 10, 12.0), (5, 0, 2.5), (4, 20, 17.0)]
    for M, k, sigma in cases:
        tb = tail_bound(M, k, sigma)
        assert tb.valid
        bound = math.exp(log_term_mag(M, k, sigma)) * tb.R
        brute, rem = _brute_tail(M, k, sigma, bound)
        assert brute + rem <= bound


def test_tail_bound_validity_flag():
    tb = tail_bound(2, 50, 3.0)  # k - 1 >= (sigma-1) log 2
    assert not tb.valid
    assert tb.R == math.inf


def test_tail_bound_guards():
    with pytest.raises(ValueError):
        tail_bound(1, 0, 2.0)
    with pytest.raises(ValueError):
        tail_bound(2, 0, 0.9)


def test_tail_monotonicity_example():
    # the anchor configuration used for large M: M = 12 at slope q_11
    q11 = q_value(11)
    assert q11 > 1.0 / math.log(12)
    assert tail_monotonicity_conditions(12, q11, 12 * math.log(3.0), 500.0)


def test_tail_monotonicity_rejects_shallow_slope():
    with pytest.raises(ValueError):
        tail_monotonicity_conditions(3, 0.5, 0.0, 100.0)


def test_choose_truncation_monotone_in_eps():
    n_loose = choose_truncation(3, 4.0, 1e-4)
    n_tight = choose_truncation(3, 4.0, 1e-12)
    assert n_loose <= n_tight


def test_series_is_practical():
    assert series_is_practical(1, 3.0, 1e-10)
    assert not series_is_practical(0, 1.1, 1e-10)


def test_tail_ratio_upper_bounds_brute():
    # the deep-anchored bound must still dominate the true tail
    for (m0, k, sigma) in [(4, 38, 40.0), (5, 100, 77.0), (3, 10, 12.0)]:
        log_ref = log_term_mag(2, k, sigma)
        got = tail_ratio_upper(m0, k, sigma, log_ref)
        brute = sum(math.exp(log_term_mag(n, k, sigma) - log_ref)
                    for n in range(m0, 5000))
        assert brute <= got <= brute * 1.01 + 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 25), st.floats(0.2, 8.0))
def test_tail_bound_property(M, k, extra):
    # any sigma comfortably beyond validity certifies the brute-force tail
    sigma = 1.0 + (k + 1.0 + extra) / math.log(M) + 0.1
    tb = tail_bound(M, k, sigma)
    assert tb.valid
    bound = math.exp(log_term_mag(M, k, sigma)) * tb.R
    brute, rem = _brute_tail(M, k, sigma, bound)
    assert brute + rem <= bound
