import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetaderiv import series
from zetaderiv.geometry import q_value
from zetaderiv.scaled import ScaledComplex
from zetaderiv.series import (DELTA_MIN, MAX_TERMS, PRACTICAL_TERMS,
                              _partial_sum, choose_truncation, eval_deriv,
                              head, log_term_mag, series_is_practical,
                              tail_bound, tail_monotonicity_conditions,
                              tail_ratio_upper)
from zetaderiv.zeros import series_evaluator

mp.mp.dps = 30


def _mp_deriv(s: complex, k: int) -> complex:
    return complex(mp.diff(mp.zeta, mp.mpc(s), k))


def test_log_term_mag():
    assert log_term_mag(2, 3, 2.0) == pytest.approx(
        3 * math.log(math.log(2)) - 2 * math.log(2))


def test_head_empty_for_m2():
    assert head(2, 10, complex(5.0, 1.0)).is_zero()


def test_head_matches_direct_sum():
    s = complex(3.0, 2.0)
    got = head(5, 4, s).to_complex()
    want = sum(complex(mp.log(n) ** 4 / mp.mpc(n) ** complex(3.0, 2.0))
               for n in range(2, 5))
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k,sigma,t", [
    (0, 2.5, 0.0), (1, 2.0, 0.0), (1, 3.0, 5.0), (2, 2.5, -3.0),
    (3, 4.0, 10.0), (5, 6.0, 1.0),
])
def test_eval_deriv_matches_mpmath(k, sigma, t):
    res = eval_deriv(complex(sigma, t), k, 1e-12)
    want = _mp_deriv(complex(sigma, t), k)
    bound = math.exp(res.log_abs_error_bound)
    assert abs(res.value.to_complex() - want) <= bound + 1e-12 * abs(want)


def test_eval_deriv_sign_convention():
    # odd derivatives are negative real at real s > 1
    assert eval_deriv(complex(3.0, 0.0), 1).value.to_complex().real < 0
    assert eval_deriv(complex(3.0, 0.0), 2).value.to_complex().real > 0


def test_eval_deriv_error_bound_is_honest():
    # at sigma = 2, k = 1 the certified bound stays well above the true error
    res = eval_deriv(complex(2.0, 0.0), 1, 1e-12)
    true_err = abs(res.value.to_complex() - _mp_deriv(2.0 + 0j, 1))
    assert true_err <= math.exp(res.log_abs_error_bound)


def test_eval_deriv_extreme_k_no_underflow():
    # k = 800 near the strip line: magnitude around e^-922
    sigma = q_value(2) * 800
    res = eval_deriv(complex(sigma, 7.7475), 800)
    assert math.isfinite(res.value.log_abs())
    assert res.value.log_abs() < -900.0
    assert res.log_abs_error_bound < res.value.log_abs() - 20.0


def test_eval_deriv_domain_guard():
    with pytest.raises(ValueError):
        eval_deriv(complex(1.0 + DELTA_MIN, 0.0), 3)


def test_series_evaluator_near_unity_scale():
    sigma = q_value(2) * 800
    v = series_evaluator(800, M_ref=2)(np.array([complex(sigma, 1.0)]))[0]
    assert -5.0 < math.log(abs(v)) < 5.0


def _brute_tail(M, k, sigma, bound):
    """Partial tail plus a certified remainder, as (sum, remainder)."""
    total = 0.0
    n = M + 1
    while True:
        q = math.exp(log_term_mag(n, k, sigma))
        R = tail_bound(n, k, sigma)
        if R < math.inf and q * R < 1e-3 * bound:
            return total, q * (1.0 + R)
        total += q
        n += 1


def test_tail_bound_dominates_brute_force():
    cases = [(2, 3, 6.0), (3, 10, 12.0), (5, 0, 2.5), (4, 20, 17.0)]
    for M, k, sigma in cases:
        R = tail_bound(M, k, sigma)
        assert R < math.inf
        bound = math.exp(log_term_mag(M, k, sigma)) * R
        brute, rem = _brute_tail(M, k, sigma, bound)
        assert brute + rem <= bound


def test_tail_bound_validity_flag():
    # k - 1 >= (sigma-1) log 2: no bound
    assert tail_bound(2, 50, 3.0) == math.inf


def test_truncation_needs_a_positive_tolerance():
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            choose_truncation(2, 1.5, eps)


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


def _oracle_cutoffs(k, sigma, eps_rel, cap):
    """(N, met) at each doubling N = 16, 32, ... up to the first N that meets
    the tail test or reaches cap, re-summing sum_{n=2}^N Q_n from scratch at
    every N."""
    out = []
    N = 16
    while True:
        ln = np.log(np.arange(2, N + 1, dtype=float))
        expo = k * np.log(ln) - sigma * ln
        shift = expo.max()
        log_mag = shift + math.log(math.fsum(np.exp(expo - shift).tolist()))
        R = tail_bound(N, k, sigma)
        met = R < math.inf and (log_term_mag(N, k, sigma) + math.log(R)
                                <= math.log(eps_rel) + log_mag)
        out.append((N, met))
        if met or N >= cap:
            return out
        N *= 2


# (k, sigma, eps_rel): both sides of the k = 1, eps = 1e-10 route flip, near
# the sigma = 1 + DELTA_MIN guard, series that never certify within the
# caps, and the high-k strip regime
CUTOFF_POINTS = [
    (1, 2.9156997019452, 1e-10), (1, 2.9156997019458, 1e-10),
    (1, 1.04, 1e-10), (1, 1.5, 1e-10), (1, 2.0, 1e-4), (1, 3.5, 1e-10),
    (1, 4.0, 1e-12), (1, 5.0, 1e-10), (1, 10.0, 1e-10), (1, 3.0, 1e-4),
    (0, 1.06, 1e-3), (0, 2.0, 1e-6), (0, 3.0, 1e-10), (0, 6.0, 1e-12),
    (0, 2.5, 1e-4), (2, 3.0, 1e-8), (2, 4.0, 1e-12), (2, 5.0, 1e-12),
    (2, 7.5, 1e-12), (2, 4.0, 1e-6), (2, 5.0, 1e-6), (3, 1.2, 1e-10),
    (3, 4.0, 1e-4), (3, 5.0, 1e-10), (3, 6.0, 1e-12), (3, 12.0, 1e-12),
    (5, 6.0, 1e-12), (6, 8.0, 1e-10), (10, 12.0, 1e-12), (10, 20.0, 1e-12),
    (30, 20.0, 1e-12), (30, 40.0, 1e-12), (100, 60.0, 1e-12),
    (100, 120.0, 1e-12), (400, q_value(2) * 400, 1e-12),
    (800, q_value(2) * 800, 1e-12), (800, q_value(3) * 800 + 1.0, 1e-12),
    (2, 1.8, 1e-3),
]


def test_cutoff_search_matches_resumming_oracle():
    for k, sigma, eps in CUTOFF_POINTS:
        steps = _oracle_cutoffs(k, sigma, eps, MAX_TERMS)
        assert choose_truncation(k, sigma, eps) == steps[-1][0], (k, sigma)
        practical = sigma > 1.0 + DELTA_MIN and any(
            met for N, met in steps if N <= PRACTICAL_TERMS)
        assert series_is_practical(k, sigma, eps) == practical, (k, sigma)
    # the two sides of the flip take different routes
    assert not series_is_practical(1, 2.9156997019452, 1e-10)
    assert series_is_practical(1, 2.9156997019458, 1e-10)
    # capped at max_terms: the first doubling N >= 1000, test not met
    steps = _oracle_cutoffs(1, 1.2, 1e-10, 1000)
    assert steps[-1] == (1024, False)
    assert choose_truncation(1, 1.2, 1e-10, max_terms=1000) == 1024


def test_cutoff_over_an_array_matches_each_point():
    # one search over many sigma per (k, eps): points that meet the test at
    # different doublings, and points capped without meeting it
    groups = {}
    for k, sigma, eps in CUTOFF_POINTS:
        groups.setdefault((k, eps), []).append(sigma)
    groups[(1, 1e-10)] += [1.2, 1.5, 2.0, 2.5, 3.0]
    for (k, eps), sigmas in groups.items():
        for cap in (PRACTICAL_TERMS, 1000):
            cutoff, met = series._cutoff(k, np.array(sigmas), eps, cap)[:2]
            want = [series._cutoff(k, x, eps, cap)[:2] for x in sigmas]
            assert np.broadcast_to(cutoff, len(sigmas)).tolist() == \
                [int(n) for n, _ in want], (k, eps, cap)
            assert met.tolist() == [bool(m) for _, m in want], (k, eps, cap)


def test_partial_sum_in_pieces_matches_one_block(monkeypatch):
    # a small CHUNK forces both splits: over the terms (ranges longer than
    # CHUNK) and over the points (more rows than fit into CHUNK entries)
    sigma = np.array([1.5, 2.0, 3.0, 7.0, 40.0])
    t = np.array([0.0, 3.0, -20.0, 100.0, 1e3])
    cases = [(0, 2, 1000), (3, 2, 300), (30, 17, 2000), (2, 5, 60)]
    whole = [(_partial_sum(k, sigma, t, lo, hi),
              _partial_sum(k, sigma, 0.0, lo, hi)) for k, lo, hi in cases]
    monkeypatch.setattr(series, "CHUNK", 64)
    for (k, lo, hi), ((want, shift), (mag, _)) in zip(cases, whole):
        got, got_shift = _partial_sum(k, sigma, t, lo, hi)
        assert got_shift.tolist() == shift.tolist()
        assert np.all(np.abs(got - want) <= 1e-15 * mag)


def test_series_evaluator_adds_the_unit_term_and_sign():
    # k = 0 adds n = 1 and odd k flips the sign, as in eval_deriv; one point
    # per call, so each is summed to eval_deriv's cutoff
    z = np.array([4.0 + 0.0j, 5.0 + 5.0j, 8.0 - 2.0j])
    for k in (0, 1, 2):
        f = series_evaluator(k, M_ref=2)
        got = [f(np.array([p]))[0] * np.exp(log_term_mag(2, k, p))
               for p in z.tolist()]
        want = [eval_deriv(p, k).value.to_complex()
                for p in z.tolist()]
        assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        series_evaluator(1, M_ref=2)(np.array([3.0, 1.0 + DELTA_MIN]) + 0j)


def test_series_is_practical_keeps_no_memory():
    assert not any(isinstance(v, np.ndarray) for v in vars(series).values())
    tracemalloc.start()
    try:
        assert not series_is_practical(1, 1.5, 1e-10)  # sums 2^20 terms
        still_allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert still_allocated < 1 << 20


def test_partial_sum_real_path_matches_complex_path():
    # t = 1e-300 rounds every phase factor to 1 - 0j, so it runs the complex
    # path on the t = 0 values
    for k, sigma, lo, hi in [(0, 2.0, 2, 1000), (3, 4.0, 2, 64),
                             (1, 1.5, 17, 4096),
                             (800, q_value(2) * 800, 2, 40)]:
        real = ScaledComplex.from_parts(*_partial_sum(k, sigma, 0.0, lo, hi))
        cplx = ScaledComplex.from_parts(*_partial_sum(k, sigma, 1e-300, lo,
                                                      hi))
        assert real.mantissa.imag == 0.0
        assert (real - cplx).log_abs() <= real.log_abs() + math.log(1e-15)


def test_tail_ratio_upper_bounds_brute():
    # the deep-anchored bound must still dominate the true tail
    for (m0, k, sigma) in [(4, 38, 40.0), (5, 100, 77.0), (3, 10, 12.0)]:
        log_ref = log_term_mag(2, k, sigma)
        got = tail_ratio_upper(m0, k, sigma, log_ref)
        brute = sum(math.exp(log_term_mag(n, k, sigma) - log_ref)
                    for n in range(m0, 5000))
        assert brute <= got <= brute * 1.01 + 1e-15


def test_tail_and_head_over_an_array_match_each_point():
    # the certificate sweeps' grids, and the wedge-tip points of verify
    cases = [(2, 38, 38.0, 48.0), (3, 100, 75.0, 85.0),
             (7, 1600, 520.0, 545.0), (20, 10 ** 4, 3290.0, 3360.0),
             (52, 10 ** 5, 25240.0, 25350.0), (4, 71, 60.0, 70.0)]
    for M, k, lo, hi in cases:
        sigma = np.linspace(lo, hi, 33)
        log_q = log_term_mag(M, k, sigma)
        tails = tail_ratio_upper(M + 2, k, sigma, log_q)
        heads = series.head_ratio(M, k, sigma)
        for x, lq, t, h in zip(sigma.tolist(), log_q.tolist(), tails, heads):
            assert t == pytest.approx(tail_ratio_upper(M + 2, k, x, lq),
                                      rel=1e-12, abs=0.0)
            assert h == pytest.approx(series.head_ratio(M, k, x),
                                      rel=1e-12, abs=0.0)


def test_tail_ratio_upper_returns_inf_where_the_bound_never_holds():
    # k - 1 < (sigma - 1) log N needs N > e^198 here: the search stops at its
    # cap and the tail is inf.  The former term-by-term loop checked its cap
    # only once the integral bound was valid, so it never returned.
    sigma = np.array([1.5, 80.0])
    got = tail_ratio_upper(4, 100, sigma, log_term_mag(4, 100, sigma))
    assert got[0] == math.inf and math.isfinite(got[1])
    assert tail_ratio_upper(4, 100, 1.5, log_term_mag(4, 100, 1.5)) \
        == math.inf


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 25), st.floats(0.2, 8.0))
def test_tail_bound_property(M, k, extra):
    # any sigma comfortably beyond validity certifies the brute-force tail
    sigma = 1.0 + (k + 1.0 + extra) / math.log(M) + 0.1
    R = tail_bound(M, k, sigma)
    assert R < math.inf
    bound = math.exp(log_term_mag(M, k, sigma)) * R
    brute, rem = _brute_tail(M, k, sigma, bound)
    assert brute + rem <= bound
