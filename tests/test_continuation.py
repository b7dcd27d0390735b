import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetaderiv import continuation, zeros
from zetaderiv.continuation import (SIGMA_MAX_TABLE, _bernoulli_table,
                                    count_zeros_halfplane, eval_deriv_cauchy,
                                    eval_zeta_em, pick_radius)
from zetaderiv.zeros import winding_number

mp.mp.dps = 30

# the sigma and t range of the half-plane counts
HALFPLANE_SIGMAS = (0.1, 2.9)
HALFPLANE_TS = (0.2, 45.0, 95.0)


def test_bernoulli_table_known_values():
    b = _bernoulli_table(12)
    assert b[0] == 1.0
    assert b[1] == -0.5
    assert b[2] == pytest.approx(float(Fraction(1, 6)), abs=0)
    assert b[4] == pytest.approx(float(Fraction(-1, 30)), abs=0)
    assert b[12] == pytest.approx(float(Fraction(-691, 2730)), rel=1e-15)
    assert b[3] == b[5] == b[7] == 0.0


@pytest.mark.parametrize("sigma,t", [
    (0.5, 14.134725), (0.3, 25.0), (2.5, 100.0), (0.05, 3.0), (0.5, 150.0),
    (1.5, 0.0), (0.9, -8.0),
] + list(itertools.product(HALFPLANE_SIGMAS, HALFPLANE_TS)))
def test_eval_zeta_em_matches_mpmath(sigma, t):
    got = eval_zeta_em(complex(sigma, t), 1e-12).value.to_complex()
    want = complex(mp.zeta(complex(sigma, t)))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_zeta_em_points_share_the_cutoff_of_the_largest_t():
    # one call over points far apart in t: the cutoff comes from t = 150
    # and must serve the points near the real axis as well
    s = np.array([0.1 + 0.2j, 2.9 + 5.0j, 0.5 - 14.134725j, 0.3 + 45.0j,
                  2.9 + 95.0j, 0.7 + 150.0j])
    got, N, _ = continuation._zeta_em(s, 1e-12)
    assert N >= 1.3 * 150.0 / (2.0 * math.pi)
    for z, value in zip(s, got):
        want = complex(mp.zeta(complex(z)))
        assert complex(value) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_eval_zeta_em_guards():
    with pytest.raises(ValueError):
        eval_zeta_em(complex(-0.5, 3.0))
    with pytest.raises(ValueError):
        eval_zeta_em(complex(1.0, 0.0))
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            eval_zeta_em(complex(1.02, 1.0), eps)


@pytest.mark.parametrize("sigma,t,k", [
    (1.5, 2.0, 1), (0.7, 20.0, 2), (2.0, 0.0, 1), (2.0, 0.0, 3),
    (0.5, 30.0, 1),
] + list(itertools.product(HALFPLANE_SIGMAS, HALFPLANE_TS, (1, 2, 3)))
  # the corner (0.05, 200) of the half-plane counts, and |s - 1| = 0.05
  + [(0.05, 200.0, k) for k in (1, 2, 3)]
  + [(1.03, 0.04, k) for k in (1, 2, 3)])
def test_eval_deriv_cauchy_matches_mpmath(sigma, t, k):
    # both routes to zeta^(k): the Cauchy circle and the differentiated
    # Euler-Maclaurin kernel
    res = eval_deriv_cauchy(complex(sigma, t), k, 1e-10)
    kernel = continuation._zeta_em(np.array([complex(sigma, t)]), 1e-10, k)
    want = complex(mp.diff(mp.zeta, complex(sigma, t), k))
    assert res.value.to_complex() == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert complex(kernel[0][0]) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_cauchy_ring_fills_in_one_kernel_call_per_doubling(monkeypatch):
    kernel = continuation._zeta_em
    sizes = []

    def counting(s, eps, k=0):
        sizes.append(s.size)
        return kernel(s, eps, k)

    monkeypatch.setattr(continuation, "_zeta_em", counting)
    res = eval_deriv_cauchy(complex(1.5, 2.0), 1, 1e-10)
    assert res.terms_used == 128
    # the 64-node ring, then the 64 new nodes of the doubling
    assert sizes == [64, 64]


def test_zeta_contour_samples_each_edge_in_one_kernel_call(monkeypatch):
    kernel = continuation._zeta_em
    sizes = []

    def counting(s, eps, k=0):
        sizes.append(s.size)
        return kernel(s, eps, k)

    def no_circle(*args):
        raise AssertionError("a Cauchy circle in a half-plane count")

    monkeypatch.setattr(continuation, "_zeta_em", counting)
    monkeypatch.setattr(continuation, "eval_deriv_cauchy", no_circle)
    # zeros of zeta at t = 14.13, 21.02 and 25.01, of zeta' at t = 23.3;
    # eight samples per unit length, at least 64, give edges of 64 (sigma
    # 0.05 to 1.05, or to 2.99) and 240 (t 0.05 to 30) points
    for k, count in ((0, 3), (1, 1)):
        sizes.clear()
        assert count_zeros_halfplane(k, 30.0, 0.05) == count
        assert [n for n in sizes if n != 1] == [64, 240, 64, 240]


def test_eval_deriv_cauchy_unconverged_reports_last_difference():
    # eps = 1e-30 is below double precision, so the doubling stops at 4096
    # nodes without agreement; the estimate is then the last doubling
    # difference, never zero
    res = eval_deriv_cauchy(complex(2.0, 5.0), 3, 1e-30)
    assert res.terms_used == 4096
    assert 0.0 < math.exp(res.log_abs_error_bound) < 1e-10

def test_pick_radius_shrinks_near_pole_and_axis():
    assert pick_radius(complex(1.2, 0.0)) == pytest.approx(0.1)
    assert pick_radius(complex(0.1, 20.0)) == pytest.approx(0.08)
    assert pick_radius(complex(5.0, 5.0)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        eval_deriv_cauchy(complex(-1.0, 2.0), 1)


def test_zero_on_contour_raises_instead_of_moving_t(monkeypatch):
    # a contour through a zero is an error; the count is never taken at a
    # shifted height and reported as N(T)
    calls = []

    def on_zero(rect, *args, **kwargs):
        calls.append(rect)
        if len(calls) == 1:
            raise zeros.ZeroOnContourError(complex(0.5, rect.t_hi))
        return winding_number(rect, *args, **kwargs)

    monkeypatch.setattr(zeros, "winding_number", on_zero)
    with pytest.raises(zeros.ZeroOnContourError):
        count_zeros_halfplane(0, 30.0, 0.05)
    assert [rect.t_hi for rect in calls] == [30.0]


def test_zero_count_zeta_up_to_50():
    # the classical count: ten zeros of zeta with 0 < t <= 50
    assert count_zeros_halfplane(0, 50.0, 0.05) == 10


def test_zero_count_zeta_up_to_100():
    assert count_zeros_halfplane(0, 100.0, 0.05) == 29


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_count_derivatives_pinned(k):
    # N_k(T) for T = 50, 100, 200, as the Cauchy-circle evaluator counted
    for T, count in ((50.0, 5), (100.0, 19), (200.0, 58)):
        assert count_zeros_halfplane(k, T, 0.05) == count, T


def test_negative_order_raises():
    with pytest.raises(ValueError):
        count_zeros_halfplane(-1, 30.0, 0.05, sigma_max=2.0)
    with pytest.raises(ValueError):
        continuation._zeta_em(np.array([2.0 + 1.0j]), 1e-10, -1)


def test_zero_count_needs_sigma_max_for_high_k():
    with pytest.raises(ValueError):
        count_zeros_halfplane(7, 50.0, 0.05)


def test_sigma_max_table_contents():
    assert SIGMA_MAX_TABLE[0] == 1.0
    assert SIGMA_MAX_TABLE[1] == pytest.approx(2.93938)
    assert SIGMA_MAX_TABLE[2] == pytest.approx(4.02853)
