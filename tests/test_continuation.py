import math
from fractions import Fraction

import mpmath as mp
import pytest

from zetaderiv.continuation import (SIGMA_MAX_TABLE, _bernoulli_table,
                                    count_zeros_halfplane, eval_deriv_cauchy,
                                    eval_zeta_em, pick_radius)
from zetaderiv.geometry import ComplexPoint

mp.mp.dps = 30


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
])
def test_eval_zeta_em_matches_mpmath(sigma, t):
    got = eval_zeta_em(ComplexPoint(sigma, t), 1e-12).value.to_complex()
    want = complex(mp.zeta(complex(sigma, t)))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_eval_zeta_em_guards():
    with pytest.raises(ValueError):
        eval_zeta_em(ComplexPoint(-0.5, 3.0))
    with pytest.raises(ValueError):
        eval_zeta_em(ComplexPoint(1.0, 0.0))


@pytest.mark.parametrize("sigma,t,k", [
    (1.5, 2.0, 1), (0.7, 20.0, 2), (2.0, 0.0, 1), (2.0, 0.0, 3),
    (0.5, 30.0, 1),
])
def test_eval_deriv_cauchy_matches_mpmath(sigma, t, k):
    res = eval_deriv_cauchy(ComplexPoint(sigma, t), k, 1e-10)
    want = complex(mp.diff(mp.zeta, complex(sigma, t), k))
    assert res.value.to_complex() == pytest.approx(want, rel=1e-8, abs=1e-10)



def test_eval_deriv_cauchy_unconverged_reports_last_difference():
    # eps = 1e-30 is below double precision, so the doubling stops at 4096
    # nodes without agreement; the estimate is then the last doubling
    # difference, never zero
    res = eval_deriv_cauchy(ComplexPoint(2.0, 5.0), 3, 1e-30)
    assert res.terms_used == 4096
    assert 0.0 < abs(res.abs_error_bound.to_complex()) < 1e-10

def test_pick_radius_shrinks_near_pole_and_axis():
    assert pick_radius(ComplexPoint(1.2, 0.0)) == pytest.approx(0.1)
    assert pick_radius(ComplexPoint(0.1, 20.0)) == pytest.approx(0.08)
    assert pick_radius(ComplexPoint(5.0, 5.0)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        eval_deriv_cauchy(ComplexPoint(-1.0, 2.0), 1)


def test_zero_count_zeta_up_to_50():
    # the classical count: ten zeros of zeta with 0 < t <= 50
    assert count_zeros_halfplane(0, 50.0, 0.05) == 10


def test_zero_count_zeta_up_to_100():
    assert count_zeros_halfplane(0, 100.0, 0.05) == 29


def test_zero_count_needs_sigma_max_for_high_k():
    with pytest.raises(ValueError):
        count_zeros_halfplane(7, 50.0, 0.05)


def test_sigma_max_table_contents():
    assert SIGMA_MAX_TABLE[0] == 1.0
    assert SIGMA_MAX_TABLE[1] == pytest.approx(2.93938)
    assert SIGMA_MAX_TABLE[2] == pytest.approx(4.02853)
