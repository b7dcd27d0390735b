import math

import pytest
from hypothesis import example, given, strategies as st

from zetaderiv.scaled import ScaledComplex

finite_complex = st.builds(
    complex,
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
).filter(lambda z: abs(z) > 1e-12)

exponents = st.floats(-500.0, 500.0, allow_nan=False)


def test_zero_and_one():
    assert ScaledComplex.zero().is_zero()
    assert ScaledComplex.one().to_complex() == 1.0
    assert ScaledComplex.zero().log_abs() == -math.inf


def test_from_complex_roundtrip():
    z = 3.5 - 2.25j
    sc = ScaledComplex.from_complex(z)
    assert 1.0 <= abs(sc.mantissa) < 2.0
    assert sc.to_complex() == pytest.approx(z, rel=1e-15)


def test_extreme_exponent_survives():
    # |value| = e^-922, far below float underflow, must stay exact in log
    v = ScaledComplex.from_polar(-922.0, 1.0)
    assert v.log_abs() == pytest.approx(-922.0, abs=1e-12)
    assert v.arg() == pytest.approx(1.0, abs=1e-12)
    assert v.to_complex() == 0j  # saturates on collapse, by design


def test_arg_of_subnormal_angle():
    # scaling the mantissa into [1, 2) flushes the subnormal imaginary part,
    # so arg() returns 0 where cmath.phase(2 + 5e-324j) raises OverflowError
    assert ScaledComplex.from_complex(2 + 5e-324j).arg() == 0.0


def test_to_complex_saturation():
    assert ScaledComplex.from_polar(800.0, 0.0).to_complex().real == math.inf
    assert ScaledComplex.from_polar(-800.0, 0.0).to_complex() == 0j


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ScaledComplex.one() / ScaledComplex.zero()


def test_add_alignment_drops_negligible():
    big = ScaledComplex.from_polar(0.0, 0.0)
    small = ScaledComplex.from_polar(-200.0, 0.0)
    assert (big + small).to_complex() == big.to_complex()


@given(finite_complex, finite_complex)
def test_mul_matches_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    assert (sa * sb).to_complex() == pytest.approx(a * b, rel=1e-12)


@given(finite_complex, finite_complex)
def test_add_matches_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    got = (sa + sb).to_complex()
    want = a + b
    assert got == pytest.approx(want, rel=1e-10, abs=1e-6 * (abs(a) + abs(b)))


@given(finite_complex, finite_complex)
def test_div_matches_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    assert (sa / sb).to_complex() == pytest.approx(a / b, rel=1e-12)


@given(finite_complex, exponents)
def test_normalization_invariant(m, e):
    sc = ScaledComplex.from_parts(m, e)
    assert 1.0 <= abs(sc.mantissa) < 2.0
    assert sc.log_abs() == pytest.approx(math.log(abs(m)) + e, abs=1e-9)


@given(finite_complex, exponents, finite_complex, exponents)
# the product's angle is subnormal: cmath.phase(m1 * m2) would raise
# OverflowError there, so the oracle takes atan2 of the parts
@example(1 + 0j, 0.0, 2 + 5e-324j, 0.0)
def test_mul_log_additivity(m1, e1, m2, e2):
    a = ScaledComplex.from_parts(m1, e1)
    b = ScaledComplex.from_parts(m2, e2)
    prod = a * b
    assert prod.log_abs() == pytest.approx(a.log_abs() + b.log_abs(),
                                           abs=1e-9)
    p = m1 * m2
    want = math.atan2(p.imag, p.real)
    got = prod.arg()
    assert abs((got - want + math.pi) % (2 * math.pi) - math.pi) < 1e-9
