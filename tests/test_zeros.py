import math
import random

import pytest

from zetaderiv.geometry import ComplexPoint, cell, q_value, strip, wedge
from zetaderiv.scaled import ScaledComplex
from zetaderiv.series import head_ratio, log_term_mag, tail_ratio_upper
from zetaderiv.zeros import (Rect, ZeroOnContourError, cell_winding,
                             enumerate_zeros, hline_margin, locate_zero,
                             rouche_certificate, series_evaluator,
                             winding_number)


def _poly_evaluator(root: complex, power: int = 1):
    def f(z: complex) -> ScaledComplex:
        return ScaledComplex.from_complex((z - root) ** power)
    return f


def test_winding_simple_zero():
    res = winding_number(Rect(0.0, 2.0, 0.0, 2.0), _poly_evaluator(1 + 1j))
    assert res.count == 1


def test_winding_double_zero():
    res = winding_number(Rect(0.0, 2.0, 0.0, 2.0),
                         _poly_evaluator(1 + 1j, power=2))
    assert res.count == 2


def test_winding_no_zero():
    res = winding_number(Rect(2.0, 3.0, 2.0, 3.0), _poly_evaluator(0j))
    assert res.count == 0
    assert res.min_modulus_on_contour > 0.0


def test_winding_zero_on_contour_detected():
    with pytest.raises(ZeroOnContourError):
        winding_number(Rect(0.0, 2.0, 0.0, 2.0), _poly_evaluator(1 + 0j))


def test_winding_scaling_invariance():
    # multiplying by any positive real function of sigma keeps the count
    base = series_evaluator(38, M_ref=2)
    c = cell(2, 38, 0)
    rect = Rect(c.sigma_range[0], c.sigma_range[1],
                c.t_range[0], c.t_range[1])
    want = winding_number(rect, base).count
    scalings = [lambda s: 1e6, lambda s: math.exp(3.0 * s),
                lambda s: 1.0 / (1.0 + s * s)]
    for g in scalings:
        def scaled(z, g=g):
            return base(z) * g(z.real)
        assert winding_number(rect, scaled).count == want


def test_cell_winding_counts_one():
    assert cell_winding(2, 38, 0).count == 1
    assert cell_winding(3, 100, 2).count == 1


def test_wedge_interior_winding_zero():
    w = wedge(2)
    k = 38
    lo = w.sigma_left(k) + 0.5
    res = winding_number(Rect(lo, lo + 5.0, 1.0, 9.0), series_evaluator(k))
    assert res.count == 0


def test_rouche_certificate_examples():
    for (M, k, j) in [(2, 38, 0), (3, 100, 0), (2, 100, 4)]:
        c = rouche_certificate(M, k, j)
        assert c.holds
        assert c.min_gap > 0.0
        assert c.failure_point is None
        assert c.samples_per_edge == 256


def test_rouche_consistency_with_winding():
    rng = random.Random(7)
    for _ in range(4):
        M, k = rng.choice([(2, 38), (2, 100), (3, 100)])
        j = rng.randrange(0, 6)
        if rouche_certificate(M, k, j).holds:
            assert cell_winding(M, k, j).count == 1


def test_hline_margin_positive():
    assert hline_margin(2, 38, 1) > 0.0
    assert hline_margin(3, 100, 2) > 0.0
    assert hline_margin(2, 800, 0) > 0.0



def test_hline_margin_rejects_negative_cell():
    with pytest.raises(ValueError):
        hline_margin(2, 38, -1)


# criterion 9 cells, strip-cells seed-1 inputs, and j = 3 of the first and
# last strips at k = 10^4 and 10^5
SWEEP_CELLS = [(2, 38, 0), (2, 100, 9), (3, 100, 5), (2, 53, 48),
               (3, 164, 44), (4, 227, 57), (7, 1600, 32), (2, 10 ** 4, 3),
               (20, 10 ** 4, 3), (2, 10 ** 5, 3), (52, 10 ** 5, 3)]


def _dense_terms(M: int, k: int, n: int = 4096):
    """(Q_{M+1}/Q_M, H_M/Q_M, tail bound / Q_M) on n + 1 sigma points
    spanning the strip, both ends included exactly."""
    lo, hi = cell(M, k, 0).sigma_range
    out = []
    for sigma in [lo + (hi - lo) * i / n for i in range(n)] + [hi]:
        log_q = log_term_mag(M, k, sigma)
        out.append((math.exp(log_term_mag(M + 1, k, sigma) - log_q),
                    head_ratio(M, k, sigma),
                    tail_ratio_upper(M + 2, k, sigma, log_q)))
    return out


@pytest.mark.parametrize("M,k,j", SWEEP_CELLS)
def test_certificates_bound_dense_minimum(M, k, j):
    terms = _dense_terms(M, k)
    edges = [abs(1.0 - r) - h - tail for r, h, tail in (terms[0], terms[-1])]
    gap_min = min(edges + [1.0 + r - h - tail for r, h, tail in terms])
    margin_min = min((1.0 + r) / math.sqrt(2.0) - h - tail
                     for r, h, tail in terms)
    cert = rouche_certificate(M, k, j)
    margin = hline_margin(M, k, j)
    assert cert.holds and margin > 0.0
    for got, dense in ((cert.min_gap, gap_min), (margin, margin_min)):
        assert got <= dense
        assert dense - got <= 1e-3 * abs(dense)


def test_certificates_same_for_every_cell_of_a_strip():
    gaps = {rouche_certificate(3, 400, j).min_gap for j in (0, 1, 7, 39, 200)}
    margins = {hline_margin(3, 400, j) for j in (0, 1, 7, 39, 200)}
    assert len(gaps) == 1 and len(margins) == 1

def test_locate_zero_k38():
    rec = locate_zero(2, 38, 0, 1e-12)
    assert abs(rec.location.sigma - 43.16) < 0.3
    assert abs(rec.location.t - 7.7475) < 0.2
    assert rec.residual < 1e-10
    assert rec.simplicity_margin > 1e-6
    assert rec.newton_iters <= 60
    c = cell(2, 38, 0)
    assert c.contains(rec.location.sigma, rec.location.t)


def test_locate_zero_convergence_to_line():
    r38 = locate_zero(2, 38, 0)
    r200 = locate_zero(2, 200, 0)
    q2 = q_value(2)
    assert abs(r200.location.sigma - q2 * 200) < abs(
        r38.location.sigma - q2 * 38)


def test_locate_zero_m3():
    rec = locate_zero(3, 100, 0, 1e-12)
    c = cell(3, 100, 0)
    assert c.contains(rec.location.sigma, rec.location.t)
    assert rec.simplicity_margin > 0.0


def test_enumerate_zeros_sanctioned_heights():
    sp = strip(2, 38)
    for j in (1, 3, 5):
        records, n = enumerate_zeros(2, 38, j * sp.period)
        assert n == j
        assert [r.j for r in records] == list(range(j))


def test_enumerate_zeros_rejects_bad_T():
    with pytest.raises(ValueError):
        enumerate_zeros(2, 38, -1.0)


def test_zero_ordinates_periodic():
    sp = strip(2, 38)
    records, _ = enumerate_zeros(2, 38, 3 * sp.period)
    for r in records:
        want = (2 * r.j + 1) * math.pi / sp.delta
        assert abs(r.location.t - want) < 0.1 * sp.period
