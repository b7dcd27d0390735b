import json
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetaderiv import geometry, series, zeros
from zetaderiv.geometry import (ComplexPoint, cell, dominant_index, layout,
                                q_value, strip, wedge)
from zetaderiv.scaled import ScaledComplex
from zetaderiv.series import (DEFAULT_EPS_REL, MAX_TERMS, _cutoff,
                              _partial_sum, choose_truncation, eval_deriv,
                              head_ratio, log_term_mag, tail_ratio_upper)
from zetaderiv.zeros import (INIT_SAMPLES_PER_EDGE, MAX_SUBDIV_DEPTH, Rect,
                             ZeroOnContourError, cell_winding,
                             enumerate_zeros, hline_margin, locate_zero,
                             rouche_certificate, series_evaluator,
                             strip_certificate, winding_number)

# the strips of the benchmark's fault-cell survey
CELLS = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
         / "cells.json")

def _poly_evaluator(root: complex, power: int = 1):
    def f(z: np.ndarray) -> np.ndarray:
        return (z - root) ** power
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


@pytest.mark.parametrize("density,n_edge", [
    (0.0, INIT_SAMPLES_PER_EDGE), (50.0, 100)])
def test_winding_samples_each_edge_in_one_call(density, n_edge):
    # a zero of order 80: the phase turns about 2 radians between initial
    # samples, so many segments are bisected
    sizes = []
    poly = _poly_evaluator(1 + 1j, power=80)

    def counting(z):
        sizes.append(z.size)
        return poly(z)

    res = winding_number(Rect(0.0, 2.0, 0.0, 2.0), counting, density)
    assert res.count == 80 and res.refined
    assert sizes[:4] == [n_edge] * 4
    assert sum(sizes) == res.samples
    # each refinement round is one call, however many segments it bisects
    assert len(sizes) - 4 < res.samples - 4 * n_edge


def test_winding_depth_exhausted():
    # a step function: its phase jumps by pi at sigma = 1 on the bottom and
    # top edges, and no bisection resolves the jump
    calls = []

    def step(z):
        calls.append(z.size)
        return np.where(z.real < 1.0, 1.0 + 0j, -1.0 + 0j)

    with pytest.raises(ZeroOnContourError,
                       match=f"after {MAX_SUBDIV_DEPTH} subdivisions near "
                       r"\(1\+0j\)"):
        winding_number(Rect(0.0, 2.0, 0.0, 2.0), step)
    assert len(calls) <= 4 + MAX_SUBDIV_DEPTH


# 64 samples on a side of 1.5: 18 roots (6 of multiplicity 3) at 0.1 from
# the boundary turn the phase by under 3*pi/2 between samples, so every
# jump they cause is seen and bisected
POLY_RECT = Rect(0.0, 1.5, 0.0, 1.5)


def _boundary_distance(z: complex, rect: Rect) -> float:
    dx = max(rect.sigma_lo - z.real, 0.0, z.real - rect.sigma_hi)
    dy = max(rect.t_lo - z.imag, 0.0, z.imag - rect.t_hi)
    if dx or dy:
        return math.hypot(dx, dy)
    return min(z.real - rect.sigma_lo, rect.sigma_hi - z.real,
               z.imag - rect.t_lo, rect.t_hi - z.imag)


_coord = st.floats(-1.0, 2.5)
_root = st.builds(complex, _coord, _coord).filter(
    lambda z: _boundary_distance(z, POLY_RECT) >= 0.1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_root, st.integers(1, 3)), min_size=1, max_size=6))
def test_winding_counts_polynomial_roots(roots):
    def poly(z):
        v = np.ones_like(z)
        for r, m in roots:
            v = v * (z - r) ** m
        return v

    inside = sum(m for r, m in roots if POLY_RECT.sigma_lo < r.real
                 < POLY_RECT.sigma_hi and POLY_RECT.t_lo < r.imag
                 < POLY_RECT.t_hi)
    assert winding_number(POLY_RECT, poly).count == inside


def _cell_points(M, k, j, n=16):
    """n points on each edge of cell(M, k, j), corners included, and the
    predicted zero."""
    c = cell(M, k, j)
    (s0, s1), (t0, t1) = c.sigma_range, c.t_range
    u = np.linspace(0.0, 1.0, n)
    return np.concatenate([s0 + (s1 - s0) * u + 1j * t0,
                           s1 + 1j * (t0 + (t1 - t0) * u),
                           s0 + (s1 - s0) * u + 1j * t1,
                           s0 + 1j * (t0 + (t1 - t0) * u),
                           [c.predicted_zero.to_complex()]])


# cells at k from 38 to 10^5, the first and last strip at the two largest
BATCH_CELLS = [(2, 38, 0), (3, 400, 7), (7, 1600, 32), (2, 10 ** 4, 3),
               (20, 10 ** 4, 3), (2, 10 ** 5, 3), (52, 10 ** 5, 3)]


@pytest.mark.parametrize("M,k,j", BATCH_CELLS)
@pytest.mark.parametrize("own_term", [True, False])
def test_series_evaluator_matches_pointwise_eval_deriv(M, k, j, own_term):
    # divided by the cell's own complex Q_M(s), or by its neighbour Q_{M+1}
    z = _cell_points(M, k, j)
    M_ref = M if own_term else M + 1
    got = series_evaluator(k, M_ref=M_ref)(z)
    assert got.shape == z.shape
    for p, value in zip(z.tolist(), got.tolist()):
        scale = ScaledComplex.from_polar(log_term_mag(M_ref, k, p.real),
                                         -p.imag * math.log(M_ref))
        want = (eval_deriv(p, k).value / scale).to_complex()
        assert abs(value - want) <= 1e-15 * k * abs(want)


def test_series_evaluator_sums_a_call_to_the_cutoff_of_its_smallest_sigma(
        monkeypatch):
    # the cutoffs of these points on their own run from 2^18 down to 2^7:
    # one search, at the smallest sigma as a float, and one sum over all
    # the points to the cutoff it gives
    z = np.array([6.0 - 3.0j, 4.0 + 1.0j, 9.0 + 20.0j])
    N = choose_truncation(3, 4.0, DEFAULT_EPS_REL)
    assert N > choose_truncation(3, 9.0, DEFAULT_EPS_REL)
    searches, sums = [], []

    def cutoff_spy(k, sigma, *args, **kwargs):
        searches.append(sigma)
        return _cutoff(k, sigma, *args, **kwargs)

    def sum_spy(k, sigma, t, n_lo, n_hi):
        sums.append((np.shape(sigma), n_lo, n_hi))
        return _partial_sum(k, sigma, t, n_lo, n_hi)

    monkeypatch.setattr(series, "_cutoff", cutoff_spy)
    monkeypatch.setattr(zeros, "_partial_sum", sum_spy)
    series_evaluator(3, M_ref=2)(z)
    assert len(searches) == 1 and isinstance(searches[0], float)
    assert searches[0] == 4.0
    assert sums == [(z.shape, 2, N)]


def test_series_evaluator_raises_where_the_search_ends_unmet():
    # at sigma = 1.1 the order-1 tail test is not met within MAX_TERMS
    assert not _cutoff(1, 1.1, DEFAULT_EPS_REL, MAX_TERMS)[1]
    with pytest.raises(ValueError, match="more than"):
        series_evaluator(1, M_ref=2)(np.array([1.1 + 5.0j, 3.0 + 1.0j]))


def test_off_strip_scale_raises_instead_of_overflowing():
    # normalizing by Q_2 inside strip S_40 at k = 10^5 puts the values
    # hundreds of orders of magnitude beyond the float range
    z = _cell_points(40, 10 ** 5, 3, n=4)
    with pytest.raises(OverflowError):
        series_evaluator(10 ** 5, M_ref=2)(z)
    assert np.all(np.isfinite(series_evaluator(10 ** 5, M_ref=40)(z)))


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
            return base(z) * np.array([g(x) for x in z.real])
        assert winding_number(rect, scaled).count == want


def test_cell_winding_counts_one():
    assert cell_winding(2, 38, 0).count == 1
    assert cell_winding(3, 100, 2).count == 1


def test_cell_winding_counts_one_in_every_strip_at_k_1e5():
    # dividing by the real Q_M(sigma) left the phase M^(-it) on the vertical
    # edges, about 20 rad between samples at M = 52, and miscounted here
    k = 10 ** 5
    strips = layout(k)[1]
    assert len(strips) == 51
    for sp in strips:
        for j in (0, 3):
            assert cell_winding(sp.M, k, j).count == 1, (sp.M, j)


def test_wedge_interior_winding_zero():
    w = wedge(2)
    k = 38
    lo = w.sigma_left(k) + 0.5
    res = winding_number(Rect(lo, lo + 5.0, 1.0, 9.0),
                         series_evaluator(k, M_ref=2))
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


def _mp_terms(M: int, k: int, sigma: float):
    """r = Q_{M+1}/Q_M, H_M/Q_M and T_{M+1}/Q_M at 40 digits; the tail is
    summed until a term falls below 1e-45 of the sum."""
    with mp.workdps(40):
        s = mp.mpf(sigma)

        def q(n):
            return mp.exp(k * (mp.log(mp.log(n)) - mp.log(mp.log(M)))
                          - s * (mp.log(n) - mp.log(M)))

        tail, n = mp.mpf(0), M + 2
        while n <= 3 * M or q(n) >= tail * mp.mpf(10) ** -45:
            tail += q(n)
            n += 1
        return q(M + 1), mp.fsum(q(n) for n in range(2, M)), tail


# the high-k strips where the unrounded terms fell on the unsafe side
@pytest.mark.parametrize("M,k", [(20, 10 ** 4), (30, 10 ** 5), (52, 10 ** 5)])
def test_certificate_terms_on_the_safe_side_of_mpmath(M, k):
    lo, hi = cell(M, k, 0).sigma_range
    xs = np.append(lo + (hi - lo) * np.arange(256) / 256, hi)[::16]
    batched = zeros._terms(M, k, xs)
    for i, sigma in enumerate(xs.tolist()):
        r_true, h_true, tail_true = _mp_terms(M, k, sigma)
        for r, dr, h, tail in (zeros._terms(M, k, sigma),
                               [a[i] for a in batched]):
            assert r - dr <= r_true <= r + dr, sigma
            assert h >= h_true and tail >= tail_true, sigma


def test_rouche_certificate_sums_its_tails_in_one_array_call(monkeypatch):
    calls = []

    def counting(m_start, k, sigma, log_ref):
        calls.append(np.size(sigma) if isinstance(sigma, np.ndarray)
                     else sigma)
        return tail_ratio_upper(m_start, k, sigma, log_ref)

    monkeypatch.setattr(zeros, "tail_ratio_upper", counting)
    cert = rouche_certificate(52, 10 ** 5, 3)
    assert cert.holds and calls == [zeros.SWEEP_INTERVALS + 1]
    calls.clear()
    margin = hline_margin(52, 10 ** 5, 3)
    assert margin > 0.0 and calls == [zeros.SWEEP_INTERVALS + 1]
    # one interval is one 2-point call, and nothing refines its coarser
    # bounds, which may then fail to be positive
    monkeypatch.setattr(zeros, "SWEEP_INTERVALS", 1)
    calls.clear()
    coarse = rouche_certificate(52, 10 ** 5, 3)
    assert calls == [2] and coarse.min_gap <= cert.min_gap
    calls.clear()
    assert hline_margin(52, 10 ** 5, 3) <= margin and calls == [2]


@pytest.mark.parametrize("part,node,value,on_edge", [
    ("h", 100, math.inf, False),      # one interior interval fails
    ("tail", 0, math.inf, True),      # the left end node fails
    ("tail", -1, math.nan, True)])    # a NaN tail at the right end node
def test_rouche_certificate_reports_a_failing_bound(monkeypatch, part, node,
                                                     value, on_edge):
    real_terms = zeros._terms

    def broken(M, k, sigma):
        terms = dict(zip(("r", "dr", "h", "tail"), real_terms(M, k, sigma)))
        terms[part] = terms[part].copy()
        terms[part][node] = value
        return tuple(terms.values())

    monkeypatch.setattr(zeros, "_terms", broken)
    cert = rouche_certificate(3, 400, 5)
    (s_lo, s_hi), (t_lo, t_hi) = cert.cell.sigma_range, cert.cell.t_range
    n = zeros.SWEEP_INTERVALS
    xs = np.append(s_lo + (s_hi - s_lo) * np.arange(n) / n, s_hi)
    assert cert.holds is False
    if on_edge:
        want = ComplexPoint(float(xs[node]), 0.5 * (t_lo + t_hi))
    else:  # the interval [node - 1, node], whose head is taken at node
        want = ComplexPoint(0.5 * float(xs[node - 1] + xs[node]), t_lo)
    assert cert.failure_point == want
    assert strip_certificate(3, 400).failure_sigma == want.sigma


def test_certificates_same_for_every_cell_of_a_strip():
    gaps = {rouche_certificate(3, 400, j).min_gap for j in (0, 1, 7, 39, 200)}
    margins = {hline_margin(3, 400, j) for j in (0, 1, 7, 39, 200)}
    cert = strip_certificate(3, 400)
    assert gaps == {cert.min_gap} and margins == {cert.line_margin}
    assert cert.failure_sigma is None

def test_locate_zero_k38():
    rec = locate_zero(2, 38, 0)
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
    rec = locate_zero(3, 100, 0)
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
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="T = "):
            enumerate_zeros(2, 38, T)


def test_zero_ordinates_periodic():
    sp = strip(2, 38)
    records, _ = enumerate_zeros(2, 38, 3 * sp.period)
    for r in records:
        want = (2 * r.j + 1) * math.pi / sp.delta
        assert abs(r.location.t - want) < 0.1 * sp.period


def _count_at(M, k, J):
    """The sanctioned height T_J of strip S_M, as `zetaderiv zeros
    --count-at J` takes it."""
    return 2.0 * math.pi * J / strip(M, k).delta


def test_enumerate_zeros_makes_one_sums_call_per_order_and_step(monkeypatch):
    sizes = []

    def counting(order, sigma, t, n_lo, n_hi):
        sizes.append(np.size(sigma))
        return _partial_sum(order, sigma, t, n_lo, n_hi)

    def refuse(*args, **kwargs):
        raise AssertionError("eval_deriv called on the strip path")

    monkeypatch.setattr(zeros, "_partial_sum", counting)
    monkeypatch.setattr(series, "eval_deriv", refuse)
    monkeypatch.setattr(zeros, "eval_deriv", refuse, raising=False)
    records, n = enumerate_zeros(2, 38, _count_at(2, 38, 40))
    assert n == 40 and [r.j for r in records] == list(range(40))
    # the first step takes every cell at once, for each of the two orders
    assert sizes[:2] == [40, 40]
    assert len(sizes) <= 2 * (zeros.NEWTON_MAX_ITERS + 1)


@pytest.mark.parametrize("M,k", [(2, 38), (3, 400), (4, 1156)])
def test_locate_zero_matches_enumerate_zeros(M, k):
    records, n = enumerate_zeros(M, k, _count_at(M, k, 40))
    assert n == 40
    for rec in records:
        assert locate_zero(M, k, rec.j) == rec, rec.j


@pytest.mark.parametrize("M,k", [(2, 38), (3, 400), (4, 1156)])
def test_record_residual_and_margin_are_the_sums_mantissas(M, k):
    # each sum's exponent is its largest term, so |mantissa| is the sum
    # normalized by Q_n(sigma) at the dominant index
    records, _ = enumerate_zeros(M, k, _count_at(M, k, 12))
    z = np.array([r.location.to_complex() for r in records])
    N = zeros._strip_cutoff(k, cell(M, k, 0).sigma_range[0])
    (m_k, _), (m_k1, _) = zeros._sums(k, z, N)
    assert [r.residual for r in records] == np.abs(m_k).tolist()
    assert [r.simplicity_margin for r in records] == np.abs(m_k1).tolist()


def test_enumerate_zeros_makes_no_dominant_index_call(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return dominant_index(*args)

    monkeypatch.setattr(geometry, "dominant_index", spy)
    monkeypatch.setattr(zeros, "dominant_index", spy, raising=False)
    records, n = enumerate_zeros(2, 38, _count_at(2, 38, 10))
    assert n == 10
    assert calls == []


def test_count_at_locates_exactly_the_cells_below_it(monkeypatch):
    # J = 40 puts T on the lower line of cell 40, where T * delta / (2 pi)
    # can round up past 40
    asked = []

    def spy(M, k, js):
        asked.append(((M, k), js))
        return []

    monkeypatch.setattr(zeros, "_locate", spy)
    strips = json.loads(CELLS.read_text())["strips"]
    for s in strips:
        enumerate_zeros(s["M"], s["k"], _count_at(s["M"], s["k"], 40))
    assert len(asked) == len(strips)
    assert [mk for mk, js in asked if js != list(range(40))] == []


@pytest.mark.parametrize("where", ["start", "cell"])
def test_degenerate_step_raises_locate_error_for_its_cell(monkeypatch, where):
    # the order-(k+1) sum is 0 at the predicted zero of cell 3 only, or
    # anywhere in cell 3: its step is not finite, so Newton fails there and
    # the run raises LocateError for that cell, without any winding number
    M, k, bad = 2, 38, 3
    T = _count_at(M, k, 8)
    clean, _ = enumerate_zeros(M, k, T)
    c = cell(M, k, bad)
    z0 = c.predicted_zero.to_complex()

    def degenerate(order, sigma, t, n_lo, n_hi):
        mant, shift = _partial_sum(order, sigma, t, n_lo, n_hi)
        if order == k + 1:
            if where == "start":
                hit = (sigma == z0.real) & (t == z0.imag)
            else:
                hit = (c.t_range[0] < t) & (t < c.t_range[1])
            mant = np.where(hit, 0.0, mant)
        return mant, shift

    windings = []

    def counted(*args, **kwargs):
        windings.append(args[0])
        return winding_number(*args, **kwargs)

    monkeypatch.setattr(zeros, "_partial_sum", degenerate)
    monkeypatch.setattr(zeros, "winding_number", counted)
    with pytest.raises(zeros.LocateError, match=f"j={bad}\\)"):
        enumerate_zeros(M, k, T)
    assert windings == []
    for j in (bad - 1, bad + 1):
        assert locate_zero(M, k, j) == clean[j]


@pytest.mark.parametrize("d_sigma,d_periods",
                         [(-4.0, 0.0), (4.0, 0.0), (0.0, 1.0), (0.0, -0.6)])
def test_a_step_that_leaves_its_cell_fails(monkeypatch, d_sigma, d_periods):
    # only the first step from the predicted zero of cell 3 is moved, out of
    # the cell (2*3*log 3 wide, one period high): Newton fails that cell at
    # once, even where it would converge from the cell's edge, and the other
    # cells of the same run keep their clean records
    M, k, bad = 2, 38, 3
    T = _count_at(M, k, 8)
    clean, _ = enumerate_zeros(M, k, T)
    sp = strip(M, k)
    z0 = cell(M, k, bad).predicted_zero.to_complex()
    d = complex(d_sigma, d_periods * sp.period)
    s_moved = d / (1.0 + d * math.log(M))  # the s whose step is d
    sums = zeros._sums

    def moved(order, z, N):
        (m_k, e_k), (m_k1, e_k1) = sums(order, z, N)
        hit = z == z0
        return ((np.where(hit, s_moved, m_k), np.where(hit, 0.0, e_k)),
                (np.where(hit, 1.0, m_k1), np.where(hit, 0.0, e_k1)))

    monkeypatch.setattr(zeros, "_sums", moved)
    with pytest.raises(zeros.LocateError, match=f"j={bad}\\)"):
        enumerate_zeros(M, k, T)
    z, iters = zeros._newton(sp, np.arange(8),
                             zeros._strip_cutoff(k, sp.sigma_range[0]))
    others = [j for j in range(8) if j != bad]
    assert iters[bad] == 0
    assert [complex(z[j]) for j in others] == [
        clean[j].location.to_complex() for j in others]
    assert iters[others].tolist() == [clean[j].newton_iters for j in others]


def test_every_fault_cell_of_the_survey_is_located():
    # the cells of perfbench/data/cells.json where an absolute Newton stop
    # failed, or succeeded only through a quadrisection fallback: Newton on
    # zeta^(k)/Q_M with a relative stop locates each one directly
    strips = json.loads(CELLS.read_text())["strips"]
    missed, n = [], 0
    for s in strips:
        M, k = s["M"], s["k"]
        for j in s["failing_j"] + s["fallback_j"]:
            n += 1
            rec = locate_zero(M, k, j)
            if not (cell(M, k, j).contains(rec.location.sigma, rec.location.t)
                    and rec.newton_iters <= 8):
                missed.append((M, k, j, rec.newton_iters))
    assert n == 722
    assert missed == []


def test_enumerate_zeros_far_up_a_low_strip():
    # |z| reaches 20000, far above where an absolute step bound of 1e-12
    # meets the rounding floor of the steps
    records, n = enumerate_zeros(2, 800, 20000.0)
    assert n == len(records) == 1291
    assert [r.j for r in records] == list(range(1291))
    assert all(r.location.t <= 20000.0 for r in records)


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 5])
def test_first_cells_of_every_strip_located(k):
    for sp in layout(k)[1]:
        records, n = enumerate_zeros(sp.M, k, _count_at(sp.M, k, 40))
        assert n == 40 and [r.j for r in records] == list(range(40))
        for rec in records:
            assert cell(sp.M, k, rec.j).contains(rec.location.sigma,
                                                 rec.location.t), rec


_strips = st.integers(38, 1600).flatmap(lambda k: st.sampled_from(
    [(sp.M, k) for sp in layout(k)[1]]))


@settings(max_examples=60, deadline=None)
@given(_strips, st.floats(0.0, 1.0))
def test_strip_cutoff_covers_every_sigma_of_the_strip(mk, u):
    M, k = mk
    lo, hi = cell(M, k, 0).sigma_range
    N = zeros._strip_cutoff(k, lo)
    sigma = min(lo + (hi - lo) * u, hi)
    for order in (k, k + 1):
        assert choose_truncation(order, sigma, DEFAULT_EPS_REL) <= N
