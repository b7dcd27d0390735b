import math

import pytest
from hypothesis import given, strategies as st

from zetaderiv.geometry import (LOG3, cell, count_strips, dominant_index,
                                layout, q_bracket, q_const, q_value, strip,
                                wedge)

# independently recomputed at 50-digit precision, frozen here
Q_REFERENCE = {
    2: 1.1358825679163034,
    3: 0.8084842770331694,
    4: 0.6688552479774278,
    5: 0.5885924151954528,
}


def test_q_values_frozen():
    for M, want in Q_REFERENCE.items():
        assert q_value(M) == pytest.approx(want, abs=1e-15)


def test_q_const_fields():
    qc = q_const(7)
    assert qc.M == 7
    assert qc.value == q_value(7)


def test_q_rejects_small_m():
    with pytest.raises(ValueError):
        q_const(1)


def test_q_bracket_small_cases():
    for n in range(3, 200):
        lo, hi = q_bracket(n)
        assert lo <= q_value(n - 1) <= hi


@given(st.integers(3, 10 ** 4))
def test_q_bracket_property(n):
    lo, hi = q_bracket(n)
    assert lo <= q_value(n - 1) <= hi


def test_q_decreasing():
    vals = [q_value(M) for M in range(2, 300)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wedge_m2_one_sided():
    w = wedge(2)
    assert w.slope_left == pytest.approx(q_value(2))
    assert w.offset_left == 2.0
    assert w.sigma_right(100.0) is None
    assert w.tip_k == 3.0
    assert w.contains(38, 50.0)
    assert not w.contains(38, 40.0)


def test_wedge_m3_special_offsets():
    w = wedge(3)
    assert w.offset_left == pytest.approx(4.0 * LOG3)
    assert w.offset_right == -2.0
    assert w.tip_k == pytest.approx((4.0 * LOG3 + 2.0)
                                    / (q_value(2) - q_value(3)))
    assert math.ceil(w.tip_k) == 20


def test_wedge_general_tips():
    # ceilings of the exact tip positions for M = 4..10
    tips = {4: 71, 5: 151, 6: 269, 7: 430, 8: 639, 9: 899, 10: 1215}
    for M, want in tips.items():
        assert math.ceil(wedge(M).tip_k) == want


def test_wedge_ordering_above_tip():
    for M in range(3, 12):
        w = wedge(M)
        k = math.ceil(w.tip_k) + 5
        assert w.sigma_left(k) < w.sigma_right(k)


def test_strip_existence_threshold():
    # strict separation for S_2 first holds at k = 24
    assert not strip(2, 23).exists
    assert strip(2, 24).exists
    threshold = 7.0 * LOG3 / (q_value(2) - q_value(3))
    assert 23 < threshold < 24


def test_strip_fields():
    sp = strip(2, 38)
    assert sp.center_sigma == pytest.approx(q_value(2) * 38)
    assert sp.half_width == pytest.approx(3.0 * LOG3)
    assert sp.period == pytest.approx(2.0 * math.pi / math.log(1.5))
    assert sp.delta == pytest.approx(math.log(1.5))


def test_count_strips_reference_values():
    assert count_strips(38)[0] == 1
    assert count_strips(100)[0] == 2
    assert count_strips(800)[0] == 6
    assert count_strips(10 ** 4)[0] == 19


def test_layout_matches_brute_force_scan():
    # the scan tests every M below 3 sqrt(k) + 10, far past the last wedge
    # and strip, so it does not rely on the walk stopping at the first gap
    wedges = [wedge(M) for M in range(2, int(3 * math.sqrt(10 ** 6)) + 10)]
    for k in list(range(3, 3001)) + [51_540, 51_541, 10 ** 5, 10 ** 6]:
        m_cap = int(3 * math.sqrt(k)) + 10
        want_wedges = [w for w in wedges[:m_cap - 2] if k >= w.tip_k]
        want_strips = [sp for sp in (strip(M, k) for M in range(2, m_cap))
                       if sp.exists]
        assert layout(k) == (want_wedges, want_strips), k
        assert count_strips(k)[0] == len(want_strips)


def test_count_strips_monotone_in_k():
    counts = [count_strips(k)[0] for k in range(30, 500, 25)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_cell_geometry():
    c = cell(2, 38, 1)
    sp = c.strip
    assert c.t_range == pytest.approx((sp.period, 2 * sp.period))
    assert c.predicted_zero.sigma == pytest.approx(sp.center_sigma)
    assert c.predicted_zero.t == pytest.approx(3 * math.pi / sp.delta)
    assert c.contains(sp.center_sigma, 1.5 * sp.period)
    assert not c.contains(sp.center_sigma, 0.5 * sp.period)


def test_cell_requires_existing_strip():
    with pytest.raises(ValueError):
        cell(2, 14, 0)


def _brute_dominant(sigma, k):
    n_max = int(3 * math.exp(k / sigma)) + 10
    best, best_v = None, -math.inf
    for n in range(2, n_max):
        v = k * math.log(math.log(n)) - sigma * math.log(n)
        if v > best_v:
            best, best_v = n, v
    return best


def test_dominant_index_small_case():
    # at sigma = 2, k = 1 the n = 2 term (log 2)/4 beats (log 3)/9
    assert dominant_index(2.0, 1) == 2


def test_dominant_index_switches_at_crossover_line():
    # the winner flips from 4 to 3 across the line sigma = q_3 k
    k = 60
    assert dominant_index(q_value(3) * k + 1e-6, k) == 3
    assert dominant_index(q_value(3) * k - 1e-6, k) == 4


@given(st.floats(0.5, 12.0), st.integers(1, 60))
def test_dominant_index_matches_brute_force(sigma, k):
    if k / sigma > 9.0:
        sigma = k / 9.0
    assert dominant_index(sigma, k) == _brute_dominant(sigma, k)


def test_dominant_index_overflow_guard():
    with pytest.raises(OverflowError):
        dominant_index(1.0, 1000)
