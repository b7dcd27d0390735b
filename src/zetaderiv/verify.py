"""Regression checks for every explicit constant used in the proofs.

Each check records the claimed bound, the recomputed value, and whether the
stated relation holds.  Failures are reported, never raised: a false claim in
a source table is a finding, and several known ones are deliberately left
visible here (see "Known errata in the published constants" in the README).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import LOG3, q_value, strip, wedge
from .series import head_ratio, log_term_mag, tail_bound, tail_ratio_upper
from .zeros import Rect, series_evaluator, winding_number

EQ_TOL = 1e-12
# remark scan: half-width of the box around the mid-wedge line, its height
# in strip periods, and how far the scan reaches above the claim
LINE_HALF_WIDTH = 0.5 * LOG3
LINE_PERIODS = 3.0
SCAN_SPAN = 8

TIP_TABLE = {3: 20, 4: 71, 5: 151, 6: 269, 7: 429, 8: 638, 9: 898, 10: 1214}
ONLINE_TABLE = {3: 14, 4: 41, 5: 87, 6: 154, 7: 247, 8: 368, 9: 519, 10: 703}

M4_10_TABLE = {
    # M: (R_{M+1} bound, Q_{M+1}/Q_M bound, T_M/Q_M bound)
    4: (0.60, 0.30, 0.47),
    5: (0.57, 0.31, 0.47),
    6: (0.55, 0.31, 0.48),
    7: (0.53, 0.31, 0.48),
    8: (0.52, 0.32, 0.48),
    9: (0.51, 0.32, 0.48),
    10: (0.51, 0.32, 0.48),
}


@dataclass(frozen=True)
class ConstantCheck:
    name: str
    claimed: float
    computed: float
    relation: str  # one of '<', '<=', '=within'
    tolerance: float
    passed: bool


def _check(name: str, claimed: float, computed: float, relation: str,
           tolerance: float = 0.0) -> ConstantCheck:
    if relation == '<':
        ok = computed < claimed
    elif relation == '<=':
        ok = computed <= claimed
    elif relation == '=within':
        ok = abs(computed - claimed) <= tolerance
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return ConstantCheck(name, claimed, computed, relation, tolerance, ok)


def _term_ratio(num: int, den: int, k: float, sigma: float) -> float:
    return math.exp(log_term_mag(num, k, sigma) - log_term_mag(den, k, sigma))


def verify_vk_constants() -> list[ConstantCheck]:
    """Constants behind the one-sided k >= 3 region sigma >= q_2 k + 2.

    The claimed bound R_4 < 0.68 is recomputed for every k in 3..200; it is
    genuinely false for small k (R_4 at k = 3 is about 1.57), and those
    entries are reported as failures rather than patched over.
    """
    q2 = q_value(2)
    checks = []
    ratio_eq = _term_ratio(3, 2, 3, q2 * 3 + 2.0)
    checks.append(_check("vk.q3_over_q2_equals_4_9", 4.0 / 9.0, ratio_eq,
                         '=within', EQ_TOL))
    worst_q4 = max(_term_ratio(4, 2, k, q2 * k + 2.0)
                   for k in range(3, 201))
    checks.append(_check("vk.q4_over_q2_max", 0.19, worst_q4, '<'))
    for k in range(3, 201):
        sigma = q2 * k + 2.0
        checks.append(_check(f"vk.r4_bound_k{k}", 0.68,
                             tail_bound(4, k, sigma), '<'))
    slack = 1.0 - 4.0 / 9.0 - 0.19 * (1.0 + 0.68)
    checks.append(_check("vk.final_slack_positive", slack, 0.0, '<'))
    return checks


def verify_thm1a_constants() -> list[ConstantCheck]:
    """Constants for the M = 3 wedge, 4 log 3 <= sigma - q_3 k and
    sigma <= q_2 k - 2, valid from the tip k = 20 on.

    The head-side ratio Q_2/Q_3 on the right boundary equals (3/2)^-2 = 4/9
    exactly; the display rounds it up to 0.45.
    """
    q2, q3 = q_value(2), q_value(3)
    w = wedge(3)
    k_tip = math.ceil(w.tip_k)
    checks = []
    # left boundary: Q_4/Q_3 is k-independent there, equal to (3/4)^(4 log 3)
    left_ratio = _term_ratio(4, 3, k_tip, q3 * k_tip + 4.0 * LOG3)
    checks.append(_check("thm1a.q4_over_q3_left", 0.29, left_ratio, '<'))
    # right boundary: Q_2/Q_3 = (3/2)^-2 = 4/9 exactly, rounded to 0.45
    right_ratio = _term_ratio(2, 3, k_tip, q2 * k_tip - 2.0)
    checks.append(_check("thm1a.q2_over_q3_right_exact", 4.0 / 9.0,
                         right_ratio, '=within', EQ_TOL))
    checks.append(_check("thm1a.q2_over_q3_right", 0.45, right_ratio, '<'))
    for k in range(k_tip, 201):
        sigma = q3 * k + 4.0 * LOG3
        checks.append(_check(f"thm1a.r4_bound_k{k}", 0.72,
                             tail_bound(4, k, sigma), '<'))
    slack = 1.0 - 0.45 - 0.29 * (1.0 + 0.72)
    checks.append(_check("thm1a.final_slack_positive", slack, 0.0, '<'))
    return checks


def verify_m4_10_table() -> list[ConstantCheck]:
    """The 21 per-M bounds used for the wedges 4 <= M <= 10, each evaluated
    at sigma_M = q_M k_M + (M+1) log 3 with k_M the exact wedge tip."""
    checks = []
    for M, (r_bound, q_bound, t_bound) in M4_10_TABLE.items():
        k_m = wedge(M).tip_k
        sigma_m = q_value(M) * k_m + (M + 1) * LOG3
        checks.append(_check(f"m4_10.r{M + 1}_at_sigma{M}", r_bound,
                             tail_bound(M + 1, k_m, sigma_m), '<'))
        checks.append(_check(f"m4_10.q{M + 1}_over_q{M}", q_bound,
                             _term_ratio(M + 1, M, k_m, sigma_m), '<'))
        t_ratio = tail_ratio_upper(M + 1, k_m, sigma_m,
                                   log_term_mag(M, k_m, sigma_m))
        checks.append(_check(f"m4_10.t{M}_over_q{M}", t_bound, t_ratio, '<'))
    return checks


def verify_head_bound() -> list[ConstantCheck]:
    """The geometric head estimate: (M/(M+1))^((M+1) log 3) increases to its
    asymptote 1/3, and the head-to-dominant ratio stays at or below the
    geometric-series value 1/2 on left wedge boundaries."""
    checks = []

    def f(M: int) -> float:
        return (M / (M + 1.0)) ** ((M + 1.0) * LOG3)

    vals = [f(M) for M in range(2, 101)]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    checks.append(_check("head.ratio_monotone_increasing", 1.0,
                         1.0 if monotone else 0.0, '=within', 0.0))
    checks.append(_check("head.ratio_below_asymptote", 1.0 / 3.0,
                         max(vals), '<'))
    checks.append(_check("head.asymptote_at_1e4", 1.0 / 3.0,
                         f(10 ** 4), '=within', 1e-4))
    checks.append(_check("head.h2_over_q2_empty", 0.0,
                         head_ratio(2, 38, q_value(2) * 38 + 3 * LOG3),
                         '=within', 0.0))
    for M in (4, 7, 11, 15):
        k = math.ceil(wedge(M).tip_k)
        sigma = q_value(M) * k + (M + 1) * LOG3
        checks.append(_check(f"head.h{M}_over_q{M}_k{k}", 0.5,
                             head_ratio(M, k, sigma), '<='))
    return checks


def _line_zero_count(M: int, k: int) -> int:
    """Zeros of the k-th derivative in the box sigma_mid +- (1/2) log 3,
    0.05 < t <= LINE_PERIODS periods of strip S_{M-1}, around the mid-wedge
    line sigma_mid of wedge M."""
    w = wedge(M)
    sigma_mid = 0.5 * (w.sigma_left(k) + w.sigma_right(k))
    t_hi = LINE_PERIODS * strip(M - 1, k).period
    rect = Rect(sigma_mid - LINE_HALF_WIDTH, sigma_mid + LINE_HALF_WIDTH,
                0.05, t_hi)
    return winding_number(rect, series_evaluator(k, M_ref=M)).count


def verify_remark_tables(max_M: int = 5) -> list[ConstantCheck]:
    """The two closing-table rows: wedge-tip ceilings recomputed from the
    closed form, and the lowest zero-free k on mid-wedge lines found by a
    winding scan from the claimed value (_online_scan).

    The tip ceilings for M = 7..10 come out one higher than the published
    row (the exact tips lie just above the printed integers); those entries
    fail and are left failing.
    """
    checks = []
    for M, claimed in TIP_TABLE.items():
        checks.append(_check(f"remark.tip_ceiling_M{M}", float(claimed),
                             float(math.ceil(wedge(M).tip_k)),
                             '=within', 0.0))
    for M, claimed in ONLINE_TABLE.items():
        if M > max_M:
            continue
        checks.append(_check(f"remark.online_M{M}", float(claimed),
                             _online_scan(M, claimed), '=within', 0.0))
    return checks


def _online_scan(M: int, claimed: int) -> float:
    """The k just above the highest nonzero _line_zero_count(M, k) near the
    claim: scanned downward from the claim while the count is 0, or, if the
    count at the claim is nonzero, upward for up to SCAN_SPAN steps.  NaN if
    the downward scan reaches k = 3, or the upward one its end, without the
    count changing."""
    if _line_zero_count(M, claimed) == 0:
        for k in range(claimed - 1, 2, -1):
            if _line_zero_count(M, k) != 0:
                return float(k + 1)
        return math.nan
    for k in range(claimed + 1, claimed + SCAN_SPAN + 1):
        if _line_zero_count(M, k) == 0:
            return float(k)
    return math.nan


SUITES = {
    "vk": verify_vk_constants,
    "thm1a": verify_thm1a_constants,
    "m4-10": verify_m4_10_table,
    "head": verify_head_bound,
    "remark": verify_remark_tables,
}


def run_suite(name: str) -> list[ConstantCheck]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"pick from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
