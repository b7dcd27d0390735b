"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Two published constants are false as stated: the wedge-tip row is one below
the recomputed ceilings for M = 7..10, and the tail-factor bound R_4 < 0.68
fails for 3 <= k <= 10.  The verification suites report those checks as
failed.  Criteria 3 and 6 recompute the values with mpmath and assert that
the suites report exactly these errata (see "Known errata in the published
constants" in the README, and ``known_errata`` for the shared sets).
"""
import math
import random

import pytest

from zetaderiv.continuation import count_zeros_halfplane, eval_deriv_cauchy
from zetaderiv.geometry import (ComplexPoint, count_strips, layout, q_value,
                                strip, wedge)
from zetaderiv.series import eval_deriv, log_term_mag, tail_bound
from zetaderiv.verify import (verify_head_bound, verify_m4_10_table,
                              verify_remark_tables, verify_thm1a_constants,
                              verify_vk_constants)
from zetaderiv.zeros import (Rect, enumerate_zeros, rouche_certificate,
                             series_evaluator, winding_number)

from known_errata import R4_ERRATA_K, TIP_ERRATA_M

Q2 = q_value(2)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_q_constants():
    errs = [abs(q_value(2) - 1.13588), abs(q_value(3) - 0.808484),
            abs(q_value(4) - 0.668855)]
    ok = errs[0] < 5e-6 and errs[1] < 5e-7 and errs[2] < 5e-7
    _report(1, ok, f"q_2, q_3, q_4 match the printed digits (max dev "
                   f"{max(errs):.1e})")


def test_criterion_02_q_bracket():
    bad = [n for n in range(3, 10 ** 4 + 1)
           if not (1.0 / math.log(n) <= q_value(n - 1)
                   <= 1.0 / math.log(n - 1))]
    _report(2, not bad, f"1/log n <= q_(n-1) <= 1/log(n-1) for n <= 1e4 "
                        f"({len(bad)} violations)")


def _mp_q(M):
    import mpmath as mp
    return mp.log(mp.log(M) / mp.log(M + 1)) / mp.log(mp.mpf(M) / (M + 1))


def _mp_tip(M, k):
    """Tip of wedge M >= 3, its ceiling, and the wedge width
    sigma_right - sigma_left at order k, from the closed form in 50 digits."""
    import mpmath as mp
    with mp.workdps(50):
        log3 = mp.log(3)
        # off_left - off_right: 4 log 3 + 2 for M = 3, (2M + 1) log 3 above
        off = 4 * log3 + 2 if M == 3 else (2 * M + 1) * log3
        slope = _mp_q(M - 1) - _mp_q(M)
        tip = off / slope
        return float(tip), int(mp.ceil(tip)), float(slope * k - off)


def test_criterion_03_tip_table():
    published = {3: 20, 4: 71, 5: 151, 6: 269, 7: 429, 8: 638, 9: 898,
                 10: 1214}
    remark = {c.name: c for c in verify_remark_tables(max_M=0)}
    bad, errata, tips, widths = [], set(), [], []
    for M, claimed in published.items():
        tip, ceiling, width = _mp_tip(M, claimed)
        tips.append(f"{tip:.3f}")
        if abs(wedge(M).tip_k - tip) > 1e-9 * tip:
            bad.append((M, "tip", wedge(M).tip_k))
        check = remark[f"remark.tip_ceiling_M{M}"]
        if check.claimed != claimed:
            bad.append((M, "claimed", check.claimed))
        if claimed == ceiling:
            if not check.passed:
                bad.append((M, "reported failed", check.computed))
            continue
        # an erratum: the wedge is empty at the published k, and the suite
        # reports the ceiling as one above the published value
        errata.add(M)
        widths.append(f"M{M} {width:+.4f}")
        if not (width < 0.0 and not check.passed
                and check.computed == check.claimed + 1.0):
            bad.append((M, "erratum", width, check.computed))
    if errata != TIP_ERRATA_M:
        bad.append(("errata", sorted(errata)))
    _report(3, not bad,
            f"tips {', '.join(tips)} for M = 3..10; the published ceilings "
            f"hold for M = {sorted(set(published) - errata)}; for M = "
            f"{sorted(errata)} the wedge is empty at the published k (width "
            f"{', '.join(widths)}) and the suite reports them failed "
            f"(mismatches: {bad})")


def test_criterion_04_strip_count_bounds():
    bad = []
    for k in (100, 200, 400, 800, 10 ** 4):
        c, lo, hi = count_strips(k)
        if not (lo < c < hi):
            bad.append((k, c, lo, hi))
    _report(4, not bad, f"sqrt(k)/(3 log k) < c(k) < 2 sqrt(k)/log k for all "
                        f"five k (violations: {bad})")


def test_criterion_05_tail_certification():
    import mpmath as mp

    def integral(k, sigma, n):
        # exact integral of (log x)^k x^-sigma over [n, inf)
        y = (sigma - 1.0) * math.log(n)
        return float(mp.gammainc(k + 1, y) / mp.mpf(sigma - 1.0) ** (k + 1))

    rng = random.Random(20260823)
    failures = 0
    uncertified = 0
    for _ in range(200):
        M = rng.randint(2, 15)
        k = rng.randint(0, 40)
        sigma = 1.0 + (k + 1.0 + rng.uniform(0.5, 6.0)) / math.log(M) + 0.05
        tb = tail_bound(M, k, sigma)
        assert tb.valid
        bound = math.exp(log_term_mag(M, k, sigma)) * tb.R
        # terms decrease beyond the continuous maximum at e^(k/sigma);
        # from there the integral brackets the remainder within one term
        n = max(M + 1, math.ceil(math.exp(k / sigma)) + 2)
        brute = sum(math.exp(log_term_mag(m, k, sigma))
                    for m in range(M + 1, n))
        closed = False
        while n < 4 * 10 ** 6:
            f_n = math.exp(log_term_mag(n, k, sigma))
            upper = brute + integral(k, sigma, n) + f_n
            slack = bound - upper
            if slack > 0.0 and f_n < 1e-3 * slack:
                closed = True
                break
            nxt = min(2 * n, 4 * 10 ** 6)
            brute += sum(math.exp(log_term_mag(m, k, sigma))
                         for m in range(n, nxt))
            n = nxt
        if not closed:
            uncertified += 1
        elif upper > bound:
            failures += 1
    ok = failures == 0 and uncertified == 0
    _report(5, ok, f"200 random tails certified below Q_M * R "
                   f"({failures} violations, {uncertified} unresolved)")


def _mp_r4(k):
    """R_4^k, Q_3/Q_2 and Q_4/Q_2 at sigma = q_2 k + 2, in 50 digits."""
    import mpmath as mp
    with mp.workdps(50):
        sigma = _mp_q(2) * k + 2
        r4 = 4 / (sigma - 1) * (1 + k / ((sigma - 1) * mp.log(4) - k + 1))
        q3_q2 = (mp.log(3) / mp.log(2)) ** k * (mp.mpf(2) / 3) ** sigma
        q4_q2 = (mp.log(4) / mp.log(2)) ** k * mp.mpf(2) ** -sigma
        return float(r4), float(q3_q2), float(q4_q2)


def test_criterion_06_constant_suites():
    suites = {
        "vk": verify_vk_constants(),
        "thm1a": verify_thm1a_constants(),
        "m4-10": verify_m4_10_table(),
        "head": verify_head_bound(),
    }
    checks = [c for suite in suites.values() for c in suite]
    failed = {c.name: c for c in checks if not c.passed}
    expected = {f"vk.r4_bound_k{k}" for k in R4_ERRATA_K}
    bad = sorted(set(failed) ^ expected)
    r4s, slacks = [], {}
    for k in sorted(R4_ERRATA_K):
        r4, q3_q2, q4_q2 = _mp_r4(k)
        r4s.append(f"{r4:.4f}")
        c = failed.get(f"vk.r4_bound_k{k}")
        if c is None or abs(c.computed - r4) > 1e-12 * r4:
            bad.append((k, None if c is None else c.computed))
            continue
        # R_4 < 0.68 exists to make 1 - Q_3/Q_2 - (Q_4/Q_2)(1 + R_4) > 0;
        # that still holds with the true R_4 at each k
        slacks[k] = 1.0 - q3_q2 - q4_q2 * (1.0 + c.computed)
    k_min = min(slacks, key=slacks.get, default=None)
    if k_min is None or slacks[k_min] <= 0.0:
        bad.append(("slack", slacks))
    _report(6, not bad,
            f"{len(checks) - len(failed)}/{len(checks)} proof-constant checks "
            f"pass; R_4^k(q_2 k + 2) = {', '.join(r4s)} for k = 3..10, "
            f"reported failed against 0.68; per-k slack min "
            f"{slacks.get(k_min, math.nan):.4f} at k = {k_min} "
            f"(mismatches: {bad})")


def _wedge_spans(k):
    """Usable (M, sigma_lo, sigma_hi) spans strictly inside the wedges."""
    spans = []
    for w in layout(k)[0]:
        lo = w.sigma_left(k) + 0.4
        hi = w.sigma_right(k)
        hi = lo + 8.0 if hi is None else hi - 0.4
        if hi > lo + 0.5:
            spans.append((w.M, lo, hi))
    return spans


def test_criterion_07_zero_free_wedges():
    rng = random.Random(7)
    bad_rects = 0
    for k in (38, 100):
        spans = _wedge_spans(k)
        for i in range(10):
            M, lo, hi = spans[i % len(spans)]
            evaluator = series_evaluator(k, M_ref=M)
            a = rng.uniform(lo, hi - 0.5)
            b = rng.uniform(a + 0.3, min(a + 6.0, hi))
            t0 = rng.uniform(0.3, 20.0)
            t1 = t0 + rng.uniform(1.0, 8.0)
            if winding_number(Rect(a, b, t0, t1), evaluator).count != 0:
                bad_rects += 1
    grid_zeros = 0
    for k in (38, 100):
        for M, lo, hi in _wedge_spans(k):
            for i in range(100):
                sigma = lo + (hi - lo) * i / 99.0
                for jj in range(100):
                    t = 0.3 + 20.0 * jj / 99.0
                    v = eval_deriv(ComplexPoint(sigma, t), k, 1e-6).value
                    if v.is_zero():
                        grid_zeros += 1
    ok = bad_rects == 0 and grid_zeros == 0
    _report(7, ok, f"winding 0 on 20 wedge rectangles and nonvanishing on "
                   f"100x100 grids ({bad_rects} rects, {grid_zeros} grid "
                   f"hits)")


_RECORDS_CACHE = {}


def _records(M, k):
    if (M, k) not in _RECORDS_CACHE:
        period = strip(M, k).period
        _RECORDS_CACHE[(M, k)], _ = enumerate_zeros(M, k, 10 * period)
    return _RECORDS_CACHE[(M, k)]


def test_criterion_08_exact_counts():
    bad = []
    for (M, k) in ((2, 38), (2, 100), (3, 100)):
        period = strip(M, k).period
        recs = _records(M, k)
        for j in range(1, 11):
            n = sum(1 for r in recs if r.location.t <= j * period)
            if n != j:
                bad.append((M, k, j, n))
    _report(8, not bad, f"N(T_j) = j for the three configurations, j = 1..10 "
                        f"(violations: {bad})")


def test_criterion_09_rouche_certificates():
    bad = []
    for (M, k) in ((2, 38), (2, 100), (3, 100)):
        for j in range(10):
            c = rouche_certificate(M, k, j)
            if not (c.holds and c.min_gap > 0.0):
                bad.append((M, k, j, c.min_gap))
    _report(9, not bad, f"all 30 cell certificates hold with positive gap "
                        f"(failures: {bad})")


def test_criterion_10_simplicity():
    margins = [r.simplicity_margin
               for (M, k) in ((2, 38), (2, 100), (3, 100))
               for r in _records(M, k)]
    ok = bool(margins) and min(margins) > 1e-6
    _report(10, ok, f"all located zeros simple, min normalized margin "
                    f"{min(margins):.3e}")


def test_criterion_11_convergence_trend():
    delta = math.log(1.5)
    ok = True
    details = []
    for j in (0, 1, 2):
        recs38 = _records(2, 38)
        recs200 = [r for r in _records(2, 200) if r.j == j]
        r38 = [r for r in recs38 if r.j == j][0]
        r200 = recs200[0]
        d38 = abs(r38.location.sigma - Q2 * 38)
        d200 = abs(r200.location.sigma - Q2 * 200)
        t_pred = (2 * j + 1) * math.pi / delta
        t_rel = abs(r200.location.t - t_pred) / t_pred
        details.append(f"j={j}: dsigma {d38:.2e}->{d200:.2e}, "
                       f"dt/t {t_rel:.2e}")
        ok = ok and d200 < d38 and t_rel < 0.02
    _report(11, ok, "k=200 zeros hug the line and the predicted ordinates ("
                    + "; ".join(details) + ")")


def test_criterion_12_extreme_k():
    period = strip(2, 800).period
    recs, n = enumerate_zeros(2, 800, 3 * period)
    ok = (n == 3 and all(math.isfinite(r.residual) and r.residual < 1e-10
                         and r.simplicity_margin > 1e-6 for r in recs))
    _report(12, ok, f"enumerate_zeros(2, 800, T_3) -> {n} simple zeros, "
                    f"max residual "
                    f"{max((r.residual for r in recs), default=float('nan')):.1e}")


def test_criterion_13_berndt():
    ok = True
    details = []
    for T in (50.0, 100.0, 200.0):
        n0 = count_zeros_halfplane(0, T, 0.05)
        for k in (1, 2, 3):
            nk = count_zeros_halfplane(k, T, 0.05)
            disc = abs(nk - (n0 - T / (2 * math.pi) * math.log(2.0)))
            details.append(f"k={k}, T={T:g}: |disc| = {disc:.2f} vs "
                           f"{2 * math.log(T):.2f}")
            ok = ok and disc <= 2.0 * math.log(T)
    _report(13, ok, "zero-count main term matches (" + "; ".join(details)
                    + ")")


def test_criterion_14_cross_validation():
    rng = random.Random(14)
    bad = 0
    for _ in range(100):
        k = rng.choice((1, 2, 3))
        sigma = rng.uniform(1.06, 3.0)
        t = rng.uniform(0.0, 30.0)
        s = ComplexPoint(sigma, t)
        a = eval_deriv(s, k, 1e-9)
        b = eval_deriv_cauchy(s, k, 1e-10)
        va, vb = a.value.to_complex(), b.value.to_complex()
        budget = (a.abs_error_bound.to_complex().real
                  + b.abs_error_bound.to_complex().real
                  + 1e-11 * (abs(va) + abs(vb)) + 1e-12)
        if abs(va - vb) > budget:
            bad += 1
    _report(14, bad == 0, f"series and contour evaluations agree within "
                          f"combined bounds at 100 points ({bad} "
                          f"disagreements)")
