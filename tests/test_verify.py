import math

import pytest

from zetaderiv.verify import (ConstantCheck, _line_zero_count, run_suite,
                              verify_head_bound, verify_m4_10_table,
                              verify_remark_tables, verify_thm1a_constants,
                              verify_vk_constants)

from known_errata import R4_ERRATA_K, TIP_ERRATA_M


def _by_name(checks):
    return {c.name: c for c in checks}


def test_vk_equality_and_final_slack():
    checks = _by_name(verify_vk_constants())
    eq = checks["vk.q3_over_q2_equals_4_9"]
    assert eq.passed
    assert eq.computed == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert checks["vk.q4_over_q2_max"].passed
    assert checks["vk.final_slack_positive"].passed


def test_vk_r4_claim_false_for_small_k():
    """The claimed R_4 < 0.68 genuinely fails for 3 <= k <= 10 (the value at
    k = 3 is about 1.57); the suite reports rather than hides this."""
    checks = _by_name(verify_vk_constants())
    for k in range(3, 201):
        assert checks[f"vk.r4_bound_k{k}"].passed == (k not in R4_ERRATA_K)
    assert checks["vk.r4_bound_k3"].computed == pytest.approx(1.5699, abs=2e-4)


def test_thm1a_all_pass():
    checks = verify_thm1a_constants()
    assert all(c.passed for c in checks)
    named = _by_name(checks)
    # the left-boundary ratio is k-independent: (3/4)^(4 log 3)
    assert named["thm1a.q4_over_q3_left"].computed == pytest.approx(
        (3.0 / 4.0) ** (4.0 * math.log(3.0)), abs=1e-12)
    assert named["thm1a.q2_over_q3_right_exact"].computed == pytest.approx(
        4.0 / 9.0, abs=1e-12)
    assert named["thm1a.r4_bound_k20"].computed == pytest.approx(0.708, abs=2e-3)


def test_m4_10_table_all_21_pass():
    checks = verify_m4_10_table()
    assert len(checks) == 21
    assert all(c.passed for c in checks)


def test_head_bound_suite():
    checks = verify_head_bound()
    assert all(c.passed for c in checks)
    named = _by_name(checks)
    assert named["head.h2_over_q2_empty"].computed == 0.0
    assert named["head.asymptote_at_1e4"].passed


def test_remark_tip_row():
    checks = _by_name(verify_remark_tables(max_M=0))
    # the published row is one below the recomputed ceilings for the errata
    for M in range(3, 11):
        c = checks[f"remark.tip_ceiling_M{M}"]
        if M in TIP_ERRATA_M:
            assert not c.passed
            assert c.computed == c.claimed + 1.0
        else:
            assert c.passed


def test_remark_online_scan_m3():
    checks = _by_name(verify_remark_tables(max_M=3))
    c = checks["remark.online_M3"]
    assert c.passed
    assert c.computed == 14.0


def test_remark_online_scan_reports_the_lowest_zero_free_k():
    # for M = 5 the count is 1 at k = 55..67 and 0 from 68 to past the
    # published 87, so the zero-free run starts at 68
    assert _line_zero_count(5, 67) > 0
    c = _by_name(verify_remark_tables(max_M=5))["remark.online_M5"]
    assert c.computed == 68.0
    assert not c.passed


def test_run_suite_dispatch():
    assert len(run_suite("m4-10")) == 21
    with pytest.raises(ValueError):
        run_suite("nope")


def test_verify_all_fails_exactly_the_errata_and_two_online_rows():
    # the errata of known_errata.py, and the two remark scans that find the
    # mid-wedge line zero-free from a lower k than published
    allc = run_suite("all")
    assert len(allc) == 426
    assert all(isinstance(c, ConstantCheck) for c in allc)
    failed = {c.name: c.computed for c in allc if not c.passed}
    errata = ({f"vk.r4_bound_k{k}" for k in R4_ERRATA_K}
              | {f"remark.tip_ceiling_M{M}" for M in TIP_ERRATA_M})
    assert set(failed) == errata | {"remark.online_M4", "remark.online_M5"}
    assert failed["remark.online_M4"] == 33.0
    assert failed["remark.online_M5"] == 68.0
