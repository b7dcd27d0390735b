"""Dirichlet-series evaluation of the k-th zeta derivative for sigma > 1.

The k-th derivative is (-1)^k * sum_{n>=2} (log n)^k / n^s.  Individual terms
span hundreds of orders of magnitude at high k, so everything is computed in
log space and carried as ScaledComplex.  Truncation error is certified through
the integral tail bound R_M^k(sigma) = M/(sigma-1) * (1 + k/((sigma-1)log M -
k + 1)), valid whenever k - 1 < (sigma - 1) log M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ComplexPoint
from .scaled import ScaledComplex

DELTA_MIN = 0.05
DEFAULT_EPS_REL = 1e-12
MAX_TERMS = 1 << 22

# lazily grown log tables, indexed by n (entries 0 and 1 unused)
_ln = np.array([np.nan, 0.0])
_lln = np.array([np.nan, np.nan])


def _tables(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    global _ln, _lln
    if len(_ln) <= n_max:
        size = max(n_max + 1, 2 * len(_ln))
        idx = np.arange(len(_ln), size, dtype=float)
        ln_new = np.log(idx)
        _ln = np.concatenate([_ln, ln_new])
        _lln = np.concatenate([_lln, np.log(ln_new)])
    return _ln, _lln


@dataclass(frozen=True)
class EvalResult:
    """Series value with a certified bound on the truncation error."""

    value: ScaledComplex
    abs_error_bound: ScaledComplex
    terms_used: int


@dataclass(frozen=True)
class TailBound:
    """Integral bound: when valid, sum_{n>M} Q_n(sigma) <= Q_M(sigma) * R."""

    M: int
    k: int
    sigma: float
    R: float
    valid: bool


def log_term_mag(n: int, k: int, sigma: float) -> float:
    """log of Q_n^k(sigma) = (log n)^k / n^sigma, for n >= 2."""
    return k * math.log(math.log(n)) - sigma * math.log(n)


def term(n: int, k: int, s: ComplexPoint) -> ScaledComplex:
    """Single series term (log n)^k * n^(-s) as a scaled complex."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if n < 1:
        raise ValueError(f"term index must be >= 1, got {n}")
    if n == 1:
        return ScaledComplex.one() if k == 0 else ScaledComplex.zero()
    ln = math.log(n)
    return ScaledComplex.from_polar(k * math.log(ln) - s.sigma * ln,
                                    -s.t * ln)


def head(M: int, k: int, s: ComplexPoint) -> ScaledComplex:
    """Head H_M = sum_{n=2}^{M-1} Q_n(s); empty (zero) for M = 2."""
    if M < 2:
        raise ValueError(f"head needs M >= 2, got {M}")
    if M == 2:
        return ScaledComplex.zero()
    return _partial_sum(k, s.sigma, s.t, 2, M - 1)


def head_ratio(M: int, k: float, sigma: float) -> float:
    """H_M(sigma) / Q_M(sigma), an exact positive sum; zero for M = 2."""
    h = head(M, k, ComplexPoint(sigma, 0.0))
    return math.exp(h.log_abs() - log_term_mag(M, k, sigma))


def _partial_sum(k: int, sigma: float, t: float, n_lo: int,
                 n_hi: int) -> ScaledComplex:
    """sum_{n=n_lo}^{n_hi} Q_n^k(sigma + it), scaled; pairwise summation."""
    ln, lln = _tables(n_hi)
    ln = ln[n_lo:n_hi + 1]
    lln = lln[n_lo:n_hi + 1]
    expo = k * lln - sigma * ln
    shift = float(expo.max())
    vals = np.exp(expo - shift) * np.exp(-1j * t * ln)
    return ScaledComplex.from_parts(complex(vals.sum()), shift)


def _tail_R(M: int, k: int, sigma: float) -> float:
    return M / (sigma - 1.0) * (1.0 + k / ((sigma - 1.0) * math.log(M)
                                           - k + 1.0))


def tail_bound(M: int, k: int, sigma: float) -> TailBound:
    """Certified tail factor; invalid when k - 1 >= (sigma - 1) log M."""
    if M < 2:
        raise ValueError(f"tail bound needs M >= 2, got {M}")
    if sigma <= 1.0:
        raise ValueError(f"tail bound needs sigma > 1, got {sigma}")
    valid = k - 1.0 < (sigma - 1.0) * math.log(M)
    R = _tail_R(M, k, sigma) if valid else math.inf
    return TailBound(M, k, sigma, R, valid)


def tail_monotonicity_conditions(M: int, a1: float, b1: float,
                                 k_floor: float) -> bool:
    """Whether R_M^k(a1*k + b1) is guaranteed nonincreasing for k >= k_floor."""
    lm = math.log(M)
    if a1 <= 1.0 / lm:
        raise ValueError(
            f"tail monotonicity needs slope a1 > 1/log M = {1.0 / lm:.6f}")
    c = a1 * lm - 1.0
    d = 1.0 + (b1 - 1.0) * lm
    if c * k_floor + 1.0 + (b1 - 1.0) * lm <= 0.0:
        return False
    if b1 < 1.0 - 1.0 / lm:
        z0 = (-d + math.sqrt(abs(d) / c)) / (1.0 + c)
        if k_floor < z0:
            return False
    return True


def choose_truncation(k: int, sigma: float, eps_rel: float,
                      max_terms: int = MAX_TERMS) -> int:
    """Smallest doubling cutoff N with certified tail <= eps_rel * sum of
    term magnitudes.  Capped at max_terms; the caller sees the bound actually
    achieved through EvalResult."""
    if sigma <= 1.0:
        raise ValueError(f"series truncation needs sigma > 1, got {sigma}")
    if eps_rel <= 0.0:
        raise ValueError(f"eps_rel must be positive, got {eps_rel}")
    N = 16
    while True:
        mag_log = _partial_sum(k, sigma, 0.0, 2, N).log_abs()
        tb = tail_bound(N, k, sigma)
        if tb.valid and (log_term_mag(N, k, sigma) + math.log(tb.R)
                         <= math.log(eps_rel) + mag_log):
            return N
        if N >= max_terms:
            return N
        N *= 2


def series_is_practical(k: int, sigma: float, eps_rel: float,
                        cap: int = 1 << 20) -> bool:
    """Whether the series can certify eps_rel with at most cap terms."""
    if sigma <= 1.0 + DELTA_MIN:
        return False
    N = choose_truncation(k, sigma, eps_rel, max_terms=cap)
    tb = tail_bound(N, k, sigma)
    mag_log = _partial_sum(k, sigma, 0.0, 2, N).log_abs()
    return tb.valid and (log_term_mag(N, k, sigma) + math.log(tb.R)
                         <= math.log(eps_rel) + mag_log)


def eval_deriv(s: ComplexPoint, k: int, eps_rel: float = DEFAULT_EPS_REL,
               delta_min: float = DELTA_MIN) -> EvalResult:
    """Value of the k-th zeta derivative at s, sigma > 1 + delta_min.

    The certified error bound is the integral tail bound at the cutoff;
    rounding of individual mantissas (~1e-16 relative) is excluded.
    """
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if s.sigma <= 1.0 + delta_min:
        raise ValueError(
            f"sigma={s.sigma} too close to 1 for the Dirichlet series; "
            "use the continuation module for sigma <= "
            f"{1.0 + delta_min}")
    N = choose_truncation(k, s.sigma, eps_rel)
    value = _partial_sum(k, s.sigma, s.t, 2, N)
    if k == 0:
        value = value + ScaledComplex.one()  # the n = 1 term
    elif k % 2:
        value = -value
    tb = tail_bound(N, k, s.sigma)
    bound = ScaledComplex.from_polar(
        log_term_mag(N, k, s.sigma) + math.log(tb.R), 0.0)
    return EvalResult(value=value, abs_error_bound=bound, terms_used=N - 1)


def tail_ratio_upper(m_start: int, k: int, sigma: float, log_ref: float,
                     rel_cut: float = 1e-9,
                     max_exact: int = 100000) -> float:
    """Certified upper bound on sum_{n>=m_start} Q_n(sigma) / e^log_ref.

    Sums exact terms until the integral bound anchored at the current index
    is both valid and negligible, then closes with it.  Anchoring deeper than
    m_start is what keeps the bound tight near the lower wedge tips, where
    R_{m_start} itself is close to or above 1.
    """
    if sigma <= 1.0:
        raise ValueError(f"tail bound needs sigma > 1, got {sigma}")
    total = 0.0
    n = m_start
    while True:
        q_n = math.exp(log_term_mag(n, k, sigma) - log_ref)
        if (sigma - 1.0) * math.log(n) > k - 1.0:
            closing = q_n * _tail_R(n, k, sigma)
            if closing <= rel_cut * max(total + q_n, q_n) \
                    or n - m_start >= max_exact:
                return total + q_n + closing
        total += q_n
        n += 1
