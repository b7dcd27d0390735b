"""Dirichlet-series evaluation of the k-th zeta derivative for sigma > 1.

The k-th derivative is (-1)^k * sum_{n>=2} (log n)^k / n^s.  Individual terms
span hundreds of orders of magnitude at high k, so every sum is shifted by its
largest term exponent: eval_deriv returns one point's value as
ScaledComplex, and _partial_sum sums an array of points as mantissas and
exponents.  An array summed to one cutoff takes it at its smallest sigma
(_cutoff_from), which meets the tail test at every point.
Truncation error is certified through the integral tail bound
R_M^k(sigma) = M/(sigma-1) * (1 + k/((sigma-1)log M - k + 1)), valid whenever
k - 1 < (sigma - 1) log M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scaled import ScaledComplex

DELTA_MIN = 0.05
DEFAULT_EPS_REL = 1e-12
MAX_TERMS = 1 << 22
# term cap of the cutoff search that decides whether the series is practical
PRACTICAL_TERMS = 1 << 20
# tail_ratio_upper closes with the integral bound once it is below this
# fraction of the running sum, or after this many exact terms
TAIL_REL_CUT = 1e-9
TAIL_MAX_EXACT = 100000
# largest number of array entries that a partial sum forms at once
CHUNK = 1 << 20


@dataclass(frozen=True)
class EvalResult:
    """A value with the log of a bound on its absolute error (-inf for a
    zero bound, inf for none)."""

    value: ScaledComplex
    log_abs_error_bound: float
    terms_used: int


def log_term_mag(n: int, k: int, sigma: float) -> float:
    """log of Q_n^k(sigma) = (log n)^k / n^sigma, for n >= 2; at a complex
    s, the log of the term (log n)^k n^(-s)."""
    return k * math.log(math.log(n)) - sigma * math.log(n)


def head(M: int, k: int, s: complex) -> ScaledComplex:
    """Head H_M = sum_{n=2}^{M-1} Q_n(s); empty (zero) for M = 2."""
    if M < 2:
        raise ValueError(f"head needs M >= 2, got {M}")
    if M == 2:
        return ScaledComplex.zero()
    mant, shift = _partial_sum(k, s.real, s.imag, 2, M - 1)
    return ScaledComplex.from_parts(mant, shift)


def head_ratio(M: int, k: float, sigma):
    """H_M(sigma) / Q_M(sigma), an exact positive sum, at a float sigma or
    at each point of an array; zero for M = 2."""
    if M == 2:
        return 0.0 * sigma
    mant, shift = _partial_sum(k, sigma, 0.0, 2, M - 1)
    return mant * np.exp(shift - log_term_mag(M, k, sigma))


def _partial_sum(k: int, sigma, t, n_lo: int, n_hi: int):
    """sum_{n=n_lo}^{n_hi} Q_n^k(sigma + it) at one point (floats sigma and
    t) or at each point of a 1-D array sigma (t an array or one float for
    all), as mantissa m and exponent e with value m * e^e, e being the
    point's largest term exponent; pairwise summation.  More than CHUNK
    terms, or more points than fit into CHUNK entries, are summed in pieces.
    The phase factor is skipped when every t is 0."""
    n = n_hi - n_lo + 1
    if n > CHUNK:
        m1, e1 = _partial_sum(k, sigma, t, n_lo, n_lo + CHUNK - 1)
        m2, e2 = _partial_sum(k, sigma, t, n_lo + CHUNK, n_hi)
        shift = np.maximum(e1, e2)
        return m1 * np.exp(e1 - shift) + m2 * np.exp(e2 - shift), shift
    if isinstance(sigma, np.ndarray):
        rows = CHUNK // n
        if sigma.size > rows:
            t = np.broadcast_to(t, sigma.shape)
            parts = [_partial_sum(k, sigma[p:p + rows], t[p:p + rows], n_lo,
                                  n_hi) for p in range(0, sigma.size, rows)]
            return (np.concatenate([m for m, _ in parts]),
                    np.concatenate([e for _, e in parts]))
        # one row of terms per point; a float t applies to every point
        sigma, t = sigma[:, None], np.reshape(t, (-1, 1))
    ln = np.log(np.arange(n_lo, n_hi + 1, dtype=float))
    expo = k * np.log(ln) - sigma * ln
    shift = np.maximum.reduce(expo, axis=-1)
    vals = np.exp(expo - shift[..., None])
    if np.count_nonzero(t):
        vals = vals * np.exp(-1j * t * ln)
    return np.add.reduce(vals, axis=-1), shift


def _tail(M: int, k: int, sigma):
    """R_M^k(sigma) at a float sigma or at each point of an array; inf where
    the integral bound is invalid, k - 1 >= (sigma - 1) log M."""
    x = (sigma - 1.0) * math.log(M)
    valid = k - 1.0 < x
    if isinstance(x, np.ndarray):
        d = np.where(valid, x - k + 1.0, 1.0)
        return np.where(valid, M / (sigma - 1.0) * (1.0 + k / d), math.inf)
    if not valid:
        return math.inf
    return M / (sigma - 1.0) * (1.0 + k / (x - k + 1.0))


def tail_bound(M: int, k: int, sigma: float) -> float:
    """Certified tail factor R = R_M^k(sigma) with sum_{n>M} Q_n(sigma) <=
    Q_M(sigma) * R, for M >= 2 and sigma > 1; inf when k - 1 >= (sigma - 1)
    log M."""
    if M < 2:
        raise ValueError(f"tail bound needs M >= 2, got {M}")
    if sigma <= 1.0:
        raise ValueError(f"tail bound needs sigma > 1, got {sigma}")
    return _tail(M, k, sigma)


def _log_tail(N: int, k: int, sigma):
    """log(Q_N(sigma) * R_N^k(sigma)), the log of the certified bound on
    sum_{n>N} Q_n(sigma), at a float sigma or at each point of an array;
    inf where the integral bound is invalid."""
    return log_term_mag(N, k, sigma) + np.log(_tail(N, k, sigma))


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


def _cutoff(k: int, sigma, eps_rel: float, cap: int, n_lo: int = 2):
    """One cutoff N for a float sigma or a 1-D array of them: the first
    doubling from n_lo + 14 on at which every point's certified tail is at
    most eps_rel * sum_{n=n_lo}^N Q_n(sigma), or the first N >= cap; whether
    each point meets that test at N; and the log of each point's sum to N.
    Each doubling adds only the new terms (N, 2N] to a running
    log-magnitude per point."""
    if np.count_nonzero(sigma <= 1.0):
        raise ValueError(f"series truncation needs sigma > 1, got "
                         f"{np.min(sigma)}")
    if not eps_rel > 0.0:  # NaN too
        raise ValueError(f"eps_rel must be positive, got {eps_rel}")
    log_eps = math.log(eps_rel)
    N = n_lo + 14
    mant, shift = _partial_sum(k, sigma, 0.0, n_lo, N)
    log_mag = shift + np.log(mant)
    met = _log_tail(N, k, sigma) <= log_eps + log_mag
    while np.count_nonzero(~met) and N < cap:
        mant, shift = _partial_sum(k, sigma, 0.0, N + 1, 2 * N)
        log_mag = np.logaddexp(log_mag, shift + np.log(mant))
        N *= 2
        met = _log_tail(N, k, sigma) <= log_eps + log_mag
    return N, met, log_mag


def _cutoff_from(k: int, sigma_lo: float) -> int:
    """choose_truncation's cutoff N at the float sigma_lo (eps_rel
    DEFAULT_EPS_REL), which meets the tail test at every sigma >= sigma_lo:
    the test's ratio R_N(sigma) / sum_{n<=N} Q_n(sigma)/Q_N(sigma) falls as
    sigma grows, since R_N falls and each Q_n/Q_N with n < N rises.  Raises
    ValueError when the search ends unmet at MAX_TERMS."""
    N, met = _cutoff(k, sigma_lo, DEFAULT_EPS_REL, MAX_TERMS)[:2]
    if not met:
        raise ValueError(f"order-{k} series needs more than {MAX_TERMS} "
                         f"terms at sigma = {sigma_lo}")
    return N


def choose_truncation(k: int, sigma: float, eps_rel: float,
                      max_terms: int = MAX_TERMS) -> int:
    """Smallest doubling cutoff N with certified tail <= eps_rel * sum of
    term magnitudes.  Capped at max_terms; the caller sees the bound actually
    achieved through EvalResult."""
    return _cutoff(k, sigma, eps_rel, max_terms)[0]


def series_is_practical(k: int, sigma: float, eps_rel: float) -> bool:
    """Whether the series can certify eps_rel with at most PRACTICAL_TERMS
    terms."""
    if sigma <= 1.0 + DELTA_MIN:
        return False
    return bool(_cutoff(k, sigma, eps_rel, PRACTICAL_TERMS)[1])


def _check_domain(k: int, sigma_min: float) -> None:
    """The guard of the series evaluators: k >= 0 and sigma > 1 + DELTA_MIN
    at every point, sigma_min being the smallest real part."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if sigma_min <= 1.0 + DELTA_MIN:
        raise ValueError(
            f"sigma={sigma_min} too close to 1 for the Dirichlet series; "
            "use the continuation module for sigma <= "
            f"{1.0 + DELTA_MIN}")


def eval_deriv(s: complex, k: int,
               eps_rel: float = DEFAULT_EPS_REL) -> EvalResult:
    """Value of the k-th zeta derivative at s, sigma > 1 + DELTA_MIN.

    The certified error bound is the integral tail bound at the cutoff.  It
    leaves out rounding: through its exponent each term errs by up to
    rounding_allowance relative, far above 1e-16 at high k (3.9e-11 against
    40-digit mpmath at k = 10^5).
    """
    _check_domain(k, s.real)
    N = choose_truncation(k, s.real, eps_rel)
    mant, shift = _partial_sum(k, s.real, s.imag, 2, N)
    value = ScaledComplex.from_parts(mant, shift)
    if k == 0:
        value = value + ScaledComplex.one()  # the n = 1 term
    elif k % 2:
        value = -value
    return EvalResult(value=value,
                      log_abs_error_bound=float(_log_tail(N, k, s.real)),
                      terms_used=N - 1)


def rounding_allowance(N, k: float, sigma, log_ref):
    """rho = 4u (k (|log log N| + 1) + sigma log N + |log_ref| + log2 N + 2),
    u = 2^-53: the relative rounding allowance of a computed sum of
    Q_n(sigma) / e^log_ref over n in [2, N] or part of it.  With log and exp
    good to about an ulp, each exponent k log log n - sigma log n (n <= N)
    errs by a few u times its parts, at most k (|log log N| + 1) + sigma
    log N ("+ 1" for log n's own error), and so does its term relatively;
    log_ref adds about u |log_ref|, and a pairwise sum of N positive terms
    about u log2 N (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 4).  4u covers these first-order terms together."""
    return 4.0 * 2.0 ** -53 * (k * (np.abs(np.log(np.log(N))) + 1.0)
                               + sigma * np.log(N) + np.abs(log_ref)
                               + np.log2(N) + 2.0)


def tail_ratio_upper(m_start: int, k: int, sigma, log_ref):
    """Certified upper bound on sum_{n>=m_start} Q_n(sigma) / e^log_ref, at
    a float sigma or at each point of an array: the cutoff search from
    m_start (cut TAIL_REL_CUT, cap m_start + TAIL_MAX_EXACT) closed by the
    integral bound at its one N (inf where never valid), rounded up by the
    rounding_allowance of a sum to that N and by the smallest normal float
    (for tails that underflow).  Anchoring the bound deeper than m_start
    keeps it tight near the lower wedge tips, where R_{m_start} is close to
    or above 1."""
    N, _, log_sum = _cutoff(k, sigma, TAIL_REL_CUT, m_start + TAIL_MAX_EXACT,
                            n_lo=m_start)
    total = np.exp(np.logaddexp(log_sum, _log_tail(N, k, sigma)) - log_ref)
    return (total * (1.0 + rounding_allowance(N, k, sigma, log_ref))
            + np.finfo(float).tiny)
