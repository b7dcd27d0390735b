"""zeta^(k) for sigma > 0 via Euler-Maclaurin, and Cauchy-circle derivatives.

One Euler-Maclaurin kernel evaluates zeta^(k) over an array of points, each
term of the formula differentiated k times in closed form; a contour edge of
the half-plane counts is one pass, for every k.  The Cauchy circles serve
`zetaderiv eval` and cross-check the series: a ring is filled in one
vectorized pass of the kernel, and each node doubling evaluates only the new
nodes, in one more pass.

Error control here is heuristic (last-correction-term magnitude, node-doubling
agreement), not certified; anything that needs certified bounds goes through
the Dirichlet series in :mod:`zetaderiv.series` instead.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import series, zeros
from .geometry import wedge
from .scaled import ScaledComplex
from .series import EvalResult

MAX_BERNOULLI_TERMS = 25
# Cauchy circles: the largest radius, and the node count where doubling stops
CAUCHY_RADIUS = 0.25
MAX_NODES = 4096
_THETA = 2.0 * math.pi * np.arange(MAX_NODES) / MAX_NODES

# real-part bounds above which the k-th derivative has no zeros (classical
# zero-free results for k <= 2; for k = 3, the left edge of the wedge W_2)
SIGMA_MAX_TABLE = {0: 1.0, 1: 2.93938, 2: 4.02853, 3: wedge(2).sigma_left(3)}


def _bernoulli_table(count: int) -> list[float]:
    """B_0 .. B_count via the defining recurrence, computed exactly."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * b[j]
        b.append(-acc / (m + 1))
    return [float(x) for x in b]


_B = _bernoulli_table(2 * MAX_BERNOULLI_TERMS)
# the r-th correction term is B_2r/(2r)! * N^(1-s-2r) * prod_{i=0}^{2r-2}(s+i)
_R = np.arange(1, MAX_BERNOULLI_TERMS + 1)
_EM_COEF = np.array([_B[2 * r] / math.factorial(2 * r) for r in _R])


def _zeta_em_raw(s: np.ndarray, N: int, eps: float,
                 k: int = 0) -> tuple[np.ndarray, float]:
    """Euler-Maclaurin zeta^(k) values at the points of the 1-D array s with
    cutoff N, and the largest magnitude of the last correction term used.

    Each term g(s) N^(a-s) of the formula is differentiated k times by
    Leibniz's rule: its k-th derivative is N^(a-s) sum_j w_j g_j(s), with
    w_j = C(k, j) j! (-log N)^(k-j) and g_j the j-th Taylor coefficient of g
    at s.  Corrections are added up to the first r whose term is at most
    eps/100 at every point, or up to MAX_BERNOULLI_TERMS.  The head sum
    over n < N forms at most series.CHUNK entries at once (one n per piece
    when s alone has more points).
    """
    step = max(1, series.CHUNK // s.size)
    acc = 0.0
    for lo in range(1, N, step):
        log_n = np.log(np.arange(lo, min(lo + step, N)))
        acc = acc + (np.exp(-np.multiply.outer(s, log_n))
                     * (-log_n) ** k).sum(axis=1)
    w = [math.perm(k, j) * (-math.log(N)) ** (k - j) for j in range(k + 1)]
    ninv = np.exp(-s * math.log(N))
    # 1/(s-1) has Taylor coefficients u^j/(s-1), u = 1/(1-s): Horner in u
    u, pole = 1.0 / (1.0 - s), w[k]
    for wj in reversed(w[:k]):
        pole = pole * u + wj
    acc += ninv * N / (s - 1.0) * pole
    acc += 0.5 * w[0] * ninv
    # column r-1 holds s(s+1)...(s+2r-2)
    shifted = np.add.outer(s, np.arange(2 * MAX_BERNOULLI_TERMS - 1))
    poly = np.cumprod(shifted, axis=1)[:, ::2]
    # column m of q is the h^j coefficient of (s+h)_m/(s)_m, m = 0..49:
    # q_j(m+1) = q_j(m) + q_(j-1)(m)/(s+m); taylor = sum_j w_j q_j(2r-1)
    q, taylor = np.ones((s.size, 2 * MAX_BERNOULLI_TERMS), complex), w[0]
    for wj in w[1:]:
        q[:, 1:] = np.cumsum(q[:, :-1] / shifted, axis=1)
        q[:, 0] = 0.0
        taylor = taylor + wj * q[:, 1::2]
    terms = _EM_COEF * poly * taylor * np.multiply.outer(
        ninv, float(N) ** (1 - 2 * _R))
    largest = np.abs(terms).max(axis=0)
    small = np.flatnonzero(largest <= eps * 0.01)
    used = small[0] + 1 if small.size else MAX_BERNOULLI_TERMS
    return acc + terms[:, :used].sum(axis=1), float(largest[used - 1])


def _zeta_em(s: np.ndarray, eps: float,
             k: int = 0) -> tuple[np.ndarray, int, float]:
    """zeta^(k) at each point of s (sigma > 0, s != 1): the values, the
    cutoff N shared by all points and taken from the largest |t|, and the
    error estimate."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if not eps > 0.0:  # NaN too
        raise ValueError(f"error tolerance must be positive, got {eps}")
    if np.count_nonzero(s.real <= 0.0):
        raise ValueError(f"Euler-Maclaurin evaluation needs sigma > 0, "
                         f"got {float(s.real.min())}")
    if np.count_nonzero(s == 1):
        raise ValueError("zeta has its pole at s = 1")
    t_max = float(np.abs(s.imag).max())
    N = max(10, math.ceil(1.3 * t_max / (2.0 * math.pi)) + 10)
    value, est = _zeta_em_raw(s, N, eps, k)
    for _ in range(4):
        if est <= eps:
            break
        N *= 2
        value, est = _zeta_em_raw(s, N, eps, k)
    return value, N, est


def _log(x: float) -> float:
    """Natural log of a nonnegative error estimate; -inf for zero."""
    return math.log(x) if x else -math.inf


def eval_zeta_em(s: complex, eps: float = 1e-12) -> EvalResult:
    """zeta(s) for sigma > 0, s != 1; the error estimate is heuristic."""
    value, N, est = _zeta_em(np.array([s]), eps)
    return EvalResult(value=ScaledComplex.from_complex(complex(value[0])),
                      log_abs_error_bound=_log(est), terms_used=N)


def pick_radius(s: complex) -> float:
    dist_pole = abs(s - 1.0)
    r = min(CAUCHY_RADIUS, 0.5 * dist_pole, 0.8 * s.real)
    if r <= 1e-6:
        raise ValueError(f"no feasible Cauchy radius at s={s} "
                         "(too close to the pole or the sigma=0 line)")
    return r


def eval_deriv_cauchy(s: complex, k: int,
                      eps: float = 1e-10) -> EvalResult:
    """k-th derivative via the trapezoid rule on a circle around s.

    Nodes double from 64 until two successive approximations agree within
    eps, or up to MAX_NODES; the error estimate is the last doubling
    difference. The 64-node ring is one vectorized Euler-Maclaurin pass,
    and each doubling evaluates only its new nodes, in one more pass.
    """
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if s.real <= 0.0:
        raise ValueError(f"Cauchy differentiation needs sigma > 0, "
                         f"got {s.real}")
    r = pick_radius(s)
    scale = math.factorial(k) / r ** k

    def weighted_sum(theta: np.ndarray) -> complex:
        fz, _, _ = _zeta_em(s + r * np.exp(1j * theta), eps * 0.01)
        return complex(np.sum(fz * np.exp(-1j * k * theta)))

    # node i of a ring with n nodes is node i * (MAX_NODES // n) of the
    # finest ring, so a doubling adds the odd multiples of the new step
    nodes = 64
    acc = weighted_sum(_THETA[::MAX_NODES // nodes])
    prev = acc * scale / nodes
    while True:
        step = MAX_NODES // (2 * nodes)
        acc += weighted_sum(_THETA[step::2 * step])
        nodes *= 2
        cur = acc * scale / nodes
        diff = abs(cur - prev)
        if diff <= eps * max(1.0, abs(cur)) or nodes >= MAX_NODES:
            return EvalResult(value=ScaledComplex.from_complex(cur),
                              log_abs_error_bound=_log(diff),
                              terms_used=nodes)
        prev = cur


def count_zeros_halfplane(k: int, T: float, sigma_min: float,
                          t_min: float = 0.05) -> int:
    """Winding-number count of zeros of the k-th derivative with
    sigma_min <= sigma <= SIGMA_MAX_TABLE[k] + 0.05 and t_min < t <= T,
    for the orders k of SIGMA_MAX_TABLE.

    The count is not certified: each edge of the contour is one call of the
    Euler-Maclaurin kernel for zeta^(k), whose error is a heuristic
    estimate, at 8 samples per unit of length, and a full phase turn between
    two samples goes unseen.  A contour that passes too close to a zero
    raises ZeroOnContourError.
    """
    if k not in SIGMA_MAX_TABLE:
        raise ValueError(f"derivative order must be one of "
                         f"{sorted(SIGMA_MAX_TABLE)} for a half-plane count, "
                         f"got {k}")
    if T <= t_min:
        raise ValueError(f"count_zeros_halfplane needs T > t_min = {t_min}, "
                         f"got T = {T}")
    # small outward margin: the table values are suprema of zero real parts,
    # so a zero may sit arbitrarily close to the line itself
    sigma_hi = SIGMA_MAX_TABLE[k] + 0.05
    return zeros.winding_number(zeros.Rect(sigma_min, sigma_hi, t_min, T),
                                lambda z: _zeta_em(z, 1e-9, k)[0],
                                sample_density=8.0).count
