"""Zeta for sigma > 0 via Euler-Maclaurin, and derivatives by Cauchy circles.

Error control here is heuristic (last-correction-term magnitude, node-doubling
agreement), not certified; anything that needs certified bounds goes through
the Dirichlet series in :mod:`zetaderiv.series` instead.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .geometry import ComplexPoint
from .scaled import ScaledComplex
from .series import EvalResult

MAX_BERNOULLI_TERMS = 25

# real-part bounds above which the k-th derivative has no zeros (classical
# zero-free results for zeta itself and for low derivatives)
SIGMA_MAX_TABLE = {0: 1.0, 1: 2.93938, 2: 4.02853, 3: 1.13588 * 3 + 2}


def _bernoulli_table(count: int) -> list[float]:
    """B_0 .. B_count via the defining recurrence, computed exactly."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * b[j]
        b.append(-acc / (m + 1))
    return [float(x) for x in b]


_B = _bernoulli_table(2 * MAX_BERNOULLI_TERMS + 2)


def _zeta_em_raw(s: complex, N: int, eps: float) -> tuple[complex, float]:
    """Euler-Maclaurin zeta value with cutoff N, and the magnitude of the
    last correction term used."""
    acc = 0j
    for n in range(1, N):
        acc += cmath.exp(-s * math.log(n))
    ninv = cmath.exp(-s * math.log(N))
    acc += ninv * N / (s - 1.0)
    acc += 0.5 * ninv
    # correction terms B_2r/(2r)! * N^(1-s-2r) * prod_{i=0}^{2r-2}(s+i)
    poly = s  # running product s(s+1)...(s+2r-2)
    npow = ninv / N
    last = math.inf
    for r in range(1, MAX_BERNOULLI_TERMS + 1):
        coef = _B[2 * r] / math.factorial(2 * r)
        term_v = coef * poly * npow
        acc += term_v
        last = abs(term_v)
        if last <= eps * 0.01:
            break
        poly *= (s + (2 * r - 1)) * (s + 2 * r)
        npow /= N * N
    return acc, last


def eval_zeta_em(s: ComplexPoint, eps: float = 1e-12) -> EvalResult:
    """zeta(s) for sigma > 0, s != 1; the error estimate is heuristic."""
    if s.sigma <= 0.0:
        raise ValueError(f"Euler-Maclaurin evaluation needs sigma > 0, "
                         f"got {s.sigma}")
    z = s.to_complex()
    if z == 1:
        raise ValueError("zeta has its pole at s = 1")
    N = max(10, math.ceil(1.3 * abs(s.t) / (2.0 * math.pi)) + 10)
    value, est = _zeta_em_raw(z, N, eps)
    for _ in range(4):
        if est <= eps:
            break
        N *= 2
        value, est = _zeta_em_raw(z, N, eps)
    return EvalResult(value=ScaledComplex.from_complex(value),
                      abs_error_bound=ScaledComplex.from_parts(est, 0.0),
                      terms_used=N)


def pick_radius(s: ComplexPoint, radius: float = 0.25) -> float:
    dist_pole = abs(s.to_complex() - 1.0)
    r = min(radius, 0.5 * dist_pole, 0.8 * s.sigma)
    if r <= 1e-6:
        raise ValueError(f"no feasible Cauchy radius at s={s} "
                         "(too close to the pole or the sigma=0 line)")
    return r


def eval_deriv_cauchy(s: ComplexPoint, k: int, eps: float = 1e-10,
                      radius: float = 0.25) -> EvalResult:
    """k-th derivative via the trapezoid rule on a circle around s.

    Nodes double from 64 until two successive approximations agree within
    eps, or up to 4096; the error estimate is the last doubling difference.
    """
    if s.sigma <= 0.0:
        raise ValueError(f"Cauchy differentiation needs sigma > 0, "
                         f"got {s.sigma}")
    r = pick_radius(s, radius)
    z0 = s.to_complex()
    kfac = math.factorial(k)

    cached: dict[int, complex] = {}

    def ring_sum(nodes: int) -> complex:
        acc = 0j
        for i in range(nodes):
            key = i * (4096 // nodes) if 4096 % nodes == 0 else -1
            theta = 2.0 * math.pi * i / nodes
            zt = z0 + r * cmath.exp(1j * theta)
            if key >= 0 and key in cached:
                fz = cached[key]
            else:
                fz = eval_zeta_em(ComplexPoint(zt.real, zt.imag),
                                  eps * 0.01).value.to_complex()
                if key >= 0:
                    cached[key] = fz
            acc += fz * cmath.exp(-1j * k * theta)
        return acc * kfac / (nodes * r ** k)

    nodes = 64
    prev = ring_sum(nodes)
    while True:
        nodes *= 2
        cur = ring_sum(nodes)
        diff = abs(cur - prev)
        if diff <= eps * max(1.0, abs(cur)) or nodes >= 4096:
            return EvalResult(value=ScaledComplex.from_complex(cur),
                              abs_error_bound=ScaledComplex.from_parts(
                                  diff, 0.0),
                              terms_used=nodes)
        prev = cur


def _evaluator_for(k: int, eps: float):
    if k == 0:
        def f(z: complex) -> ScaledComplex:
            return eval_zeta_em(ComplexPoint(z.real, z.imag), eps).value
    else:
        def f(z: complex) -> ScaledComplex:
            return eval_deriv_cauchy(ComplexPoint(z.real, z.imag), k,
                                     eps).value
    return f


def count_zeros_halfplane(k: int, T: float, sigma_min: float,
                          sigma_max: float | None = None,
                          t_min: float = 0.05) -> int:
    """Winding-number count of zeros of the k-th derivative with
    sigma_min <= sigma <= sigma_max and t_min < t <= T.

    The contour is retried with T shifted by +0.05 (up to 5 times) if it
    passes too close to a zero.
    """
    from .zeros import Rect, ZeroOnContourError, winding_number

    if sigma_max is None:
        if k not in SIGMA_MAX_TABLE:
            raise ValueError(f"no default sigma_max for k={k}; pass one")
        sigma_max = SIGMA_MAX_TABLE[k]
    # small outward margin: the table values are suprema of zero real parts,
    # so a zero may sit arbitrarily close to the line itself
    sigma_hi = sigma_max + 0.05
    f = _evaluator_for(k, 1e-9)
    t_cur = T
    last_err: Exception | None = None
    for _ in range(6):
        try:
            res = winding_number(Rect(sigma_min, sigma_hi, t_min, t_cur), f,
                                 sample_density=8.0)
            return res.count
        except ZeroOnContourError as err:  # pragma: no cover - rare path
            last_err = err
            t_cur += 0.05
    raise RuntimeError(
        f"contour kept passing near a zero after 5 retries: {last_err}")
