"""Reference computations for the benchmark's checks, made with mpmath only.

Nothing here imports zetaderiv: every value the benchmark checks a program
output against is computed again from the definitions.

- Strip geometry from the crossover slopes q_M.
- zeta^(k)(s) / Q_M(sigma) by the direct Dirichlet sum, with a certified
  integral tail bound in closed form (an upper incomplete gamma function).
- Strip zeros: the residual of a located zero, and mpmath's ``findroot``
  started from it.
- zeta^(k)(s) at low k by ``mpmath.zeta(s, 1, k)``.
- Zero counts of zeta in a window of heights by ``mpmath.nzeros``, and of
  zeta' and zeta'' from the argument-principle zero list in
  ``data/halfplane_zeros.json`` (regenerated by ``make_reference.py``).
"""
from __future__ import annotations

import functools
import json
from pathlib import Path

import mpmath
from mpmath import mp, mpc, mpf

DPS = 25
# a located strip zero must satisfy |zeta^(k)(z)| <= RESIDUAL_TOL * Q_M(sigma)
# and lie within LOCATION_TOL of the root findroot reaches from it; a zero
# moved by 1e-6 has a residual of about log(1 + 1/M) * 1e-6 >= 9e-8 for M <= 10
RESIDUAL_TOL = 1e-9
LOCATION_TOL = 1e-8
# the certified tail of the reference sum is kept below this share of Q_M
TAIL_TOL = mpf("1e-22")

ZEROS_FILE = Path(__file__).resolve().parent / "data" / "halfplane_zeros.json"


def q_slope(M: int) -> mpf:
    """Crossover slope q_M, where (log M)^k / M^sigma = (log(M+1))^k /
    (M+1)^sigma on the line sigma = q_M k."""
    with mp.workdps(DPS):
        return mpmath.log(mpmath.log(M) / mpmath.log(M + 1)) / \
            mpmath.log(mpf(M) / (M + 1))


def cell_box(M: int, k: int, j: int) -> tuple[float, float, float, float]:
    """(sigma_lo, sigma_hi, t_lo, t_hi) of cell j of the strip S_M at k: the
    strip is 2 (M+1) log 3 wide around sigma = q_M k, and a cell is one period
    2 pi / log(1 + 1/M) of the two crossing terms high."""
    with mp.workdps(DPS):
        centre = q_slope(M) * k
        half = (M + 1) * mpmath.log(3)
        period = 2 * mp.pi / mpmath.log(mpf(M + 1) / M)
        return (float(centre - half), float(centre + half),
                float(j * period), float((j + 1) * period))


class DirichletSum:
    """zeta^(k)(s) / Q_M(sigma), Q_M(sigma) = (log M)^k M^-sigma, by the
    Dirichlet sum (-1)^k sum_{n>=2} (log n)^k n^-s, for sigma >= sigma_min.

    Past the peak of (log x)^k x^-sigma at x = e^(k/sigma) the terms
    decrease, so sum_{n>N} <= int_N^inf (log x)^k x^-sigma dx
    = Gamma(k+1, (sigma-1) log N) / (sigma-1)^(k+1).  N doubles until that
    bound is below TAIL_TOL * Q_M at sigma_min.  For N > M the bound
    relative to Q_M decreases as sigma grows, so the sum over n <= N meets
    TAIL_TOL for every sigma >= sigma_min.
    """

    def __init__(self, k: int, M: int, sigma_min: float):
        with mp.workdps(DPS):
            sigma = mpf(sigma_min)
            if sigma <= 1:
                raise ValueError(f"the Dirichlet sum needs sigma > 1, got "
                                 f"{sigma_min}")
            self.k, self.M, self.sigma_min = k, M, sigma_min
            self.log_M = mpmath.log(M)
            self.k_loglog_M = k * mpmath.log(self.log_M)
            N = max(M + 1, int(mpmath.ceil(mpmath.exp(k / sigma))) + 1)
            while True:
                tail = mpmath.gammainc(k + 1, (sigma - 1) * mpmath.log(N)) \
                    / (sigma - 1) ** (k + 1)
                log_q = self.k_loglog_M - sigma * self.log_M
                if tail <= TAIL_TOL * mpmath.exp(log_q):
                    break
                N *= 2
            self.logs = [mpmath.log(n) for n in range(2, N + 1)]
            self.k_loglogs = [k * mpmath.log(ln) for ln in self.logs]

    def __call__(self, s) -> mpc:
        with mp.workdps(DPS):
            s = mpc(s)
            if s.real < self.sigma_min:
                raise ValueError(f"sigma {s.real} below {self.sigma_min}")
            log_q = self.k_loglog_M - s.real * self.log_M
            total = mpmath.fsum(mpmath.exp(kll - log_q - s * ln)
                                for ln, kll in zip(self.logs, self.k_loglogs))
            return -total if self.k % 2 else total


@functools.lru_cache(maxsize=64)
def _strip_sum(k: int, M: int) -> DirichletSum:
    """The Dirichlet sum for the strip S_M at k, valid from 1 left of it."""
    return DirichletSum(k, M, cell_box(M, k, 0)[0] - 1.0)


def strip_zero_error(M: int, k: int, j: int, z: complex) -> str | None:
    """Why z is not the zero of cell j of S_M, or None: it must lie inside
    the cell, its residual must be below RESIDUAL_TOL, and findroot started
    from it must stay within LOCATION_TOL."""
    s_lo, s_hi, t_lo, t_hi = cell_box(M, k, j)
    if not (s_lo < z.real < s_hi and t_lo < z.imag < t_hi):
        return (f"zero {z} lies outside cell (M={M}, k={k}, j={j}) = "
                f"[{s_lo}, {s_hi}] x [{t_lo}, {t_hi}]")
    f = _strip_sum(k, M)
    with mp.workdps(DPS):
        start = mpc(z.real, z.imag)
        residual = abs(f(start))
        if residual > RESIDUAL_TOL:
            return (f"zero {z} of cell (M={M}, k={k}, j={j}) has residual "
                    f"{float(residual):.3e} > {RESIDUAL_TOL:.0e}")
        # the secant's second point is near the first: its default, start +
        # 1/4, can lead it to another zero
        try:
            root = mpmath.findroot(f, (start, start + mpf("1e-8")),
                                   tol=mpf("1e-20"))
        except ValueError as err:
            return f"findroot from {z} did not converge: {err}"
        moved = float(abs(root - start))
    if moved > LOCATION_TOL:
        return (f"zero {z} of cell (M={M}, k={k}, j={j}) is {moved:.3e} from "
                "the findroot zero")
    return None


def zeta_deriv(sigma: float, t: float, k: int) -> complex:
    """zeta^(k)(sigma + i t) by mpmath."""
    with mp.workdps(DPS):
        return complex(mpmath.zeta(mpc(sigma, t), 1, k))


def zeta_zero_count(t_lo: float, t_hi: float) -> int:
    """Zeros of zeta with t_lo < t <= t_hi, from mpmath's N(T)."""
    return int(mpmath.nzeros(t_hi)) - int(mpmath.nzeros(t_lo))


def load_halfplane_zeros(path: Path = ZEROS_FILE) -> dict[int, list[float]]:
    """Heights of the zeros of zeta^(k), k = 1, 2, in the boxes
    make_reference.py counted, sorted."""
    data = json.loads(path.read_text())
    return {int(k): sorted(z[1] for z in entry["zeros"])
            for k, entry in data["orders"].items()}


def halfplane_count(heights: list[float], t_lo: float, t_hi: float) -> int:
    """Zeros from a sorted list of heights with t_lo < t <= t_hi."""
    return sum(t_lo < t <= t_hi for t in heights)
