"""Closed-form geometry of the sigma-k plane.

Everything here is pure arithmetic on the crossover slopes q_M, the zero-free
wedges where a single Dirichlet-series term dominates, and the critical strips
between consecutive wedges together with their cell decomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

LOG3 = math.log(3.0)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i*t in the half-plane under study."""

    sigma: float
    t: float

    def to_complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class QConstant:
    """Slope q_M of the line sigma = q_M * k where |Q_M| = |Q_{M+1}|."""

    M: int
    value: float


@dataclass(frozen=True)
class WedgeSpec:
    """Zero-free wedge of dominance of the M-th term, linear in (k, sigma).

    The wedge is ``slope_left*k + offset_left <= sigma <= slope_right*k +
    offset_right``; for M = 2 there is no right boundary.
    """

    M: int
    slope_left: float
    offset_left: float
    slope_right: Optional[float]
    offset_right: Optional[float]
    tip_k: float

    def sigma_left(self, k: float) -> float:
        return self.slope_left * k + self.offset_left

    def sigma_right(self, k: float) -> Optional[float]:
        if self.slope_right is None:
            return None
        return self.slope_right * k + self.offset_right

    def contains(self, k: float, sigma: float) -> bool:
        if k < self.tip_k:
            return False
        if sigma < self.sigma_left(k):
            return False
        right = self.sigma_right(k)
        return right is None or sigma <= right


@dataclass(frozen=True)
class StripSpec:
    """Critical strip of width 2*(M+1)*log 3 around sigma = q_M * k."""

    M: int
    k: int
    center_sigma: float
    half_width: float
    period: float
    exists: bool

    @property
    def delta(self) -> float:
        """Log-gap log(M+1) - log(M); the vertical zero spacing is 2*pi/delta."""
        return TWO_PI / self.period


@dataclass(frozen=True)
class CellRect:
    """One period-high rectangle of a strip, expected to hold a single zero."""

    strip: StripSpec
    j: int
    sigma_range: tuple[float, float]
    t_range: tuple[float, float]
    predicted_zero: ComplexPoint

    def contains(self, sigma: float, t: float) -> bool:
        return (self.sigma_range[0] < sigma < self.sigma_range[1]
                and self.t_range[0] < t < self.t_range[1])


def q_const(M: int) -> QConstant:
    """Crossover slope q_M = log(log M / log(M+1)) / log(M/(M+1)), M >= 2."""
    if M < 2:
        raise ValueError(f"q_M is undefined for M={M} (need M >= 2)")
    value = math.log(math.log(M) / math.log(M + 1)) / math.log(M / (M + 1))
    return QConstant(M, value)


def q_value(M: int) -> float:
    return q_const(M).value


def q_bracket(n: int) -> tuple[float, float]:
    """Bracket (1/log n, 1/log(n-1)) that contains q_{n-1}, for n >= 3."""
    if n < 3:
        raise ValueError(f"q-bracket needs n >= 3, got {n}")
    return 1.0 / math.log(n), 1.0 / math.log(n - 1)


def wedge(M: int) -> WedgeSpec:
    """Zero-free wedge of the M-th term; offsets depend on the case split.

    M = 2 is the one-sided region sigma >= q_2*k + 2 (valid from k = 3 on),
    M = 3 uses offsets +4*log 3 / -2, and M >= 4 uses +(M+1)*log 3 / -M*log 3.
    """
    if M < 2:
        raise ValueError(f"wedge needs M >= 2, got {M}")
    qm = q_value(M)
    if M == 2:
        return WedgeSpec(2, qm, 2.0, None, None, 3.0)
    qprev = q_value(M - 1)
    if M == 3:
        off_left, off_right = 4.0 * LOG3, -2.0
    else:
        off_left, off_right = (M + 1) * LOG3, -M * LOG3
    tip = (off_left - off_right) / (qprev - qm)
    return WedgeSpec(M, qm, off_left, qprev, off_right, tip)


def strip(M: int, k: int) -> StripSpec:
    """Critical strip descriptor at (M, k); ``exists`` uses the strict separation
    condition q_{M+1}*k + (M+2)*log 3 < q_M*k - (M+1)*log 3."""
    if M < 2:
        raise ValueError(f"strip needs M >= 2, got {M}")
    if k < 3:
        raise ValueError(f"strip needs k >= 3, got {k}")
    qm = q_value(M)
    qnext = q_value(M + 1)
    half_width = (M + 1) * LOG3
    delta = math.log(M + 1) - math.log(M)
    exists = qnext * k + (M + 2) * LOG3 < qm * k - half_width
    return StripSpec(M, k, qm * k, half_width, TWO_PI / delta, exists)


def layout(k: int) -> tuple[list[WedgeSpec], list[StripSpec]]:
    """Zero-free wedges and existing critical strips at order k, by M.

    Wedge M is present once k >= its tip, and strip S_M once its separation
    condition holds.  Both tests fail for every M beyond the first that
    fails (the tips grow and the gaps q_M - q_{M+1} shrink with M), so each
    walk stops at the first missing M.
    """
    if k < 3:
        raise ValueError(f"layout needs k >= 3, got {k}")
    wedges = []
    w = wedge(2)
    while k >= w.tip_k:
        wedges.append(w)
        w = wedge(w.M + 1)
    strips = []
    sp = strip(2, k)
    while sp.exists:
        strips.append(sp)
        sp = strip(sp.M + 1, k)
    return wedges, strips


def count_strips(k: int) -> tuple[int, float, float]:
    """Number of strips in layout(k), plus the sqrt(k)/log(k) bounds."""
    count = len(layout(k)[1])
    lower = math.sqrt(k) / (3.0 * math.log(k))
    upper = 2.0 * math.sqrt(k) / math.log(k)
    return count, lower, upper


def cell(M: int, k: int, j: int) -> CellRect:
    """Rectangle number j of strip S_M at derivative order k."""
    if j < 0:
        raise ValueError(f"cell index must be >= 0, got {j}")
    sp = strip(M, k)
    if not sp.exists:
        raise ValueError(f"strip S_{M} does not exist at k={k}")
    delta = sp.delta
    t_lo = TWO_PI * j / delta
    t_hi = TWO_PI * (j + 1) / delta
    predicted = ComplexPoint(sp.center_sigma, (2 * j + 1) * math.pi / delta)
    return CellRect(
        strip=sp,
        j=j,
        sigma_range=(sp.center_sigma - sp.half_width,
                     sp.center_sigma + sp.half_width),
        t_range=(t_lo, t_hi),
        predicted_zero=predicted,
    )


def dominant_index(sigma: float, k: int) -> int:
    """Index n >= 2 maximizing (log n)^k / n^sigma, ties to the smaller n.

    The continuous maximizer is x = e^(k/sigma); only the integers around it
    (clamped at 2) can win, and comparison is done in log space.
    """
    if sigma <= 0:
        raise ValueError(f"dominant_index needs sigma > 0, got {sigma}")
    if k < 1:
        raise ValueError(f"dominant_index needs k >= 1, got {k}")
    w = k / sigma
    if w > 690.0:
        raise OverflowError(
            f"dominant index near exp({w:.1f}) exceeds the representable range")
    x0 = math.exp(w)
    lo = max(2, math.floor(x0) - 1)
    best_n, best_v = None, -math.inf
    for n in range(lo, math.ceil(x0) + 2):
        v = k * math.log(math.log(n)) - sigma * math.log(n)
        if v > best_v:
            best_n, best_v = n, v
    return best_n
