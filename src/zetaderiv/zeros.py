"""Contour zero counting, boundary certificates, and zero localization.

The counting tool is the argument principle over one closed array of
boundary samples, refined in rounds that bisect every large phase jump.
Certificates compare the two crossing terms Q_M + Q_{M+1} against the exact
head and a certified tail bound along cell boundaries, normalized by the
positive real Q_M(sigma).  Strip contours divide the k-th derivative by the
complex dominant term Q_M(s) = (log M)^k M^(-s), which is entire and has no
zeros, so winding numbers are untouched and only the fast phase M^(-it) goes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import CellRect, ComplexPoint, cell, dominant_index
from .series import (eval_deriv, eval_deriv_scaled, head_ratio, log_term_mag,
                     rounding_allowance, tail_ratio_upper)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi
# a contour sample below this fraction of its neighbours' modulus is treated
# as a zero sitting (numerically) on the contour
REL_ZERO_FLOOR = math.log(1e-8)
MAX_SUBDIV_DEPTH = 48
INIT_SAMPLES_PER_EDGE = 64
NEWTON_MAX_ITERS = 60
# Newton stops once its step is below this
NEWTON_TOL = 1e-12
# sigma intervals of a strip certificate
SWEEP_INTERVALS = 256

# maps a 1-D complex array of points to their values, which may be divided
# by any positive real function of sigma or any analytic function without
# zeros
Evaluator = Callable[[np.ndarray], np.ndarray]


class ZeroOnContourError(Exception):
    """The contour passes too close to a zero for a reliable count."""

    def __init__(self, point: complex, message: str | None = None):
        self.point = point
        super().__init__(message or
                         f"evaluator vanishes (numerically) at contour point "
                         f"{point.real:.6f}+{point.imag:.6f}i")


class LocateError(Exception):
    """Newton and its quadrisection fallback both failed to converge."""

    def __init__(self, best: complex, message: str):
        self.best = best
        super().__init__(message)


@dataclass(frozen=True)
class Rect:
    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def corners(self) -> list[complex]:
        return [complex(self.sigma_lo, self.t_lo),
                complex(self.sigma_hi, self.t_lo),
                complex(self.sigma_hi, self.t_hi),
                complex(self.sigma_lo, self.t_hi)]


@dataclass(frozen=True)
class WindingResult:
    count: int
    min_modulus_on_contour: float  # relative to the contour maximum
    samples: int
    refined: bool


@dataclass(frozen=True)
class ZeroRecord:
    location: ComplexPoint
    M: int
    k: int
    j: int
    residual: float
    simplicity_margin: float
    newton_iters: int
    predicted: ComplexPoint


@dataclass(frozen=True)
class StripCertificate:
    min_gap: float
    line_margin: float
    failure_sigma: Optional[float]


@dataclass(frozen=True)
class RoucheCertificate:
    cell: CellRect
    min_gap: float
    samples_per_edge: int
    holds: bool
    failure_point: Optional[ComplexPoint] = None


def winding_number(rect: Rect, evaluator: Evaluator,
                   sample_density: float = 0.0) -> WindingResult:
    """Zeros of the evaluator inside rect, by accumulated boundary phase.

    The evaluator maps a 1-D complex array of points to an array of values;
    each edge's initial samples are one call, and each refinement round is
    one call.  A round bisects every segment whose endpoint phases differ by
    >= pi/2; failure to resolve the jumps in MAX_SUBDIV_DEPTH rounds, or a
    midpoint falling 10^-8 below its neighbours, raises ZeroOnContourError.
    The bisection cannot detect a full phase turn hidden between two
    adjacent samples, so contours with rapid argument variation should raise
    ``sample_density`` (samples per unit of boundary length).
    """
    def probe(z: np.ndarray) -> np.ndarray:
        v = evaluator(z)
        zero = np.flatnonzero(v == 0)
        if zero.size:
            raise ZeroOnContourError(complex(z[zero[0]]))
        return v

    corners = rect.corners()
    edges = []
    for za, zb in zip(corners, corners[1:] + corners[:1]):
        n_edge = max(INIT_SAMPLES_PER_EDGE,
                     math.ceil(abs(zb - za) * sample_density))
        edges.append(za + (zb - za) * (np.arange(n_edge) / n_edge))
    # the closed boundary: the first sample repeated at the end
    z = np.concatenate(edges + [edges[0][:1]])
    v = np.concatenate([probe(zs) for zs in edges])
    v = np.append(v, v[0])
    la = np.log(np.abs(v))
    for rounds in range(MAX_SUBDIV_DEPTH + 1):
        d = (np.diff(np.angle(v)) + math.pi) % TWO_PI - math.pi
        jumps = np.flatnonzero(~(np.abs(d) < HALF_PI))
        if not jumps.size:
            break
        zm = 0.5 * (z[jumps] + z[jumps + 1])
        if rounds == MAX_SUBDIV_DEPTH:
            near = complex(zm[0])
            raise ZeroOnContourError(
                near, f"phase jump stays >= pi/2 after {MAX_SUBDIV_DEPTH} "
                f"subdivisions near {near}")
        vm = probe(zm)
        lm = np.log(np.abs(vm))
        low = np.flatnonzero(lm < np.maximum(la[jumps], la[jumps + 1])
                             + REL_ZERO_FLOOR)
        if low.size:
            raise ZeroOnContourError(complex(zm[low[0]]))
        z = np.insert(z, jumps + 1, zm)
        v = np.insert(v, jumps + 1, vm)
        la = np.insert(la, jumps + 1, lm)
    total = float(d.sum())
    count = round(total / TWO_PI)
    if abs(total - TWO_PI * count) > 1e-6:
        raise ZeroOnContourError(
            corners[0], f"boundary phase {total:.3e} did not close to a "
            f"multiple of 2*pi")
    if count < 0:
        raise ValueError(f"negative winding count {count}: the evaluator is "
                         "not analytic inside the rectangle")
    return WindingResult(
        count=count,
        min_modulus_on_contour=math.exp(float(la.min()) - float(la.max())),
        samples=z.size - 1,
        refined=rounds > 0,
    )


def series_evaluator(k: int, M_ref: int) -> Evaluator:
    """Dirichlet-series evaluator divided by the complex dominant term
    Q_{M_ref}(s) = (log M_ref)^k M_ref^(-s), which has no zeros and so
    leaves winding numbers unchanged; one series-layer call per array of
    points."""

    def f(z: np.ndarray) -> np.ndarray:
        return eval_deriv_scaled(z, k, log_term_mag(M_ref, k, z))

    return f


def cell_winding(M: int, k: int, j: int) -> WindingResult:
    """Winding number of the k-th derivative around cell(M, k, j)."""
    c = cell(M, k, j)
    rect = Rect(c.sigma_range[0], c.sigma_range[1],
                c.t_range[0], c.t_range[1])
    return winding_number(rect, series_evaluator(k, M_ref=M))


# ---------------------------------------------------------------------------
# boundary certificates


def _terms(M: int, k: int, sigma):
    """At a float sigma or at each point of an array: r = Q_{M+1}/Q_M, its
    rounding allowance dr, H_M/Q_M rounded up and a certified bound on
    T_{M+1}/Q_M (the tail from M+2 on)."""
    log_q = log_term_mag(M, k, sigma)
    r = np.exp(log_term_mag(M + 1, k, sigma) - log_q)
    h = head_ratio(M, k, sigma)
    h = h + h * rounding_allowance(M, k, sigma, log_q) + np.finfo(float).tiny
    return (r, r * rounding_allowance(M + 1, k, sigma, log_q), h,
            tail_ratio_upper(M + 2, k, sigma, log_q))


def strip_certificate(M: int, k: int) -> StripCertificate:
    """Certified lower bounds over every cell boundary of strip S_M,
    normalized by Q_M: the Rouche gap |Q_M + Q_{M+1}| - H_M - tail, and the
    line margin (1/sqrt 2)(Q_M + Q_{M+1}) - H_M - tail on the cell lines.

    On the cell lines cos(t*delta) = 1, and in sigma r = Q_{M+1}/Q_M and the
    tail decrease while the head increases, so on each interval [a, b] of the
    sigma-range c*(1 + r(b) - dr(b)) - H(b) - tail(a) is a lower bound (c = 1
    for the gap, 1/sqrt 2 for the margin).  The vertical edges minimize the
    gap in closed form, |1 - r| - dr - H - tail over a period of the phase.
    The SWEEP_INTERVALS + 1 nodes are one _terms call.  failure_sigma is the
    sigma of the first gap bound not > 0 (so NaN fails): a vertical edge's,
    checked first, else the failing interval's midpoint; None if none fails.
    """
    s_lo, s_hi = cell(M, k, 0).sigma_range
    xs = np.append(s_lo + (s_hi - s_lo) * np.arange(SWEEP_INTERVALS)
                   / SWEEP_INTERVALS, s_hi)
    r, dr, h, tail = _terms(M, k, xs)
    line = 1.0 + r[1:] - dr[1:]
    ends = [0, -1]
    gaps = np.concatenate([np.abs(1.0 - r[ends]) - dr[ends] - h[ends]
                           - tail[ends], line - h[1:] - tail[:-1]])
    sigmas = np.concatenate([xs[ends], 0.5 * (xs[:-1] + xs[1:])])
    margin = 1.0 / math.sqrt(2.0) * line - h[1:] - tail[:-1]
    fails = np.flatnonzero(~(gaps > 0.0))
    return StripCertificate(
        min_gap=float(gaps.min()), line_margin=float(margin.min()),
        failure_sigma=float(sigmas[fails[0]]) if fails.size else None)


def rouche_certificate(M: int, k: int, j: int) -> RoucheCertificate:
    """Certify |zeta^(k) - (Q_M + Q_{M+1})| < |Q_M + Q_{M+1}| on the cell
    boundary, which pins the interior zero count to that of Q_M + Q_{M+1};
    strip_certificate's gap.  A failure on a vertical edge is reported at
    mid-cell height, one on the cell lines at t_lo."""
    c = cell(M, k, j)
    cert = strip_certificate(M, k)
    failure: Optional[ComplexPoint] = None
    if cert.failure_sigma is not None:
        t_lo, t_hi = c.t_range
        on_edge = cert.failure_sigma in c.sigma_range
        failure = ComplexPoint(cert.failure_sigma,
                               0.5 * (t_lo + t_hi) if on_edge else t_lo)
    return RoucheCertificate(cell=c, min_gap=cert.min_gap,
                             samples_per_edge=SWEEP_INTERVALS,
                             holds=failure is None, failure_point=failure)


def hline_margin(M: int, k: int, j: int) -> float:
    """strip_certificate's line margin.  A positive value certifies the k-th
    derivative has no zero on the cell line t = 2*pi*j/delta; a negative one
    is a finding to report, not an error."""
    cell(M, k, j)  # rejects a negative j and a missing strip
    return strip_certificate(M, k).line_margin


# ---------------------------------------------------------------------------
# localization


def _normalized_modulus(s: complex, order: int) -> float:
    """|zeta^(order)(s)| / Q_n(sigma), n being the dominant index at s."""
    res = eval_deriv(s, order)
    ref = log_term_mag(dominant_index(s.real, order), order, s.real)
    return math.exp(res.value.log_abs() - ref)


def _newton_from(start: complex, k: int,
                 c: CellRect) -> tuple[complex, int] | None:
    """Newton on the k-th derivative; None if the iterate escapes the cell
    twice or fails to converge."""
    z = start
    escapes = 0
    for it in range(1, NEWTON_MAX_ITERS + 1):
        f = eval_deriv(z, k).value
        fp = eval_deriv(z, k + 1).value
        if fp.is_zero():
            return None
        step = -(f / fp).to_complex()
        z = z + step
        if not c.contains(z.real, z.imag):
            escapes += 1
            if escapes >= 2:
                return None
            z = complex(
                min(max(z.real, c.sigma_range[0] + 1e-9),
                    c.sigma_range[1] - 1e-9),
                min(max(z.imag, c.t_range[0] + 1e-9), c.t_range[1] - 1e-9))
        if abs(step) < NEWTON_TOL:
            return z, it
    return None


def _quadrants(rect: Rect) -> list[Rect]:
    sm = 0.5 * (rect.sigma_lo + rect.sigma_hi)
    tm = 0.5 * (rect.t_lo + rect.t_hi)
    return [Rect(rect.sigma_lo, sm, rect.t_lo, tm),
            Rect(sm, rect.sigma_hi, rect.t_lo, tm),
            Rect(rect.sigma_lo, sm, tm, rect.t_hi),
            Rect(sm, rect.sigma_hi, tm, rect.t_hi)]


def locate_zero(M: int, k: int, j: int) -> ZeroRecord:
    """Refine the predicted cell zero by Newton; quadrisect by winding and
    restart if Newton wanders out of the cell."""
    c = cell(M, k, j)
    start = c.predicted_zero.to_complex()
    result = _newton_from(start, k, c)
    if result is None:
        evaluator = series_evaluator(k, M_ref=M)
        rect = Rect(c.sigma_range[0], c.sigma_range[1],
                    c.t_range[0], c.t_range[1])
        for _ in range(6):
            sub = None
            for quad in _quadrants(rect):
                if winding_number(quad, evaluator).count == 1:
                    sub = quad
                    break
            if sub is None:
                break
            rect = sub
            center = complex(0.5 * (rect.sigma_lo + rect.sigma_hi),
                             0.5 * (rect.t_lo + rect.t_hi))
            result = _newton_from(center, k, c)
            if result is not None:
                break
    if result is None:
        raise LocateError(
            start, f"no convergence in cell (M={M}, k={k}, j={j})")
    z, iters = result
    margin = _normalized_modulus(z, k + 1)
    return ZeroRecord(
        location=ComplexPoint(z.real, z.imag), M=M, k=k, j=j,
        residual=_normalized_modulus(z, k),
        simplicity_margin=margin,
        newton_iters=iters,
        predicted=c.predicted_zero,
    )


def enumerate_zeros(M: int, k: int, T: float) -> tuple[list[ZeroRecord], int]:
    """All strip-S_M zeros of the k-th derivative with 0 < t <= T, plus the
    count N at height T."""
    if T <= 0.0:
        raise ValueError(f"enumerate_zeros needs T > 0, got {T}")
    c0 = cell(M, k, 0)
    delta = c0.strip.delta
    j_max = math.ceil(T * delta / TWO_PI)
    located = [locate_zero(M, k, j) for j in range(j_max)]
    records = [rec for rec in located if rec.location.t <= T]
    return records, len(records)
