"""Contour zero counting, boundary certificates, and zero localization.

The counting tool is the argument principle with adaptive phase tracking.
Certificates compare the two crossing terms Q_M + Q_{M+1} against the exact
head and a certified tail bound along cell boundaries; everything is carried
normalized by the positive real Q_M(sigma), which leaves winding numbers and
sign decisions untouched.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from .geometry import CellRect, ComplexPoint, cell, dominant_index
from .scaled import ScaledComplex
from .series import (eval_deriv, head_ratio, log_term_mag,
                     tail_ratio_upper)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi
# a contour sample below this fraction of its neighbours' modulus is treated
# as a zero sitting (numerically) on the contour
REL_ZERO_FLOOR = math.log(1e-8)
MAX_SUBDIV_DEPTH = 48
INIT_SAMPLES_PER_EDGE = 64
# certificate sweeps: sigma intervals per cell, and bisection depth of each
SWEEP_INTERVALS = 256
MAX_BISECT_DEPTH = 12

Evaluator = Callable[[complex], ScaledComplex]


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
class RoucheCertificate:
    cell: CellRect
    min_gap: float
    samples_per_edge: int
    holds: bool
    failure_point: Optional[ComplexPoint] = None


def _wrap(phase: float) -> float:
    return (phase + math.pi) % TWO_PI - math.pi


class _PhaseWalker:
    """Accumulates the argument change of an evaluator along segments."""

    def __init__(self, evaluator: Evaluator):
        self.f = evaluator
        self.samples = 0
        self.refined = False
        self.min_log = math.inf
        self.max_log = -math.inf

    def probe(self, z: complex) -> ScaledComplex:
        v = self.f(z)
        self.samples += 1
        if v.is_zero():
            raise ZeroOnContourError(z)
        la = v.log_abs()
        self.min_log = min(self.min_log, la)
        self.max_log = max(self.max_log, la)
        return v

    def walk(self, za: complex, va: ScaledComplex, zb: complex,
             vb: ScaledComplex, depth: int = MAX_SUBDIV_DEPTH) -> float:
        d = _wrap(vb.arg() - va.arg())
        if abs(d) < HALF_PI:
            return d
        if depth == 0:
            raise ZeroOnContourError(
                0.5 * (za + zb),
                f"phase jump stays >= pi/2 after {MAX_SUBDIV_DEPTH} "
                f"subdivisions near {0.5 * (za + zb)}")
        self.refined = True
        zm = 0.5 * (za + zb)
        vm = self.probe(zm)
        if vm.log_abs() < max(va.log_abs(), vb.log_abs()) + REL_ZERO_FLOOR:
            raise ZeroOnContourError(zm)
        return (self.walk(za, va, zm, vm, depth - 1)
                + self.walk(zm, vm, zb, vb, depth - 1))


def winding_number(rect: Rect, evaluator: Evaluator,
                   samples_per_edge: int = INIT_SAMPLES_PER_EDGE,
                   sample_density: float = 0.0) -> WindingResult:
    """Zeros of the evaluator inside rect, by accumulated boundary phase.

    Segments whose endpoint phases differ by >= pi/2 are bisected until the
    jump resolves; failure to resolve, or a sample falling 10^-8 below its
    neighbours, raises ZeroOnContourError.  The bisection cannot detect a
    full phase turn hidden between two adjacent samples, so contours with
    rapid argument variation should raise ``sample_density`` (samples per
    unit of boundary length).
    """
    walker = _PhaseWalker(evaluator)
    corners = rect.corners()
    total = 0.0
    first_val: ScaledComplex | None = None
    prev_z: complex | None = None
    prev_v: ScaledComplex | None = None
    for edge in range(4):
        za, zb = corners[edge], corners[(edge + 1) % 4]
        n_edge = max(samples_per_edge,
                     math.ceil(abs(zb - za) * sample_density))
        for i in range(n_edge):
            z = za + (zb - za) * (i / n_edge)
            v = walker.probe(z)
            if first_val is None:
                first_val = v
            else:
                total += walker.walk(prev_z, prev_v, z, v)
            prev_z, prev_v = z, v
    total += walker.walk(prev_z, prev_v, corners[0], first_val)
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
        min_modulus_on_contour=math.exp(walker.min_log - walker.max_log),
        samples=walker.samples,
        refined=walker.refined,
    )


def series_evaluator(k: int, M_ref: int | None = None,
                     eps_rel: float = 1e-12) -> Evaluator:
    """Dirichlet-series evaluator normalized by a positive real scale.

    With M_ref fixed the scale is Q_{M_ref}(sigma); otherwise the dominant
    term at each sample's sigma.  Positive real rescaling leaves arguments,
    and hence winding numbers, unchanged.
    """

    def f(z: complex) -> ScaledComplex:
        res = eval_deriv(ComplexPoint(z.real, z.imag), k, eps_rel)
        n_ref = M_ref if M_ref is not None else dominant_index(z.real, k)
        scale = ScaledComplex.from_polar(log_term_mag(n_ref, k, z.real), 0.0)
        return res.value / scale

    return f


def cell_winding(M: int, k: int, j: int) -> WindingResult:
    """Winding number of the k-th derivative around cell(M, k, j)."""
    c = cell(M, k, j)
    rect = Rect(c.sigma_range[0], c.sigma_range[1],
                c.t_range[0], c.t_range[1])
    return winding_number(rect, series_evaluator(k, M_ref=M))


# ---------------------------------------------------------------------------
# boundary certificates


def _terms(M: int, k: int, sigma: float) -> tuple[float, float, float]:
    """Q_{M+1}/Q_M, H_M/Q_M and a certified bound on T_{M+1}/Q_M (the tail
    from M+2 on), all at sigma."""
    log_q = log_term_mag(M, k, sigma)
    return (math.exp(log_term_mag(M + 1, k, sigma) - log_q),
            head_ratio(M, k, sigma),
            tail_ratio_upper(M + 2, k, sigma, log_q))


def _sweep(M: int, k: int, c: CellRect, coef: float
           ) -> tuple[float, Optional[float], list]:
    """Certified lower bound of coef*(1 + r) - H - tail over the cell's
    sigma-range, with r = Q_{M+1}/Q_M and everything normalized by Q_M.

    In sigma, r and the tail decrease while the head increases, so with the
    tail bound taken at a, coef*(1 + r(b)) - H(b) - tail(a) bounds the
    function from below on [a, b] -- no Lipschitz constant needed.  The
    range is cut into SWEEP_INTERVALS intervals, and only those whose bound
    is not positive are bisected, to depth MAX_BISECT_DEPTH.
    Returns the bound, the sigma where bisection gave up (None if it never
    did) and the (sigma, terms) nodes of the grid.
    """
    s_lo, s_hi = c.sigma_range
    xs = [s_lo + (s_hi - s_lo) * i / SWEEP_INTERVALS
          for i in range(SWEEP_INTERVALS)] + [s_hi]
    nodes = [(x, _terms(M, k, x)) for x in xs]

    def piece(a, b, depth):
        return a, b, depth, coef * (1.0 + b[1][0]) - b[1][1] - a[1][2]

    stack = [piece(a, b, 0) for a, b in zip(nodes, nodes[1:])]
    best = math.inf
    while stack:
        a, b, depth, lb = stack.pop()
        if lb > 0.0:
            best = min(best, lb)
        elif depth >= MAX_BISECT_DEPTH:
            best = min([best, lb] + [p[3] for p in stack])
            return best, 0.5 * (a[0] + b[0]), nodes
        else:
            sigma = 0.5 * (a[0] + b[0])
            m = (sigma, _terms(M, k, sigma))
            stack += [piece(a, m, depth + 1), piece(m, b, depth + 1)]
    return best, None, nodes


def rouche_certificate(M: int, k: int, j: int) -> RoucheCertificate:
    """Certify |zeta^(k) - (Q_M + Q_{M+1})| < |Q_M + Q_{M+1}| on the cell
    boundary, which pins the interior zero count to that of Q_M + Q_{M+1}.

    Vertical edges minimize the comparator in closed form (|1 - r| over a
    full period of the phase).  On both horizontal edges cos(t*delta) = 1,
    so they are one sweep of the sigma-range.  min_gap is a certified lower
    bound over the whole boundary and is the same for every cell j.
    """
    c = cell(M, k, j)
    t_lo, t_hi = c.t_range
    min_gap, line_failure, nodes = _sweep(M, k, c, 1.0)
    failure: Optional[ComplexPoint] = None
    for sigma, (r, h, tail) in (nodes[0], nodes[-1]):
        gap = abs(1.0 - r) - h - tail
        min_gap = min(min_gap, gap)
        if gap <= 0.0 and failure is None:
            failure = ComplexPoint(sigma, 0.5 * (t_lo + t_hi))
    if failure is None and line_failure is not None:
        failure = ComplexPoint(line_failure, t_lo)
    return RoucheCertificate(cell=c, min_gap=min_gap,
                             samples_per_edge=SWEEP_INTERVALS,
                             holds=failure is None and min_gap > 0.0,
                             failure_point=failure)


def hline_margin(M: int, k: int, j: int) -> float:
    """Certified lower bound over the cell line t = 2*pi*j/delta of
    (1/sqrt 2)(Q_M + Q_{M+1}) - H_M - tail, normalized by Q_M; the same for
    every cell j of the strip.

    A positive value certifies the k-th derivative has no zero on that
    horizontal segment; a negative one is a finding to report, not an error.
    """
    return _sweep(M, k, cell(M, k, j), 1.0 / math.sqrt(2.0))[0]


# ---------------------------------------------------------------------------
# localization


def _normalized_residual(s: ComplexPoint, k: int) -> float:
    res = eval_deriv(s, k)
    ref = log_term_mag(dominant_index(s.sigma, k), k, s.sigma)
    return math.exp(res.value.log_abs() - ref)


def _newton_from(start: complex, k: int, tol: float, c: CellRect,
                 max_iters: int = 60) -> tuple[complex, int] | None:
    """Newton on the k-th derivative; None if the iterate escapes the cell
    twice or fails to converge."""
    z = start
    escapes = 0
    for it in range(1, max_iters + 1):
        f = eval_deriv(ComplexPoint(z.real, z.imag), k).value
        fp = eval_deriv(ComplexPoint(z.real, z.imag), k + 1).value
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
        if abs(step) < tol:
            return z, it
    return None


def _quadrants(rect: Rect) -> list[Rect]:
    sm = 0.5 * (rect.sigma_lo + rect.sigma_hi)
    tm = 0.5 * (rect.t_lo + rect.t_hi)
    return [Rect(rect.sigma_lo, sm, rect.t_lo, tm),
            Rect(sm, rect.sigma_hi, rect.t_lo, tm),
            Rect(rect.sigma_lo, sm, tm, rect.t_hi),
            Rect(sm, rect.sigma_hi, tm, rect.t_hi)]


def locate_zero(M: int, k: int, j: int, tol: float = 1e-12) -> ZeroRecord:
    """Refine the predicted cell zero by Newton; quadrisect by winding and
    restart if Newton wanders out of the cell."""
    c = cell(M, k, j)
    start = c.predicted_zero.to_complex()
    result = _newton_from(start, k, tol, c)
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
            result = _newton_from(center, k, tol, c)
            if result is not None:
                break
    if result is None:
        raise LocateError(
            start, f"no convergence in cell (M={M}, k={k}, j={j})")
    z, iters = result
    loc = ComplexPoint(z.real, z.imag)
    fp = eval_deriv(loc, k + 1)
    margin = math.exp(fp.value.log_abs()
                      - log_term_mag(dominant_index(z.real, k + 1), k + 1,
                                     z.real))
    return ZeroRecord(
        location=loc, M=M, k=k, j=j,
        residual=_normalized_residual(loc, k),
        simplicity_margin=margin,
        newton_iters=iters,
        predicted=c.predicted_zero,
    )


def enumerate_zeros(M: int, k: int, T: float, tol: float = 1e-12,
                    workers: int = 1) -> tuple[list[ZeroRecord], int]:
    """All strip-S_M zeros of the k-th derivative with 0 < t <= T, plus the
    count N at height T.  With workers > 1 the cells are located in a
    process pool, which only pays off for long enumerations."""
    if T <= 0.0:
        raise ValueError(f"enumerate_zeros needs T > 0, got {T}")
    c0 = cell(M, k, 0)
    delta = c0.strip.delta
    j_max = math.ceil(T * delta / TWO_PI)
    if workers > 1 and j_max > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            located = list(pool.map(locate_zero, repeat(M), repeat(k),
                                    range(j_max), repeat(tol)))
    else:
        located = [locate_zero(M, k, j, tol) for j in range(j_max)]
    records = [rec for rec in located if rec.location.t <= T]
    return records, len(records)
