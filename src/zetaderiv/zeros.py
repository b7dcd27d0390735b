"""Contour zero counting, boundary certificates, and zero localization.

The counting tool is the argument principle over one closed array of
boundary samples, refined in rounds that bisect every large phase jump.
Certificates compare the two crossing terms Q_M + Q_{M+1} against the exact
head and a certified tail bound along cell boundaries, normalized by the
positive real Q_M(sigma).  Strip contours divide the k-th derivative by the
complex dominant term Q_M(s) = (log M)^k M^(-s), which is entire and has no
zeros, so winding numbers are untouched and only the fast phase M^(-it) goes.
Each evaluator call sums all its points to one cutoff, taken at its smallest
sigma, where the tail test is hardest.

Zeros are located by one array Newton per strip: the predicted zeros of all
the cells asked for start together, and each iteration sums the orders k and
k+1 over the points still active in one call each.  Every sum of a strip
runs to one cutoff, chosen by the same rule at the strip's left edge.  A
cell where Newton fails goes to a quadrisection fallback by winding number,
whose restarts are the same Newton from one point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import CellRect, ComplexPoint, cell, dominant_index
from .series import (_check_domain, _cutoff_from, _partial_sum, head_ratio,
                     log_term_mag, rounding_allowance, tail_ratio_upper)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi
# a contour sample below this fraction of its neighbours' modulus is treated
# as a zero sitting (numerically) on the contour
REL_ZERO_FLOOR = math.log(1e-8)
MAX_SUBDIV_DEPTH = 48
INIT_SAMPLES_PER_EDGE = 64
NEWTON_MAX_ITERS = 60
# Newton stops once its step is below this.  The bound is absolute: once |z|
# is around 1000 or more it sits below the floor that rounding sets on the
# steps, so Newton can miss it in a cell with a simple zero (the failing
# cells of perfbench/data/cells.json); it stays until a stop rule relative
# to |z| replaces it
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
    leaves winding numbers unchanged.

    A call sums all its points in one _partial_sum, to the one cutoff that
    its smallest sigma needs (_cutoff_from), as the Euler-Maclaurin contour
    evaluator takes one cutoff per call from its largest |t|.  Same domain
    guard as eval_deriv; raises OverflowError when a value divided by
    Q_{M_ref}(s) is not finite or below the normal float range, i.e. when
    the scale is far from the values' magnitude."""

    def f(z: np.ndarray) -> np.ndarray:
        sigma_min = float(z.real.min())
        _check_domain(k, sigma_min)
        mant, shift = _partial_sum(k, z.real, z.imag, 2,
                                   _cutoff_from(k, sigma_min))
        log_scale = log_term_mag(M_ref, k, z)
        with np.errstate(over="ignore", invalid="ignore"):
            out = mant * np.exp(shift - log_scale)
        if k == 0:
            out += np.exp(-log_scale)  # the n = 1 term
        elif k % 2:
            out = -out
        size = np.abs(out)
        if not np.all((size >= np.finfo(float).tiny) & (size < math.inf)):
            raise OverflowError(f"order-{k} series values out of float range "
                                f"after division by Q_{M_ref}(s)")
        return out

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


def _strip_cutoff(k: int, sigma_lo: float) -> int:
    """One cutoff N for the orders k and k+1 over the whole strip whose
    left edge is sigma_lo: the larger of their _cutoff_from cutoffs."""
    return max(_cutoff_from(k, sigma_lo), _cutoff_from(k + 1, sigma_lo))


def _sums(k: int, z: np.ndarray, N: int):
    """The order-k and order-(k+1) sums over n = 2..N at each point of z,
    each as (mantissa, exponent).  They are (-1)^k zeta^(k) and
    (-1)^(k+1) zeta^(k+1) up to the tail, for k >= 1."""
    return (_partial_sum(k, z.real, z.imag, 2, N),
            _partial_sum(k + 1, z.real, z.imag, 2, N))


def _newton(z: np.ndarray, k: int, N: int, sigma_range: tuple[float, float],
            t_lo: np.ndarray, t_hi: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Newton on the k-th derivative from each start point of z, each in
    its own cell (sigma_range by (t_lo, t_hi)), all summed to the cutoff N.
    Each iteration is one _sums call over the points still active.  A point
    stops once its step is below NEWTON_TOL; it fails when it escapes its
    cell twice (after the first escape it is clamped back inside), when its
    order-(k+1) sum is 0 or its step is not finite, or after
    NEWTON_MAX_ITERS steps.  Returns the final points and the iterations
    each took, 0 for a failed start."""
    z = z.copy()
    iters = np.zeros(z.size, dtype=int)
    escapes = np.zeros(z.size, dtype=int)
    active = np.arange(z.size)
    s_lo, s_hi = sigma_range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, NEWTON_MAX_ITERS + 1):
            if not active.size:
                break
            za = z[active]
            (m_k, e_k), (m_k1, e_k1) = _sums(k, za, N)
            # -zeta^(k)/zeta^(k+1): the two sums carry opposite signs
            step = m_k / m_k1 * np.exp(e_k - e_k1)
            za = za + step
            lo, hi = t_lo[active], t_hi[active]
            out = ~((s_lo < za.real) & (za.real < s_hi)
                    & (lo < za.imag) & (za.imag < hi))
            if out.any():
                escapes[active] += out
                za[out] = (np.minimum(np.maximum(za.real[out], s_lo + 1e-9),
                                      s_hi - 1e-9)
                           + 1j * np.minimum(np.maximum(za.imag[out],
                                                        lo[out] + 1e-9),
                                             hi[out] - 1e-9))
            z[active] = za
            alive = np.isfinite(step) & (escapes[active] < 2)
            done = alive & (np.abs(step) < NEWTON_TOL)
            iters[active[done]] = it
            active = active[alive & ~done]
    return z, iters


def _quadrants(rect: Rect) -> list[Rect]:
    sm = 0.5 * (rect.sigma_lo + rect.sigma_hi)
    tm = 0.5 * (rect.t_lo + rect.t_hi)
    return [Rect(rect.sigma_lo, sm, rect.t_lo, tm),
            Rect(sm, rect.sigma_hi, rect.t_lo, tm),
            Rect(rect.sigma_lo, sm, tm, rect.t_hi),
            Rect(sm, rect.sigma_hi, tm, rect.t_hi)]


def _fallback(M: int, k: int, j: int, N: int) -> tuple[complex, int]:
    """Quadrisect cell j by winding number, up to 6 times, restarting
    Newton from the center of the quadrant holding one zero."""
    c = cell(M, k, j)
    t_lo, t_hi = np.array(c.t_range[:1]), np.array(c.t_range[1:])
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
        z, iters = _newton(np.array([center]), k, N, c.sigma_range,
                           t_lo, t_hi)
        if iters[0]:
            return complex(z[0]), int(iters[0])
    raise LocateError(c.predicted_zero.to_complex(),
                      f"no convergence in cell (M={M}, k={k}, j={j})")


def _locate(M: int, k: int, js: list[int]) -> list[ZeroRecord]:
    """Records for the cells js (ascending) of strip S_M: one array Newton
    from their predicted zeros, all summed to the strip's one cutoff, then
    for each cell where it fails the quadrisection fallback, whose restarts
    are one-point runs of the same Newton.  Raises LocateError for the
    first cell that the fallback cannot locate either."""
    c0 = cell(M, k, js[0] if js else 0)
    sp = c0.strip
    N = _strip_cutoff(k, c0.sigma_range[0])
    j = np.array(js, dtype=int)
    t_lo, t_hi = TWO_PI * j / sp.delta, TWO_PI * (j + 1) / sp.delta
    t_pred = (2 * j + 1) * math.pi / sp.delta
    z, iters = _newton(sp.center_sigma + 1j * t_pred, k, N, c0.sigma_range,
                       t_lo, t_hi)
    t_pred = t_pred.tolist()
    for i in np.flatnonzero(iters == 0).tolist():
        z[i], iters[i] = _fallback(M, k, js[i], N)
    (m_k, e_k), (m_k1, e_k1) = _sums(k, z, N)
    log_k, log_k1 = np.log(np.abs(m_k)) + e_k, np.log(np.abs(m_k1)) + e_k1
    records = []
    for i, (s, t) in enumerate(zip(z.real.tolist(), z.imag.tolist())):
        # normalized by Q_n(sigma), n the dominant index at s of each order
        records.append(ZeroRecord(
            location=ComplexPoint(s, t), M=M, k=k, j=js[i],
            residual=math.exp(log_k[i] - log_term_mag(
                dominant_index(s, k), k, s)),
            simplicity_margin=math.exp(log_k1[i] - log_term_mag(
                dominant_index(s, k + 1), k + 1, s)),
            newton_iters=int(iters[i]),
            predicted=ComplexPoint(sp.center_sigma, t_pred[i])))
    return records


def locate_zero(M: int, k: int, j: int) -> ZeroRecord:
    """The zero in cell(M, k, j): Newton from the predicted zero, and if it
    escapes the cell twice or does not converge, Newton restarted from the
    quadrant that holds one zero by winding number.  enumerate_zeros' path
    for one cell, so its sums run to the strip's one cutoff and the record
    equals enumerate_zeros' record j."""
    return _locate(M, k, [j])[0]


def enumerate_zeros(M: int, k: int, T: float) -> tuple[list[ZeroRecord], int]:
    """All strip-S_M zeros of the k-th derivative with 0 < t <= T, plus the
    count N at height T.

    The cells below T are located by one array Newton, started from all
    their predicted zeros at once; each iteration is one sum per order k and
    k+1 over the cells still active.  Every sum runs to one cutoff for the
    strip, taken at its left edge: the tail test there holds at every sigma
    of the strip (_strip_cutoff).  Cells where Newton fails go one by one to
    locate_zero's quadrisection fallback."""
    if T <= 0.0:
        raise ValueError(f"enumerate_zeros needs T > 0, got {T}")
    delta = cell(M, k, 0).strip.delta
    j_max = math.ceil(T * delta / TWO_PI)
    located = _locate(M, k, list(range(j_max)))
    records = [rec for rec in located if rec.location.t <= T]
    return records, len(records)
