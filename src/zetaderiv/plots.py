"""CSV and SVG emission for region diagrams and zero maps.

SVG output is self-contained and uses one user unit per unit of sigma and t,
with t increasing upward.  CSV numbers are written with 17 significant digits
so re-parsing reproduces the plotted coordinates exactly.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import TWO_PI, layout, strip
from .zeros import ZeroRecord, enumerate_zeros

_FMT = "%.16e"


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_FMT % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


class SvgCanvas:
    """Accumulates shapes in (sigma, t) coordinates, t pointing up."""

    def __init__(self, sigma_range: tuple[float, float],
                 t_range: tuple[float, float], scale: float = 1.0):
        self.s0, self.s1 = sigma_range
        self.t0, self.t1 = t_range
        self.scale = scale
        self.elements: list[str] = []

    def _x(self, sigma: float) -> float:
        return (sigma - self.s0) * self.scale

    def _y(self, t: float) -> float:
        return (self.t1 - t) * self.scale

    def line(self, s_a: float, t_a: float, s_b: float, t_b: float,
             color: str = "black", width: float = 0.05,
             dash: str | None = None) -> None:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{self._x(s_a):.4f}" y1="{self._y(t_a):.4f}" '
            f'x2="{self._x(s_b):.4f}" y2="{self._y(t_b):.4f}" '
            f'stroke="{color}" stroke-width="{width * self.scale:.4f}"'
            f'{extra}/>')

    def rect(self, s_a: float, t_a: float, s_b: float, t_b: float,
             fill: str, opacity: float = 0.25) -> None:
        self.elements.append(
            f'<rect x="{self._x(s_a):.4f}" y="{self._y(t_b):.4f}" '
            f'width="{(s_b - s_a) * self.scale:.4f}" '
            f'height="{(t_b - t_a) * self.scale:.4f}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>')

    def dot(self, sigma: float, t: float, color: str = "red",
            radius: float = 0.12) -> None:
        self.elements.append(
            f'<circle cx="{self._x(sigma):.4f}" cy="{self._y(t):.4f}" '
            f'r="{radius * self.scale:.4f}" fill="{color}"/>')

    def text(self, sigma: float, t: float, label: str,
             size: float = 0.6) -> None:
        self.elements.append(
            f'<text x="{self._x(sigma):.4f}" y="{self._y(t):.4f}" '
            f'font-size="{size * self.scale:.4f}" '
            f'font-family="sans-serif">{label}</text>')

    def save(self, path: str | Path) -> None:
        w = (self.s1 - self.s0) * self.scale
        h = (self.t1 - self.t0) * self.scale
        body = "\n".join(self.elements)
        Path(path).write_text(
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {w:.4f} {h:.4f}" width="{w:.4f}" '
            f'height="{h:.4f}">\n{body}\n</svg>\n')


def plot_regions(k: int, out_prefix: str | Path) -> list[Path]:
    """Wedge boundaries and existing strips at order k: CSV plus an SVG
    cross-section with t up to three periods of the outermost strip."""
    wedges, strips = layout(k)
    rows = []
    for w in wedges:
        right = w.sigma_right(k)
        rows.append(("wedge", w.M, w.sigma_left(k),
                     right if right is not None else math.inf,
                     float(w.tip_k)))
    for sp in strips:
        rows.append(("strip", sp.M, sp.center_sigma - sp.half_width,
                     sp.center_sigma + sp.half_width, sp.period))
    prefix = Path(out_prefix)
    csv_path = prefix.with_suffix(".csv")
    write_csv(csv_path, ("kind", "M", "sigma_lo", "sigma_hi", "extra"), rows)

    t_hi = 3.0 * max((sp.period for sp in strips), default=TWO_PI)
    s_lo = min((sp.center_sigma - sp.half_width - 2 for sp in strips),
               default=1.0)
    s_hi = max((sp.center_sigma + sp.half_width + 2 for sp in strips),
               default=float(k))
    canvas = SvgCanvas((s_lo, s_hi), (0.0, t_hi),
                       scale=max(1.0, t_hi / (s_hi - s_lo)))
    for sp in strips:
        canvas.rect(sp.center_sigma - sp.half_width, 0.0,
                    sp.center_sigma + sp.half_width, t_hi, fill="steelblue")
        canvas.line(sp.center_sigma, 0.0, sp.center_sigma, t_hi,
                    color="navy", dash="0.5,0.5")
        canvas.text(sp.center_sigma, t_hi * 0.97, f"S{sp.M}")
    svg_path = prefix.with_suffix(".svg")
    canvas.save(svg_path)
    return [csv_path, svg_path]


def _zero_rows(records: Iterable[ZeroRecord]):
    for r in records:
        yield (r.M, r.k, r.j, r.location.sigma, r.location.t,
               r.predicted.sigma, r.predicted.t, r.residual,
               r.simplicity_margin)


ZERO_HEADER = ("M", "k", "j", "sigma", "t", "predicted_sigma", "predicted_t",
               "residual", "simplicity_margin")


def plot_zeros(M: int, k: int, T: float, out_prefix: str | Path) -> list[Path]:
    """Located zeros of strip S_M up to height T, as CSV and an SVG map."""
    records, _ = enumerate_zeros(M, k, T)
    prefix = Path(out_prefix)
    csv_path = prefix.with_suffix(".csv")
    write_csv(csv_path, ZERO_HEADER, _zero_rows(records))

    sp = strip(M, k)
    s_lo = sp.center_sigma - sp.half_width - 1
    s_hi = sp.center_sigma + sp.half_width + 1
    canvas = SvgCanvas((s_lo, s_hi), (0.0, T * 1.02),
                       scale=max(1.0, 40.0 / (s_hi - s_lo)))
    canvas.rect(sp.center_sigma - sp.half_width, 0.0,
                sp.center_sigma + sp.half_width, T, fill="steelblue")
    canvas.line(sp.center_sigma, 0.0, sp.center_sigma, T, color="navy",
                dash="0.5,0.5")
    for r in records:
        canvas.dot(r.predicted.sigma, r.predicted.t, color="gray",
                   radius=0.08)
        canvas.dot(r.location.sigma, r.location.t, color="red")
    svg_path = prefix.with_suffix(".svg")
    canvas.save(svg_path)
    return [csv_path, svg_path]


def plot_figure2(out_prefix: str | Path, k: int = 38,
                 periods: int = 5) -> list[Path]:
    """The k = 38 layout: strip S_2 with one zero marker per cell."""
    sp = strip(2, k)
    T = periods * sp.period
    return plot_zeros(2, k, T, out_prefix)


def plot_figure4(out_prefix: str | Path,
                 ks: Sequence[int] = (100, 200, 400, 800),
                 periods: int = 3) -> list[Path]:
    """Side-by-side strip S_2 panels for several orders k, each with its
    first few zeros and the zero-free cell lines."""
    prefix = Path(out_prefix)
    all_rows = []
    panels = []
    for k in ks:
        sp = strip(2, k)
        T = periods * sp.period
        records, _ = enumerate_zeros(2, k, T)
        all_rows.extend(_zero_rows(records))
        panels.append((k, sp, records, T))
    csv_path = prefix.with_suffix(".csv")
    write_csv(csv_path, ZERO_HEADER, all_rows)

    pane_w = 4.0 * max(sp.half_width for _, sp, _, _ in panels)
    t_max = max(T for _, _, _, T in panels)
    canvas = SvgCanvas((0.0, pane_w * len(panels)), (0.0, t_max * 1.05),
                       scale=max(1.0, 60.0 / pane_w))
    for idx, (k, sp, records, T) in enumerate(panels):
        off = idx * pane_w + 0.5 * pane_w - sp.center_sigma
        canvas.rect(off + sp.center_sigma - sp.half_width, 0.0,
                    off + sp.center_sigma + sp.half_width, T,
                    fill="steelblue")
        delta = sp.delta
        j = 0
        while TWO_PI * j / delta <= T:
            t_line = TWO_PI * j / delta
            canvas.line(off + sp.center_sigma - sp.half_width, t_line,
                        off + sp.center_sigma + sp.half_width, t_line,
                        color="darkgreen", width=0.03)
            j += 1
        for r in records:
            canvas.dot(off + r.location.sigma, r.location.t)
        canvas.text(off + sp.center_sigma - sp.half_width,
                    t_max * 1.02, f"k={k}")
    svg_path = prefix.with_suffix(".svg")
    canvas.save(svg_path)
    return [csv_path, svg_path]
