"""CSV and SVG emission for region diagrams and zero maps.

SVG output is self-contained and uses one user unit per unit of sigma and t,
with t increasing upward.  CSV numbers are written with 17 significant digits
so re-parsing reproduces the plotted coordinates exactly.  Every zero map
(plot_zeros, plot_figure2, plot_figure4) is one renderer over a list of
(M, k, T) strip panels.
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
        rows.append(("strip", sp.M, *sp.sigma_range, sp.period))
    prefix = Path(out_prefix)
    csv_path = prefix.with_suffix(".csv")
    write_csv(csv_path, ("kind", "M", "sigma_lo", "sigma_hi", "extra"), rows)

    t_hi = 3.0 * max((sp.period for sp in strips), default=TWO_PI)
    s_lo = min((sp.sigma_range[0] - 2 for sp in strips), default=1.0)
    s_hi = max((sp.sigma_range[1] + 2 for sp in strips), default=float(k))
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


def _strip_figure(panels: Sequence[tuple[int, int, float]],
                  out_prefix: str | Path) -> list[Path]:
    """CSV of the located zeros of each (M, k, T) panel, in order, and an
    SVG with the panels side by side: strip S_M up to height T, its center
    line, its cell lines, the predicted (gray) and located (red) zero of
    each cell, and a label.  Every zero is located before a file is
    written."""
    drawn = [(strip(M, k), enumerate_zeros(M, k, T)[0], T)
             for M, k, T in panels]
    prefix = Path(out_prefix)
    csv_path = prefix.with_suffix(".csv")
    write_csv(csv_path, ZERO_HEADER,
              [row for _, records, _ in drawn for row in _zero_rows(records)])

    pane_w = 4.0 * max(sp.half_width for sp, _, _ in drawn)
    t_max = max(T for _, _, T in drawn)
    canvas = SvgCanvas((0.0, pane_w * len(drawn)), (0.0, t_max * 1.05),
                       scale=max(1.0, 60.0 / pane_w))
    for idx, (sp, records, T) in enumerate(drawn):
        center = (idx + 0.5) * pane_w
        off = center - sp.center_sigma
        lo, hi = center - sp.half_width, center + sp.half_width
        canvas.rect(lo, 0.0, hi, T, fill="steelblue")
        canvas.line(center, 0.0, center, T, color="navy", dash="0.5,0.5")
        j = 0
        while (t_line := sp.line(j)) <= T:
            canvas.line(lo, t_line, hi, t_line, color="darkgreen", width=0.03)
            j += 1
        for r in records:
            canvas.dot(off + r.predicted.sigma, r.predicted.t, color="gray",
                       radius=0.08)
            canvas.dot(off + r.location.sigma, r.location.t)
        canvas.text(lo, t_max * 1.02, f"S{sp.M} k={sp.k}")
    svg_path = prefix.with_suffix(".svg")
    canvas.save(svg_path)
    return [csv_path, svg_path]


def plot_zeros(M: int, k: int, T: float, out_prefix: str | Path) -> list[Path]:
    """Located zeros of strip S_M up to height T, as CSV and an SVG map."""
    return _strip_figure([(M, k, T)], out_prefix)


def plot_figure2(out_prefix: str | Path) -> list[Path]:
    """The k = 38 layout: strip S_2 up to five periods, with one zero marker
    per cell."""
    return plot_zeros(2, 38, 5 * strip(2, 38).period, out_prefix)


def plot_figure4(out_prefix: str | Path,
                 ks: Sequence[int] = (100, 200, 400, 800)) -> list[Path]:
    """Side-by-side strip S_2 panels for several orders k, each up to three
    periods, with its first zeros and the zero-free cell lines."""
    return _strip_figure([(2, k, 3 * strip(2, k).period) for k in ks],
                         out_prefix)
