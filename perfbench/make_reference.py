"""Regenerate data/halfplane_zeros.json with mpmath only.

The file lists the zeros of zeta' and zeta'' in the boxes the halfplane-count
workload counts in: SIGMA_LO <= sigma <= SIGMA_HI[k] and T_MIN < t <= T_MAX.
Each box of height BOX is counted by the argument principle: the phase of
mpmath's zeta(s, 1, k) is followed around the box boundary, and a segment
whose end phases differ by PHASE_STEP or more is bisected.  Every zero is then
located by findroot inside a box that holds it alone, so the list can be
checked against each box count.

Run from the root of the repository:

    python3 perfbench/make_reference.py

It takes a few minutes and rewrites the data file.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpc

# real-part bounds past which zeta' and zeta'' have no zeros, plus the
# 0.05 margin the counted box takes on the right
SIGMA_MAX = {1: 2.93938, 2: 4.02853}
SIGMA_LO = 0.05
SIGMA_HI = {k: v + 0.05 for k, v in SIGMA_MAX.items()}
T_MIN, T_MAX = 0.05, 100.05
BOX = 1.0
SAMPLE_STEP = 0.05
PHASE_STEP = math.pi / 4.0
MAX_DEPTH = 40
DPS = 20

OUT = Path(__file__).resolve().parent / "data" / "halfplane_zeros.json"


def _f(k: int):
    return lambda s: mpmath.zeta(s, 1, k)


def _segment_phase(f, a: complex, b: complex) -> float:
    """Change of arg f along the segment from a to b."""
    n = max(1, math.ceil(abs(b - a) / SAMPLE_STEP))
    pts = [a + (b - a) * i / n for i in range(n + 1)]
    vals = [complex(f(mpc(p))) for p in pts]
    total = 0.0
    for i in range(n):
        total += _refine(f, pts[i], vals[i], pts[i + 1], vals[i + 1], 0)
    return total


def _refine(f, za, va, zb, vb, depth) -> float:
    d = math.remainder(math.atan2(vb.imag, vb.real)
                       - math.atan2(va.imag, va.real), 2 * math.pi)
    if abs(d) < PHASE_STEP:
        return d
    if depth >= MAX_DEPTH:
        raise RuntimeError(f"phase does not resolve between {za} and {zb}")
    zm = 0.5 * (za + zb)
    vm = complex(f(mpc(zm)))
    if abs(vm) < 1e-12 * max(abs(va), abs(vb)):
        raise RuntimeError(f"a zero lies on the contour near {zm}")
    return (_refine(f, za, va, zm, vm, depth + 1)
            + _refine(f, zm, vm, zb, vb, depth + 1))


def box_count(f, s0: float, s1: float, t0: float, t1: float) -> int:
    corners = [complex(s0, t0), complex(s1, t0), complex(s1, t1),
               complex(s0, t1)]
    total = sum(_segment_phase(f, corners[i], corners[(i + 1) % 4])
                for i in range(4))
    count = round(total / (2 * math.pi))
    if abs(total - 2 * math.pi * count) > 1e-6:
        raise RuntimeError(f"box [{s0}, {s1}] x [{t0}, {t1}]: phase "
                           f"{total} is not a multiple of 2 pi")
    return count


def zeros_in_box(f, s0, s1, t0, t1, count) -> list[complex]:
    """The count zeros of f in the box, by findroot from the centre once the
    box holds a single zero, otherwise by splitting the longer side."""
    if count == 0:
        return []
    if count == 1:
        centre = mpc(0.5 * (s0 + s1), 0.5 * (t0 + t1))
        try:
            root = mpmath.findroot(f, centre)
        except ValueError:
            root = None
        if root is not None and s0 < root.real < s1 and t0 < root.imag < t1:
            return [complex(root)]
    if s1 - s0 >= t1 - t0:
        sm = 0.5 * (s0 + s1)
        halves = [(s0, sm, t0, t1), (sm, s1, t0, t1)]
    else:
        tm = 0.5 * (t0 + t1)
        halves = [(s0, s1, t0, tm), (s0, s1, tm, t1)]
    found = []
    for box in halves:
        found += zeros_in_box(f, *box, box_count(f, *box))
    if len(found) != count:
        raise RuntimeError(f"box [{s0}, {s1}] x [{t0}, {t1}] counts {count} "
                           f"zeros but its halves hold {len(found)}")
    return found


def main() -> int:
    mp.dps = DPS
    n_boxes = round((T_MAX - T_MIN) / BOX)
    orders = {}
    for k in (1, 2):
        f = _f(k)
        boxes, found = [], []
        for i in range(n_boxes):
            t0, t1 = T_MIN + i * BOX, T_MIN + (i + 1) * BOX
            c = box_count(f, SIGMA_LO, SIGMA_HI[k], t0, t1)
            boxes.append([t0, t1, c])
            found += zeros_in_box(f, SIGMA_LO, SIGMA_HI[k], t0, t1, c)
            print(f"k={k} t in ({t0:.2f}, {t1:.2f}]: {c} zero(s)",
                  file=sys.stderr, flush=True)
        orders[str(k)] = {
            "sigma_range": [SIGMA_LO, SIGMA_HI[k]],
            "boxes": boxes,
            "zeros": [[z.real, z.imag] for z in sorted(found,
                                                       key=lambda z: z.imag)],
        }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "description": "zeros of zeta^(k), k = 1, 2, by the argument "
                       "principle over boxes of height 1 and findroot",
        "t_range": [T_MIN, T_MAX],
        "orders": orders,
    }, indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
