"""Regenerate data/cells.json: how zetaderiv's locate_zero fares on the
strip-cell grid the strip-cells and cli-zeros workloads draw from.

The grid is every cell (M, k, j) with k in K_GRID, S_M an existing strip at
k, and 0 <= j < J_MAX.  Each cell is put in one of three classes:

- failing: locate_zero raises LocateError (see the FOUND line on its Newton
  tolerance in CHANGES.md), on every call;
- fallback: Newton from the predicted zero fails and the quadrisection
  fallback finds the zero, at 100 times the cost of a clean cell;
- clean: the rest.

The workloads draw their seeded inputs from the clean and fallback cells, a
fixed number from each class, so that a pass costs about the same for every
seed; they run a fixed set of failing cells and commands, the same for every
seed, so that the failed share of a run does not depend on the seed.

Run from the root of the repository (it takes several minutes):

    python3 perfbench/make_cells.py
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zetaderiv import zeros  # noqa: E402
from zetaderiv.geometry import strip  # noqa: E402

# 24 orders spaced evenly in log k from 38 to 1600
K_GRID = [round(38 * (1600 / 38) ** (i / 23)) for i in range(24)]
J_MAX = 60
OUT = Path(__file__).resolve().parent / "data" / "cells.json"


def strips_at(k: int) -> list[int]:
    Ms, M = [], 2
    while strip(M, k).exists or M == 2:
        if strip(M, k).exists:
            Ms.append(M)
        M += 1
    return Ms


def main() -> int:
    # locate_zero reaches winding_number only through its fallback
    windings = [0]
    winding_number = zeros.winding_number

    def counted(*args, **kwargs):
        windings[0] += 1
        return winding_number(*args, **kwargs)

    zeros.winding_number = counted
    strips = []
    for k in K_GRID:
        for M in strips_at(k):
            failing, fallback = [], []
            t0 = time.perf_counter()
            for j in range(J_MAX):
                windings[0] = 0
                try:
                    zeros.locate_zero(M, k, j)
                except zeros.LocateError:
                    failing.append(j)
                    continue
                if windings[0]:
                    fallback.append(j)
            strips.append({"M": M, "k": k, "failing_j": failing,
                           "fallback_j": fallback})
            print(f"k={k} M={M}: {len(failing)} failing, {len(fallback)} "
                  f"fallback, {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "description": "cells (M, k, j), j < j_max, of every existing strip "
                       "at each k of k_grid: the j where locate_zero raises "
                       "LocateError, and the j where it succeeds only by "
                       "its quadrisection fallback",
        "k_grid": K_GRID, "j_max": J_MAX, "strips": strips,
    }, indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
