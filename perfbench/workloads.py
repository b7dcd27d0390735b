"""The benchmark's workloads: seeded inputs, one operation, and its check.

A workload's ``inputs(seed)`` is one pass: a list of operation inputs that
the run repeats a fixed number of times.  Inputs are drawn in strata (by
order k, strip, cost class and height band), so that every seed gives a pass
of about the same cost and the same mix of routes.  The first input, drawn
from the same stratum for every seed, is also the set-up's warm-up.  The
inputs that fail because of the locate_zero fault are fixed and the same for
every seed.

``run(program, input)`` performs one operation through zetaderiv's public
functions or its CLI entry point and returns its raw output;
``check(ref, input, output)`` raises ``CheckError`` unless the output agrees
with the mpmath reference code in ``reference.py`` (passed in as ``ref``) or
with a property the paper's method must have.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DATA = Path(__file__).resolve().parent / "data"

# cells and commands in which locate_zero raises LocateError on every call:
# two of the cells named where the fault was found, (6, 800, 29) and
# (9, 1600, 10), and four more from data/cells.json whose operations cost
# about the same (270 to 340 ms), so that the tail percentile of strip-cells
# falls inside one population.  The third named cell, (5, 800, 39), costs
# 400 ms; it fails inside the failing command of cli-zeros.
FAILING_CELLS = [(6, 800, 29), (9, 1600, 10), (6, 1156, 37), (7, 1600, 40),
                 (5, 1360, 52), (10, 1600, 21)]
FAILING_COMMANDS = [(5, 800, 40)]
COUNT_AT = 40
EVAL_EPS = 1e-10


class CheckError(Exception):
    """A program output disagrees with the reference or a required property."""


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], None]
    # reference seconds of one pass; a run of --seconds S makes
    # round(S / pass_seconds) passes, and at least 2
    pass_seconds: float
    # the parts of the calibration (calibrate.PARTS) that resemble the work
    calibration: tuple[str, ...]


def _cells() -> list[dict]:
    return json.loads((DATA / "cells.json").read_text())["strips"]


def _capture(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# strip-cells: certify and locate one cell


def strip_cell_inputs(seed: int) -> list[tuple[int, int, int]]:
    """For each consecutive pair of orders k of the grid, one order drawn
    from the pair and as many of its strips as both orders have; one cell
    of each such strip, among the cells whose zero Newton finds directly;
    then FAILING_CELLS.  Every seed gives a pass of the same length."""
    rng = random.Random(seed)
    strips: dict[int, list] = {}
    for s in _cells():
        strips.setdefault(s["k"], []).append(s)
    grid = sorted(strips)
    cells = []
    for i in range(0, len(grid), 2):
        pair = grid[i:i + 2]
        k = rng.choice(pair)
        for s in rng.sample(strips[k], min(len(strips[o]) for o in pair)):
            bad = set(s["failing_j"]) | set(s["fallback_j"])
            j = rng.choice([j for j in range(60) if j not in bad])
            cells.append((s["M"], k, j))
    return cells + FAILING_CELLS


def strip_cell_run(program, cell):
    zeros = program.zeros
    M, k, j = cell
    return (zeros.rouche_certificate(M, k, j), zeros.cell_winding(M, k, j),
            zeros.hline_margin(M, k, j), zeros.locate_zero(M, k, j))


def strip_cell_check(ref, cell, out) -> None:
    cert, winding, margin, record = out
    if not (cert.holds and cert.min_gap > 0.0):
        raise CheckError(f"cell {cell}: the Rouche certificate does not hold "
                         f"(min gap {cert.min_gap})")
    if winding.count != 1:
        raise CheckError(f"cell {cell}: winding number {winding.count}, "
                         "expected 1")
    if not margin > 0.0:
        raise CheckError(f"cell {cell}: line margin {margin} is not positive")
    ref.strip_zero(*cell, record.location.to_complex())


# ---------------------------------------------------------------------------
# cli-zeros: zetaderiv zeros --M M --k k --count-at 40


# (M, k_lo, k_hi): commands of about the same cost
CLI_STRATA = [(2, 38, 86), (2, 101, 267), (2, 315, 1600), (3, 73, 140),
              (3, 164, 436), (3, 513, 1600), (4, 193, 436), (4, 513, 1156)]


def cli_zero_inputs(seed: int) -> list[tuple[int, int, int]]:
    """Two commands from each stratum of CLI_STRATA, over strips whose cells
    below COUNT_AT Newton finds directly; then FAILING_COMMANDS."""
    rng = random.Random(seed)
    clean = [(s["M"], s["k"]) for s in _cells() if not any(
        j < COUNT_AT for j in s["failing_j"] + s["fallback_j"])]
    commands = []
    for M, k_lo, k_hi in CLI_STRATA:
        stratum = [(m, k) for m, k in clean if m == M and k_lo <= k <= k_hi]
        commands += [(m, k, COUNT_AT) for m, k in rng.sample(stratum, 2)]
    return commands + FAILING_COMMANDS


def cli_zero_run(program, command):
    M, k, J = command
    return _capture(program.cli.main, ["zeros", "--M", str(M), "--k", str(k),
                                       "--count-at", str(J)])


_N_LINE = re.compile(r"N = (\d+) zeros up to T = (\S+)$")


def cli_zero_check(ref, command, out) -> None:
    M, k, J = command
    code, text = out
    lines = text.splitlines()
    if code != 0 or not lines:
        raise CheckError(f"zeros {command}: exit code {code}")
    m = _N_LINE.match(lines[-1])
    if m is None or int(m.group(1)) != J:
        raise CheckError(f"zeros {command}: last line {lines[-1]!r}, "
                         f"expected N = {J}")
    records = [json.loads(line) for line in lines[:-1]]
    if sorted(r["j"] for r in records) != list(range(J)):
        raise CheckError(f"zeros {command}: records for cells "
                         f"{sorted(r['j'] for r in records)}, expected 0..{J - 1}")
    for r in records:
        if (r["M"], r["k"]) != (M, k):
            raise CheckError(f"zeros {command}: record for (M, k) = "
                             f"({r['M']}, {r['k']})")
        loc = r["location"]
        ref.strip_zero(M, k, r["j"], complex(loc["sigma"], loc["t"]))


# ---------------------------------------------------------------------------
# lowk-eval: zetaderiv eval --k k --sigma s --t t --eps 1e-10

# (k, sigma_lo, sigma_hi); with eps 1e-10 the CLI takes the series route for
# k = 1 and sigma above 2.916 and the Cauchy-circle route everywhere else, so
# two of the 14 points of a pass take the series route
LOWK_BANDS = [(1, 1.1, 1.6), (1, 1.6, 2.1), (1, 2.1, 2.6), (1, 2.6, 2.9),
              (1, 2.92, 2.96), (1, 2.96, 3.0)] + [
    (k, lo, hi) for k in (2, 3)
    for lo, hi in ((1.1, 1.6), (1.6, 2.1), (2.1, 2.6), (2.6, 3.0))]


def lowk_inputs(seed: int) -> list[tuple[int, float, float]]:
    """One point per (k, sigma) band of LOWK_BANDS, 0 < t <= 60."""
    rng = random.Random(seed)
    points = [(k, round(rng.uniform(lo, hi), 6),
               round(rng.uniform(0.0, 60.0), 6) or 60.0)
              for k, lo, hi in LOWK_BANDS]
    return points


def lowk_run(program, point):
    k, sigma, t = point
    return _capture(program.cli.main, ["eval", "--k", str(k), "--sigma",
                                       repr(sigma), "--t", repr(t), "--eps",
                                       repr(EVAL_EPS)])


_VALUE_LINE = re.compile(r"value\s*= \(([-+][\d.]+)([-+][\d.]+)j\) x "
                         r"10\^(-?\d+)\s+\[([\w-]+)\]$")


def lowk_check(ref, point, out) -> None:
    k, sigma, t = point
    code, text = out
    lines = text.splitlines()
    m = _VALUE_LINE.match(lines[0]) if lines else None
    if code != 0 or m is None:
        raise CheckError(f"eval {point}: exit code {code}, output {text!r}")
    value = complex(float(m.group(1)), float(m.group(2))) \
        * 10.0 ** int(m.group(3))
    ref.value(value, sigma, t, k, EVAL_EPS)


# ---------------------------------------------------------------------------
# halfplane-count: zero counts of zeta^(k), k = 1, 2, and of zeta in a window

SIGMA_MIN = 0.05
WINDOW = 10.0
# (k, t_lo, t_hi) of the window's lower end: eight bands of t_a <= 90, k
# alternating between 1 and 2
HALFPLANE_BANDS = [(1 + i % 2, 11.25 * i or 0.05, 11.25 * (i + 1))
                   for i in range(8)]


def halfplane_inputs(seed: int) -> list[tuple[int, float, float]]:
    """One window (t_a, t_a + WINDOW] per band of HALFPLANE_BANDS."""
    rng = random.Random(seed)
    windows = []
    for k, lo, hi in HALFPLANE_BANDS:
        t_a = round(rng.uniform(lo, hi), 6)
        windows.append((k, t_a, t_a + WINDOW))
    return windows


def halfplane_run(program, window):
    k, t_a, t_b = window
    count = program.continuation.count_zeros_halfplane
    return (count(k, t_b, SIGMA_MIN, t_min=t_a),
            count(0, t_b, SIGMA_MIN, t_min=t_a))


def halfplane_check(ref, window, out) -> None:
    k, t_a, t_b = window
    n_k, n_0 = out
    want_k, want_0 = ref.halfplane(k, t_a, t_b), ref.zeta_zeros(t_a, t_b)
    if (n_k, n_0) != (want_k, want_0):
        raise CheckError(f"window {window}: counts (N_{k}, N_0) = "
                         f"({n_k}, {n_0}), reference ({want_k}, {want_0})")


WORKLOADS = {w.name: w for w in [
    Workload("strip-cells", strip_cell_inputs, strip_cell_run,
             strip_cell_check, pass_seconds=4.4,
             calibration=("objects", "containers", "short_arrays")),
    Workload("cli-zeros", cli_zero_inputs, cli_zero_run, cli_zero_check,
             pass_seconds=0.72,
             calibration=("objects", "containers", "short_arrays")),
    Workload("lowk-eval", lowk_inputs, lowk_run, lowk_check,
             pass_seconds=2.4, calibration=("arithmetic", "long_arrays")),
    Workload("halfplane-count", halfplane_inputs, halfplane_run,
             halfplane_check, pass_seconds=11.8,
             calibration=("arithmetic", "objects")),
]}


class Reference:
    """The reference side of one run's checks.  Each value is computed once
    per distinct input and reused for every pass."""

    def __init__(self):
        import reference
        self._ref = reference
        self._zero_errors: dict = {}
        self._values: dict = {}
        self._heights = None

    def strip_zero(self, M: int, k: int, j: int, z: complex) -> None:
        key = (M, k, j, z)
        if key not in self._zero_errors:
            self._zero_errors[key] = self._ref.strip_zero_error(M, k, j, z)
        if self._zero_errors[key] is not None:
            raise CheckError(self._zero_errors[key])

    def value(self, value: complex, sigma: float, t: float, k: int,
              eps: float) -> None:
        """Reject value unless |value - zeta^(k)| <= eps max(1, |zeta^(k)|)."""
        key = (sigma, t, k)
        if key not in self._values:
            self._values[key] = self._ref.zeta_deriv(sigma, t, k)
        want = self._values[key]
        err = abs(value - want)
        if not err <= eps * max(1.0, abs(want)):
            raise CheckError(f"zeta^({k})({sigma}+{t}i) = {value}, reference "
                             f"{want}: error {err:.3e} exceeds eps {eps:.0e}")

    def halfplane(self, k: int, t_lo: float, t_hi: float) -> int:
        if self._heights is None:
            self._heights = self._ref.load_halfplane_zeros()
        return self._ref.halfplane_count(self._heights[k], t_lo, t_hi)

    def zeta_zeros(self, t_lo: float, t_hi: float) -> int:
        return self._ref.zeta_zero_count(t_lo, t_hi)
