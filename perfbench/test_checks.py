"""Tests of the benchmark's own checks: each must reject a wrong answer.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def _declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture(scope="module")
def ref():
    return workloads.Reference()


@pytest.fixture(scope="module")
def cell_out(program):
    cell = (2, 38, 3)
    return cell, workloads.strip_cell_run(program, cell)


def test_strip_zero_accepted_and_moved_zero_rejected(cell_out):
    (M, k, j), out = cell_out
    z = out[3].location.to_complex()
    assert reference.strip_zero_error(M, k, j, z) is None
    for shift in (1e-6, 1e-6j):
        msg = reference.strip_zero_error(M, k, j, z + shift)
        assert msg is not None and "residual" in msg


def test_zero_outside_its_cell_or_strip_rejected(cell_out):
    (M, k, j), out = cell_out
    z = out[3].location.to_complex()
    s_lo, s_hi, t_lo, t_hi = reference.cell_box(M, k, j)
    for wrong in (complex(s_hi + 0.5, z.imag), complex(s_lo - 0.5, z.imag),
                  complex(z.real, t_hi + 1.0)):
        assert "outside cell" in reference.strip_zero_error(M, k, j, wrong)
    # the right zero filed under the next cell
    assert "outside cell" in reference.strip_zero_error(M, k, j + 1, z)


def test_strip_cell_check_rejects_broken_properties(ref, cell_out):
    cell, (cert, winding, margin, record) = cell_out
    workloads.strip_cell_check(ref, cell, (cert, winding, margin, record))
    bad = [
        (cert.__class__(cell=cert.cell, min_gap=-1e-3,
                        samples_per_edge=cert.samples_per_edge, holds=False),
         winding, margin, record),
        (cert, winding.__class__(2, winding.min_modulus_on_contour,
                                 winding.samples, winding.refined),
         margin, record),
        (cert, winding, -1e-3, record),
    ]
    for out in bad:
        with pytest.raises(CheckError):
            workloads.strip_cell_check(ref, cell, out)


def test_cli_zeros_check_rejects_count_off_by_one(program, ref):
    command = (2, 38, 5)
    code, text = workloads.cli_zero_run(program, command)
    workloads.cli_zero_check(ref, command, (code, text))
    lines = text.splitlines()
    dropped = "\n".join(lines[1:-1] + [lines[-1].replace("N = 5", "N = 4")])
    with pytest.raises(CheckError):
        workloads.cli_zero_check(ref, command, (code, dropped))
    with pytest.raises(CheckError):
        workloads.cli_zero_check(ref, (2, 38, 6), (code, text))
    moved = json.loads(lines[0])
    moved["location"]["t"] += 1e-6
    with pytest.raises(CheckError):
        workloads.cli_zero_check(
            ref, command, (code, "\n".join([json.dumps(moved)] + lines[1:])))


def test_halfplane_check_rejects_counts_off_by_one(ref):
    window = (1, 20.0, 30.0)
    want = (ref.halfplane(1, 20.0, 30.0), ref.zeta_zeros(20.0, 30.0))
    assert want == (1, 2)  # zeta' at 23.298i; zeta at 21.022i and 25.011i
    workloads.halfplane_check(ref, window, want)
    for wrong in ((want[0] + 1, want[1]), (want[0], want[1] - 1)):
        with pytest.raises(CheckError):
            workloads.halfplane_check(ref, window, wrong)


def test_halfplane_reference_matches_program_on_one_window(program, ref):
    window = (2, 40.0, 50.0)
    out = workloads.halfplane_run(program, window)
    workloads.halfplane_check(ref, window, out)


def _value_line(v: complex, route: str) -> str:
    """A value as `zetaderiv eval` prints it."""
    e = math.floor(math.log10(abs(v)))
    m = v / 10.0 ** e
    return f"value      = ({m.real:+.15f}{m.imag:+.15f}j) x 10^{e}   [{route}]"


def test_lowk_check_rejects_value_beyond_eps(program, ref):
    point = (2, 1.7, 12.5)
    code, text = workloads.lowk_run(program, point)
    workloads.lowk_check(ref, point, (code, text))
    want = reference.zeta_deriv(1.7, 12.5, 2)
    rest = text.splitlines()[1:]
    near = want * (1 + 0.1 * workloads.EVAL_EPS)
    workloads.lowk_check(ref, point, (code, "\n".join(
        [_value_line(near, "cauchy-circle")] + rest)))
    off = want + 2 * workloads.EVAL_EPS * max(1.0, abs(want))
    with pytest.raises(CheckError):
        workloads.lowk_check(ref, point, (code, "\n".join(
            [_value_line(off, "cauchy-circle")] + rest)))


class _WallClock:
    """Stands in for the calibration: wall seconds unscaled."""

    def mark(self) -> int:
        return 0

    def calibrate(self) -> None:
        pass

    def scale(self, wall_s: float, mark: int) -> float:
        return wall_s


def test_locate_error_is_a_failed_op_and_the_run_goes_on(program):
    inputs = [workloads.FAILING_CELLS[0], (2, 38, 3)]
    op_s, _, pass_s, outputs, failures = run.run_passes(
        workloads.WORKLOADS["strip-cells"], program, inputs, 2, None,
        _WallClock())
    assert len(op_s) == 4 and len(pass_s) == 2
    assert [(inp, type(err).__name__) for inp, err in failures] == \
        [(inputs[0], "LocateError")] * 2
    assert [inp for inp, _ in outputs] == [inputs[1]]


def test_run_reports_the_failed_command_and_stays_correct():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-zeros",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    per_pass = len(workloads.cli_zero_inputs(3))
    assert result["attempted"] % per_pass == 0
    assert result["failed"] == result["attempted"] // per_pass
    assert "LocateError" in proc.stderr and "Newton tolerance" in proc.stderr
    assert list(result["metrics"]) == \
        [m["name"] for m in _declared()["end_to_end"]]


def test_traced_run_reports_every_layer_and_zero_where_bypassed():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lowk-eval",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(values) == [m["name"] for m in _declared()["per_layer"]]
    n_ops = result["attempted"]
    assert n_ops % len(workloads.lowk_inputs(2)) == 0
    assert values["cli.commands"] == n_ops
    assert values["cli.route_series"] + values["cli.route_cauchy"] == n_ops
    assert values["series.practical_calls"] == n_ops
    assert values["continuation.cauchy_calls"] == values["cli.route_cauchy"]
    assert all(v == 0 for k, v in values.items() if k.startswith("zeros."))
