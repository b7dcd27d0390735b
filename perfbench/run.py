"""Benchmark of zetaderiv: one workload per process, end to end or traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload strip-cells --seed 1 --seconds 20 \\
        --trace 0

A run sets the program up (import, input generation and one untimed
warm-up operation), makes a fixed number of whole passes over the seeded
inputs, then checks every operation's output against the reference code.
Times are in reference seconds (see calibrate.py): wall times scaled by
calibrations made between operations, which cancel the drift of the
machine's speed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Failed operations
are listed on standard error with the fault that failed them; a run
outcome, per-operation times and (when traced) the first pass's spans are
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibrate import Calibrated, calibration_seconds, reference_seconds  # noqa

# set-ups measured per run, each in a fresh process
SETUP_PROBES = 3
TAIL_BEYOND = 10
# a failed operation is named by the fault it hit
FAULTS = {"LocateError": "locate_zero Newton tolerance fault "
                         "(see the FOUND lines in CHANGES.md)"}


def load_program() -> SimpleNamespace:
    """Import zetaderiv from this checkout's src/, and nothing else."""
    if not (SRC / "zetaderiv" / "__init__.py").is_file():
        raise SystemExit(f"no zetaderiv package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "continuation", "zeros")
    mods = {n: importlib.import_module(f"zetaderiv.{n}") for n in names}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != SRC / "zetaderiv":
            raise SystemExit(f"{mod.__name__} was imported from "
                             f"{mod.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, seed: int):
    """Import, inputs and one untimed warm-up operation; returns the
    program, the pass inputs and the wall seconds it took."""
    t0 = time.perf_counter()
    program = load_program()
    inputs = workload.inputs(seed)
    try:
        workload.run(program, inputs[0])
    except Exception:  # a failing input fails again in the timed passes
        pass
    return program, inputs, time.perf_counter() - t0


def probe_setups(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, one after another, in
    reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_passes(workload, program, inputs, passes: int, tracer, cal):
    """Time every operation of every pass.

    Returns the times of each operation in reference and in wall seconds,
    the time of each pass (the sum of its operations' reference seconds),
    the outputs to check and the failures as (input, exception).  An output
    equal to the first pass's output for the same input is not kept again,
    so memory does not grow with the run.
    """
    wall_s, marks, outputs, failures = [], [], [], []
    first: dict[int, object] = {}
    clock = time.perf_counter
    for p in range(passes):
        if tracer is not None:
            tracer.keep_spans = p == 0
        for i, inp in enumerate(inputs):
            marks.append(cal.mark())
            t0 = clock()
            try:
                out = workload.run(program, inp)
            except Exception as err:  # counted as a failed operation
                wall_s.append(clock() - t0)
                failures.append((inp, err))
                continue
            wall_s.append(clock() - t0)
            if i not in first:
                first[i] = out
                outputs.append((inp, out))
            elif out != first[i]:
                outputs.append((inp, out))
    cal.calibrate()
    op_s = [cal.scale(w, m) for w, m in zip(wall_s, marks)]
    n = len(inputs)
    pass_s = [sum(op_s[p * n:(p + 1) * n]) for p in range(passes)]
    return op_s, wall_s, pass_s, outputs, failures


def check_outputs(workload, outputs) -> list[str]:
    """Check the output of every operation that did not fail; returns the
    errors."""
    ref = workloads.Reference()
    errors = []
    for inp, out in outputs:
        try:
            workload.check(ref, inp, out)
        except workloads.CheckError as err:
            errors.append(str(err))
    return errors


def tail_ms(op_s: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it.  A run
    of fewer than 4 * TAIL_BEYOND operations has no such tail; it reads the
    upper quartile instead, and the README says which workload does."""
    if len(op_s) < 4 * TAIL_BEYOND:
        return 1e3 * statistics.quantiles(op_s, n=4)[2]
    return 1e3 * sorted(op_s)[-TAIL_BEYOND - 1]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    program, inputs, setup_s = setup(workload, args.seed)
    if args.setup_probe:
        parts = workload.calibration
        cal_s = statistics.median(calibration_seconds(parts) for _ in range(3))
        print(f"{setup_s * reference_seconds(parts) / cal_s:.9f}")
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    passes = max(2, round(args.seconds / workload.pass_seconds))
    with Calibrated(workload.calibration) as cal:
        op_s, wall_s, pass_s, outputs, failures = run_passes(
            workload, program, inputs, passes, tracer, cal)
        peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = probe_setups(args) if tracer is None else []

    t_check = time.perf_counter()
    errors = check_outputs(workload, outputs)
    check_s = time.perf_counter() - t_check
    for msg in sorted(set(errors)):
        print(f"check failed: {msg}", file=sys.stderr)
    for inp, err in sorted({(inp, f"{type(err).__name__}: {err}")
                            for inp, err in failures}):
        name = err.split(":")[0]
        print(f"failed op {inp}: {err} [{FAULTS.get(name, 'unexpected')}]",
              file=sys.stderr)

    ops_per_s = len(inputs) / statistics.median(pass_s)
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_s),
                          "unit": "ms"},
            "op_tail_ms": {"value": tail_ms(op_s), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        metrics = tracer.metrics(ops_per_s)
    result = {"correct": not errors, "attempted": len(op_s),
              "failed": len(failures), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        **result, "passes": passes, "inputs": inputs,
        "op_ms": [round(1e3 * s, 4) for s in op_s],
        "op_wall_ms": [round(1e3 * s, 4) for s in wall_s],
        "pass_s": pass_s, "setup_s": setups, "calibration_s": cal.samples,
        "check_s": check_s,
        "tail_percentile": 75.0 if len(op_s) < 4 * TAIL_BEYOND
        else 100.0 * (1 - TAIL_BEYOND / len(op_s)),
    }) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
