"""Machine-speed calibration for the benchmark's times.

The speed of the machine the benchmark was written on drifts by up to 40%
over tens of seconds, because other work shares its processors; CPU time
drifts with wall time.  Fixed pieces of work, like the work zetaderiv does,
are timed between operations: float and complex arithmetic,
extended-exponent sums in frozen dataclasses, dict and list handling, and
numpy log and exp over short and over long arrays.  Each operation's wall
time is scaled by the ratio of the parts' reference seconds (their wall
time on the machine the README describes) to their measured time, the mean
of the calibrations just before and after the operation.  The ratio cancels
the drift common to the program and the calibration; a change to zetaderiv
does not touch the calibration.

The kinds of work do not drift alike, so each workload names the parts
that resemble its own work.  In 200 s trials, dict, list and object work
followed strip-cells best, numpy over long arrays lowk-eval, and object and
complex arithmetic halfplane-count: the spread of 18 s means fell from 12
to 22% unscaled to 3 to 5%.

The calibration runs in a helper process on the same processor as the
benchmark, so its arrays do not count in the benchmark's peak RSS.  Run as
a script with part names as arguments, this file is that helper: it
answers each line on standard input with the seconds of one calibration.
"""
from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

@dataclass(frozen=True)
class _Scaled:
    mantissa: complex
    exponent: float


def _normalized(m: complex, e: float) -> _Scaled:
    shift = math.floor(math.log2(abs(m)))
    return _Scaled(complex(math.ldexp(m.real, -shift),
                           math.ldexp(m.imag, -shift)),
                   e + shift * math.log(2.0))


def _arithmetic() -> float:
    acc, z = 0.0, 1.0 + 1.0j
    for i in range(15000):
        acc += math.sqrt(i + 1.0)
        z = z * (0.9999 + 0.0001j) + cmath.exp(1e-3j * i)
    return acc + abs(z)


def _objects() -> float:
    """Extended-exponent sums in frozen dataclasses, as in ScaledComplex."""
    v = _Scaled(1.0 + 0.0j, 0.0)
    for i in range(2800):
        w = _normalized(cmath.exp(1e-3j * i), -0.1 * i)
        d = v.exponent - w.exponent
        m = v.mantissa + w.mantissa * math.exp(-d) if d < 80.0 \
            else v.mantissa
        v = _normalized(m, v.exponent)
    return abs(v.mantissa)


def _containers() -> float:
    counts: dict = {}
    recent: list = []
    for i in range(10000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        recent.append((i, str(i)))
        if len(recent) > 100:
            recent = recent[50:]
    return float(len(counts) + len(recent))


def _short_arrays() -> float:
    """numpy log/exp sums over 256 entries, as in the head sums."""
    import numpy as np

    x = np.arange(2.0, 258.0)
    acc = 0.0
    for r in range(200):
        ln = np.log(x)
        e = 3.0 * np.log(ln) - 2.5 * ln
        acc += float((np.exp(e - e.max()) * np.exp(-1j * r * ln)).sum().real)
    return acc


def _long_arrays() -> float:
    """A numpy log/exp sum over 2^20 entries, as in the series sums that run
    past the caches."""
    import numpy as np

    x = np.arange(2.0, (1 << 20) + 2.0)
    return float(np.exp(-2.5 * np.log(x)).sum())


# the parts of the calibration, and the wall seconds each takes on the
# machine the README describes
PARTS = {"arithmetic": (_arithmetic, 0.0055),
         "objects": (_objects, 0.0135),
         "containers": (_containers, 0.007),
         "short_arrays": (_short_arrays, 0.0065),
         "long_arrays": (_long_arrays, 0.018)}


def calibration_seconds(parts) -> float:
    """Wall seconds of the named parts of the calibration work."""
    t0 = time.perf_counter()
    total = sum(PARTS[p][0]() for p in parts)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total):
        raise ArithmeticError("calibration work overflowed")
    return elapsed


def reference_seconds(parts) -> float:
    return sum(PARTS[p][1] for p in parts)


class Calibrated:
    """Scales wall seconds to reference seconds by the named calibration
    parts.

    It pins this process and a calibration helper to one processor and
    calibrates at most once every INTERVAL_S of wall time.  An operation is
    scaled by the mean of the calibrations just before and just after it.
    Use it as a context manager: leaving it stops the helper.
    """

    INTERVAL_S = 0.5

    def __init__(self, parts):
        self.reference_s = reference_seconds(parts)
        self.samples: list[float] = []
        self._last = -math.inf
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *parts],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Calibrated":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)

    def calibrate(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.samples.append(float(self._helper.stdout.readline()))
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Calibrate if INTERVAL_S has passed since the last calibration;
        returns the index of the latest calibration, to pass to scale."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.calibrate()
        return len(self.samples) - 1

    def scale(self, wall_s: float, mark: int) -> float:
        """wall_s of an operation that started after calibration mark, in
        reference seconds; call it once the calibration after the operation
        exists (calibrate once more after the last operation)."""
        after = self.samples[min(mark + 1, len(self.samples) - 1)]
        return wall_s * self.reference_s / (0.5 * (self.samples[mark] + after))


def _serve(parts) -> None:
    for _ in sys.stdin:
        print(f"{calibration_seconds(parts):.9f}", flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1:])
