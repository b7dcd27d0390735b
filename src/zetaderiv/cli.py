"""Command-line front end: evaluation, region queries, zero enumeration,
verification suites and plot emission.  Each command computes its results
afresh and stores nothing; the one parser a process builds holds no results.
The exit code follows from a command's results alone: 1 for a failed check or
a count other than the one asked for, 2 for a ValueError (one stderr line);
any other exception propagates."""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import asdict

from . import continuation, plots, verify
from .geometry import TWO_PI, count_strips, layout, strip
from .scaled import ScaledComplex
from .series import eval_deriv, series_is_practical
from .zeros import ZeroRecord, enumerate_zeros

_LN10 = math.log(10.0)
# json.dumps with a keyword builds a new encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode


def _decimal_parts(v: ScaledComplex) -> tuple[complex, int]:
    """Mantissa with modulus in [1, 10) and a base-10 exponent."""
    if v.is_zero():
        return 0j, 0
    d = v.log_abs() / _LN10
    e10 = math.floor(d)
    unit = v.mantissa / abs(v.mantissa)
    return unit * 10.0 ** (d - e10), e10


# ---------------------------------------------------------------------------
# commands: each returns (json-serializable results, printable lines)


def cmd_eval(args) -> tuple[dict, list[str]]:
    s = complex(args.sigma, args.t)
    if not cmath.isfinite(s):  # every route takes this s
        raise ValueError(f"s must be finite, got sigma = {args.sigma}, "
                         f"t = {args.t}")
    if series_is_practical(args.k, args.sigma, args.eps):
        res = eval_deriv(s, args.k, args.eps)
        route = "series"
    elif args.k == 0:
        res = continuation.eval_zeta_em(s, args.eps)
        route = "euler-maclaurin"
    else:
        res = continuation.eval_deriv_cauchy(s, args.k, args.eps)
        route = "cauchy-circle"
    m, e = _decimal_parts(res.value)
    results = {
        "route": route,
        "value_mantissa": [m.real, m.imag],
        "value_exp10": e,
        "abs_error_bound_log10": res.log_abs_error_bound / _LN10,
        "terms_used": res.terms_used,
    }
    lines = [
        f"value      = ({m.real:+.15f}{m.imag:+.15f}j) x 10^{e}   [{route}]",
        f"|error| <= 10^{results['abs_error_bound_log10']:.2f}",
        f"terms used = {res.terms_used}",
    ]
    return results, lines


def cmd_regions(args) -> tuple[dict, list[str]]:
    k = args.k
    lines = [f"order k = {k}"]
    wedges = []
    strips = []
    wedge_specs, strip_specs = layout(k)
    for w in wedge_specs:
        right = w.sigma_right(k)
        wedges.append({"M": w.M, "sigma_left": w.sigma_left(k),
                       "sigma_right": right, "tip_k": w.tip_k})
        r = "inf" if right is None else f"{right:.4f}"
        lines.append(f"wedge  M={w.M:>2}: {w.sigma_left(k):.4f} <= sigma"
                     f" <= {r}  (tip k = {w.tip_k:.2f})")
    for sp in strip_specs:
        strips.append({"M": sp.M, "center": sp.center_sigma,
                       "half_width": sp.half_width, "period": sp.period})
        lines.append(
            f"strip  S_{sp.M}: center {sp.center_sigma:.4f}, half-width "
            f"{sp.half_width:.4f}, period {sp.period:.4f}")
    count, lo, hi = count_strips(k)
    lines.append(f"strip count c({k}) = {count}, bounds ({lo:.3f}, {hi:.3f})")
    return ({"wedges": wedges, "strips": strips, "count": count,
             "count_bounds": [lo, hi]}, lines)


def _record_dict(rec: ZeroRecord) -> dict:
    """asdict(rec) without its recursive deep copy: the fields are numbers
    and the two points location and predicted."""
    d = dict(vars(rec))
    d["location"] = dict(vars(rec.location))
    d["predicted"] = dict(vars(rec.predicted))
    return d


def cmd_zeros(args) -> tuple[dict, list[str]]:
    """The records of strip S_M up to --T, or up to the sanctioned height
    T_J of --count-at J, whose count must then be J.  Each record's dict is
    built from its fields and is one JSON line with sorted keys; the same
    dicts are the results' records."""
    T = args.T
    if args.count_at is not None:
        T = strip(args.M, args.k).line(args.count_at)
    records, n = enumerate_zeros(args.M, args.k, T)
    record_dicts = [_record_dict(r) for r in records]
    lines = [_encode(d) for d in record_dicts]
    lines.append(f"N = {n} zeros up to T = {T:.6f}")
    results = {"records": record_dicts, "N": n, "T": T}
    if args.count_at is not None and n != args.count_at:
        lines.append(f"FAIL: expected exactly {args.count_at} zeros at the "
                     f"sanctioned height, found {n}")
        results["expected"] = args.count_at
    return results, lines


def cmd_verify(args) -> tuple[dict, list[str]]:
    checks = verify.run_suite(args.suite)
    lines = []
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name}: computed {c.computed:.6g} "
                     f"{c.relation} claimed {c.claimed:.6g}")
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return ({"checks": [asdict(c) for c in checks], "failures": n_fail},
            lines)


def cmd_plot(args) -> tuple[dict, list[str]]:
    if args.kind == "regions":
        paths = plots.plot_regions(args.k, args.out)
    elif args.kind == "zeros":
        if args.T is None:
            raise ValueError("plot zeros needs --T")
        paths = plots.plot_zeros(args.M, args.k, args.T, args.out)
    elif args.kind == "figure2":
        paths = plots.plot_figure2(args.out)
    else:
        paths = plots.plot_figure4(args.out)
    return ({"files": [str(p) for p in paths]},
            [f"wrote {p}" for p in paths])


def cmd_berndt(args) -> tuple[dict, list[str]]:
    if not args.T <= 200:  # nan too
        raise ValueError(f"T <= 200 supported, got {args.T}")
    n_k = continuation.count_zeros_halfplane(args.k, args.T, 0.05)
    n_0 = continuation.count_zeros_halfplane(0, args.T, 0.05)
    main_term = n_0 - (args.T / TWO_PI * math.log(2.0) if args.k else 0.0)
    disc = n_k - main_term
    lines = [
        f"N_{args.k}({args.T}) = {n_k}",
        f"N({args.T})   = {n_0}",
        f"main term  = {main_term:.4f}",
        f"discrepancy = {disc:+.4f}  (2 log T = {2 * math.log(args.T):.4f})",
    ]
    return ({"N_k": n_k, "N": n_0, "main_term": main_term,
             "discrepancy": disc}, lines)


# ---------------------------------------------------------------------------
# dispatcher


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetaderiv",
        description="Zero-free regions, critical strips, and zeros of "
                    "derivatives of the Riemann zeta function.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate the k-th derivative at s")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, default=1e-12,
                    help="target accuracy; the series route bounds the error by "
                         "eps * sum_n (log n)^k n^-sigma, not by eps * |value|, "
                         "and the other routes (euler-maclaurin, cauchy-circle) "
                         "give an estimate, not a bound")

    sp = sub.add_parser("regions", help="wedges and strips at order k")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("zeros", help="enumerate strip zeros")
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    height = sp.add_mutually_exclusive_group(required=True)
    height.add_argument("--T", type=float, default=None)
    height.add_argument("--count-at", type=int, default=None, metavar="J",
                        help="evaluate at the sanctioned height T_J and "
                             "check the count equals J")

    sp = sub.add_parser("verify", help="run constant-verification suites")
    sp.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])

    sp = sub.add_parser("plot", help="emit CSV + SVG plot data")
    sp.add_argument("kind", choices=["zeros", "regions", "figure2",
                                     "figure4"])
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.add_argument("--M", type=int, default=2)
    sp.add_argument("--k", type=int, default=38)
    sp.add_argument("--T", type=float, default=None)

    sp = sub.add_parser("berndt", help="compare N_k(T) with its main term")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--T", type=float, required=True)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main call rather than
    at import: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Parse argv with the process's one parser, run the command cmd_<name>
    that this module binds at call time (so a rebound cmd_ function is the
    one that runs), print its lines and return its exit code."""
    args = _parser().parse_args(argv)
    try:
        results, lines = globals()[f"cmd_{args.command}"](args)
    except ValueError as err:  # an input out of the library's range
        print(f"zetaderiv {args.command}: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    # a failed check, or a count other than the one asked for
    return 1 if results.get("failures") or "expected" in results else 0


if __name__ == "__main__":
    sys.exit(main())
