"""Per-layer tracing of zetaderiv from outside the package.

``Tracer.install`` wraps the public functions of each layer and puts every
wrapper on each module attribute through which callers look the function up
(``zeros.eval_deriv`` as well as ``series.eval_deriv``, ``cli.locate_zero``
as well as ``zeros.locate_zero``).  A wrapper records a span: its name, start,
end and parent.  A span's self time is its duration minus the durations of
its child spans.  Calls, self times and the work counts below are summed over
the whole run; the spans themselves are kept in memory for the first pass
only and written out by ``write_spans``.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# public functions wrapped, by the module that defines them
FUNCTIONS = {
    "geometry": ["q_const", "q_value", "q_bracket", "wedge", "strip",
                 "count_strips", "cell", "dominant_index"],
    "series": ["eval_deriv", "choose_truncation", "series_is_practical",
               "tail_ratio_upper", "head"],
    "continuation": ["eval_zeta_em", "eval_deriv_cauchy",
                     "count_zeros_halfplane"],
    "zeros": ["winding_number", "rouche_certificate", "hline_margin",
              "locate_zero"],
    "cli": ["main", "cmd_eval", "cmd_zeros"],
}
# the argument that holds the derivative order, for hooks that need it
ORDER_ARG = {"zeros.locate_zero": 1}
SCALED_METHODS = ["__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                  "__neg__", "from_complex", "from_parts", "from_polar",
                  "zero", "one", "is_zero", "log_abs", "arg", "to_complex",
                  "abs"]

# per-layer metrics: (name, unit), in the order they are reported
LAYER_METRICS = [
    ("scaled.ops", "count"), ("scaled.self_ms", "ms"),
    ("geometry.calls", "count"), ("geometry.self_ms", "ms"),
    ("series.eval_calls", "count"), ("series.eval_self_ms", "ms"),
    ("series.terms_summed", "count"),
    ("series.truncation_calls", "count"), ("series.truncation_self_ms", "ms"),
    ("series.tail_ratio_calls", "count"), ("series.tail_ratio_self_ms", "ms"),
    ("series.head_calls", "count"), ("series.head_self_ms", "ms"),
    ("series.practical_calls", "count"), ("series.practical_self_ms", "ms"),
    ("series.cap_hits", "count"),
    ("continuation.em_calls", "count"), ("continuation.em_terms", "count"),
    ("continuation.em_self_ms", "ms"),
    ("continuation.cauchy_calls", "count"),
    ("continuation.cauchy_nodes", "count"),
    ("continuation.cauchy_self_ms", "ms"),
    ("continuation.contour_retries", "count"),
    ("zeros.winding_calls", "count"), ("zeros.winding_samples", "count"),
    ("zeros.winding_refined", "count"), ("zeros.winding_self_ms", "ms"),
    ("zeros.rouche_self_ms", "ms"), ("zeros.hline_self_ms", "ms"),
    ("zeros.locate_calls", "count"), ("zeros.locate_self_ms", "ms"),
    ("zeros.newton_iters", "count"), ("zeros.locate_fallbacks", "count"),
    ("zeros.locate_errors", "count"),
    ("cli.commands", "count"), ("cli.self_ms", "ms"),
    ("cli.route_series", "count"), ("cli.route_cauchy", "count"),
    ("traced.ops_per_s", "1/s"),
]


class _Frame:
    __slots__ = ("name", "child_s", "index", "k", "k1_evals", "fallback")

    def __init__(self, name: str, index: int):
        self.name = name
        self.child_s = 0.0
        self.index = index
        self.k = None
        self.k1_evals = 0
        self.fallback = False


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.keep_spans = True
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- recording ----------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        order_pos = ORDER_ARG.get(name)
        name_id = self._name_id.setdefault(name, len(self._name_id))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if tracer.keep_spans:
                index = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent.index if parent else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = _Frame(name, index)
            if order_pos is not None:
                frame.k = _arg(args, kwargs, order_pos, "k")
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame.child_s
                if parent is not None:
                    parent.child_s += dur
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc, frame, parent)

        traced.__wrapped__ = fn
        return traced

    # -- work counts taken at the layer boundaries ----------------------

    def _hooks(self, errors) -> dict:
        counts = self.counts
        LocateError, ZeroOnContourError = errors

        def eval_deriv(args, kwargs, result, exc, frame, parent):
            if result is not None:
                counts["series.terms_summed"] += result.terms_used
            # a Newton step of locate_zero evaluates orders k and k+1
            if parent is not None and parent.name == "zeros.locate_zero" \
                    and _arg(args, kwargs, 1, "k") == parent.k + 1:
                parent.k1_evals += 1

        def choose_truncation(args, kwargs, result, exc, frame, parent):
            cap = _arg(args, kwargs, 3, "max_terms", self._max_terms)
            if result is not None and result >= cap:
                counts["series.cap_hits"] += 1

        def eval_zeta_em(args, kwargs, result, exc, frame, parent):
            if result is not None:
                counts["continuation.em_terms"] += result.terms_used

        def eval_deriv_cauchy(args, kwargs, result, exc, frame, parent):
            if result is not None:
                counts["continuation.cauchy_nodes"] += result.terms_used

        def winding_number(args, kwargs, result, exc, frame, parent):
            if result is not None:
                counts["zeros.winding_samples"] += result.samples
                counts["zeros.winding_refined"] += int(result.refined)
            if parent is None:
                return
            if parent.name == "zeros.locate_zero":
                parent.fallback = True
            elif parent.name == "continuation.count_zeros_halfplane" \
                    and isinstance(exc, ZeroOnContourError):
                counts["continuation.contour_retries"] += 1

        def locate_zero(args, kwargs, result, exc, frame, parent):
            # the record's simplicity margin is one more order k+1 evaluation
            counts["zeros.newton_iters"] += \
                frame.k1_evals - (result is not None)
            counts["zeros.locate_fallbacks"] += int(frame.fallback)
            counts["zeros.locate_errors"] += int(isinstance(exc, LocateError))

        def cmd_eval(args, kwargs, result, exc, frame, parent):
            if result is not None:
                route = result[0]["route"]
                counts["cli.route_series"] += route == "series"
                counts["cli.route_cauchy"] += route == "cauchy-circle"

        return {"series.eval_deriv": eval_deriv,
                "series.choose_truncation": choose_truncation,
                "continuation.eval_zeta_em": eval_zeta_em,
                "continuation.eval_deriv_cauchy": eval_deriv_cauchy,
                "zeros.winding_number": winding_number,
                "zeros.locate_zero": locate_zero,
                "cli.cmd_eval": cmd_eval}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and the ScaledComplex methods in
        all loaded zetaderiv modules."""
        import inspect

        from zetaderiv import scaled, series, zeros

        self._max_terms = inspect.signature(
            series.choose_truncation).parameters["max_terms"].default
        hooks = self._hooks((zeros.LocateError, zeros.ZeroOnContourError))
        package = [m for n, m in sys.modules.items()
                   if n == "zetaderiv" or n.startswith("zetaderiv.")]
        for mod_name, funcs in FUNCTIONS.items():
            module = sys.modules[f"zetaderiv.{mod_name}"]
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                orig = getattr(module, fname)
                wrapper = self.wrap(name, orig, hooks.get(name))
                for m in package:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        cls = scaled.ScaledComplex
        for meth in SCALED_METHODS:
            raw = vars(cls)[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(
                    self.wrap(f"scaled.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(f"scaled.{meth}", raw))

    # -- results ------------------------------------------------------

    def metrics(self, ops_per_s: float) -> dict:
        def total(prefix, table):
            return sum(v for n, v in table.items() if n.startswith(prefix))

        def ms(name):
            return 1e3 * self.self_s.get(name, 0.0)

        calls, counts = self.calls, self.counts
        cli_self = sum(self.self_s.get(n, 0.0)
                       for n in ("cli.main", "cli.cmd_eval", "cli.cmd_zeros"))
        values = {
            "scaled.ops": total("scaled.", calls),
            "scaled.self_ms": 1e3 * total("scaled.", self.self_s),
            "geometry.calls": total("geometry.", calls),
            "geometry.self_ms": 1e3 * total("geometry.", self.self_s),
            "series.eval_calls": calls["series.eval_deriv"],
            "series.eval_self_ms": ms("series.eval_deriv"),
            "series.terms_summed": counts["series.terms_summed"],
            "series.truncation_calls": calls["series.choose_truncation"],
            "series.truncation_self_ms": ms("series.choose_truncation"),
            "series.tail_ratio_calls": calls["series.tail_ratio_upper"],
            "series.tail_ratio_self_ms": ms("series.tail_ratio_upper"),
            "series.head_calls": calls["series.head"],
            "series.head_self_ms": ms("series.head"),
            "series.practical_calls": calls["series.series_is_practical"],
            "series.practical_self_ms": ms("series.series_is_practical"),
            "series.cap_hits": counts["series.cap_hits"],
            "continuation.em_calls": calls["continuation.eval_zeta_em"],
            "continuation.em_terms": counts["continuation.em_terms"],
            "continuation.em_self_ms": ms("continuation.eval_zeta_em"),
            "continuation.cauchy_calls":
                calls["continuation.eval_deriv_cauchy"],
            "continuation.cauchy_nodes": counts["continuation.cauchy_nodes"],
            "continuation.cauchy_self_ms":
                ms("continuation.eval_deriv_cauchy"),
            "continuation.contour_retries":
                counts["continuation.contour_retries"],
            "zeros.winding_calls": calls["zeros.winding_number"],
            "zeros.winding_samples": counts["zeros.winding_samples"],
            "zeros.winding_refined": counts["zeros.winding_refined"],
            "zeros.winding_self_ms": ms("zeros.winding_number"),
            "zeros.rouche_self_ms": ms("zeros.rouche_certificate"),
            "zeros.hline_self_ms": ms("zeros.hline_margin"),
            "zeros.locate_calls": calls["zeros.locate_zero"],
            "zeros.locate_self_ms": ms("zeros.locate_zero"),
            "zeros.newton_iters": counts["zeros.newton_iters"],
            "zeros.locate_fallbacks": counts["zeros.locate_fallbacks"],
            "zeros.locate_errors": counts["zeros.locate_errors"],
            "cli.commands": calls["cli.main"],
            "cli.self_ms": 1e3 * cli_self,
            "cli.route_series": counts["cli.route_series"],
            "cli.route_cauchy": counts["cli.route_cauchy"],
            "traced.ops_per_s": ops_per_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as gzipped CSV: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                         f"{self.span_parent[i]}\n")
