"""Numerics for zero-free regions and critical strips of zeta derivatives."""

from .geometry import (CellRect, ComplexPoint, QConstant, StripSpec,
                       WedgeSpec, cell, count_strips, dominant_index, layout,
                       q_bracket, q_const, q_value, strip, wedge)
from .scaled import ScaledComplex
from .series import EvalResult, TailBound, eval_deriv, head, tail_bound
from .zeros import (Rect, RoucheCertificate, StripCertificate, WindingResult,
                    ZeroRecord, ZeroOnContourError, enumerate_zeros,
                    hline_margin, locate_zero, rouche_certificate,
                    strip_certificate, winding_number)

__all__ = [
    "CellRect", "ComplexPoint", "QConstant", "StripSpec", "WedgeSpec",
    "ScaledComplex", "EvalResult", "TailBound", "Rect", "RoucheCertificate",
    "StripCertificate", "WindingResult", "ZeroRecord", "ZeroOnContourError",
    "cell", "count_strips", "layout", "dominant_index", "q_bracket",
    "q_const", "q_value", "strip", "wedge", "eval_deriv", "head",
    "tail_bound",
    "enumerate_zeros", "hline_margin", "locate_zero", "rouche_certificate",
    "strip_certificate", "winding_number",
]

__version__ = "0.1.0"
