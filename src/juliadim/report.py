"""Deterministic JSON/CSV emission.

Schema: {"config": {...}, "certificates": [{name, index, pass, lhs, rhs}],
"summaries": {...}}.  Magnitudes outside float range render as exact
'm x2^e' strings with decimal exponents of arbitrary length.
"""

from __future__ import annotations

import contextlib
import json
import sys
from fractions import Fraction
from typing import Iterable, List, Optional

from .config import Config
from .numerics import DyadicReal, LogPolar
from .params import CertificateReport


def render_value(v) -> object:
    if isinstance(v, DyadicReal):
        return v.str_pow2()
    if isinstance(v, LogPolar):
        if v.is_zero:
            return "0"
        ri = v.rho_int()
        return {"rho_int": str(ri), "rho_frac": repr(v.rho_frac_float()),
                "theta": repr(v.theta.to_float())}
    if isinstance(v, Fraction):
        if abs(v.numerator // v.denominator).bit_length() > 900:
            return f"{v.numerator}/{v.denominator}"
        return repr(float(v)) if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return repr(v)
    return v


def certificates_json(reports: Iterable[CertificateReport]) -> List[dict]:
    out = []
    for rep in reports:
        for c in rep.certificates:
            out.append({
                "name": c.name,
                "index": c.index,
                "pass": c.passed,
                "lhs": c.lhs,
                "rhs": c.rhs,
                **({"note": c.note} if c.note else {}),
            })
    return out


def make_report(cfg: Config, reports: Iterable[CertificateReport],
                summaries: Optional[dict] = None) -> str:
    doc = {
        "config": cfg.to_dict(),
        "certificates": certificates_json(reports),
        "summaries": summaries or {},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def write_csv(path, header: List[str], rows: Iterable[Iterable]) -> None:
    """Header plus rendered rows to the file at `path`, or to stdout when
    `path` is None."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(render_value(v)) for v in row) + "\n")
