"""Deterministic JSON/CSV emission.

Schema: {"config": {...}, "certificates": [{name, index, pass, lhs, rhs}],
"summaries": {...}}.  A magnitude kept as its exact log2 renders through
pow2_str as an 'm x2^e' string with a decimal exponent of arbitrary length.
to_json writes every indented JSON document; make_report its rows itself.
"""

from __future__ import annotations

import contextlib
import json
import sys
from json.encoder import encode_basestring_ascii
from fractions import Fraction
from typing import Iterable, List, Optional

import mpmath

from .config import Config
from .numerics import LogPolar, frac_to_mpf, mpf_to_frac
from .params import Certificate, CertificateReport


# one-line encoder (json's C encoder: indent is None) whose item separator
# leaves a newline for to_json to indent
_encode = json.JSONEncoder(sort_keys=True, separators=(",\n", ": ")).encode
_SCALARS = frozenset((str, int, float, bool, type(None)))


def to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    json's indented encoder is pure Python.  Here a container whose items
    are all scalars (a table row, a list of numbers) is encoded in one
    call of the C encoder, with a newline after each separator; a JSON
    string never holds a raw newline, so indenting is replacing each
    newline by a newline and the container's indent.  Other containers are
    spliced from their items' texts.
    """
    return _to_json(obj, "\n")


def _to_json(obj, nl: str) -> str:
    """obj at the indent of nl, a newline and one space per level."""
    if isinstance(obj, dict):
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
    else:
        return _encode(obj)
    if not obj:
        return brackets
    inner = nl + " "
    if _SCALARS.issuperset(map(type, obj.values() if brackets == "{}" else obj)):  # all scalars
        body = _encode(obj)[1:-1].replace("\n", inner)
    elif brackets == "[]":
        body = ("," + inner).join(_to_json(v, inner) for v in obj)
    elif all(isinstance(key, str) for key in obj):
        body = ("," + inner).join(f"{encode_basestring_ascii(key)}: {_to_json(v, inner)}"
                                  for key, v in sorted(obj.items()))
    else:  # json's own rendering of non-string keys
        return json.dumps(obj, sort_keys=True, indent=1).replace("\n", nl)
    return brackets[0] + inner + body + nl + brackets[1]


def pow2_str(log2) -> str:
    """2**log2 as 'm x2^e': the significand 2**frac(log2), computed at 72
    bits and rounded to 64, printed to 24 decimals; e is the exact integer
    exponent of any size."""
    log2 = Fraction(log2)
    e = log2.numerator // log2.denominator
    with mpmath.workprec(72):
        sig = mpmath.power(2, mpmath.mp.make_mpf(frac_to_mpf(log2 - e, 72)))
    man = round(mpf_to_frac(sig) * (1 << 63))  # ties to even
    if man >> 64:  # rounded up to 2
        man, e = man >> 1, e + 1
    s = str(man * 10 ** 24 >> 63)
    return f"{(s[0] + '.' + s[1:].rstrip('0')).rstrip('.')}x2^{e}"


def read_decimal(s) -> Fraction:
    """A point's rho_frac or theta field s as parse_point reads it: the
    nearest fraction with a denominator at most 2**64."""
    return Fraction(s).limit_denominator(1 << 64)


def point_fields(z: LogPolar) -> List[str]:
    """rho_int, rho_frac and theta of a nonzero point, each fraction as the
    shortest nearest decimal that reads as the fraction itself reads (39
    digits always do: such fractions lie 2**-128 > 10**-39 apart)."""
    ri = z.rho_int()
    fields = [str(ri)]
    for want in map(read_decimal, (z.rho - ri, z.theta.turns)):
        for n in range(1, 40):
            m = round(want * 10 ** n)
            s = f"{m // 10 ** n}.{m % 10 ** n:0{n}d}"
            if read_decimal(s) == want:
                break
        fields.append(s)
    return fields


def render_value(v) -> object:
    if isinstance(v, LogPolar):
        return "0" if v.is_zero else dict(zip(("rho_int", "rho_frac", "theta"), point_fields(v)))
    if isinstance(v, Fraction):
        if abs(v.numerator // v.denominator).bit_length() > 900:
            return f"{v.numerator}/{v.denominator}"
        return repr(float(v)) if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return repr(v)
    return v


def _row_json(c: Certificate) -> str:
    """One certificate row as the report's json.dumps(..., sort_keys=True,
    indent=1) writes it, at the rows' indent: index, lhs, name, note (when
    set), pass and rhs, with lhs and rhs rendered by str()."""
    note = f'"note": {encode_basestring_ascii(c.note)},\n   ' if c.note else ""
    return (f'{{\n   "index": {"null" if c.index is None else c.index},\n   '
            f'"lhs": {encode_basestring_ascii(str(c.lhs))},\n   '
            f'"name": {encode_basestring_ascii(c.name)},\n   {note}'
            f'"pass": {"true" if c.passed else "false"},\n   '
            f'"rhs": {encode_basestring_ascii(str(c.rhs))}\n  }}')


def make_report(cfg: Config, reports: Iterable[CertificateReport],
                summaries: Optional[dict] = None) -> str:
    """to_json({"certificates": rows, "config": cfg, "summaries": ...}) byte
    for byte, each certificate row written straight from its Certificate."""
    rows = ",\n  ".join(_row_json(c) for rep in reports for c in rep.certificates)
    return ('{\n "certificates": ' + ("[\n  " + rows + "\n ]" if rows else "[]")
            + ',\n "config": ' + _to_json(cfg.to_dict(), "\n ")
            + ',\n "summaries": ' + _to_json(summaries or {}, "\n ") + "\n}")


def write_csv(path, header: List[str], rows: Iterable[Iterable]) -> None:
    """Header plus rendered rows to the file at `path`, or to stdout when
    `path` is None."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(render_value(v)) for v in row) + "\n")
