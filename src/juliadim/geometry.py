"""Annulus and petal atlas: region classification.

The plane splits into a central disk D = {|z| <= R_1/4}, open annuli
A_k = A(R_k/4, 4 R_k) hosting all the interesting dynamics, closed gaps
B_k = [4 R_k, R_{k+1}/4] that escape, sub-annuli V_k = A(2R_k/5, 3R_k/5)
carrying the invariant curves, and petals: balls B(w, R_k 2**-n_k) around
the n_k zeros on ring k+N-1.  Classification is decided on the exact rho
field against dyadic thresholds (quantized only where a threshold is
irrational, far below the classification margin).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .numerics import (
    SIG_BITS,
    DomainError,
    const_log2_frac,
    expm1_lp,
    frac_ilog2,
    pi_over_ln2_frac,
)
from .modelmap import AnchoredPoint, ModelMap, Point
from .params import ParamTable


@dataclass(frozen=True)
class Region:
    kind: str                     # 'A' | 'B' | 'V' | 'P' | 'D' | 'L' | 'boundary'
    k: Optional[int] = None
    j: Optional[int] = None

    def __str__(self):
        if self.kind == "P":
            return f"P({self.k},{self.j})"
        if self.kind in ("A", "B", "V", "L"):
            return f"{self.kind}({self.k})"
        return self.kind

    @classmethod
    def parse(cls, s: str) -> "Region":
        s = s.strip()
        if s in ("D", "boundary"):
            return cls(s)
        tag = _TAG.fullmatch(s)
        if tag is None:
            raise DomainError(f"region tag {s!r} is not D, boundary, A/B/V/L(k) or P(k,j)")
        if tag[1]:
            return cls(tag[1], int(tag[2]))
        return cls("P", int(tag[3]), int(tag[4]))


_TAG = re.compile(r"([ABVL])\(\s*(-?\d+)\s*\)|P\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def petal_radius_rel_log2(nk: int) -> Fraction:
    """log2(petal radius / |petal center|) at a level with n_k petals: the
    ball B(w, R_k 2**-n_k) around a zero of modulus R_k e**(pi/(4 n_k))."""
    return -nk - pi_over_ln2_frac(4 * nk)


LOG2_2_5 = const_log2_frac(2, 5)
LOG2_3_5 = const_log2_frac(3, 5)


def _nearest_petal_candidates(nk: int, theta: Fraction) -> List[int]:
    x = theta * nk  # zero angles at i - 1/2, i = 1..nk
    i0 = (x.numerator + x.denominator) // x.denominator  # floor(x)+1
    out = []
    for i in (i0 - 1, i0, i0 + 1):
        ii = ((i - 1) % nk) + 1
        if ii not in out:
            out.append(ii)
    return out


def petal_membership(m: ModelMap, k: int, z: Point) -> Optional[int]:
    """Index j when z lies in the petal ball B(w_j, R_k 2**-n_k), else None:
    exactly for a chart point at zero j of ring k + N - 1 whose |z / w_j - 1|
    < 2**reach (AnchoredPoint) is within the radius, else on z's absolute form.

    The test is rho <= rad_rel for rho = log2 |z/w_j - 1| = log2 |e**L - 1|,
    L = dr ln 2 + 2 pi i dth, which expm1_lp takes.  Only the side of
    rad_rel matters, so rho is first taken at p = min(m.prec, SIG_BITS + 64)
    bits, and again at m.prec only when |rho_p - rad_rel| <= 2 E,

        E = (|rho_p| + 1) 2**-floor(3p/4).

    E bounds the error of expm1_lp's rho at p bits and at every higher
    precision.  The prefilter leaves |dr|, |dth| < 2**(int(rad_rel) + 4)
    <= 2**-28 (n_k >= 32 as N >= 5), so expm1_lp sums its series at a
    scale s >= 16: |L| < 2**(4 - s), K >= (p + 48)/s terms after the
    first.  With
    u = 2**-(p + 64) its working unit, the relative error of e**L - 1 is
    at most 8u from rounding L, at most 4 |L|**(K+1) <=
    2**(2 - (s - 4)((p + 48)/s + 1)) <= 2**(-3p/4 - 46) from the dropped
    tail ((s - 4)/s >= 3/4), and at most 8 (K + 1) u from rounding the
    terms: under 2**(-3p/4 - 40) in all for p >= 64, which moves log2 by
    under 2**(-3p/4 - 39).  LogPolar.from_mpc takes log2 at p + 16 bits,
    off by under (|rho| + 1) 2**(-p - 13).  So |rho_q - rho| <=
    2**(-3p/4 - 39) + (|rho| + 1) 2**(-p - 13) for q >= p, which is at most
    E once |rho| is replaced by |rho_p| plus that error.  Outside the band
    rho lies more than E from rad_rel, on rho_p's side, and so does rho at
    m.prec: the decision is the full-precision one.
    """
    t = m.table
    nk = t.n(k)
    rad_rel = petal_radius_rel_log2(nk)
    if type(z) is AnchoredPoint:
        if z.ring == k + t.N - 1 and z.reach() <= rad_rel:
            return z.index
        z = z.absolute(m.prec)
    p = min(m.prec, SIG_BITS + 64)
    dr = z.rho - m.ring_zero_rho(k + t.N - 1)
    if dr != 0 and frac_ilog2(abs(dr)) > int(rad_rel) + 3:
        return None
    for j in _nearest_petal_candidates(nk, z.theta.turns):
        w = m.ring_zero(k + t.N - 1, j)
        dth = z.theta.sub(w.theta).turns
        dth = dth if dth <= Fraction(1, 2) else dth - 1
        if dth != 0 and frac_ilog2(abs(dth)) > int(rad_rel) + 3:
            continue
        delta = expm1_lp(dr, dth, p)
        if p < m.prec and not delta.is_zero:
            err = (abs(delta.rho) + 1) / (1 << (3 * p // 4))
            if abs(delta.rho - rad_rel) <= 2 * err:
                delta = expm1_lp(dr, dth, m.prec)
        if delta.is_zero or delta.rho <= rad_rel:
            return j
    return None


def classify(t: ParamTable, z: Point, margin: float = 0.0,
             model: Optional[ModelMap] = None) -> Region:
    """Region of z, decided on exact rho comparisons.

    `margin` (log2 units, taken exactly) turns an answer less than margin
    from a threshold into 'boundary'.
    Petal tags require a model (for its ring-zero geometry); without one the
    enclosing A tag is returned.  An AnchoredPoint at an origin zero is D
    when its whole enclosure w.rho +- 2**reach lies at least margin below
    D's top, and 'boundary' otherwise: an origin zero lies about 693 bits
    below it at N = 5, and further from N = 6 on.  One at a ring zero of
    level k is P(k, j) when its enclosure lies more than margin inside A_k
    and petal_membership places it; without a model, A(k) when it lies above
    V_k's top and margin inside A_k.  Otherwise its absolute form decides.
    """
    if margin < 0:
        raise DomainError("margin must be >= 0")
    mfr = Fraction(margin) if margin else None    # the exact value of the float
    d_top = Fraction(t.R_exp(1) - 2)
    if type(z) is AnchoredPoint:
        if not z.ring:
            return Region("D") if z.below(d_top - (mfr or 0)) else Region("boundary")
        k, e, mg = z.ring - t.N + 1, t.r_exp(z.ring), mfr or 0
        inside = k <= t.kmax and z.below(e + 2 - mg)
        if model is None and inside and z.above(e + max(LOG2_3_5, mg - 2)):
            return Region("A", k)
        if model is not None and inside and z.above(e - 2 + mg):
            if (pj := petal_membership(model, k, z)) is not None:
                return Region("P", k, pj)
        z = z.absolute(model.prec if model is not None else SIG_BITS)
    if z.is_zero:
        return Region("D")
    rho = z.rho
    if rho <= d_top:
        if margin and abs(rho - d_top) < mfr:
            return Region("boundary")
        return Region("D")
    for k in range(1, t.kmax + 1):
        e = t.R_exp(k)
        lo, hi = Fraction(e - 2), Fraction(e + 2)
        nxt = Fraction(t.R_exp(k + 1) - 2) if k < t.kmax else None
        if rho < hi:
            if margin and (abs(rho - lo) < mfr or abs(rho - hi) < mfr):
                return Region("boundary")
            if model is not None:
                pj = petal_membership(model, k, z)
                if pj is not None:
                    return Region("P", k, pj)
            v_lo, v_hi = e + LOG2_2_5, e + LOG2_3_5
            if v_lo < rho < v_hi:
                if margin and (abs(rho - v_lo) < mfr or abs(rho - v_hi) < mfr):
                    return Region("boundary")
                return Region("V", k)
            return Region("A", k)
        if nxt is None:
            break
        if rho <= nxt:
            if margin and (abs(rho - hi) < mfr or abs(rho - nxt) < mfr):
                return Region("boundary")
            return Region("B", k)
    raise DomainError("point beyond the built table")
