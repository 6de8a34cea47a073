"""Covering-sum dimension bounds with rigorous geometric tails.

Three families of sums certify upper dimension bounds:

* the origin Cantor set: sum over levels of 2**(N n) (R_1)**(-t n), a pure
  geometric series with critical exponent t* = N / log2(R_1);
* the moving-backwards set: sum over k of 2**k L_k R_k**(-t) with
  L_k = n_1 ... n_k, super-exponentially decaying;
* the singleton set: tails sum(j >= l) 2**j L_{k+j} 2**(-t n_{k+j}),
  convergent for every t > 0.

t is taken once per public call as an exact rational a/b (b <= 2**40), so
the log2 of every term is an integer numerator over b, and maxima,
differences and ratio signs are exact integer operations.  Each float is the
correctly rounded quotient num / b, bit for bit the float of the equal
Fraction, saturating to +-inf past 2**1000; a verdict of 'converges' always
comes with a finite tail over-estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .numerics import DomainError
from .params import CertificateReport, ParamTable, build_params


def _tfrac(t: float) -> Tuple[int, int]:
    """t as the exact rational a/b, b <= 2**40 (nearest), in lowest terms."""
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"dimension exponent t = {t} must be positive and finite")
    tf = Fraction(t).limit_denominator(1 << 40)
    if tf == 0:
        raise DomainError(f"dimension exponent t = {t} rounds to 0 at 2**-40 resolution")
    return tf.numerator, tf.denominator


def _log2(num: int, den: int) -> float:
    """The log2 value num / den as a float, saturating far outside float range."""
    n = num // den
    if n.bit_length() > 1000:
        return math.inf if n > 0 else -math.inf
    return num / den


def _log2_sum(nums: List[int], den: int) -> float:
    """log2 of sum(2**(l / den) for l in nums), dominated-term accumulation."""
    top = max(nums)
    acc = 0.0
    for l in nums:
        d = _log2(l - top, den)
        if d > -80:
            acc += 2.0 ** d
    return _log2(top, den) + math.log2(acc)


@dataclass(frozen=True)
class CoverReport:
    name: str
    t: float
    partial_sum_log2: float
    tail_bound_log2: float
    ratio_log2: float
    verdict: str                      # converges | diverges | inconclusive
    constants_used: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def converges(self) -> bool:
        return self.verdict == "converges"

    @property
    def total_log2(self) -> float:
        return log_sum_terms_floats([self.partial_sum_log2, self.tail_bound_log2])

    def to_json_obj(self) -> dict:
        return {
            "name": self.name, "t": self.t,
            "partial_sum_log2": self.partial_sum_log2,
            "tail_bound_log2": self.tail_bound_log2,
            "ratio_log2": self.ratio_log2,
            "verdict": self.verdict,
            "constants_used": self.constants_used,
            **({"detail": {k: str(v) for k, v in self.detail.items()}} if self.detail else {}),
        }


def log_sum_terms_floats(ls: List[float]) -> float:
    ls = [l for l in ls if l > -math.inf]
    if not ls:
        return -math.inf
    top = max(ls)
    if top == math.inf:
        return math.inf
    return top + math.log2(sum(2.0 ** (l - top) for l in ls if l - top > -80))


# ---------------------------------------------------------------------------
# origin Cantor set
# ---------------------------------------------------------------------------

def origin_dim_bound(t: ParamTable, tdim: float) -> CoverReport:
    """Geometric series sum(n >= 1) (2**N R_1**(-t))**n; the critical
    exponent N / log2(R_1) is exact and reported."""
    return _origin(t, tdim, _tfrac(tdim))


def _origin(t: ParamTable, tdim: float, tq: Tuple[int, int]) -> CoverReport:
    a, b = tq
    r = _log2(t.N * b - a * t.R_exp(1), b)
    tstar = Fraction(t.N, t.R_exp(1))
    if r < 0:
        # sum = q/(1-q), q = 2**r
        total = r - math.log2(max(1.0 - 2.0 ** r, 2.0 ** -60))
        partial, tail, verdict = r, (total if r > -50 else r), "converges"
    else:
        partial, tail, verdict = math.inf, math.inf, "diverges"
    return CoverReport("origin_cover", tdim, partial, tail, r, verdict,
                       detail={"critical_exponent": tstar,
                               "critical_exponent_float": float(tstar)})


# ---------------------------------------------------------------------------
# moving-backwards covers
# ---------------------------------------------------------------------------

def holesum_eval(t: ParamTable, tdim: float, kcut: int = 8) -> CoverReport:
    """sum(k >= 1) 2**k L_k R_k**(-t), split at kcut with a geometric tail.

    The tail uses the first omitted term and the exact ratio at the cut;
    convergence requires that ratio below 1/2 (else inconclusive)."""
    return _holesum(t, tdim, kcut, _tfrac(tdim))


def _holesum(t: ParamTable, tdim: float, kcut: int, tq: Tuple[int, int]) -> CoverReport:
    if kcut < 3:
        raise DomainError("kcut must be >= 3")
    a, b = tq
    kcut = min(kcut, t.kmax_shifted() - 1)
    # b log2 of 2**k L_k R_k**(-t), L_k = prod n_i = 2**(k N + k(k-1)/2), k <= kcut + 1
    terms = [(k + k * t.N + k * (k - 1) // 2) * b - a * t.R_exp(k)
             for k in range(1, kcut + 2)]
    nxt = terms.pop()
    partial = _log2_sum(terms, b)
    ratio = _log2(nxt - terms[-1], b)
    # the ratio keeps shrinking in k (terms decay like 2**(-t n_k)); the
    # coarser closed-form envelope 8 n_{k-1} 2**(-t n_{k-1}) is reported alongside
    envelope = 3 + (t.N + kcut - 1) + _log2(-a * t.n(kcut), b)
    first = _log2(nxt, b)
    tail, verdict = ((first - math.log2(1.0 - 2.0 ** max(ratio, -60.0)), "converges")
                     if ratio < -1 else (math.inf, "inconclusive"))
    return CoverReport("backwards_cover", tdim, partial, tail, ratio, verdict,
                       detail={"kcut": kcut,
                               "first_omitted_log2": first,
                               "ratio_envelope_log2": envelope})


def layer_checks(t: ParamTable, tdim: float, Lpp: float = 10.0) -> CertificateReport:
    """The two per-layer smallness conditions and the layered total.

    (a) (L'')**t 2**N / R_1**t <= 1/100, and
    (b) sum 2**k L_k R_k**(-t) <= (1/100) (2/L''**2)**t;
    each refinement then shrinks by 1/10, so the full tally is at most
    (1/9) diam(A_1)**t.
    """
    return _layer_checks(t, tdim, Lpp, _tfrac(tdim))


def _layer_checks(t: ParamTable, tdim: float, Lpp: float, tq: Tuple[int, int],
                  hs: Optional[CoverReport] = None) -> CertificateReport:
    """layer_checks; hs is holesum_eval(t, tdim) when the caller has it."""
    if Lpp < 1.0:
        raise DomainError("distortion constant must be >= 1")
    a, b = tq
    rep = CertificateReport("layer checks")
    lhs_a = tdim * math.log2(Lpp) + t.N - _log2(a * t.R_exp(1), b)
    rhs = math.log2(1.0 / 100.0)
    note_a = ""
    if lhs_a > rhs:
        for N2 in range(t.N + 1, 65):
            t2 = build_params(N2, 1)
            if tdim * math.log2(Lpp) + N2 - _log2(a * t2.R_exp(1), b) <= rhs:
                note_a = f"would pass from N = {N2}"
                break
    rep.add("single_layer_shrink", None, lhs_a <= rhs, f"{lhs_a:.4f}", f"{rhs:.4f}",
            note=note_a)
    if hs is None:
        hs = _holesum(t, tdim, 8, tq)
    lhs_b = hs.total_log2
    rhs_b = rhs + tdim * (1.0 - 2.0 * math.log2(Lpp))
    rep.add("hole_sum_shrink", None, hs.converges and lhs_b <= rhs_b,
            f"{lhs_b:.4f}", f"{rhs_b:.4f}")
    # layered total: geometric with ratio 1/10 on diam(A_1)**t = (8 R_1)**t
    diam_t = tdim * (3.0 + _log2(t.R_exp(1), 1))
    total = diam_t - math.log2(9.0)
    rep.add("layer_total", None, True, f"{total:.4f}", f"{diam_t:.4f} - log2(9)",
            note="geometric layers with ratio 1/10")
    return rep


# ---------------------------------------------------------------------------
# singleton-set tails
# ---------------------------------------------------------------------------

SINGLETON_EPS = 0.01   # z2_tail reports the first cut whose tail is below it


def z2_tail(t: ParamTable, k: int, tdim: float, lcut: int = 1,
            Pp: float = 10.0) -> CoverReport:
    """(P')**t R_k**t sum(j >= lcut) 2**j L_{k+j} 2**(-t n_{k+j}).

    Converges for every t > 0 (the ratio 4 n_{k+j} 2**(-t n_{k+j}) dies
    super-exponentially); reports the smallest lcut with sum below
    SINGLETON_EPS."""
    return _z2_tail(t, k, tdim, lcut, Pp, _tfrac(tdim))


def _z2_tail(t: ParamTable, k: int, tdim: float, lcut: int, Pp: float,
             tq: Tuple[int, int]) -> CoverReport:
    if lcut < 1:
        raise DomainError("lcut must be >= 1")
    if Pp < 1.0:
        raise DomainError("cover constant P' must be >= 1")
    a, b = tq
    pref = tdim * math.log2(Pp) + _log2(a * t.R_exp(k), b)
    jhi = lcut + 6

    # the term formula involves only degree integers, so it extends past the
    # radii table: b log2 term(j) = b (j + log2 L_{k+j}) - a n_{k+j}
    def term(j: int) -> int:
        kj = k + j
        return (j + kj * t.N + kj * (kj - 1) // 2) * b - a * t.n(kj)

    terms = [term(j) for j in range(lcut, jhi + 2)]
    nxt = terms.pop()
    partial = _log2_sum(terms, b) + pref
    ratio = _log2(nxt - terms[-1], b)
    first = _log2(nxt, b)
    tail, verdict = ((first + pref - math.log2(1 - 2.0 ** max(ratio, -60.0)), "converges")
                     if ratio < -1 else (math.inf, "inconclusive"))
    eps_log2 = math.log2(SINGLETON_EPS)
    # past the crossover the sum is within a factor 2 of its first term
    l_for_eps = next((l for l in range(1, 1 << 12)
                      if _log2(term(l), b) + pref + 1 < eps_log2), None)
    return CoverReport("singleton_tail", tdim, partial, tail, ratio, verdict,
                       constants_used={"Pp": Pp},
                       detail={"k": k, "lcut": lcut, "lcut_for_eps": l_for_eps,
                               "eps": SINGLETON_EPS,
                               "first_omitted_log2": first + pref})


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def min_N_for_dimension(tdim: float, Lpp: float = 10.0,
                        Pp: float = 10.0) -> Optional[int]:
    """Smallest N <= 64 at which all certified sums pass at `tdim`."""
    if not 0.0 < tdim <= 1.0:
        raise DomainError("target dimension must lie in (0, 1]")
    tq = _tfrac(tdim)
    for N in range(5, 65):
        t = build_params(N, 12)
        if not _origin(t, tdim, tq).converges:
            continue
        hs = _holesum(t, tdim, 8, tq)
        if (hs.converges and _layer_checks(t, tdim, Lpp, tq, hs).all_pass
                and _z2_tail(t, 1, tdim, 1, Pp, tq).converges):
            return N
    return None
