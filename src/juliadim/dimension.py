"""Covering-sum dimension bounds with rigorous geometric tails.

Three families of sums certify upper dimension bounds:

* the origin Cantor set: sum over levels of 2**(N n) (R_1)**(-t n), a pure
  geometric series with critical exponent t* = N / log2(R_1);
* the moving-backwards set: sum over k of 2**k L_k R_k**(-t) with
  L_k = n_1 ... n_k, super-exponentially decaying;
* the singleton set: tails sum(j >= l) 2**j L_{k+j} 2**(-t n_{k+j}),
  convergent for every t > 0.

Terms are handled as exact log2 rationals (t is taken as an exact rational
multiplier of the integer exponents), accumulated in log-safe form; a
verdict of 'converges' always comes with a finite tail over-estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .numerics import DomainError
from .params import CertificateReport, ParamTable, build_params


def _tfrac(t: float) -> Fraction:
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"dimension exponent t = {t} must be positive and finite")
    tf = Fraction(t).limit_denominator(1 << 40)
    if tf == 0:
        raise DomainError(f"dimension exponent t = {t} rounds to 0 at 2**-40 resolution")
    return tf


def _log2_float(fr: Fraction) -> float:
    """float(log2-valued Fraction), saturating far outside float range."""
    n = fr.numerator // fr.denominator
    if abs(n).bit_length() > 1000:
        return math.inf if n > 0 else -math.inf
    return float(fr)


def log_sum_terms(term_log2: List[Fraction]) -> float:
    """log2 of sum(2**l for l in terms), dominated-term accumulation."""
    if not term_log2:
        return -math.inf
    top = max(term_log2)
    acc = 0.0
    for l in term_log2:
        d = _log2_float(l - top)
        if d > -80:
            acc += 2.0 ** d
    return _log2_float(top) + math.log2(acc)


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
    tf = _tfrac(tdim)
    ratio = Fraction(t.N) - tf * t.R_exp(1)
    tstar = Fraction(t.N, t.R_exp(1))
    r = _log2_float(ratio)
    if r < 0:
        # sum = q/(1-q), q = 2**r
        total = r - math.log2(max(1.0 - 2.0 ** r, 2.0 ** -60))
        verdict = "converges"
        partial, tail = r, total if r > -50 else r
    else:
        verdict = "diverges"
        partial, tail = math.inf, math.inf
    return CoverReport("origin_cover", tdim, partial, tail, r, verdict,
                       constants_used={},
                       detail={"critical_exponent": tstar,
                               "critical_exponent_float": float(tstar)})


# ---------------------------------------------------------------------------
# moving-backwards covers
# ---------------------------------------------------------------------------

def _holesum_term_log2(t: ParamTable, tf: Fraction, k: int) -> Fraction:
    # log2 of 2**k L_k R_k**(-t), L_k = prod n_i = 2**(k N + k(k-1)/2)
    Lk = k * t.N + k * (k - 1) // 2
    return Fraction(k + Lk) - tf * t.R_exp(k)


def holesum_eval(t: ParamTable, tdim: float, kcut: int = 8) -> CoverReport:
    """sum(k >= 1) 2**k L_k R_k**(-t), split at kcut with a geometric tail.

    The tail uses the first omitted term and the exact ratio at the cut;
    convergence requires that ratio below 1/2 (else inconclusive)."""
    if kcut < 3:
        raise DomainError("kcut must be >= 3")
    tf = _tfrac(tdim)
    kcut = min(kcut, t.kmax_shifted() - 1)
    terms = [_holesum_term_log2(t, tf, k) for k in range(1, kcut + 1)]
    partial = log_sum_terms(terms)
    nxt = _holesum_term_log2(t, tf, kcut + 1)
    ratio = nxt - terms[-1]
    # the ratio keeps shrinking in k (terms decay like 2**(-t n_k)); the
    # coarser closed-form envelope 8 n_{k-1} 2**(-t n_{k-1}) is reported alongside
    envelope = 3 + (t.N + kcut - 1) + _log2_float(-tf * t.n(kcut))
    if _log2_float(ratio) < -1:
        tail = _log2_float(nxt) - math.log2(1.0 - 2.0 ** max(_log2_float(ratio), -60.0))
        verdict = "converges"
    else:
        tail = math.inf
        verdict = "inconclusive"
    return CoverReport("backwards_cover", tdim, partial, tail, _log2_float(ratio),
                       verdict,
                       constants_used={},
                       detail={"kcut": kcut,
                               "first_omitted_log2": _log2_float(nxt),
                               "ratio_envelope_log2": envelope})


def layer_checks(t: ParamTable, tdim: float, Lpp: float = 10.0) -> CertificateReport:
    """The two per-layer smallness conditions and the layered total.

    (a) (L'')**t 2**N / R_1**t <= 1/100, and
    (b) sum 2**k L_k R_k**(-t) <= (1/100) (2/L''**2)**t;
    each refinement then shrinks by 1/10, so the full tally is at most
    (1/9) diam(A_1)**t.
    """
    if Lpp < 1.0:
        raise DomainError("distortion constant must be >= 1")
    tf = _tfrac(tdim)
    rep = CertificateReport("layer checks")
    lhs_a = tdim * math.log2(Lpp) + t.N - _log2_float(tf * t.R_exp(1))
    rhs = math.log2(1.0 / 100.0)
    note_a = ""
    if lhs_a > rhs:
        for N2 in range(t.N + 1, 65):
            t2 = build_params(N2, 1)
            if tdim * math.log2(Lpp) + N2 - _log2_float(tf * t2.R_exp(1)) <= rhs:
                note_a = f"would pass from N = {N2}"
                break
    rep.add("single_layer_shrink", None, lhs_a <= rhs, f"{lhs_a:.4f}", f"{rhs:.4f}",
            note=note_a)
    hs = holesum_eval(t, tdim)
    lhs_b = hs.total_log2
    rhs_b = rhs + tdim * (1.0 - 2.0 * math.log2(Lpp))
    rep.add("hole_sum_shrink", None, hs.converges and lhs_b <= rhs_b,
            f"{lhs_b:.4f}", f"{rhs_b:.4f}")
    # layered total: geometric with ratio 1/10 on diam(A_1)**t = (8 R_1)**t
    diam_t = tdim * (3.0 + _log2_float(Fraction(t.R_exp(1))))
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
    if lcut < 1:
        raise DomainError("lcut must be >= 1")
    if Pp < 1.0:
        raise DomainError("cover constant P' must be >= 1")
    tf = _tfrac(tdim)
    pref = tdim * math.log2(Pp) + _log2_float(tf * t.R_exp(k))
    jhi = lcut + 6

    # the term formula involves only degree integers, so it extends past the
    # radii table: log2 term(j) = j + log2 L_{k+j} - t n_{k+j}
    def term(j: int) -> Fraction:
        Lkj = (k + j) * t.N + (k + j) * (k + j - 1) // 2
        return Fraction(j + Lkj) - tf * t.n(k + j)

    terms = [term(j) for j in range(lcut, jhi + 1)]
    partial = log_sum_terms(terms) + pref
    nxt = term(jhi + 1)
    ratio = _log2_float(nxt - terms[-1])
    if ratio < -1:
        tail = _log2_float(nxt) + pref - math.log2(1 - 2.0 ** max(ratio, -60.0))
        verdict = "converges"
    else:
        tail = math.inf
        verdict = "inconclusive"
    l_for_eps = None
    eps_log2 = math.log2(SINGLETON_EPS)
    for l in range(1, 1 << 12):
        head = term(l)
        # past the crossover the sum is within a factor 2 of its first term
        if _log2_float(head) + pref + 1 < eps_log2:
            l_for_eps = l
            break
    return CoverReport("singleton_tail", tdim, partial, tail, ratio, verdict,
                       constants_used={"Pp": Pp},
                       detail={"k": k, "lcut": lcut, "lcut_for_eps": l_for_eps,
                               "eps": SINGLETON_EPS,
                               "first_omitted_log2": _log2_float(nxt) + pref})


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def min_N_for_dimension(tdim: float, Lpp: float = 10.0,
                        Pp: float = 10.0) -> Optional[int]:
    """Smallest N <= 64 at which all certified sums pass at `tdim`."""
    if not 0.0 < tdim <= 1.0:
        raise DomainError("target dimension must lie in (0, 1]")
    for N in range(5, 65):
        t = build_params(N, 12)
        if not origin_dim_bound(t, tdim).converges:
            continue
        if not holesum_eval(t, tdim).converges:
            continue
        if not layer_checks(t, tdim, Lpp).all_pass:
            continue
        if not z2_tail(t, 1, tdim, Pp=Pp).converges:
            continue
        return N
    return None

