"""Dyadic parameter sequences and their growth certificates.

The model map is built from three coupled sequences: degrees M_j = 2**j,
radii r_j, and coefficients c_j, tied by

    r_1 = 16,  c_1 = 1,
    r_{j+1} = c_j * (r_j / 2)**M_j,
    c_{j+1} = c_j * r_j**(-M_j).

Every r_j and c_j is an exact power of two, so the whole table reduces to
two integer exponent sequences

    e_{j+1}   = eps_j + M_j * (e_j - 1),
    eps_{j+1} = eps_j - M_j * e_j,

with e_1 = 4, eps_1 = 0.  All growth inequalities the rest of the project
relies on are certified here in exact integer (or exact rational)
arithmetic; a failed comparison is report data, never an exception.

A second, shifted indexing is used throughout the dynamics: for a fixed
depth parameter N,

    n_k = M_{k+N-1},  R_k = r_{k+N-1},  C_k = c_{k+N-1},

plus the distortion envelopes alpha_k, beta_k = 1 / (1 -+ C' 2**(-sqrt(k+N-1)/4)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .numerics import (
    DomainError,
    ExponentBudgetError,
    MAX_EXP_BITS,
    ln_big,
)

SQRT8 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Certificate(NamedTuple):
    """One report row, an immutable tuple compared field by field.  lhs and
    rhs keep the exact int, Fraction or str they were given; they are
    rendered with str() only when a report is emitted (to_json_obj,
    report.make_report)."""
    name: str
    index: Optional[int]
    passed: bool
    lhs: object
    rhs: object
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "lhs_exponent": str(self.lhs),
            "rhs_exponent": str(self.rhs),
            "pass": self.passed,
            **({"note": self.note} if self.note else {}),
        }


def decimal_bits_limit() -> int:
    """The smallest bit length at which an integer may pass the digit limit
    of int-to-decimal conversion.

    Python converts an int to decimal only up to
    sys.get_int_max_str_digits() digits (0: no limit), read per call, and a
    b-bit integer has at most floor(b log10 2) + 1 digits: that passes the
    limit L exactly when floor(0.30103 b) >= L, i.e. 30103 b >= 100000 L.
    """
    limit = sys.get_int_max_str_digits()
    return -(-100000 * limit // 30103) if limit else sys.maxsize  # 0.30103 > log10 2


def _magnitude(v) -> int:
    """A nonnegative int as long as v's longest exact integer: |v| for an
    int, |numerator| | denominator for a Fraction, 0 for anything else."""
    tv = type(v)  # type(), not isinstance: an ABC check per row is slow
    if tv is int:
        return abs(v)
    return abs(v.numerator) | v.denominator if tv is Fraction else 0


@dataclass
class CertificateReport:
    title: str
    certificates: List[Certificate] = field(default_factory=list)

    def add(self, name, index, passed, lhs, rhs, note=""):
        """Append a row, keeping lhs and rhs as given (Certificate).  An
        exact exponent (int or Fraction) that may pass the decimal
        conversion limit raises DomainError naming the row here, at add
        time, although it is rendered only when the report is emitted.

        The OR of the magnitudes is as long as the longest exact integer of
        the row, so the guard is one comparison of its bit length, skipped
        where it is 0 (every row of two strings)."""
        tl, tr = type(lhs), type(rhs)
        mag = (0 if tl is str and tr is str else abs(lhs) | abs(rhs) if tl is int and tr is int
               else _magnitude(lhs) | _magnitude(rhs))
        if mag and mag.bit_length() >= decimal_bits_limit():
            raise DomainError(
                f"row {name}[{index}] of {self.title!r}: a {mag.bit_length()}-bit exponent "
                f"may pass the {sys.get_int_max_str_digits()}-digit limit of decimal conversion")
        self.certificates.append(Certificate(name, index, bool(passed), lhs, rhs, note))

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.certificates)

    def failures(self) -> List[Certificate]:
        return [c for c in self.certificates if not c.passed]

    def __len__(self):
        return len(self.certificates)


# ---------------------------------------------------------------------------
# parameter table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamTable:
    N: int
    kmax: int
    jmax: int
    e: tuple          # e[j] = log2 r_j for j >= 1; e[0] unused (r_0 = 0)
    eps: tuple        # eps[j] = log2 c_j for j >= 1
    Cprime: float
    p: float
    alpha: tuple      # alpha[k], k = 1..kmax (index 0 unused)
    beta: tuple
    k0: Optional[int]

    # -- original indexing ---------------------------------------------------

    def M(self, j: int) -> int:
        return 1 << j

    def r_exp(self, j: int) -> int:
        if not 1 <= j <= self.jmax:
            raise DomainError(f"r_{j} not built (jmax={self.jmax})")
        return self.e[j]

    def c_exp(self, j: int) -> int:
        if not 1 <= j <= self.jmax:
            raise DomainError(f"c_{j} not built (jmax={self.jmax})")
        return self.eps[j]

    # -- shifted indexing ------------------------------------------------------

    def n(self, k: int) -> int:
        return 1 << (self.N + k - 1)

    def R_exp(self, k: int) -> int:
        return self.r_exp(k + self.N - 1)

    def C_exp(self, k: int) -> int:
        return self.c_exp(k + self.N - 1)

    def kmax_shifted(self) -> int:
        """Largest k with R_{k+2} available."""
        return self.jmax - self.N - 1

    def table_rows(self, jhi: Optional[int] = None) -> List[dict]:
        """Rows j = 0..jhi, the exponents of c_j and r_j in decimal.

        A row whose exponents may pass the limit of decimal conversion
        (decimal_bits_limit) raises DomainError naming the largest jhi
        that renders.
        """
        jhi = self.jmax if jhi is None else min(jhi, self.jmax)
        rows = [{"j": 0, "M": 1, "c": None, "r": "0"}]
        for j in range(1, jhi + 1):
            bits = max(abs(self.e[j]).bit_length(), abs(self.eps[j]).bit_length())
            if bits >= decimal_bits_limit():
                raise DomainError(
                    f"row j={j}: a {bits}-bit exponent may pass the "
                    f"{sys.get_int_max_str_digits()}-digit limit of decimal conversion; "
                    f"jhi <= {j - 1} renders")
            rows.append({
                "j": j,
                "M": self.M(j),
                "c": f"2^{self.eps[j]}",
                "r": f"2^{self.e[j]}",
            })
        return rows


def build_params(N: int, kmax: int, Cprime: float = 1.0, p: float = SQRT8) -> ParamTable:
    """Build the exact exponent table for depth N, shifted indices up to kmax
    (original indices up to jmax = N + kmax + 2).

    Exponents are exact integers; a table whose exponents outgrow the bit
    budget raises ExponentBudgetError naming the offending index.
    """
    if N < 5:
        raise DomainError("depth parameter N must be >= 5")
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    if not (math.isfinite(Cprime) and Cprime >= 0):
        raise DomainError(f"Cprime = {Cprime} must be finite and >= 0")
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"p = {p} must be finite and > 0")
    jmax = N + kmax + 2
    e = [0] * (jmax + 1)
    eps = [0] * (jmax + 1)
    e[1], eps[1] = 4, 0  # r_1 = 16, c_1 = 1
    for j in range(1, jmax):
        Mj = 1 << j
        e[j + 1] = eps[j] + Mj * (e[j] - 1)
        eps[j + 1] = eps[j] - Mj * e[j]
        if e[j + 1].bit_length() > MAX_EXP_BITS or eps[j + 1].bit_length() > MAX_EXP_BITS:
            raise ExponentBudgetError(f"exponent bit budget exceeded at j={j + 1}")
    alpha = [0.0] * (kmax + 1)
    beta = [0.0] * (kmax + 1)
    for k in range(1, kmax + 1):
        w = Cprime * 2.0 ** (-math.sqrt(k + N - 1) / 4.0)
        alpha[k] = 1.0 / (1.0 - w) if w < 1.0 else math.inf
        beta[k] = 1.0 / (1.0 + w)
    t = ParamTable(N=N, kmax=kmax, jmax=jmax, e=tuple(e), eps=tuple(eps),
                   Cprime=Cprime, p=p, alpha=tuple(alpha), beta=tuple(beta), k0=None)
    return replace(t, k0=compute_k0(t))


# ---------------------------------------------------------------------------
# growth-inequality certificates
# ---------------------------------------------------------------------------

def verify_inequalities(t: ParamTable) -> CertificateReport:
    """Certify every growth inequality downstream modules rely on.

    All comparisons are exact on the integer exponent sequences (rational
    where an inequality involves a fractional power).  Failures land in the
    report as data.
    """
    rep = CertificateReport("growth inequalities")
    e, eps, N = t.e, t.eps, t.N
    J = t.jmax

    # base identity at j=1: r_1**M_1 == c_1 * r_1**(M_0 + 1)
    rep.add("coef_power_base", 1, 2 * e[1] == eps[1] + 2 * e[1], 2 * e[1], eps[1] + 2 * e[1])

    for j in range(3, J + 1):
        lhs = eps[j] + (1 << j) * e[j]            # log2 of c_j r_j^{M_j}
        rhs = ((1 << (j - 1)) + 1) * e[j]         # log2 of r_j^{M_{j-1}+1}
        rep.add("coef_power_lower", j, lhs >= rhs, lhs, rhs)

    for j in range(2, J):
        rep.add("sqrt_growth", j, e[j + 1] >= 2 * e[j], e[j + 1], 2 * e[j])

    for j in range(5, J):
        rep.add("quad_growth", j, e[j + 1] >= 2 + 2 * e[j], e[j + 1], 2 + 2 * e[j])
        rep.add("tower_growth", j, e[j + 1] >= (1 << j), e[j + 1], 1 << j)

    for j in range(3, J):
        rhs = -(1 << j) + ((1 << (j - 1)) + 1) * e[j]
        rep.add("next_radius_lower", j, e[j + 1] >= rhs, e[j + 1], rhs)

    # shifted-index forms, valid for every k >= 1 once N >= 5
    klim = min(t.kmax, t.kmax_shifted())
    for k in range(1, klim + 1):
        nk = t.n(k)
        nk1 = t.n(k - 1) if k >= 1 else None  # n_0 = 2**(N-1)
        Re = t.R_exp(k)
        Ce = t.C_exp(k)
        lhs = nk * Re + Ce
        rhs = (nk1 + 1) * Re
        rep.add("ring_coef_power_lower", k, lhs >= rhs, lhs, rhs)
        rep.add("ring_next_radius_lower", k, t.R_exp(k + 1) >= -nk + (nk1 + 1) * Re,
                t.R_exp(k + 1), -nk + (nk1 + 1) * Re)
        rep.add("ring_tower", k, Re >= (1 << (k + N - 2)), Re, 1 << (k + N - 2))
        rep.add("ring_quad", k, t.R_exp(k + 1) >= 2 + 2 * Re, t.R_exp(k + 1), 2 + 2 * Re)

    # exact degree identities, the sums kept running
    total = 1 << N
    for k in range(1, klim + 1):
        rep.add("degree_double", k, 2 * t.n(k) == t.n(k + 1), 2 * t.n(k), t.n(k + 1))
        total += t.n(k)    # 2**N + n_1 + ... + n_k
        rep.add("degree_sum", k, total == t.n(k + 1), total, t.n(k + 1))
    msum = 1
    for k in range(2, klim + 1):
        rep.add("degree_partial_sum", k, msum == (1 << (k - 1)) - 1, msum, (1 << (k - 1)) - 1)
        msum += 1 << (k - 1)   # M_0 + ... + M_{k-1}, for the next k

    # recursion identity: r_{j+1} * 2**M_j == c_j * r_j**M_j, exactly
    for j in range(1, J):
        lhs = e[j + 1] + (1 << j)
        rhs = eps[j] + (1 << j) * e[j]
        rep.add("recursion_identity", j, lhs == rhs, lhs, rhs)

    # critical-radius bracket (shifted polynomial data), defined for N >= 10:
    # 2**M_{N-7} r_{N-1}  <=  (r_N/(c_N M_N))**(1/(M_N-1))  <=  r_{N-1}**2/sqrt(2)
    if N >= 10:
        MN = 1 << N
        mid = Fraction(e[N] - eps[N] - N, MN - 1)
        lo = Fraction((1 << (N - 7)) + e[N - 1])
        hi = 2 * Fraction(e[N - 1]) - Fraction(1, 2)
        rep.add("critical_radius_lower", N, lo <= mid, lo, mid)
        rep.add("critical_radius_upper", N, mid <= hi, mid, hi)
    return rep


def check_permissible(t: ParamTable) -> CertificateReport:
    """Admissibility of the raw sequences for the global model construction.

    Requires r_{j+1} >= exp(pi/M_j) * r_j, monotone growth to infinity, and a
    bounded degree ratio.  The j = 1 step genuinely fails for this family
    (64 < 16 e^{pi/2}); only rings with j >= N >= 5 are ever used by the
    model, so the failure is reported, not raised.
    """
    rep = CertificateReport("ring admissibility")
    for j in range(1, t.jmax):
        gap = t.e[j + 1] - t.e[j]
        need = math.pi / ((1 << j) * math.log(2.0))
        rep.add("ring_gap", j, gap >= need, gap, f"{need:.6g}")
    mono = all(t.e[j + 1] > t.e[j] for j in range(1, t.jmax))
    rep.add("radii_increase", None, mono, "strictly increasing", "required")
    rep.add("degree_ratio_bounded", None, True, 2, "sup M_{j+1}/M_j")
    return rep


def alpha_beta_window(t: ParamTable) -> CertificateReport:
    """Empirical threshold for the distortion envelopes to sit in
    (99/100, 101/100); reported, never assumed."""
    rep = CertificateReport("distortion envelope window")
    ok_from = None
    for k in range(t.kmax, 0, -1):
        if not (0.99 < t.beta[k] < 1.0 < t.alpha[k] < 1.01):
            break
        ok_from = k
    rep.add("envelope_window_from_k", ok_from, ok_from is not None,
            f"holds for k >= {ok_from}" if ok_from else "never within kmax",
            "(99/100, 101/100)",
            note=f"Cprime={t.Cprime}; threshold depends on the distortion constant")
    return rep


# ---------------------------------------------------------------------------
# modulus-of-continuity scale and its onset index
# ---------------------------------------------------------------------------

def omega_from_rho(p: float, rho_int: int, rho_frac: float = 0.0) -> float:
    """omega_p(1/|z|) = (1/2)**(p^-1 sqrt(ln ln |z|)), |z| = 2**(rho_int + rho_frac).

    Logs come from the exponent, so |z| near 2**(2**k) evaluates without
    overflow.  Needs |z| >= e; ln ln |z| in [-1e-12, 0], i.e. |z| = e up to
    rounding, counts as 0.
    """
    if rho_int <= 0:
        raise DomainError("need |z| > 1")
    lnln = ln_big(rho_int, rho_frac * math.log(2.0))
    if lnln < -1e-12:
        raise DomainError("modulus scale undefined for |z| < e")
    return 0.5 ** (math.sqrt(max(lnln, 0.0)) / p)


def compute_k0(t: ParamTable) -> Optional[int]:
    """Smallest k such that ln ln (r_k / 20) >= k'/2 for every k' in [k, kmax]
    and r_k >= 20.  None when no such k exists within the table."""
    ok = [False] * (t.kmax + 2)
    for k in range(1, t.kmax + 1):
        ek = t.r_exp(k)
        try:
            cond = ln_big(ek, -math.log(20.0)) >= k / 2.0
        except DomainError:
            cond = False
        size_ok = True if ek.bit_length() > 60 else ek >= math.log2(20.0)
        ok[k] = cond and size_ok
    best = None
    for k in range(t.kmax, 0, -1):
        if not ok[k]:
            break
        best = k
    return best
