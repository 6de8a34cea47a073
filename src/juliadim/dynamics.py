"""Orbit iteration, inverse branches, and the mapping-inclusion certificates.

Orbits are iterated in exact log-polar arithmetic.  Every step through a
piece of degree d multiplies the angle by d, which amplifies the input's
angular quantization by log2(d) bits; the iterator budgets this against
the configured angle resolution and truncates rather than guessing.

Inverse branches come in three kinds, each closed in its own coordinate by
one residual decision (``modelmap.residual_below``) and no evaluation:

* ``VkRoot(k, branch)``     -- exact root extraction of target / C_k,
* ``PetalInverse(k, j)``    -- the zero-ring blend is quadratic in z**n_k:
                               z**n_k = Z (1 + s), s (1 + s) = q/4, s by a
                               binomial series,
* ``OriginBranch(i)``       -- i = 0: z = tau0 (1 + v), tau0 = t/r_N; i >= 1:
                               g(u) = (1 + u)**M - 1 - u = tau in the
                               coordinate z = w_i (1 + u) of the zero w_i,
                               by Newton from the inverse series to third
                               order, and the AnchoredPoint (i, u).

The series and solves run on ``numerics``' integer pairs at prec + 32 bits,
rounded to nearest as libmp rounds.

The inclusion certificates bound log2 |f| on circles -- one exact value on
a radial circle, an exact enclosure on the petal boundary, sampled
extrema elsewhere -- and compare the bounds against the target annuli in
exact exponent arithmetic, with the seam deviation carried as an explicit
bit margin.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from mpmath.libmp import mpc_div

from .numerics import (
    HALF,
    RND,
    DomainError,
    ExponentBudgetError,
    PAIR_ONE,
    LogPolar,
    NumericsError,
    check_budget,
    const_log2_frac,
    cpair_add,
    cpair_add_real,
    cpair_below as _below,
    cpair_div_int,
    cpair_mpc,
    cpair_mul,
    cpair_mul_real,
    cpair_of,
    cpair_shift,
    cpair_sub,
    lp_perturb,
    pair_div_int,
    pair_of_int,
    pair_round,
    pi_over_ln2_frac,
    polar_pair,
)
from .geometry import LOG2_2_5, LOG2_3_5, Region, classify, petal_radius_rel_log2
from .modelmap import (SEAM_MARGIN_BITS, AnchoredPoint, ModelMap, PieceId, Point, origin_binomials,
                       origin_g, qN_landmarks, residual_below, table_consts)
from .params import CertificateReport, omega_from_rho

NEWTON_MAX_ITER = 64


class BranchError(DomainError):
    pass


class ItineraryError(DomainError):
    pass


# ---------------------------------------------------------------------------
# inverse branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VkRoot:
    k: int
    branch: int = 0


@dataclass(frozen=True)
class PetalInverse:
    k: int
    j: int


@dataclass(frozen=True)
class OriginBranch:
    index: int


InverseBranchSpec = Union[VkRoot, PetalInverse, OriginBranch]


def inverse_step(m: ModelMap, target: Point, branch: InverseBranchSpec,
                 tol: float = 2.0 ** -64) -> Point:
    """One inverse branch applied to `target`; the result re-evaluates to the
    target within tol both in log2 magnitude and in turns.  OriginBranch(i),
    i >= 1, and PetalInverse return an AnchoredPoint, the chart of their
    zero; an AnchoredPoint target is read as its absolute LogPolar first,
    which from N = 8 on (or for a petal step far below its petal's image)
    raises ExponentBudgetError naming the step."""
    if type(target) is AnchoredPoint:
        try:
            target = target.absolute(m.prec)
        except ExponentBudgetError as e:
            raise ExponentBudgetError(f"{branch}: anchored target: {e}") from None
    t = m.table
    if isinstance(branch, VkRoot):
        k, nk = branch.k, t.n(branch.k)
        if not (0 <= branch.branch < nk):
            raise BranchError(f"root branch {branch.branch} out of range")
        if not (t.R_exp(k + 1) - 2 <= target.rho <= t.R_exp(k + 1) + 2):
            raise BranchError(f"V-branch target must lie in the level-{k + 1} annulus")
        return LogPolar(target.rho - t.C_exp(k), target.theta).root(nk, branch.branch)

    if isinstance(branch, PetalInverse):
        k, j = branch.k, branch.j
        consts = nk, i, _, top = _petal_consts(m, k)
        if not 1 <= j <= nk:
            raise BranchError(f"petal index {j} out of range")
        if target.is_zero:
            return m.ring_zero(i, j)
        if target.rho > top:
            raise BranchError("petal inverse defined for |target| <= 4 R_{k+1}")
        return _petal_step(m, target, k, j, tol, consts)

    if isinstance(branch, OriginBranch):
        if not 0 <= branch.index < 1 << t.N:
            raise BranchError(f"origin branch {branch.index} out of range")
        if target.rho > t.R_exp(1) + 2:
            raise BranchError("origin inverse defined for |target| <= 4 R_1")
        if branch.index == 0:
            return _origin_branch0_step(m, target, tol)
        return _origin_zero_step(m, target, branch.index, tol)

    raise BranchError(f"unknown branch kind {branch!r}")


def _tol_bits(tol: float):
    """b with 2**-b <= min(tol, 1) / 8, or inf for a tol <= 0 or nan.  A step
    keeps a point whose exact image is target (1 + delta), |delta| = eps <
    0.251 min(tol, 1): -log2(1 - eps) < 1.67 eps < tol / 2, eps / 4 turns."""
    return 4 - math.frexp(min(tol, 1.0))[1] if tol > 0 else math.inf


def _newton(u, residual, slope, scale, prec: int, wp: int):
    """u by Newton on complex integer pairs at wp bits, and its residual
    F~(u): the first iterate whose |F~(u)| <= 2**-(prec + 16) |scale|
    (:func:`_below`), before its slope is built or divided by.  The division
    is libmp's ``mpc_div``, which rounds inside."""
    for _ in range(NEWTON_MAX_ITER):
        res = residual(u)
        if _below(res, scale, prec + 16, wp):
            return u, res
        u = cpair_sub(u, cpair_of(mpc_div(cpair_mpc(res), cpair_mpc(slope(u)), wp, RND)), wp)
    raise BranchError(f"origin newton stagnated after {NEWTON_MAX_ITER} steps")


def _petal_consts(m: ModelMap, k: int) -> tuple:
    """(n_k, ring i = k + N - 1, q.rho - target.rho, top R_{k+1} + 2): table constants."""
    t = m.table
    return table_consts(t, ("petal", k), lambda: (
        nk := t.n(k), i := k + t.N - 1, nk * t.R_exp(k) - t.C_exp(k) + 2 - 2 * m.zcap_log2(i),
        t.R_exp(k + 1) + 2))


def _petal_step(m: ModelMap, target: LogPolar, k: int, j: int, tol: float,
                consts: Optional[tuple] = None) -> AnchoredPoint:
    """PetalInverse(k, j) in the chart of zero j of ring i = k + N - 1, whose
    seam piece is S(z) = K v (v - Z), v = z**n_k, K = C_k / R_k**n_k, Z =
    zcap(i) < 0.  At v = Z (1 + s), S = target s (1 + s) / (q/4), q = 4
    target / (K Z**2) exact, log2 |q| - target.rho a dyadic table constant
    (:func:`_petal_consts`, or ``consts``) added in integers.  The step takes
    s = h/2, h = sqrt(1 + q~) - 1 (:func:`_half_sqrt1p_minus1`, q~ read at its
    integer scale, as the origin step reads tau), and returns the chart point
    (j, s) of ring i: z = w_j (1 + s)**(1/n_k), z**n_k = Z (1 + s).  Its absolute
    form (what a construction or a target reads) has z**n_k = Z (1 + s'), 1 +
    s' = (1 + s) e**d, d the rounding of log(1 + s) in lp_perturb; s' = s on
    the chart.

    The point is kept when |s (1 + s) - q~/4| <= 2**-b |q~/4|
    (:func:`residual_below`) and b <= prec + 15 - a, a = max(5, bits(prec) -
    15), else BranchError.  eps = |s' (1 + s') / (q/4) - 1| <= 2**-b (1 +
    2**-28) + E, E summing, relative to |q/4|, prec >= 64:

    * |q~ - q| < 2**-(prec + 13): polar_pair reads q / 2**e_q, e_q =
      floor(log2 |q|) (the shift is exact), at prec + 16 bits, its exponent
      log2 |q| - e_q in [0, 1) at prec + 24 and ln 2 at prec + 26;
    * |d| (1 + 2**-14) / |s| < 2**(bits(prec) - prec - 32): the domain check
      admits only |q| <= 2**-30.27 (N = 5, k = 1; less elsewhere) and |q| >=
      2**-16 is refused, so |s| < 2**-17.9 and lp_perturb sums its series, n
      <= (prec + 48) / 15 terms at wp = prec + 32 bits, then divides by ln 2
      and by 2 pi: |d| <= (1.5 n + 5) 2**-wp |s|;
    * 2**-(wp - 4) for rounding the residual and cpair_below's moduli.

    With x = max(10, bits(prec) - 10), E < 2**(x - prec - 21) < 2**-(prec + 15
    - a) <= 2**-b, and eps < 0.251 min(tol, 1) (:func:`_tol_bits`).
    """
    _, i, off, _ = consts or _petal_consts(m, k)
    f, d, e_q = _split(target.rho, off)
    if e_q >= -16:
        raise BranchError(f"petal step needs |q| < 2**-16, got |q| ~ 2**{e_q}")
    turns = target.theta.turns
    q_c = cpair_shift(polar_pair(f, d, turns.numerator, turns.denominator, m.prec), e_q)
    s = _half_sqrt1p_minus1(q_c, m.prec)
    a = max(5, m.prec.bit_length() - 15)
    if not residual_below(s, cpair_shift(q_c, -2), _tol_bits(tol), m.prec + 15 - a, m.prec + 32):
        raise BranchError(f"petal residual not certified below tol {tol:.3g} at {m.prec} bits")
    return AnchoredPoint(j, m.ring_zero(i, j), cpair_mpc(s), i)


def _split(x: Fraction, y: Fraction) -> Tuple[int, int, int]:
    """x + y = e + f / d as (f, d, e), e its floor, unreduced; budget-checked as a rho."""
    n, d = x.numerator * y.denominator + y.numerator * x.denominator, x.denominator * y.denominator
    check_budget(n, d, "rho")
    return n % d, d, n // d


def _origin_branch0_step(m: ModelMap, target: LogPolar, tol: float) -> LogPolar:
    """OriginBranch(0): tau0 = target / r_N or tau0 (1 + v).  q(tau0 (1 + v))
    = target (1 + F(v)), F(v) = v + sigma (1 + v)**M, sigma = (c_N / r_N)
    tau0**(M-1) exact in integers, and eps = |F(v)| (:func:`_tol_bits`).  As
    c_N |w|**(M-1) = r_N at the zeros w and |tau0| <= 4, |sigma| = |tau0 /
    w|**(M-1) < 2**(-53.5 * 31) (|w| as in :func:`_origin_zero_step`).

    * log2 |sigma| <= -(prec + 16), every step at N >= 6 and at N = 5 below
      1643 bits: tau0, kept when log2 |sigma| <= -b exactly.
    * Else :func:`_newton` from v = -sigma~ on F = v + sigma (1 + v + g(v)),
      F' = 1 + sigma (1 + g'(v)), and lp_perturb(tau0, v), kept when |F~(v)|
      <= 2**-b, b <= prec + 15 (:func:`residual_below`): sigma~ is read as
      _origin_zero_step reads tau, within 2**-(prec + 16) |sigma|, F~ rounded
      at wp = prec + 32 bits, and lp_perturb's rounding of log(1 + v) moves F
      by under prec 2**-wp |v|, so eps <= 2**-b (1 + 2**-(wp - 4)) + 2**-(prec
      + 16) < 0.251 min(tol, 1).

    Otherwise BranchError.
    """
    if target.is_zero:
        return LogPolar.zero_point()
    t, M, turns, r = m.table, 1 << m.table.N, target.theta.turns, m.table.r_exp(m.table.N)
    a, d, e = _split(target.rho, -r)        # log2 |tau0| = e + a / d
    n = (M - 1) * (e * d + a) + (t.c_exp(t.N) - r) * d      # log2 |sigma| = n / d
    check_budget(n, d, "rho")
    b, e, ceil = _tol_bits(tol), n // d, -(-n // d)
    if ceil <= -(m.prec + 16):
        if ceil <= -b:
            return LogPolar(target.rho - r, target.theta)
        raise BranchError(f"origin branch 0 residual |sigma| ~ 2**{e} not below tol {tol:.3g}")
    wp, one, td = m.prec + 32, PAIR_ONE, turns.denominator
    sig = cpair_shift(polar_pair(n - e * d, d, (M - 1) * turns.numerator % td, td, m.prec + 16), e)
    coef = origin_binomials(t.N, sig, wp)

    def f(x, c, y):     # x + sigma (c + y): F(v) = f(v, 1 + v, g(v)), F' = f(1, 1, g'(v))
        return cpair_add(x, cpair_mul(sig, cpair_add(c, y, wp), wp), wp)

    def residual(v):
        return f(v, cpair_add_real(v, (1, 0), wp), origin_g(v, coef, wp))

    (sm, se), (tm, te) = sig
    v, res = _newton(((-sm, se), (-tm, te)), residual,
                     lambda v: f(one, one, origin_g(v, coef, wp, True)), one, m.prec, wp)
    if not residual_below(v, one, b, m.prec + 15, wp, res=res):
        raise BranchError(f"origin residual not certified below tol {tol:.3g} at {m.prec} bits")
    return lp_perturb(LogPolar(target.rho - r, target.theta), cpair_mpc(v), m.prec)


# wp -> [C(1/2, n)] for n = 1, 2, ..., each by C(1/2, n + 1) = C(1/2, n) (1/2 - n)
# / (n + 1) rounded to nearest at wp, as integer pairs; grown as the petal
# series reaches them
_BINOM_HALF: dict = {}


def _half_sqrt1p_minus1(q, prec: int):
    """s = h / 2, h = sqrt(1 + q) - 1 by the binomial series, for the complex
    of integer pairs q the petal step reads at its integer scale.

    Every step is rounded to nearest at wp = prec + 32 bits (the
    coefficients C(1/2, n) once per wp, in ``_BINOM_HALF``), as the libmp
    series it replaces rounded them, and the sum stops at its first term
    whose modulus is at most 2**-(prec + 16) of the partial sum's (199 terms
    at most).  A target far below the petal's full image makes q, hence the
    offset from the ring zero, exponentially small, which pair exponents and
    the exact-rational perturbation both carry without underflow.
    """
    wp = prec + 32
    coefs = _BINOM_HALF.setdefault(wp, [(1, -1)])
    powq, h = q, cpair_shift(q, -1)     # q/2 exactly: q has at most prec + 16 bits
    for n in range(1, 200):
        if n == len(coefs):
            cm, ce = pair_round(coefs[-1][0] * (1 - 2 * n), coefs[-1][1] - 1, wp)
            coefs.append(pair_div_int(cm, ce, n + 1, wp))
        powq = cpair_mul(powq, q, wp)
        term = cpair_mul_real(powq, coefs[n], wp)
        h = cpair_add(h, term, wp)
        if _below(term, h, prec + 16, wp):
            break
    return cpair_shift(h, -1)


def _origin_zero_step(m: ModelMap, target: LogPolar, i: int, tol: float) -> Point:
    """OriginBranch(i), i >= 1, solved in the coordinate of the zero w = w_i:
    the AnchoredPoint (i, u), or w itself for target 0.  Nothing is built or
    evaluated after the solve, at any N.

    c_N w**(M-1) = -r_N exactly (M = 2**N), so at z = w (1 + u), q(z) = -r_N
    w g(u), g(u) = (1 + u)**M - 1 - u, and the step solves g(u) = tau =
    -target / (r_N w), exact in log-polar, by :func:`_newton` at wp = prec +
    32 bits, with g and g' by :func:`origin_g` to the K that
    :func:`origin_binomials` takes from the seed, stopping at the first
    iterate whose |g~ - tau~| <= 2**-(prec + 16) |tau~|.  w, tau - target (-r_N -
    w.rho, 1/2 - w.turns, over (M - 1) 2**k, added in integers) and the
    seed's coefficients are table constants.

    The seed is the inverse series of g to third order.  With t = tau / (M -
    1), y = M|t| and P(u) = g(u) / (M - 1) = u + sum_{k>=2} a_k u**k, the seed
    u0 = t - a_2 t**2 + (2 a_2**2 - a_3) t**3 = t - (M/2) t**2 + (M (M + 1)/3)
    t**3 makes P(u0) - t a power series from t**4 on, led by M (M + 2)(2M +
    1)/8 t**4, with coefficients at most those of Ph(Uh(|t|)): a_k <= C(M, k)
    / (M - 1) <= M**(k-1), so Ph(u) = u + M u**2 / (1 - M u), and Uh(s) = s
    phi(y), phi = 1 + y/2 + (M + 1) y**2 / (3M).  That tail is |t| times the
    y**(>=3) part of y phi**2 / (1 - y phi), under 4 y**3 for y <= 2**-50.  So
    |g(u0) - tau| <= 4 y**3 |tau| (for the tau~ the seed is built from), and
    rounding adds under 2**-(prec + 23) |tau| (below).  At N = 5, y <= 2**-55.2 (below) and 4
    y**3 < 2**-163.6: the seed meets the stop rule as it stands for prec <=
    147, and from N = 6 on (y <= 2**-761.4) for prec <= 2260, with neither
    g' nor a division built.

    The domain check |target| <= 4 R_1 = 4 r_N admits only M|u| <= 2**-53:
    |w| = 2**zero_rho, zero_rho = (e_N - eps_N) / (M - 1) = M_{N-1} (2 e_{N-1}
    - 1) / (M - 1) > e_{N-1} - 1/2 >= 55.5 at N >= 5 (qN_landmarks and the
    recurrence of ``params``), so |tau| <= 2**(2 - zero_rho) < 2**-53.5.  A
    tau with |tau| < 2**-17 has a root with M|u| <= 2**-16, where |g(u) / ((M
    - 1) u) - 1| <= M|u|, so M|u| <= (32/31) |tau| (1 + 2**-15) < 2 |tau|:
    2**-55.2 at most at N = 5 and 2**-761.4 at N = 6 (zero_rho = 57.3 and
    763.4).  |tau| >= 2**-17, which the domain does not admit, raises
    BranchError rather than summing a long series.

    The exact image -r_N w g(u) is target g(u) / tau, eps = |g(u) / tau - 1|
    (:func:`_tol_bits`).  u is kept when |g~ - tau~| <= 2**-b |tau~|
    (:func:`residual_below`, b <= prec + 15), else BranchError.  tau~ is
    within 2**-(prec + 16) |tau| (read at prec + 32 bits); g~, the loop's
    last origin_g sum at wp bits, within 2**-(prec + 24) |g(u)| (its
    roundings, and a tail under 2**-(wp - 1) of the linear term while u is
    within |u| / 2 of the seed that chose K); rounding the residual and
    cpair_below's moduli adds 2**-(wp - 4).  So eps <= 2**-b (1 + 2**-78) +
    2**-(prec + 15) < 0.251 min(tol, 1).
    """
    t, wp = m.table, m.prec + 32
    w, off_rho, off_turns = table_consts(t, ("origin", i), lambda: (
        w := qN_landmarks(m).zero(i), -t.r_exp(t.N) - w.rho, HALF - w.theta.turns))
    if target.is_zero:
        return w
    f, d, e_tau = _split(target.rho, off_rho)
    if e_tau >= -17:
        raise BranchError(f"origin step needs |tau| < 2**-17 (M|u| <= 2**-16), "
                          f"got |tau| ~ 2**{e_tau}")
    # tau as a pair whose exponent may lie past any float's range
    tn, td, _ = _split(target.theta.turns, off_turns)
    tau_c = cpair_shift(polar_pair(f, d, tn, td, m.prec + 16), e_tau)
    # the reverted series to third order: u = t (1 + t (-M/2 + t M (M + 1)/3))
    M = 1 << t.N
    c3, c2 = table_consts(t, ("seed", wp), lambda: (
        pair_div_int(M + 1, t.N, 3, wp), pair_of_int(-M // 2)))
    tt = cpair_div_int(tau_c, M - 1, wp)
    u = cpair_add_real(cpair_mul_real(tt, c3, wp), c2, wp)
    u = cpair_mul(tt, cpair_add_real(cpair_mul(u, tt, wp), (1, 0), wp), wp)
    coef = origin_binomials(t.N, u, wp)
    u, res = _newton(u, lambda u: cpair_sub(origin_g(u, coef, wp), tau_c, wp),
                     lambda u: origin_g(u, coef, wp, slope=True), tau_c, m.prec, wp)
    if not residual_below(u, tau_c, _tol_bits(tol), m.prec + 15, wp, coef, res):
        raise BranchError(f"origin residual not certified below tol {tol:.3g} at {m.prec} bits")
    return AnchoredPoint(i, w, cpair_mpc(u))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    kind: str                      # FatouEscape | ECandidate | YLike | Z1Like | Z2Like | Truncated
    value: Optional[int] = None    # escape level / backwards count / entry step
    reason: str = ""

    def __str__(self):
        if self.kind == "Truncated":
            return f"Truncated({self.reason})"
        return self.kind if self.value is None else f"{self.kind}({self.value})"


@dataclass
class OrbitRecord:
    points: List[Point]
    regions: List[Region]
    orbit_seq: List[Optional[int]]
    backwards_events: List[int]
    classification: Classification

    def region_strs(self) -> List[str]:
        return [str(r) for r in self.regions]


def _backfill_negative_indices(regions: List[Region]) -> List[Region]:
    """Rewrite runs of D tags that exit into level 1 as negative-index tags."""
    out = list(regions)
    i = 0
    while i < len(out):
        if out[i].kind != "D":
            i += 1
            continue
        j = i
        while j < len(out) and out[j].kind == "D":
            j += 1
        if j < len(out) and out[j].kind in ("A", "V", "P", "B") and (out[j].k or 0) == 1:
            exit_kind = "B" if out[j].kind == "B" else "A"
            for s in range(i, j):
                out[s] = Region(exit_kind, 1 - (j - s))
        i = j
    return out


def _at_precision(m: ModelMap, bits: int) -> ModelMap:
    """m with its working precision and lp_add guard raised to `bits`."""
    if bits <= m.prec and bits <= m.guard:
        return m
    return dataclasses.replace(m, prec=max(m.prec, bits), guard=max(m.guard, bits))


def iterate_orbit(m: ModelMap, z: Point, nmax: int, phi_budget: bool = False,
                  schedule: Sequence[int] = ()) -> OrbitRecord:
    """Forward orbit with region bookkeeping.

    Stops early on entering an escape gap (FatouEscape) or when the angular
    amplification budget m.ang_bits runs out (Truncated).  Points are
    classified with no margin; with phi_budget=True the margin at each point
    is the distortion budget log2(1 + C' omega(1/|z|)), plus the seam
    deviation SEAM_MARGIN_BITS where the step into the point was evaluated
    on a seam piece: the start point and the image of any other piece take
    the distortion term alone.

    schedule[n], where given, raises the working precision and guard of
    step n (classifying the n-th point and evaluating it) to that many
    bits; later steps run at m's own.

    An AnchoredPoint start is classified from its enclosure (geometry.classify),
    and step 0 evaluates it in closed form; its distortion margin is taken at
    w.rho - 1, below every log2 |z| of the enclosure, where omega is larger.
    """
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    t = m.table
    points = [z]
    regions: List[Region] = []
    bits_used = 0
    truncated: Optional[str] = None
    escaped = False
    piece = None     # the piece the step into zn was evaluated on
    for n in range(nmax + 1):
        zn = points[-1]
        mn = _at_precision(m, schedule[n]) if n < len(schedule) else m
        mb = 0.0
        rho = zn.zero.rho - 1 if type(zn) is AnchoredPoint else zn.rho
        if phi_budget and not zn.is_zero and rho > 4:
            w = t.Cprime * omega_from_rho(t.p, rho.numerator // rho.denominator)
            mb += math.log2(1.0 + w) + (SEAM_MARGIN_BITS if piece and piece.kind == "seam" else 0)
        try:
            reg = classify(t, zn, margin=mb, model=mn)
        except DomainError:
            truncated = f"table exhausted at step {n}"
            break
        regions.append(reg)
        if reg.kind == "boundary":
            truncated = f"boundary at step {n}"
            break
        if reg.kind == "B":
            escaped = True
            break
        if n == nmax:
            break
        piece = m.piece_of(zn) if not zn.is_zero else None
        cost = t.N if piece is None or piece.kind in ("origin", "bump") else piece.index + 1
        if bits_used + cost > m.ang_bits - 64:
            truncated = f"angular budget: needs {bits_used + cost + 64} bits"
            break
        bits_used += cost
        points.append(mn.eval(zn)[0])
    regions = _backfill_negative_indices(regions)
    orbit_seq: List[Optional[int]] = [
        r.k if r.kind in ("A", "V", "P") else None for r in regions
    ]
    backwards = [
        n for n in range(1, len(orbit_seq))
        if orbit_seq[n] is not None and orbit_seq[n - 1] is not None
        and orbit_seq[n] < orbit_seq[n - 1] + 1
    ]
    cls = _classify_window(regions, backwards, truncated, escaped)
    return OrbitRecord(points, regions, orbit_seq, backwards, cls)


def _classify_window(regions, backwards, truncated, escaped) -> Classification:
    if truncated:
        return Classification("Truncated", reason=truncated)
    if escaped:
        k = regions[-1].k
        return Classification("FatouEscape", k)
    if all(r.kind == "D" for r in regions):
        return Classification("ECandidate")
    # full window spent inside the A levels; the window labels are
    # extrapolations: a trailing V run covering at least half the window
    # reads as curve-bound, recurring petal visits as singleton-bound,
    # backwards moves as the moving-backwards set
    start = (backwards[-1] if backwards else 0)
    tail = regions[start:]
    v_from = None
    for i in range(len(regions) - 1, start - 1, -1):
        if regions[i].kind != "V":
            break
        v_from = i
    if v_from is not None and (len(regions) - v_from) * 2 >= len(regions) - start:
        return Classification("Z1Like", v_from)
    if any(r.kind == "P" for r in tail):
        return Classification("Z2Like")
    if backwards:
        return Classification("YLike", len(backwards))
    if v_from is not None:
        return Classification("Z1Like", v_from)
    return Classification("Truncated", reason="window inconclusive")


# ---------------------------------------------------------------------------
# mapping-inclusion certificates
# ---------------------------------------------------------------------------

def _circle_extrema(m: ModelMap, rho: Fraction, samples: int) -> Tuple[Fraction, Fraction]:
    # on a radial circle log2 |f| does not depend on the angle, so one
    # evaluation is the exact extremum (ModelMap.radial_log2)
    c = m.radial_log2(rho)
    if c is not None:
        return c, c
    lo = hi = None
    for i in range(samples):
        w, _ = m.eval(LogPolar(rho, Fraction(i, samples)))
        if w.is_zero:
            raise DomainError("circle passes through a zero")
        if lo is None or w.rho < lo:
            lo = w.rho
        if hi is None or w.rho > hi:
            hi = w.rho
    return lo, hi


def _petal_boundary_extrema(m: ModelMap, k: int) -> Tuple[Fraction, Fraction]:
    """An exact enclosure [c - delta, c + delta] of log2 |f| over the whole
    level-k petal boundary.

    The blend depends on z only through z**n_k, so every petal is an exact
    rotation of the first.  On its boundary z = zeta (1 + u), u = eps e**(i phi),
    eps = 2**rad_rel, M = n_k = 2**j, log2 |f| is seam_zero_log2_base(j) plus
    v(phi) / ln 2 with

        v(phi) = M ln |1 + u| + ln |(1 + u)**M - 1| = ln eps + Re F(u),

    F(u) = M log(1 + u) + log(((1 + u)**M - 1) / u) a power series sum b_k u**k
    with real coefficients and F(0) = ln M.  On |u| = 1/(4M), |F - F(0)| < 1/2,
    so Cauchy's bound gives |b_k| <= (4M)**k and, x = 4 M eps,
    |F(u) - F(0)| <= x / (1 - x).  So at every point of the boundary log2 |f|
    is within x / ((1 - x) ln 2) < 4x of c = seam_zero_log2_base(j) + j +
    rad_rel, exact, once x <= 1/2.  That is checked exactly as j + rad_rel <=
    -8 (every table with N >= 5 has M eps <= 2**-27) and a failure raises
    DomainError.  As rad_rel < -n_k, 4x < 2**(j + 4 - n_k), and any wider
    dyadic delta is as sound: delta = 2**-(min(n_k, j + 64) - j - 4) keeps its
    denominator short at any level, as the reach's cap does.
    """
    t = m.table
    nk = t.n(k)
    j = k + t.N - 1
    rad_rel = petal_radius_rel_log2(nk)
    if j + rad_rel > -8:
        raise DomainError(f"petal boundary at level {k} too wide for its remainder bound, "
                          f"which needs 4 n_k eps <= 1/2")
    # |log2 |1 + u|| < 3 |u| <= 3 * 2**-n_k, and any wider reach is as sound:
    # 3 * 2**-(j + 64), far inside the ~2**-j wide piece, has a short denominator
    reach = Fraction(3, 1 << min(nk, j + 64))
    zeta_rho = m.ring_zero_rho(j)
    seam = PieceId("seam", j)
    if m.piece_of(zeta_rho - reach) != seam or m.piece_of(zeta_rho + reach) != seam:
        raise DomainError(f"petal boundary at level {k} leaves piece {seam}")
    c = m.seam_zero_log2_base(j) + j + rad_rel
    delta = Fraction(1, 1 << min(nk, j + 64) - j - 4)
    return c - delta, c + delta


def _inclusion_row(rep: CertificateReport, k: int, upper: bool, name: str, got: Fraction,
                   target: int) -> None:
    """Add row name[k] to rep: max + margin < target for an upper-bound row,
    min - margin > target for a lower-bound one, the margin being the seam
    deviation budget SEAM_MARGIN_BITS = mn / md.  With got = n / d both sides
    are multiplied by d md > 0, so one integer comparison decides.  Both sides
    render as 6-decimal floats, got as n / d (float of the Fraction), and a
    side past the float range raises DomainError naming the row."""
    n, d = got.as_integer_ratio()
    try:
        lhs, rhs = f"{n / d:.6f}", f"{float(target):.6f}"
    except OverflowError:
        raise DomainError(f"row {name}[{k}] of {rep.title!r}: an exponent past the float "
                          f"range of its 6-decimal rendering") from None
    mn, md = SEAM_MARGIN_BITS.as_integer_ratio()
    x, y = n * md, target * d * md
    rep.add(name, k, x + mn * d < y if upper else x - mn * d > y, lhs, rhs)


def verify_inclusions(m: ModelMap, k: int, samples: int = 4096) -> CertificateReport:
    """Circle extrema of log2 |f| against the target annuli.

    A radial circle (ModelMap.radial_log2: a power piece, or the origin
    piece where one term of the polynomial is negligible) has one exact
    value of log2 |f|; the petal boundary has an exact enclosure of log2 |f|
    over the whole circle (_petal_boundary_extrema).  A circle that is
    neither would take the extrema of `samples` evenly spaced points, but at
    N = 5..14, k = 1..12 every inclusion circle is radial, so each row is
    decided by _inclusion_row on an exact value or an outward bound.
    """
    if samples < 1 << 12:
        raise DomainError("inclusion sampling needs >= 4096 points per circle")
    t = m.table
    rep = CertificateReport(f"mapping inclusions k={k}")
    upper, lower = (functools.partial(_inclusion_row, rep, k, up) for up in (True, False))

    e1, e2, e3 = t.R_exp(k), t.R_exp(k + 1), t.R_exp(k + 2)

    lo, hi = _circle_extrema(m, e1 + LOG2_2_5, samples)
    upper("inner_circle_max_below_quarter_next", hi, e2 - 2)
    lower("inner_circle_min_above_8Rk", lo, e1 + 3)

    lo, hi = _circle_extrema(m, e1 + LOG2_3_5, samples)
    lower("outer_circle_min_above_4Rk1", lo, e2 + 2)
    upper("outer_circle_max_below_eighth_Rk2", hi, e3 - 3)

    for name, rho in (
        ("gap_inner_circle", Fraction(e1 + 2)),
        ("gap_outer_circle", Fraction(e2 - 2)),
        ("ring54_circle", e1 + const_log2_frac(5, 4)),
    ):
        lo, hi = _circle_extrema(m, rho, samples)
        lower(f"{name}_min_above_8Rk1", lo, e2 + 3)
        upper(f"{name}_max_below_eighth_Rk2", hi, e3 - 3)

    lo, hi = _petal_boundary_extrema(m, k)
    lower("petal_boundary_min_above_4Rk1", lo, e2 + 2)
    upper("petal_boundary_max_below_quarter_Rk2", hi, e3 - 2)
    return rep


def check_singular_values(m: ModelMap) -> CertificateReport:
    """Every critical value of every piece lands in the asserted escape gap."""
    t = m.table
    rep = CertificateReport("singular values")
    lm = qN_landmarks(m)
    # every row decided in integers over its sides' denominators, rendered by n / d
    n, d = lm.first_crit_value.rho.as_integer_ratio()   # every critical value's modulus
    lo, hi2 = t.r_exp(t.N) + 3, 2 * t.r_exp(t.N + 1) - 9   # 8 r_N, and twice r_{N+1} / 16 sqrt 2
    rep.add("poly_crit_values_above_8rN", t.N, n > lo * d, f"{n / d:.6f}", f"{float(lo):.6f}")
    rep.add("poly_crit_values_below_rN1_16sqrt2", t.N, 2 * n < hi2 * d,
            f"{n / d:.6f}", f"{hi2 / 2:.6f}")

    a, b = pi_over_ln2_frac(2).as_integer_ratio()   # log2 e**(pi/2)
    for k in range(1, min(t.kmax_shifted(), t.kmax) + 1):
        nk, r1, r2 = t.n(k), t.R_exp(k + 1), t.R_exp(k + 2)
        # exact exponent identity C_k R_k^{n_k} = 2^{n_k} R_{k+1}
        lhs = t.C_exp(k) + nk * t.R_exp(k)
        rhs = nk + r1
        rep.add("power_identity", k, lhs == rhs, lhs, rhs)
        y = (rhs - 2) * b + a   # cv b: modulus 2**cv = (e^(pi/2)/4) 2^{n_k} R_{k+1}
        rep.add("ring_crit_value_above_8Rk1", k, y > (r1 + 3) * b,
                f"{(y - r1 * b) / b:.4f}+e(R_{k + 1})", r1 + 3)
        rep.add("ring_crit_value_below_eighth_Rk2", k, y < (r2 - 3) * b, str(y // b), r2 - 3)
        # stand-in critical circle sits a 1/n_k-order factor above the ring:
        # shift = p / q - 1 / n_k, and |shift| < 1 / n_k iff |p n_k - q| < q
        p, q = pi_over_ln2_frac(4 * nk).as_integer_ratio()
        rep.add("ring_crit_point_radius_shift", k, abs(p * nk - q) < q,
                f"2^({(p * nk - q) / (q * nk):.3g}) relative", "within 2^(1/n_k)",
                note="ring radius vs blend critical circle; both reported")
    return rep


# ---------------------------------------------------------------------------
# backward construction of prescribed itineraries
# ---------------------------------------------------------------------------

def _normalize_itinerary(entries: Sequence[str]) -> List[Tuple[Region, Optional[int]]]:
    """Tags such as 'V(2)' or 'P(3,17)', each with an optional root-branch
    choice 'V(2):5', as (Region, branch or None) pairs."""
    out = []
    for s in entries:
        tag, _, br = s.partition(":")
        try:
            branch = int(br) if br else None
        except ValueError:
            raise ItineraryError(f"root branch of {s!r} is not an integer") from None
        out.append((Region.parse(tag), branch))
    return out


def region_level(r: Region) -> Optional[int]:
    return r.k if r.kind in ("A", "V", "P", "B") else None


def itinerary_precision(m: ModelMap, entries) -> List[int]:
    """Working bits needed to re-verify an itinerary by forward iteration,
    one figure per suffix: need[s] is what re-verifying entries[s:] from the
    s-th point needs.

    A step through a degree-n piece amplifies any earlier evaluation error
    by n; a petal step at level k targeting level j amplifies it by about
    2**(n_k + (log2 R_{k+1} - log2 R_j)) because the blend is evaluated that
    deep inside its zero.  Classifying the step-i tag then needs the
    error accumulated since step s below the tag's own resolution.  An
    evaluation error made at step s is covered by need[s] whatever the
    precision of the steps after it, so step s of the re-verification runs
    at need[s] bits.  need[0] is the figure for the whole itinerary: the
    construction runs at it and the budget is checked against it.  The
    list never increases.
    """
    t = m.table
    amp: List[int] = []
    tol: List[int] = []
    for i, (reg, _) in enumerate(entries):
        k = reg.k
        if reg.kind == "V":
            amp.append(t.N + k - 1)
            tol.append(16)
            continue
        if i + 1 < len(entries):
            jlvl = region_level(entries[i + 1][0])
        else:
            jlvl = k + 1
        gap = 0
        if jlvl is not None and jlvl <= k + 1:
            gap = max(0, t.R_exp(k + 1) - t.R_exp(jlvl))
        amp.append(t.n(k) + gap + 8)
        tol.append(t.n(k) + 8)
    # reach: the largest amplification from step s to a later tag plus that
    # tag's resolution and 128 bits
    need: List[int] = []
    reach = -math.inf
    for a, tl in zip(reversed(amp), reversed(tol)):
        reach = max(tl + 128, a + reach)
        need.append(max(192, reach))
    return need[::-1]


def itinerary_orbit(m: ModelMap, z: LogPolar, itinerary: Sequence[str]) -> OrbitRecord:
    """The forward orbit of z over one step per itinerary entry, checked
    against the entries' tags; the first step whose region differs raises
    ItineraryError naming it.

    This is how backward_construct re-verifies its point: step s runs at
    need[s] bits of :func:`itinerary_precision` (or m's own, if higher), and
    the angle budget, which the whole orbit spends, is raised to
    need[0] + 64.  Step 0 is the only evaluation at need[0] bits."""
    entries = _normalize_itinerary(itinerary)
    need = itinerary_precision(m, entries)
    if need[0] + 64 > m.ang_bits:
        m = dataclasses.replace(m, ang_bits=need[0] + 64)
    rec = iterate_orbit(m, z, nmax=len(entries), schedule=need)
    for i, ((want, _), have) in enumerate(zip(entries, rec.regions)):
        ok = want.kind == have.kind and want.k == have.k and (
            want.kind != "P" or want.j is None or want.j == have.j)
        if not ok:
            raise ItineraryError(f"verification failed at step {i}: "
                                 f"wanted {want}, got {have}")
    return rec


def backward_construct(m: ModelMap, itinerary: Sequence[str],
                       anchor: LogPolar, tol: float = 2.0 ** -64,
                       verify: bool = True,
                       budget_bits: Optional[int] = None) -> LogPolar:
    """A point whose forward orbit realizes the given region tags.

    itinerary[i] prescribes the region of f^i(z); `anchor` is the point the
    orbit reaches after the last step.  Entries are tags such as 'V(2)' or
    'P(3,17)', with an optional root-branch choice 'V(2):5'.

    The inverse steps run at need[0] working bits of
    :func:`itinerary_precision`, the figure for the whole itinerary, which
    must fit the budget.  With verify=True the point's forward orbit is then
    checked by :func:`itinerary_orbit`, where step s runs at need[s] bits:
    only the first steps of a backwards itinerary need the full figure.
    The construction evaluates no point: each inverse step decides its own
    residual, so the verification's step 0 is the one evaluation at need[0]
    bits.
    """
    entries = _normalize_itinerary(itinerary)
    if not entries:
        raise ItineraryError("empty itinerary")
    for i, (reg, _) in enumerate(entries):
        if reg.kind not in ("V", "P") or reg.k < 1:
            raise ItineraryError(f"entry {i}: only V/P tags at level >= 1 are realizable, "
                                 f"got {reg}")
        # 1 <= j <= n_k = 2**bits, without building n_k for a huge level
        bits = m.table.N + reg.k - 1
        if reg.kind == "P" and not (reg.j >= 1 and (reg.j - 1).bit_length() <= bits):
            raise ItineraryError(f"entry {i}: petal index of {reg} outside "
                                 f"1..n_{reg.k} = 2**{bits}")
    budget = budget_bits if budget_bits is not None else m.ang_bits
    need = itinerary_precision(m, entries)[0]
    if need > budget:
        raise DomainError(
            f"itinerary needs about {need} working bits, budget is {budget}; "
            "deep or backwards petal visits are out of the configured resolution")
    hi = _at_precision(m, need)
    for i in range(len(entries) - 1):
        cur, nxt = entries[i][0], entries[i + 1][0]
        lc, ln = cur.k, nxt.k
        if ln > lc + 1:
            raise ItineraryError(
                f"entry {i}: level may rise by at most one ({cur} -> {nxt})")
        if ln <= lc and cur.kind != "P":
            raise ItineraryError(
                f"entry {i}: a non-increasing step needs a petal, got {cur} -> {nxt}")
        if cur.kind == "V" and ln != lc + 1:
            raise ItineraryError(
                f"entry {i}: a V step moves up exactly one level ({cur} -> {nxt})")
    z = anchor
    for i in range(len(entries) - 1, -1, -1):
        reg, br = entries[i]
        spec = VkRoot(reg.k, br or 0) if reg.kind == "V" else PetalInverse(reg.k, reg.j)
        try:
            z = inverse_step(hi, z, spec, tol)
            if type(z) is AnchoredPoint:   # a petal step's chart, read as the point it stands for
                z = z.absolute(hi.prec)
        except NumericsError as e:
            raise type(e)(f"entry {i}: {reg}: {e}") from None
    if verify:
        itinerary_orbit(m, z, itinerary)
    return z

