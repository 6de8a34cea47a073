"""Piecewise evaluation of the model map over the whole plane.

With the correction map set to the identity, the model is

* a degree-2**N polynomial  q(z) = c_N z**(2**N) + r_N z  on |z| <= r_N - 1,
* a bump blend  g(z) = c_N z**(2**N) + r_N z eta(|z|)  on r_N - 1 <= |z| <= r_N,
* pure power maps  c_j z**(2**j)  between consecutive zero rings,
* a holomorphic zero-carrying blend on each ring  r_j <= |z| <= r_j e**(pi/M_j):

      S_j(z) = c_j z**M_j (z**M_j - Z_j) / r_j**M_j,   Z_j = -r_j**M_j e**(pi/4),

  whose M_j simple zeros sit at modulus r_j e**(pi/(4 M_j)) and angles
  (2i-1) pi / M_j -- the zero set the construction prescribes.  S_j matches
  the outer power map asymptotically (relative error e**(-3pi/4)) and
  deviates from the inner one by a factor in [e**(pi/4)-1, e**(pi/4)+1],
  i.e. under 2 bits; inclusion checks downstream carry that as an explicit
  margin.

Piece selection happens on the exact rho field, so points exponentially
close to a ring (relative distance 2**-r_N) still classify correctly.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import mpmath
from mpmath import libmp, mpf
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_div, mpf_log, mpf_sub

from .numerics import (
    ADD_GUARD,
    ANG_BITS,
    HALF,
    Angle,
    DomainError,
    FTWO,
    LogPolar,
    LpSum,
    RND,
    SIG_BITS,
    below_log2_one_minus_pow2,
    const_log2_frac,
    cpair_add_real,
    cpair_below,
    cpair_mag,
    cpair_mpc,
    cpair_mul,
    cpair_of,
    cpair_shift,
    cpair_sub,
    frac_ilog2,
    frac_to_mpf,
    lp_add,
    lp_perturb,
    lp_sub,
    mpc_mag,
    mpf_to_frac,
    pair_add,
    pair_div_int,
    pair_mpf,
    pair_of,
    pair_of_int,
    pair_round,
    pi_over_ln2_frac,
)
from .params import ParamTable

# ModelMap.deriv refuses points closer than this (log2 units) to a piece
# boundary.  The bump strip r_N - 1 <= |z| <= r_N is about 1.44 * 2**-e_N
# wide in rho (e_N >= 752), so every bump point lies inside it.
STRADDLE_MARGIN = Fraction(1, 1 << 48)

# Bits by which a seam piece may deviate from its neighbouring power maps
# (under 2 bits, see the module docstring); inclusion certificates and
# budgeted orbit classification carry it as a margin.
SEAM_MARGIN_BITS = 2.0


class AmbiguousPieceError(DomainError):
    pass


@dataclass(frozen=True)
class PieceId:
    kind: str               # 'origin' | 'bump' | 'power' | 'seam'
    index: Optional[int]    # ring index j for power/seam, N for bump

    def __str__(self):
        return self.kind if self.index is None else f"{self.kind}({self.index})"


@dataclass(frozen=True)
class AnchoredPoint:
    """z = w (1 + u)**(1/M), M = 2**ring (principal root), in the chart of
    the zero w, u a nonzero libmp pair with |u| <= 1/4, held exactly: w =
    qN_landmarks(m).zero(index) for ring 0, the origin's normal form g(u) =
    (1 + u)**M_N - 1 - u, and w = m.ring_zero(j, index) for ring j, whose
    normal form is u (1 + u) (ModelMap.eval takes both in closed form).

    An OriginBranch preimage lies |u| ~ 2**-62 from its zero at N = 5 and
    2**-4.7e10 at N = 10.  As a pair u that costs one libmp exponent, where
    the absolute LogPolar (:meth:`absolute`) needs a rho denominator of that
    many bits.  log2 |z| - w.rho = log2 |1 + u| / M and |z / w - 1| lie
    within 2**reach, reach = mpc_mag(u) + 1 - ring: for x = |u| <= 1/4, |L|
    = |log(1 + u)| <= 4x/3, so |Re L| / (M ln 2) and |e**(L/M) - 1| are
    under 2x / M.
    """
    index: int
    zero: LogPolar
    u: Tuple[tuple, tuple]
    ring: int = 0
    is_zero = False

    def __post_init__(self):
        if not (self.u[0][1] or self.u[1][1]) or mpc_mag(self.u) > -2:
            raise DomainError("an anchored point needs 0 < |u| <= 1/4")

    def reach(self) -> int:
        return mpc_mag(self.u) + 1 - self.ring

    def below(self, x: Union[Fraction, int]) -> bool:
        """Every log2 |z| of the enclosure is below x (above x: :meth:`above`):
        x - w.rho >= 2**reach, decided exactly without building that power."""
        return self._clears(x - self.zero.rho)

    def above(self, x: Union[Fraction, int]) -> bool:
        return self._clears(self.zero.rho - x)

    def _clears(self, d: Fraction) -> bool:
        return d > 0 and frac_ilog2(d) >= self.reach()

    def absolute(self, prec: int) -> LogPolar:
        """z as a LogPolar, ``lp_perturb(w**M, u, prec).root(M, index - 1)``
        (``lp_perturb(w, u, prec)`` at the origin): past the exponent budget
        (|u| < 2**-MAX_EXP_BITS, every origin step from N = 8 on) it raises
        ExponentBudgetError."""
        if not self.ring:
            return lp_perturb(self.zero, self.u, prec)
        M = 1 << self.ring
        return lp_perturb(self.zero.pow_int(M), self.u, prec).root(M, self.index - 1)


Point = Union[LogPolar, AnchoredPoint]


def origin_binomials(N: int, u, wp: int) -> List[int]:
    """[C(M, k) for 0 <= k <= K], M = 2**N: the binomial terms of g(u) =
    (1 + u)**M - 1 - u that :func:`origin_g` sums at wp bits.

    g = (M - 1) u + sum_{2<=k<=M} C(M, k) u**k.  Where M|u| <= 2**-a, a >= 1,
    term k is at most (M|u|)**(k-1) M / ((M - 1) k!) <= 2**-a(k-1) / (k-1)!
    times the linear one, so K = max(2, ceil(wp / a)) leaves a tail under
    2**-aK <= 2**-wp of it: K = 3 at N = 5 and 128 bits, K = 2 from N = 6
    on.  With a = -(N + mag(u)) <= 0 every term is kept (K = M) and the
    sum is the whole polynomial.  u is a complex of integer pairs.
    """
    M = 1 << N
    a = -(N + cpair_mag(u))
    K = min(M, max(2, -(-wp // a))) if a > 0 else M
    return [math.comb(M, k) for k in range(K + 1)]


def origin_g(u, coef: List[int], wp: int, slope: bool = False):
    """g(u) = u (M - 1 + u s), s = sum_{2<=k<=K} C(M, k) u**(k-2), or g'(u) = M
    - 1 + u s', s' = sum k C(M, k) u**(k-2) with slope, coef =
    :func:`origin_binomials`, by Horner on complex integer pairs at wp bits,
    each constant read as ``from_int`` reads it."""
    K = len(coef) - 1
    c = [k * x for k, x in enumerate(coef)] if slope else coef
    s = pair_of_int(c[K]), (0, 0)
    for k in range(K - 1, 1, -1):
        s = cpair_add_real(cpair_mul(s, u, wp), pair_of_int(c[k]), wp)
    s = cpair_add_real(cpair_mul(u, s, wp), pair_of_int(coef[1] - 1), wp)
    return s if slope else cpair_mul(u, s, wp)


def residual_below(u, tau, bits, exact: int, wp: int, coef: Optional[List[int]] = None,
                   res=None) -> bool:
    """|n(u) - tau| <= 2**-bits |tau| for the normal form n of w (1 + u) at a
    zero: g (:func:`origin_g`) at the origin's, u (1 + u) at a ring's (coef
    None), by :func:`cpair_below` on res = n(u) - tau at wp bits (taken here
    unless given), u and tau complex integer pairs.  Refused past `exact`
    bits, the caller's proven accuracy of its tau and point, where a decision
    could accept on rounding alone."""
    if bits > exact:
        return False
    if res is None:
        n = origin_g(u, coef, wp) if coef else cpair_mul(u, cpair_add_real(u, (1, 0), wp), wp)
        res = cpair_sub(n, tau, wp)
    return cpair_below(res, tau, bits, wp)


def table_consts(t: ParamTable, key, build):
    """build() of a value of table t alone (or at a working precision the key
    names), run once and stored on t, which models of any precision share."""
    store = getattr(t, "_consts", None)
    if store is None:   # t is frozen; reading t.__dict__ would slow its attribute reads
        object.__setattr__(t, "_consts", store := {})
    return store[key] if key in store else store.setdefault(key, build())


@dataclass(frozen=True)
class ModelMap:
    table: ParamTable
    prec: int = SIG_BITS
    guard: int = ADD_GUARD
    ang_bits: int = ANG_BITS   # angle resolution orbits and pullbacks budget against

    # -- ring geometry -------------------------------------------------------

    def seam_top(self, j: int) -> Fraction:
        """log2 of the outer radius r_j e**(pi/M_j) of ring j."""
        return self.table.r_exp(j) + pi_over_ln2_frac(1 << j)

    def zcap_log2(self, j: int) -> Fraction:
        """log2 |Z_j| = M_j log2 |zeta_j|, i.e. M_j (log2 r_j + pi/(4 M_j ln 2)).

        Defined through the quantized ring-zero radius so that zeta_j**M_j
        reproduces Z_j exactly and the zero set is exact by construction.
        """
        return (1 << j) * self.ring_zero_rho(j)

    def zcap(self, j: int) -> LogPolar:
        return LogPolar(self.zcap_log2(j), HALF)

    def ring_zero_rho(self, j: int) -> Fraction:
        t = self.table
        return table_consts(t, ("zero_rho", j), lambda: t.r_exp(j) + pi_over_ln2_frac(4 << j))

    def ring_zero(self, j: int, i: int) -> LogPolar:
        """i-th zero on ring j, i = 1..M_j; angle (2i-1)/(2 M_j) turns; a table constant."""
        Mj = 1 << j
        if not 1 <= i <= Mj:
            raise DomainError(f"zero index {i} out of range for ring {j}")
        return table_consts(self.table, ("zero", j, i), lambda: LogPolar(
            self.ring_zero_rho(j), Fraction(2 * i - 1, 2 * Mj)))

    # -- piece selection ------------------------------------------------------

    def _below_origin_top(self, rho: Fraction) -> bool:
        """rho < log2(r_N - 1), decided exactly.

        The threshold sits in (-2**(1-eN), -2**-eN) below eN; a dyadic rho
        whose resolution is coarser than 2**-(eN-2) cannot land in between,
        so the comparison reduces to a sign test unless rho is ultra-fine.
        An ultra-fine rho is compared against the series of the threshold
        in integer fixed point (:func:`below_log2_one_minus_pow2`).
        """
        eN = self.table.r_exp(self.table.N)
        if rho.numerator >= eN * rho.denominator:
            return False
        if eN > rho.denominator.bit_length() + 4 or eN.bit_length() > 30:
            return True
        return below_log2_one_minus_pow2(rho - eN, eN)

    def _cuts(self):
        """(threshold, piece) pairs above r_N, ascending, and the thresholds'
        integer parts: table constants (:func:`table_consts`)."""
        return table_consts(self.table, "cuts", self._build_cuts)

    def _build_cuts(self):
        t, cuts = self.table, []
        for j in range(t.N, t.jmax):
            cuts.append((self.seam_top(j), PieceId("seam", j)))
            cuts.append((Fraction(t.r_exp(j + 1)), PieceId("power", j + 1)))
        return cuts, [c.numerator // c.denominator for c, _ in cuts]

    def piece_of(self, z_or_rho) -> PieceId:
        """The piece whose closed annulus in rho holds z (or rho), the lower
        one on a shared boundary.  Thresholds are compared on integer parts
        first, and as exact rationals only when the integer parts tie.  An
        AnchoredPoint is on the origin piece when its enclosure lies below
        e_N - 1 < log2(r_N - 1), on seam piece j when it lies above r_j and
        below the seam's top (a ring zero sits 1.13 / M_j above r_j, and
        2**reach <= 1 / (2 M_j)), and raises DomainError otherwise."""
        t = self.table
        N = t.N
        if type(z_or_rho) is AnchoredPoint:
            z, j = z_or_rho, z_or_rho.ring
            if not j and z.below(t.r_exp(N) - 1):
                return PieceId("origin", None)
            if j and z.above(t.r_exp(j)) and z.below(self.seam_top(j)):
                return PieceId("seam", j)
            raise DomainError("anchored point's enclosure reaches past its piece")
        if isinstance(z_or_rho, LogPolar) and z_or_rho.is_zero:
            return PieceId("origin", None)
        rho = z_or_rho.rho if isinstance(z_or_rho, LogPolar) else Fraction(z_or_rho)
        ri = rho.numerator // rho.denominator
        if ri < t.r_exp(N) and self._below_origin_top(rho):
            return PieceId("origin", None)
        if ri < t.r_exp(N) or rho == t.r_exp(N):
            return PieceId("bump", N)
        cuts, floors = self._cuts()
        # below every cut of a larger integer part, above every smaller one
        lo = bisect.bisect_left(floors, ri)
        while lo < len(cuts) and floors[lo] == ri and rho > cuts[lo][0]:
            lo += 1
        if lo == len(cuts):
            raise DomainError(f"|z| beyond built table (rho ~ 2^{ri})")
        return cuts[lo][1]

    # -- evaluation -----------------------------------------------------------

    def _eval_origin(self, z: LogPolar) -> LpSum:
        t = self.table
        N = t.N
        if z.is_zero:
            return LpSum(LogPolar.zero_point())
        t1 = LogPolar(t.c_exp(N) + (1 << N) * z.rho, z.theta.mul_int(1 << N))
        t2 = LogPolar(t.r_exp(N) + z.rho, z.theta)
        return lp_add(t1, t2, guard=self.guard, prec=self.prec)

    def _eval_anchored(self, z: AnchoredPoint) -> LogPolar:
        """q(w (1 + u)) = -r_N w g(u) at the origin, S_j(z) = c_j r_j**(-M_j)
        Z_j**2 u (1 + u) on ring j, in closed form.

        Proof: q(z) = c_N z**M + r_N z and c_N w**(M-1) = -r_N, so c_N z**M =
        -r_N w (1 + u)**M and q(z) = -r_N w ((1 + u)**M - (1 + u)); on ring j,
        v = z**M_j = Z_j (1 + u) as w**M_j = Z_j, and S_j = c_j r_j**(-M_j) v
        (v - Z_j).  The identity on w is checked on its exact (rho, turns): D
        w.rho = e_N - eps_N (D = M - 1) or log2 |Z_j| (D = M_j), and 2 D turns
        is an odd integer.

        The normal form, g(u) (:func:`origin_g`, the sum the origin step
        solves) or u (1 + u), is taken at wp = prec + 32 bits; scaled by
        2**-mag (exact) it has modulus in (1/4, 1], and one
        LogPolar.from_mpc at prec + 16 bits reads its log2 modulus and turns
        to within a few units of 2**-(prec + 14).  A g that rounds to 0 (z
        another zero, w times an (M - 1)-th root of unity) gives 0.
        """
        t, w, j = self.table, z.zero, z.ring
        N = t.N
        D, top = (1 << j, self.zcap_log2(j)) if j else ((1 << N) - 1, t.r_exp(N) - t.c_exp(N))
        x = 2 * D * w.theta.turns
        if D * w.rho != top or x.denominator != 1 or not x.numerator & 1:
            raise DomainError(f"anchor {w} is not a zero of the model at ring {j}, N = {N}")
        wp, u = self.prec + 32, cpair_of(z.u)
        if j:
            base, turns = self.seam_zero_log2_base(j), 0
            n = cpair_mul(u, cpair_add_real(u, (1, 0), wp), wp)
        else:
            n = origin_g(u, origin_binomials(N, u, wp), wp)
            base, turns = t.r_exp(N) + w.rho, w.theta.turns + HALF
        if not (n[0][0] or n[1][0]):
            return LogPolar.zero_point()
        e = cpair_mag(n)
        v = LogPolar.from_mpc(cpair_mpc(cpair_shift(n, -e)), self.prec)
        return LogPolar(base + e + v.rho, Angle(turns + v.theta.turns))

    def _eval_power(self, z: LogPolar, j: int) -> LogPolar:
        Mj = 1 << j
        return LogPolar(self.table.c_exp(j) + Mj * z.rho, z.theta.mul_int(Mj))

    def _eval_seam(self, z: LogPolar, j: int) -> LogPolar:
        t = self.table
        Mj = 1 << j
        v = z.pow_int(Mj)
        # Z_j is real and negative, so -Z_j = |Z_j|
        diff = lp_add(v, LogPolar(self.zcap_log2(j)), guard=max(self.guard, Mj + 64),
                      prec=self.prec).value
        if diff.is_zero:
            return LogPolar.zero_point()
        return v.mul(diff).mul_pow2(t.c_exp(j) - Mj * t.r_exp(j))

    def seam_zero_log2_base(self, j: int) -> Fraction:
        """c_j - M_j log2 r_j + 2 log2 |Z_j|, exact: the constant part of
        log2 |S_j| near the zeros of ring j (see :meth:`seam_zero_offset_ln`)."""
        t = self.table
        return t.c_exp(j) - (1 << j) * t.r_exp(j) + 2 * self.zcap_log2(j)

    def seam_zero_offset_ln(self, j: int, x: tuple) -> tuple:
        """Re L + ln |e**L - 1|, L = M_j log(1 + x), for a real libmp mpf x,
        0 < |x| < 1, as an mpf of wp = prec + 32 bits.

        At z = zeta (1 + x), zeta a zero of ring j, zeta**M_j = Z_j exactly,
        so z**M_j - Z_j = Z_j (e**L - 1) and log2 |S_j(z)| is
        seam_zero_log2_base(j) plus this value over ln 2.  Every step is
        rounded to nearest at wp bits: those of ``numerics.log1p_mpc`` and
        ``numerics.expm1_series`` (``mpf_log`` and ``mpf_exp``, or below
        2**-16 their series, whose depth follows the scale of the argument)
        on the pair (x, 0), each reduced exactly to the real one (``mpc_exp``
        and ``mpf_hypot`` special-case a zero imaginary part; a product of
        pairs is exact before rounding), so the value is bit for bit theirs.
        The series run on integer pairs (``numerics.pair_add``), the logs and
        the exponential on libmp.
        """
        wp, mag = self.prec + 32, x[2] + x[3]
        if mag > -16:
            L = pair_of(mpf_log(mpf_add(x, fone, wp, RND), wp, RND))
        else:
            xm, xe = pair_of(x)
            L = term = 1, 0
            neg = pair_round(-xm, xe, wp)
            for i in range(2, max(1, (self.prec + 48) // max(15, -mag)) + 2):
                term = pair_round(term[0] * neg[0], term[1] + neg[1], wp)
                L = pair_add(*L, *pair_div_int(*term, i, wp), wp)
            L = pair_round(xm * L[0], xe + L[1], wp)
        # L times 2**j: exact, as mpf_mul_int rounds no bit of a wp-bit mantissa
        L = (L[0], L[1] + j) if L[0] else L
        lmag = L[1] + abs(L[0]).bit_length()
        if lmag > -16:
            e = mpf_sub(libmp.mpf_exp(pair_mpf(*L), wp, RND), fone, wp, RND)
        else:
            e = term = 1, 0
            for i in range(2, max(2, (self.prec + 48) // -lmag + 1) + 2):
                term = pair_div_int(*pair_round(term[0] * L[0], term[1] + L[1], wp), i, wp)
                e = pair_add(*e, *term, wp)
            e = pair_mpf(*pair_round(L[0] * e[0], L[1] + e[1], wp))
        if not e[1]:  # x = 0, or zeta (1 + x) another zero of the ring
            raise DomainError(f"point is a zero of ring {j}")
        return mpf_add(pair_mpf(*L), mpf_log(mpf_abs(e, wp, RND), wp, RND), wp, RND)

    def radial_log2(self, rho: Fraction) -> Optional[Fraction]:
        """log2 |f| on the circle |z| = 2**rho when it is the same at every
        angle, else None.

        On a power piece |f| = |c_j| |z|**M_j.  On the origin piece the ratio
        |r_N z| / |c_N z**M_N| depends on rho alone, so whether lp_add drops
        one term as negligible is decided the same way at every angle, and
        then |f| is the modulus of the dominant term.
        """
        piece = self.piece_of(rho)
        z = LogPolar(rho, 0)
        if piece.kind == "power":
            return self._eval_power(z, piece.index).rho
        if piece.kind == "origin":
            s = self._eval_origin(z)
            if s.negligible:
                return s.value.rho
        return None

    def eval(self, z: Point) -> Tuple[LogPolar, PieceId]:
        piece = self.piece_of(z)
        if type(z) is AnchoredPoint:
            return self._eval_anchored(z), piece
        if piece.kind == "origin":
            return self._eval_origin(z).value, piece
        if piece.kind == "bump":
            return eval_bump_gk(self, z), piece
        if piece.kind == "power":
            return self._eval_power(z, piece.index), piece
        return self._eval_seam(z, piece.index), piece

    # -- derivative -----------------------------------------------------------

    def boundary_distance(self, rho: Fraction) -> Fraction:
        """Distance in log2 units from rho to the nearest piece boundary."""
        d = abs(rho - self.table.r_exp(self.table.N))
        return min(d, min(abs(rho - c) for c, _ in self._cuts()[0]))

    def deriv(self, z: LogPolar) -> Tuple[LogPolar, PieceId]:
        piece = self.piece_of(z)
        t = self.table
        if not z.is_zero and piece.kind != "origin":
            if self.boundary_distance(z.rho) < STRADDLE_MARGIN:
                below = self.piece_of(z.rho - STRADDLE_MARGIN)
                above = self.piece_of(z.rho + STRADDLE_MARGIN)
                raise AmbiguousPieceError(
                    f"{piece} point within guard of the boundary between "
                    f"{below} and {above}")
        if piece.kind == "power":
            Mj = 1 << piece.index
            return (LogPolar(t.c_exp(piece.index) + piece.index + (Mj - 1) * z.rho,
                             z.theta.mul_int(Mj - 1)), piece)
        if piece.kind == "origin":
            N = t.N
            if z.is_zero:
                return LogPolar(Fraction(t.r_exp(N)), 0), piece
            t1 = LogPolar(t.c_exp(N) + N + ((1 << N) - 1) * z.rho,
                          z.theta.mul_int((1 << N) - 1))
            t2 = LogPolar(Fraction(t.r_exp(N)), 0)
            return lp_add(t1, t2, guard=self.guard, prec=self.prec).value, piece
        # seam piece (the bump strip raised above)
        j = piece.index
        Mj = 1 << j
        v = z.pow_int(Mj)
        w = lp_sub(v.mul_pow2(1), self.zcap(j),
                   guard=max(self.guard, Mj + 64), prec=self.prec)
        lead = LogPolar(t.c_exp(j) + j + (Mj - 1) * z.rho - Mj * t.r_exp(j),
                        z.theta.mul_int(Mj - 1))
        return lead.mul(w.value), piece


def eval_bump_gk(m: ModelMap, z: LogPolar) -> LogPolar:
    """The model's bump blend g_N(z) = c_N z**M_N + r_N z eta_N(|z|), at any z.

    eta_N is 1 below |z| = r_N - 1 and 0 above r_N; on the strip it follows
    the bump profile in the shifted coordinate s = |z| - (r_N - 1), computed
    from the exact rho so the strip is resolvable at any scale.
    """
    t = m.table
    k = t.N
    Mk = 1 << k
    if z.is_zero:
        return LogPolar.zero_point()
    t1 = LogPolar(t.c_exp(k) + Mk * z.rho, z.theta.mul_int(Mk))
    d = z.rho - t.r_exp(k)
    if d >= 0:
        return t1
    s = _strip_s_for(t, k, z, m.prec)
    l2eta = bump_log2(s)
    if l2eta is None:
        return t1
    t2 = LogPolar(t.r_exp(k) + z.rho + mpf_to_frac(l2eta), z.theta)
    return lp_add(t1, t2, guard=m.guard, prec=m.prec).value


def _strip_s_for(t, k: int, z: LogPolar, prec: int) -> mpf:
    """s = |z| - (r_k - 1) in [0, 1] for a point in the ring-k bump strip."""
    ek = t.r_exp(k)
    d = z.rho - ek
    with mpmath.workprec(prec + 32):
        v = mpmath.expm1(mpmath.mp.make_mpf(frac_to_mpf(d, prec + 32)) * mpmath.ln(2))
        s = 1 + mpmath.ldexp(v, ek)
        return min(max(s, mpf(0)), mpf(1))


# ---------------------------------------------------------------------------
# bump profile
# ---------------------------------------------------------------------------

def bump_log2(s) -> Optional[mpf]:
    """log2 b(s), or None where b = 0; stays finite arbitrarily close to 1."""
    s = mpf(s)
    if s >= 1:
        return None
    if s <= 0:
        return mpf(0)
    return (1 + 1 / (s * s - 1)) / mpmath.ln(2)


def bump_deriv_log2(s) -> Optional[mpf]:
    """log2 |b'(s)| with b'(s) = -b(s) * 2s / (s**2-1)**2; None where it vanishes."""
    s = mpf(s)
    if s <= 0 or s >= 1:
        return None
    lb = bump_log2(s)
    return lb + (mpmath.log(2 * s) - 2 * mpmath.log((1 - s * s))) / mpmath.ln(2)


BUMP_DERIV_ARGMAX = (1.0 / 3.0) ** 0.25  # |b'| peaks here, value < e


# ---------------------------------------------------------------------------
# polynomial landmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyLandmarks:
    """Nonzero zeros, critical points and critical values of the origin
    polynomial q(z) = c_N z**M_N + r_N z, indexed i = 1..M_N - 1.

    Zeros and critical points share the angles (2i-1)/(2(M_N-1)) turns, so
    each is a closed form like ModelMap.ring_zero; critical value i is
    critical value 1 rotated by (i-1)/(M_N-1) turns (see qN_landmarks).
    """
    degree: int               # M_N - 1
    zero_rho: Fraction
    crit_rho: Fraction
    first_crit_value: LogPolar   # q(crit_point(1))
    deriv_at_zero: LogPolar   # q'(zero_i) = r_N (1 - M_N), the same for every i

    def _turns(self, i: int) -> Fraction:
        if not 1 <= i <= self.degree:
            raise DomainError(f"landmark index {i} out of range 1..{self.degree}")
        return Fraction(2 * i - 1, 2 * self.degree)

    def zero(self, i: int) -> LogPolar:
        return LogPolar(self.zero_rho, self._turns(i))

    def crit_point(self, i: int) -> LogPolar:
        return LogPolar(self.crit_rho, self._turns(i))

    def crit_value(self, i: int) -> LogPolar:
        cv = self.first_crit_value
        return LogPolar(cv.rho, cv.theta.add(Angle(self._turns(i) - self._turns(1))))


def qN_landmarks(m: ModelMap) -> PolyLandmarks:
    """Landmarks of the origin polynomial, from one evaluation.

    zeros:        (-r_N/c_N)**(1/(M_N-1)),        M_N - 1 of them
    crit points:  (-r_N/(c_N M_N))**(1/(M_N-1))
    crit values:  modulus (r_N/(c_N M_N))**(1/(M_N-1)) r_N (1 - 1/M_N)
    q'(0) = r_N;  q' at each nonzero zero = r_N (1 - M_N), real negative.

    At critical point i, w_i = |w| e**(2 pi i theta_i) with theta_i =
    (2i-1)/(2(M_N-1)), the power term c_N w_i**M_N differs from the linear
    term r_N w_i by exactly drho = -N in log2 modulus and dtheta = M_N
    theta_i - theta_i = i - 1/2 = 1/2 turn.  lp_add anchors on the larger
    term, here the linear one, and its result depends on (drho, dtheta)
    alone; it adds that result's rho and turn offset to the anchor.  So q(w_i)
    is q(w_1) turned by theta_i - theta_1 = (i-1)/(M_N-1), bit for bit, and
    one eval of critical point 1 stands for all M_N - 1.

    Built once per model and stored on it (it depends on the precision).
    """
    cache = getattr(m, "_qN_landmarks", None)
    if cache is not None:
        return cache
    t = m.table
    N = t.N
    d = (1 << N) - 1
    zero_rho = Fraction(t.r_exp(N) - t.c_exp(N), d)
    crit_rho = Fraction(t.r_exp(N) - t.c_exp(N) - N, d)
    cv1, _ = m.eval(LogPolar(crit_rho, Fraction(1, 2 * d)))
    dz = LogPolar(t.r_exp(N) + const_log2_frac(d, 1), Fraction(1, 2))
    cache = PolyLandmarks(d, zero_rho, crit_rho, cv1, dz)
    object.__setattr__(m, "_qN_landmarks", cache)
    return cache


# ---------------------------------------------------------------------------
# dilatation of the bump blend
# ---------------------------------------------------------------------------

DILATATION_GRID = 64   # |mu| is sampled at s = i / DILATATION_GRID, 0 < i < 64


@dataclass(frozen=True)
class DilatationReport:
    k: int
    sup_log2: float

    @property
    def below_one(self) -> bool:
        return self.sup_log2 < 0.0


@functools.lru_cache(maxsize=None)
def _bump_grid_max_log2() -> Tuple[float, float]:
    """(max log2 b, max log2 |b'|) over the grid s = i / DILATATION_GRID,
    0 < i < DILATATION_GRID, as floats; computed once per process at 53
    bits, mpmath's default precision, whatever the caller's context."""
    with mpmath.workprec(53):
        grid = [i / DILATATION_GRID for i in range(1, DILATATION_GRID)]
        return (max(float(bump_log2(s)) for s in grid),
                max(float(bump_deriv_log2(s)) for s in grid))


def dilatation_sup(m: ModelMap, k: int) -> DilatationReport:
    """Grid supremum of |mu| = |g_zbar / g_z| for the blend at ring k.

    Magnitude ratios run in exponent arithmetic, as floats.  At grid point s
    the numerator is |r_k z eta_zbar|, log2 = 2 e_k + log2|b'(s)| - 1, and
    the denominator is the leading term |M_k c_k z**(M_k-1)|, log2 = lead,
    less the two blend terms |r_k eta| and |r_k z eta_z| at gaps g2, g3 below
    it: den = lead + log2(1 - 2**g2 - 2**g3).

    On every ring k >= 5 both gaps are below -20000 bits, so the 2**g values
    underflow to 0.0 and den equals lead exactly; any gap <= -64 already
    leaves 1 - 2**g2 - 2**g3 == 1.0 in floats.  What remains, num - lead,
    is a chain of float additions of constants to log2|b'(s)|, each monotone
    non-decreasing, so its maximum over the grid is the same expression at
    the largest grid value of log2|b'|.  The gaps are monotone in log2 b and
    log2|b'| in the same way, so checking them at the two grid maxima checks
    every grid point; a gap above -64 bits raises DomainError.  Each ring
    therefore costs one float expression on two values computed once.
    """
    if k < 5:
        raise DomainError("blend dilatation defined for ring index >= 5")
    t = m.table
    ek, epsk, Mk = t.r_exp(k), t.c_exp(k), 1 << k
    lead = _f(epsk + k + (Mk - 1) * ek)  # |M_k c_k z^(M_k-1)| at |z| ~ r_k
    lb_max, ld_max = _bump_grid_max_log2()
    num_log2 = 2.0 * _f(ek) + ld_max - 1.0                     # |r_k z eta_zbar|
    gap = max(_f(ek) + lb_max, num_log2) - lead
    if gap > -64.0:
        raise DomainError(
            f"blend terms within {-gap:.1f} bits of the leading term at ring {k}")
    return DilatationReport(k=k, sup_log2=num_log2 - lead)


def dilatation_onset(m: ModelMap, khi: int) -> int:
    """Smallest ring index >= 5 from which every sampled |mu| stays below 1."""
    kp = None
    for k in range(min(khi, m.table.jmax - 1), 4, -1):
        if dilatation_sup(m, k).below_one:
            kp = k
        else:
            break
    if kp is None:
        raise DomainError("no onset index found")
    return kp


def _f(e: int) -> float:
    """Exponent to float, guarded: float paths are only valid while the
    exponent value itself is in float range."""
    if abs(e).bit_length() > 1000:
        raise DomainError("exponent too large for the float reporting path")
    return float(e)


# ---------------------------------------------------------------------------
# seam deviation from the neighbouring power maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeamMismatch:
    j: int
    inner_max_log2_ratio: float
    outer_max_log2_ratio: float


def seam_mismatch(m: ModelMap, j: int) -> SeamMismatch:
    """Max over the whole circle of |log2(S_j / adjacent power map)| on both
    seam circles.  Inner bound ~log2(e**(pi/4)+1) < 2; outer
    ~log2(1+e**(-3pi/4)) < 0.15, independent of j up to 1/M_j terms.

    The ratio is |v - Z_j| / |v| (inner: / r_j**M_j) with v = z**M_j, and it
    depends on z only through psi = M_j theta mod 1.  Z_j = -|Z_j|, so
    |v - Z_j| = |v| |1 + 2**d e**(-2 pi i psi)|, d = log2 |Z_j| - log2 |v|
    exact, which decreases in psi on [0, 1/2] and is even in psi: its log2
    takes its largest absolute value at psi = 0 or psi = 1/2, the only two
    points evaluated, where it is log2 (1 + 2**d) and log2 |1 - 2**d|.
    Each is taken on mpfs at prec + 32 bits, rounded to nearest, and read
    as the nearest float.
    """
    wp = m.prec + 32
    ln2 = libmp.mpf_ln2(wp, RND)

    def deviation(rho) -> float:
        x = libmp.mpf_pow(FTWO, frac_to_mpf(m.zcap_log2(j) - rho, wp - 8), wp, RND)
        return max(abs(libmp.to_float(mpf_div(mpf_log(mpf_abs(s), wp, RND), ln2, wp, RND), rnd=RND))
                   for s in (mpf_add(fone, x, wp, RND), mpf_sub(fone, x, wp, RND)))

    Mj = 1 << j
    return SeamMismatch(j, deviation(Mj * m.table.r_exp(j)), deviation(Mj * m.seam_top(j)))
