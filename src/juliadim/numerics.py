"""Exact-exponent log-polar complex arithmetic.

The magnitudes in this project span ranges like 2**(2**60), so no fixed
floating-point format can hold them.  Numbers are therefore kept in log2
space:

* a positive real magnitude is stored as an exact log2: an ``int`` for a
  pure power of two, a ``Fraction`` otherwise, whose integer part is an
  arbitrary-size integer;
* an angle is an exact rational number of turns in [0, 1).

All structural arithmetic (multiplying, powering, extracting roots,
comparing) is exact.  Transcendental entry points round at a stated
precision back into exact dyadic rationals, so every exponent comparison
downstream stays exact.  A sum is :func:`lp_perturb` of its ratio, whose
log(1 + u) is the integer kernel :func:`log2_abs_1p_int` or, for |u| <
2**-16, the :func:`log1p_mpc` series; the kernel takes a batch of u (a
curve node's leaves).  All of it is immutable and thread-safe.

A canonical ``Fraction`` is never rebuilt: ``LogPolar`` and ``Angle`` keep
the one they are handed, and an angle outside [0, 1) is wrapped by
subtracting its integer floor.  A sum or difference of two values whose
denominators are powers of two, neither 1, is formed in integers
(:func:`frac_add`): both are shifted to the larger denominator 2**k and
added.  Over unequal denominators the sum is odd, so already reduced; over
equal ones it is stripped of min(trailing zeros, k) bits.  That is the
whole common factor, as the only prime in 2**k is 2, so the result is the
reduced ``Fraction`` a gcd would give, built without one through
``_Lowest``, as ``_dyadic``, ``_frac_of`` and :func:`frac_quantize` build
theirs; every other pair takes ``Fraction``'s own arithmetic.  Routing
tests (``lp_add``'s regimes,
``expm1_lp``'s wrap and series switch, the exponent budget) are integer
tests on numerators and denominators, and comparisons against thresholds
decide on integer parts first and compare rationals only on a tie
(``ModelMap.piece_of``).

The transcendental kernels run on mpmath's libmp tuples (an mpf is (sign,
man, exp, bc), an mpc a pair of them), each at an explicit precision with
round-to-nearest, never at mpmath's ambient one: ``LogPolar.from_mpc`` and
:func:`polar_pair` (2**d e**(2 pi i t) into pairs, around libmp's fixed-point
exp and cos/sin) at prec + 16 bits, :func:`log1p_mpc` and :func:`lp_perturb`
at prec + 32, :func:`expm1_lp` at prec + 64 and :func:`expm1_series` at the
wp its caller names.  Each gives, bit for bit, what the mpc/mpf expressions
they replaced gave under ``mpmath.workprec``.

Series, Horner sums and Newton updates (here, in ``dynamics``' inverse
steps and in ``modelmap``'s normal forms) run on integer pairs instead: a
real is (m, e), the dyadic m 2**e in libmp's canonical form (m odd, or (0,
0)), a complex a pair of them.  Each pair op returns, tuple for tuple, what
the libmp op it names returns at wp bits with round_nearest: the exact
result (products exact, sums exact before rounding) rounded once to
nearest, ties to even, a quotient to wp + 5 or more bits with a sticky bit
below them, and :func:`pair_add` takes ``mpf_add``'s shortcut for an
operand whose exponent is more than 100 and whose magnitude is more than wp
+ 4 bits above the other's, which rounds that operand moved one unit
toward the other, not the exact sum.  An op is one Python call or two,
where libmp's makes a chain of them.  Pairs meet libmp tuples only where
libmp still works: transcendentals
(``from_mpc``, ``mpf_log``, ``mpf_exp``), a stored
``AnchoredPoint.u``, and the two ops that round inside, ``mpc_div`` (a
Newton division) and ``mpc_abs`` (:func:`cpair_below`'s close case).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

import mpmath
from mpmath import libmp, mpc, mpf
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_abs, mpf_add, mpf_div, mpf_le, mpf_ln2,
                          mpf_log, mpf_mul, mpf_pi, mpf_shift)
from mpmath.libmp.libelefun import (LOG_TAYLOR_PREC, cos_sin_basecase, exp_basecase, ln2_fixed,
                                    log_taylor_cached, pi_fixed)

SIG_BITS = 128          # default fractional-log2 working precision (Config.P_sig)
ANG_BITS = 4096         # default angle budget (bits of turns)
ADD_GUARD = 256         # default dominance gap for lp_add, in bits (Config.guard)
MAX_EXP_BITS = 1_000_000  # bit-length budget for exponent integers
CONST_BITS = 192        # fractional bits of the quantized log2 constants

LN2 = math.log(2.0)
HALF = Fraction(1, 2)
RND = libmp.round_nearest
FTWO = from_man_exp(1, 1)


class NumericsError(Exception):
    pass


class ExponentBudgetError(NumericsError):
    """An exponent integer outgrew the configured bit budget."""


class DivisionByZero(NumericsError):
    pass


class DomainError(NumericsError):
    pass


def check_budget(n: int, d: int, context: str = "") -> None:
    """Raise ExponentBudgetError if floor(n/d), d > 0, needs more than MAX_EXP_BITS
    bits.  |n| / d < 2**(len(n) - len(d) + 1), so |floor(n/d)| has at most
    len(n) - len(d) + 2 bits; only when that passes the budget does it divide."""
    if abs(n).bit_length() - d.bit_length() + 2 <= MAX_EXP_BITS:
        return
    e = n // d
    if abs(e).bit_length() > MAX_EXP_BITS:
        raise ExponentBudgetError(
            f"exponent needs {abs(e).bit_length()} bits (budget {MAX_EXP_BITS})"
            + (f" in {context}" if context else "")
        )


# ---------------------------------------------------------------------------
# small integer / Fraction helpers
# ---------------------------------------------------------------------------

class _Lowest:
    """n / d with d > 0 and gcd(n, d) = 1, registered as ``numbers.Rational``:
    ``Fraction`` of one Rational copies its numerator and denominator as
    they are, without the gcd it takes of an (n, d) pair."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator, self.denominator = n, d


numbers.Rational.register(_Lowest)


def _dyadic(q: int, e: int) -> Fraction:
    """The Fraction q 2**e.  For e < 0, q and 2**-e lose min(trailing zeros
    of q, -e) bits, all their common factor, and zero comes out 0 / 1."""
    if e >= 0:
        return Fraction(q << e)
    z = (q & -q).bit_length() - 1 if q else -e
    if z > -e:
        z = -e
    return Fraction(_Lowest(q >> z, 1 << (-e - z)))


def frac_add(a: Fraction, b: Fraction, sign: int = 1) -> Fraction:
    """a + sign b (sign 1 or -1) in lowest terms: in integers when both
    denominators are powers of two and neither is 1, else ``Fraction``'s own
    sum or difference.  Over equal denominators 2**k the numerators are added
    and the sum reduced by :func:`_dyadic`.  Over unequal ones the odd
    numerator of the larger denominator plus the other's shifted to it is
    odd, so that sum is in lowest terms as it stands."""
    da, db = a.denominator, b.denominator
    if da & (da - 1) or db & (db - 1) or da == 1 or db == 1:
        return a + b if sign > 0 else a - b
    na, nb = a.numerator, sign * b.numerator
    if da == db:
        return _dyadic(na + nb, 1 - da.bit_length())
    if da < db:
        na, nb, da, db = nb, na, db, da
    return Fraction(_Lowest(na + (nb << (da.bit_length() - db.bit_length())), da))


def frac_sub(a: Fraction, b: Fraction) -> Fraction:
    """a - b in lowest terms, by the rule of :func:`frac_add`."""
    return frac_add(a, b, -1)


def frac_mod1(fr: Fraction) -> Fraction:
    """fr mod 1: fr itself when already in [0, 1), else fr less its floor."""
    n, d = fr.numerator, fr.denominator
    return fr if 0 <= n < d else fr - n // d


def frac_quantize(fr: Fraction, bits: int) -> Fraction:
    """Round to the nearest multiple of 2**-bits."""
    n, d = fr.numerator << bits, fr.denominator
    q = (2 * n + d) // (2 * d) if n >= 0 else -((2 * (-n) + d) // (2 * d))
    return _dyadic(q, -bits)


def frac_to_mpf(fr: Fraction, prec: int) -> tuple:
    """Fraction -> libmp mpf tuple at prec + 8 bits, rounded to nearest: a
    power-of-two denominator shifts the rounded numerator, otherwise both are
    rounded and divided, as ``mpf(num) / mpf(den)`` does (:func:`_frac_pair`)."""
    return pair_mpf(*_frac_pair(fr.numerator, fr.denominator, prec + 8))


def mpf_to_frac(x: Union[mpf, tuple]) -> Fraction:
    """Exact conversion of an mpf or libmp tuple: a finite mpf is dyadic."""
    return _frac_of(x if type(x) is tuple else x._mpf_)


def _frac_of(t: tuple) -> Fraction:
    """The exact Fraction of a finite libmp tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = t
    man, exp = int(man), int(exp)  # mpmath may hand back gmpy2 mpz
    if man == 0 and exp != 0:
        raise DomainError(f"non-finite mpf {mpmath.mp.make_mpf(t)!r}")
    return _dyadic(-man if sign else man, exp)


def ln_big(e: int, add: float = 0.0) -> float:
    """ln(e * ln 2 + add) for an arbitrary-size positive exponent e.

    Used for iterated logs of magnitudes 2**e; `add` is a small scalar
    correction such as (fractional part of log2) * ln 2.
    """
    if e <= 0:
        raise DomainError("ln_big needs a positive exponent")
    if e.bit_length() <= 900:
        inner = e * LN2 + add
        if inner <= 0:
            raise DomainError("iterated log out of domain")
        return math.log(inner)
    # correction add/e is far below double resolution here
    return math.log(e) + math.log(LN2)


_CONST_CACHE: dict = {}


def const_log2_frac(num: int, den: int) -> Fraction:
    """log2(num/den) as a Fraction quantized at CONST_BITS fractional bits."""
    key = (num, den)
    if key not in _CONST_CACHE:
        with mpmath.workprec(CONST_BITS + 16):
            v = mpmath.log(mpf(num) / mpf(den), 2)
        _CONST_CACHE[key] = frac_quantize(mpf_to_frac(v), CONST_BITS)
    return _CONST_CACHE[key]


def pi_over_ln2_frac(den: int) -> Fraction:
    """pi / (den * ln 2) quantized at CONST_BITS fractional bits; the
    log2-width of ring j is pi/(M_j ln2)."""
    key = ("pi_ln2", den)
    if key not in _CONST_CACHE:
        with mpmath.workprec(CONST_BITS + 16):
            v = mpmath.pi / (mpmath.ln(2) * den)
        _CONST_CACHE[key] = frac_quantize(mpf_to_frac(v), CONST_BITS)
    return _CONST_CACHE[key]


# ---------------------------------------------------------------------------
# Angle
# ---------------------------------------------------------------------------

class Angle:
    """An angle as an exact rational number of turns in [0, 1).

    Addition and integer multiplication reduce mod 1 exactly; division by n
    with a branch choice is exact as well, so root-then-power round trips
    reproduce the angle bit for bit.  ``ANG_BITS`` is the default angle
    budget of orbits and pullbacks, not a cap on internal accuracy.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: Union[Fraction, int, str]):
        self.turns = frac_mod1(turns if type(turns) is Fraction else Fraction(turns))

    def add(self, other: "Angle") -> "Angle":
        return Angle(frac_add(self.turns, other.turns))

    def sub(self, other: "Angle") -> "Angle":
        return Angle(frac_sub(self.turns, other.turns))

    def mul_int(self, n: int) -> "Angle":
        return Angle(self.turns * n)

    def div(self, n: int, branch: int = 0) -> "Angle":
        if n < 1:
            raise DomainError("division order must be >= 1")
        if not (0 <= branch < n):
            raise DomainError(f"branch {branch} out of range for order {n}")
        return Angle((self.turns + branch) / n)

    def half_turn(self) -> "Angle":
        return Angle(self.turns + HALF)

    def dist(self, other: "Angle") -> Fraction:
        """Circular distance in turns, in [0, 1/2]."""
        d = frac_mod1(frac_sub(self.turns, other.turns))
        return d if 2 * d.numerator <= d.denominator else 1 - d

    def to_float(self) -> float:
        return float(self.turns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Angle) and self.turns == other.turns

    def __hash__(self):
        return hash(self.turns)

    def __repr__(self) -> str:
        return f"Angle({self.turns})"


# ---------------------------------------------------------------------------
# LogPolar
# ---------------------------------------------------------------------------

class LogPolar:
    """A nonzero complex number as (log2 |z|, arg z / 2pi), or zero.

    rho is an exact rational whose integer part never rounds; theta is an
    exact Angle.  Multiplication, powers and roots act on (rho, theta)
    exactly; additions go through :func:`lp_add`.
    """

    __slots__ = ("rho", "theta", "is_zero")

    def __init__(self, rho: Union[Fraction, int, None], theta: Union[Angle, Fraction, int] = 0):
        self.is_zero = rho is None
        if self.is_zero:
            self.rho = Fraction(0)
            self.theta = Angle(0)
            return
        self.rho = rho if type(rho) is Fraction else Fraction(rho)
        check_budget(self.rho.numerator, self.rho.denominator, "rho")
        self.theta = theta if isinstance(theta, Angle) else Angle(theta)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero_point(cls) -> "LogPolar":
        return cls(None)

    @classmethod
    def from_mpc(cls, w: Union[mpc, Tuple[tuple, tuple]], prec: int) -> "LogPolar":
        """LogPolar of w, an mpc or a libmp pair (re, im) read exactly.

        At p = prec + 16 bits, rounded to nearest: rho = ln|w| at p + 20
        bits over ln 2 at p + 20 bits, theta = atan2 over 2 pi, the steps
        ``mpmath.log(abs(w), 2)`` and ``mpmath.atan2(...) / (2 pi)`` take at
        p bits.
        """
        re, im = w._mpc_ if isinstance(w, mpc) else w
        if re == fzero and im == fzero:
            return cls.zero_point()
        p = prec + 16
        rho = mpf_div(mpf_log(mpc_abs((re, im), p, RND), p + 20, RND), mpf_ln2(p + 20, RND), p, RND)
        th = mpf_div(libmp.mpf_atan2(im, re, p, RND), mpf_shift(mpf_pi(p, RND), 1), p, RND)
        return cls(_frac_of(rho), Angle(_frac_of(th)))

    # -- structure ----------------------------------------------------------

    def rho_int(self) -> int:
        return self.rho.numerator // self.rho.denominator

    def rho_frac_float(self) -> float:
        return float(self.rho - self.rho_int())

    def mul(self, other: "LogPolar") -> "LogPolar":
        if self.is_zero or other.is_zero:
            return LogPolar.zero_point()
        return LogPolar(frac_add(self.rho, other.rho), self.theta.add(other.theta))

    def div(self, other: "LogPolar") -> "LogPolar":
        if other.is_zero:
            raise DivisionByZero("log-polar division by zero")
        if self.is_zero:
            return self
        return LogPolar(frac_sub(self.rho, other.rho), self.theta.sub(other.theta))

    def pow_int(self, n: int) -> "LogPolar":
        if self.is_zero:
            if n <= 0:
                raise DivisionByZero("0**n for n <= 0")
            return self
        return LogPolar(self.rho * n, self.theta.mul_int(n))

    def root(self, n: int, branch: int = 0) -> "LogPolar":
        if self.is_zero:
            return self
        if n < 1:
            raise DomainError("root order must be >= 1")
        return LogPolar(self.rho / n, self.theta.div(n, branch))

    def neg(self) -> "LogPolar":
        if self.is_zero:
            return self
        return LogPolar(self.rho, self.theta.half_turn())

    def mul_pow2(self, e: int) -> "LogPolar":
        if self.is_zero:
            return self
        return LogPolar(self.rho + e, self.theta)

    def __repr__(self) -> str:
        if self.is_zero:
            return "LogPolar(0)"
        ri = self.rho_int()
        return f"LogPolar(rho={ri}{self.rho_frac_float():+.6f}, theta={self.theta.to_float():.6f})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogPolar):
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.rho == other.rho and self.theta == other.theta

    def __hash__(self):
        return hash((self.is_zero, self.rho, self.theta.turns))


# ---------------------------------------------------------------------------
# log-polar addition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpSum:
    value: LogPolar
    negligible: bool = False   # addend fell below the dominance guard
    cancelled: bool = False    # sum fell below representable precision


def lp_add(a: LogPolar, b: LogPolar, guard: int, prec: int) -> LpSum:
    """a + b = a (1 + b/a) in log-polar form, |b| <= |a|, by the first route
    that applies:

    * negligible: the log2 magnitudes differ by more than `guard` bits; the
      dominant term is returned with negligible=True;
    * exact cancellation (equal rho, opposite theta): zero, cancelled=True;
    * near-cancellation (b/a within 2**(1/4) and 1/16 turn of -1):
      :func:`expm1_lp` of the exact rational (drho, dtheta - 1/2);
    * :func:`lp_perturb` of a by b/a read at prec + 32 bits, after a gap
      past ``MAX_EXP_BITS`` raises ExponentBudgetError.  A sum below
      2**(rho_max - prec + 8) is flagged cancelled.
    """
    if a.is_zero:
        return LpSum(b)
    if b.is_zero:
        return LpSum(a)
    # canonical anchor so the operation is bit-exact commutative: a is the
    # larger by (rho, turns), so drho = b.rho - a.rho <= 0
    drho = frac_sub(b.rho, a.rho)
    dn, dd = drho.numerator, drho.denominator
    if dn > 0 or not dn and b.theta.turns > a.theta.turns:
        a, b, drho, dn = b, a, -drho, -dn
    gap = -(dn // dd)
    if gap > guard:
        return LpSum(a, negligible=True)
    dtheta = b.theta.sub(a.theta).turns
    tn, td = dtheta.numerator, dtheta.denominator
    if not dn and 2 * tn == td:
        return LpSum(LogPolar.zero_point(), cancelled=True)
    # near-cancellation, |drho| <= 1/4 and |dtheta - 1/2| <= 1/16: 1 + r =
    # -(e^L' - 1) with L' the log of -r; the expm1 route resolves the
    # difference at any depth from the exact rational (drho, dtheta)
    # instead of losing it to working precision
    if -4 * dn <= dd and abs(16 * tn - 8 * td) <= td:
        d = expm1_lp(drho, dtheta - HALF, prec)
        if d.is_zero:
            return LpSum(LogPolar.zero_point(), cancelled=True)
        return LpSum(a.mul(d.neg()))
    if gap > MAX_EXP_BITS:
        raise ExponentBudgetError("lp_add gap beyond exponent budget")
    s = lp_perturb(a, cpair_mpc(polar_pair(dn, dd, tn, td, prec + 16)), prec)
    if s.rho - a.rho < -(prec - 8):
        return LpSum(LogPolar.zero_point(), cancelled=True)
    return LpSum(s)


def lp_sub(a: LogPolar, b: LogPolar, guard: int, prec: int) -> LpSum:
    return lp_add(a, b.neg(), guard, prec)


def mpc_mag(z: Tuple[tuple, tuple]) -> int:
    """``mpmath.mag`` of a nonzero libmp pair: |z| <= 2**mag."""
    (_, rm, re, rb), (_, im, ie, ib) = z
    if not rm:
        return ie + ib
    if not im:
        return re + rb
    return 1 + max(re + rb, ie + ib)


# ---------------------------------------------------------------------------
# integer pairs: libmp's round-to-nearest arithmetic without its call chains
# ---------------------------------------------------------------------------
#
# A real is an integer pair (m, e), the dyadic m 2**e, in libmp's canonical
# form: m odd, or (0, 0) for zero.  A complex is a pair of them, as an mpc is
# a pair of mpf tuples.  Every op below returns, tuple for tuple, what the
# libmp op it names returns at wp bits with round_nearest on the same values
# (the equality test in tests/test_numerics.py holds them to it).

PAIR_ONE = ((1, 0), (0, 0))


def pair_round(m: int, e: int, wp: int) -> Tuple[int, int]:
    """m 2**e rounded to nearest at wp bits, ties to even, its trailing zeros
    stripped: libmp's ``normalize`` with round_nearest."""
    if m > 0:
        a = m
    elif m:
        a = -m
    else:
        return 0, 0
    n = a.bit_length() - wp
    if n > 0:
        t = a >> (n - 1)
        a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)) else t >> 1
        e += n
    if not a & 1:
        n = (a & -a).bit_length() - 1
        a >>= n
        e += n
    return (a, e) if m > 0 else (-a, e)


def pair_add(am: int, ae: int, bm: int, be: int, wp: int) -> Tuple[int, int]:
    """``mpf_add`` of two canonical pairs at wp bits: the exact sum rounded,
    except where the exponents are more than 100 apart and the operand of the
    larger exponent leads the other by more than wp + 4 bits of magnitude.
    libmp then shifts that operand up wp + 4 bits, moves it one unit toward
    the other's sign and rounds that, which differs from the rounded sum when
    the operand is longer than wp bits (an exact product inside mpc_mul)."""
    if not am:
        return pair_round(bm, be, wp)
    if not bm:
        return pair_round(am, ae, wp)
    d = ae - be
    if d < 0:
        am, ae, bm, be, d = bm, be, am, ae, -d
    if d > 100 and ((am if am > 0 else -am).bit_length() + d
                    - (bm if bm > 0 else -bm).bit_length() > wp + 4):
        return pair_round((am << (wp + 4)) + (1 if bm > 0 else -1), ae - wp - 4, wp)
    return pair_round((am << d) + bm, be, wp)


def pair_of_int(n: int) -> Tuple[int, int]:
    """The canonical pair of an integer, ``from_int``'s tuple."""
    if not n:
        return 0, 0
    z = (n & -n).bit_length() - 1
    return n >> z, z


def pair_div_int(m: int, e: int, n: int, wp: int) -> Tuple[int, int]:
    """``mpf_div`` of a canonical pair by the integer n > 0 at wp bits: the
    quotient of the odd part of n to wp + 5 or more bits, a sticky bit below
    it when the division leaves a remainder, rounded once."""
    if not m:
        return 0, 0
    k = (n & -n).bit_length() - 1
    t = n >> k
    if t == 1:
        return pair_round(m, e - k, wp)
    a = -m if m < 0 else m
    extra = wp - a.bit_length() + t.bit_length() + 5
    if extra < 5:
        extra = 5
    q, r = divmod(a << extra, t)
    if r:
        q, extra = (q << 1) + 1, extra + 1
    return pair_round(-q if m < 0 else q, e - k - extra, wp)


def pair_of(x: tuple) -> Tuple[int, int]:
    """The integer pair of a finite libmp mpf, exactly."""
    return (-x[1] if x[0] else x[1]), x[2]


def pair_mpf(m: int, e: int) -> tuple:
    """The libmp mpf of a canonical pair, exactly."""
    if not m:
        return fzero
    return (1, -m, e, (-m).bit_length()) if m < 0 else (0, m, e, m.bit_length())


def cpair_of(z: Tuple[tuple, tuple]) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The integer pairs of a finite libmp pair, exactly."""
    (rs, rm, re, _), (is_, im, ie, _) = z
    return (-rm if rs else rm, re), (-im if is_ else im, ie)


def cpair_mpc(x) -> Tuple[tuple, tuple]:
    """The libmp pair of a complex of integer pairs, exactly."""
    return pair_mpf(*x[0]), pair_mpf(*x[1])


def cpair_add(x, y, wp: int):
    """``mpc_add``: each part by :func:`pair_add`."""
    (am, ae), (bm, be) = x
    (cm, ce), (dm, de) = y
    return pair_add(am, ae, cm, ce, wp), pair_add(bm, be, dm, de, wp)


def cpair_sub(x, y, wp: int):
    """``mpc_sub``."""
    (am, ae), (bm, be) = x
    (cm, ce), (dm, de) = y
    return pair_add(am, ae, -cm, ce, wp), pair_add(bm, be, -dm, de, wp)


def cpair_mul(x, y, wp: int):
    """``mpc_mul``: the four products exact, each part summed and rounded once
    by :func:`pair_add`."""
    (am, ae), (bm, be) = x
    (cm, ce), (dm, de) = y
    return (pair_add(am * cm, ae + ce, -bm * dm, be + de, wp),
            pair_add(am * dm, ae + de, bm * cm, be + ce, wp))


def cpair_mul_real(x, c: Tuple[int, int], wp: int):
    """``mpc_mul_mpf`` by the real pair c: each part's product rounded."""
    (am, ae), (bm, be) = x
    cm, ce = c
    return pair_round(am * cm, ae + ce, wp), pair_round(bm * cm, be + ce, wp)


def cpair_add_real(x, c: Tuple[int, int], wp: int):
    """``mpc_add_mpf``: the real part plus c, the imaginary part as it is."""
    (am, ae), b = x
    return pair_add(am, ae, c[0], c[1], wp), b


def cpair_div_int(x, n: int, wp: int):
    """``mpc_div_mpf`` by ``from_int(n)``, n > 0: each part by :func:`pair_div_int`."""
    (am, ae), (bm, be) = x
    return pair_div_int(am, ae, n, wp), pair_div_int(bm, be, n, wp)


def cpair_neg(x, wp: int):
    """``mpc_neg`` rounded at wp bits."""
    (am, ae), (bm, be) = x
    return pair_round(-am, ae, wp), pair_round(-bm, be, wp)


def cpair_shift(x, n: int):
    """``mpc_shift``: x 2**n exactly."""
    (am, ae), (bm, be) = x
    return (am, ae + n if am else 0), (bm, be + n if bm else 0)


def cpair_mag(x) -> int:
    """``mpmath.mag`` of a nonzero complex of pairs: |x| <= 2**mag."""
    (am, ae), (bm, be) = x
    if not am:
        return be + (bm if bm > 0 else -bm).bit_length()
    ra = ae + (am if am > 0 else -am).bit_length()
    if not bm:
        return ra
    rb = be + (bm if bm > 0 else -bm).bit_length()
    return 1 + (ra if ra > rb else rb)


def cpair_below(x, y, bits: int, wp: int) -> bool:
    """|x| <= 2**-bits |y|, y nonzero, as the moduli rounded at wp bits
    decide it.  |x| is within [2**(mag(x) - 2), 2**mag(x)], and within
    2**-wp of it rounded: only a gap of -3..2 bits needs them, which
    ``mpc_abs`` takes on the libmp pairs."""
    if not x[0][0] and not x[1][0]:
        return True
    gap = cpair_mag(x) - cpair_mag(y) + bits
    return gap < -3 or gap < 3 and mpf_le(mpc_abs(cpair_mpc(x), wp, RND),
                                          mpf_shift(mpc_abs(cpair_mpc(y), wp, RND), -bits))


def _frac_pair(n: int, d: int, wp: int) -> Tuple[int, int]:
    """:func:`frac_to_mpf` of n / d, d > 0, at wp - 8 bits as a pair.  A power
    of two common to n and d moves no rounding; an odd common factor is
    divided out (a gcd with the odd part of d) before n and d are rounded."""
    o = d >> (d & -d).bit_length() - 1
    if o > 1 and (g := math.gcd(n, o)) > 1:
        n, d, o = n // g, d // g, o // g
    m, e = pair_round(n, 0, wp)
    if o == 1:
        return (m, e + 1 - d.bit_length()) if m else (0, 0)
    b, eb = pair_round(d, 0, wp)
    return pair_div_int(m, e - eb, b, wp)


def polar_pair(dn: int, dd: int, tn: int, td: int, prec: int):
    """2**d e**(2 pi i t), d = dn / dd with |floor(d)| <= 2**24, t = tn / td in
    [0, 1), as a complex of integer pairs: tuple for tuple ``mpf_pow(2, d~,
    p)`` times ``mpf_cos_sin_pi(x, p)``, p = prec + 16, round_nearest, d~ and
    2 t~ read by :func:`_frac_pair` at p and x = 2 t~ rounded at p.  Only
    integer and half-integer d stay on ``mpf_pow``; the rest repeats mpmath
    1.3.0's steps in integers around ``exp_basecase`` (``mpf_exp`` of d~ ln 2)
    and ``cos_sin_basecase`` (``mpf_cos_sin`` by pi: x less its nearest half-
    integer, at the precision ``libmp.bitcount`` of that sets, 0 if negative)."""
    if abs(dn // dd) > 1 << 24:
        raise DomainError("scale gap too large for complex conversion")
    p = prec + 16
    m, e = _frac_pair(dn, dd, p + 8)
    if e >= -1:
        g = pair_of(libmp.mpf_pow(FTWO, pair_mpf(m, e), p, RND))
    else:
        l2, sh = ln2_rounded(p + 10)
        x, e, wp = m * l2, e + sh - p - 30, p + 14
        mag = (x if x > 0 else -x).bit_length() + e
        g, n, sh = (1, 0), 0, e + wp + (mag if mag > 1 else 0)
        if mag >= -wp:
            x = x << sh if sh >= 0 else x >> -sh
            if mag > 1:     # x - n ln 2 at wp + mag bits, then at wp
                n, x = divmod(x, ln2_fixed(wp + mag))
                x >>= mag
            g = pair_round(exp_basecase(x, wp), n - wp, p)
    x, e = pair_round(*_frac_pair(2 * tn, td, p + 8), p)
    if e >= -1:     # 0 and the multiples of 1/2
        c, s = ((0, 0), (1 - (x & 2), 0)) if e < 0 else ((1 - 2 * (e == 0 < x), 0), (0, 0))
    elif x.bit_length() + e < -p - 10:      # sin pi x as x times mpf_pi(p + 10), rounded down
        k = (v := pi_fixed(p + 30)).bit_length() - p - 10
        c, s = (1, 0), pair_round(x * (v >> k), e + k - p - 30, p)
    else:
        n = ((x >> (-e - 2)) + 1) >> 1
        x -= n << (-e - 1)
        wp = p + 10 - libmp.bitcount(x) - e
        x = x << (e + wp) if e + wp >= 0 else x >> -(e + wp)
        c, s = cos_sin_basecase((x * pi_fixed(wp)) >> wp, wp)
        c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n & 3]
        c, s = pair_round(c, -wp, p), pair_round(s, -wp, p)
    return pair_round(g[0] * c[0], g[1] + c[1], p), pair_round(g[0] * s[0], g[1] + s[1], p)


def log1p_mpc(u: Tuple[tuple, tuple], prec: int) -> Tuple[tuple, tuple]:
    """log(1 + u) for a nonzero libmp pair u with |u| < 1, at any scale of u.

    Every step runs at prec + 32 bits, rounded to nearest: ``mpc_log`` of
    1 + u for |u| >= 2**-16, else the series on integer pairs, whose depth
    follows the scale of u, so 1 + u never rounds the perturbation away.  Bit
    for bit what the mpc expressions ``mpmath.log(1 + u)`` and the series
    give at that working precision.
    """
    wp = prec + 32
    emag = mpc_mag(u)  # |u| <= 2**emag
    if emag > -16:
        return libmp.mpc_log(libmp.mpc_add_mpf(u, fone, wp, RND), wp, RND)
    # log(1+u) = u (1 - u/2 + u^2/3 - ...), depth set by the scale
    nterms = max(1, (prec + 48) // max(15, -emag))
    u = cpair_of(u)
    neg = cpair_neg(u, wp)
    series = term = PAIR_ONE
    for i in range(2, nterms + 2):
        term = cpair_mul(term, neg, wp)
        series = cpair_add(series, cpair_div_int(term, i, wp), wp)
    return cpair_mpc(cpair_mul(u, series, wp))


def expm1_series(L: Tuple[tuple, tuple], scale: int, prec: int, wp: int) -> Tuple[tuple, tuple]:
    """e**L - 1 = L (1 + L/2 + L^2/6 + ...) for a libmp pair |L| < 2**-scale,
    scale >= 16.

    The term count, max(2, (prec + 48) // scale + 1), adapts to the scale,
    so ultra-tiny inputs cost a couple of multiplies; every step is rounded
    to nearest at wp bits, on integer pairs.  Larger L would need more terms
    than this count; it takes exp(L) - 1 instead.
    """
    if scale < 16:
        raise DomainError(f"expm1_series needs |L| < 2**-16, got scale {scale}")
    nterms = max(2, (prec + 48) // scale + 1)
    L = cpair_of(L)
    series = term = PAIR_ONE
    for i in range(2, nterms + 2):
        term = cpair_div_int(cpair_mul(term, L, wp), i, wp)
        series = cpair_add(series, term, wp)
    return cpair_mpc(cpair_mul(L, series, wp))


# log2|1 + u| in integers: the steps of mpmath 1.3.0's mpf_log_hypot,
# mpf_log and mpf_div by mpf_ln2, bit for bit, around its own fixed-point
# log_taylor_cached and ln2_fixed.  _LOG_TAYLOR keeps (a, log a, ln 2) at wp1
# bits per (n, wp1): log_taylor_cached's table point a = n 2**(wp1 - 9) of
# an x whose leading 9 bits are n, its log and ln2_fixed(wp1)
_LOG_TAYLOR: dict = {}


@functools.cache
def ln2_rounded(wp: int) -> Tuple[int, int]:
    """(l2, sh): ln 2 as ``mpf_ln2(wp)`` rounds it, l2 2**(sh - wp - 20), the
    wp + 20-bit ``ln2_fixed`` rounded to nearest at wp bits and sh the bits
    dropped: the constant :func:`log2_abs_1p_int` divides by at working
    precision wp and :func:`polar_pair` multiplies by, kept per wp."""
    v = int(ln2_fixed(wp + 20))
    sh = v.bit_length() - wp
    t = v >> (sh - 1)
    return ((t >> 1) + 1 if t & 1 and (t & 2 or v & ((1 << (sh - 1)) - 1)) else t >> 1), sh


def dyadic_parts(u: Union[complex, mpf, mpc, Tuple[tuple, tuple]],
                 wp: int) -> Tuple[int, int, int, int, int]:
    """(rm, re, im, ie, mag) for a finite complex, mpf, mpc or libmp pair u:
    u = rm 2**re + i im 2**ie exactly, the mpmath forms with each part
    rounded to nearest at wp bits whatever the caller's precision, and mag
    = ``mpmath.mag(u)``.  A complex (a curve leaf's eps) comes first, read
    exactly by ``as_integer_ratio``, which refuses inf and nan."""
    if type(u) is complex:
        try:
            (rm, rd), (im, idn) = u.real.as_integer_ratio(), u.imag.as_integer_ratio()
        except (OverflowError, ValueError):
            raise DomainError(f"log2|1 + u| of non-finite u = {u!r}") from None
        re, ie = 1 - rd.bit_length(), 1 - idn.bit_length()
    else:
        if not isinstance(u, tuple):
            u = u._mpc_ if isinstance(u, mpc) else (u._mpf_, fzero)
        (rs, rm, re, _), (is_, im, ie, _) = (libmp.mpf_pos(x, wp, RND) for x in u)
        rm, im, re, ie = -int(rm) if rs else int(rm), -int(im) if is_ else int(im), int(re), int(ie)
        if not rm and re or not im and ie:      # inf or nan: no mantissa, a nonzero exponent
            raise DomainError(f"log2|1 + u| of non-finite u = {u!r}")
    # the larger part's magnitude, plus one if both are nonzero
    if rm and im:
        mr, mi = re + abs(rm).bit_length(), ie + abs(im).bit_length()
        mag = 1 + (mr if mr > mi else mi)
    else:
        mag = re + abs(rm).bit_length() if rm else ie + abs(im).bit_length()
    return rm, re, im, ie, mag


def _log1p_series(rm: int, re: int, im: int, ie: int, wp: int) -> Tuple[Tuple[int, int], tuple]:
    """((q, e), Im log(1 + u)) for |u| < 2**-16 by the :func:`log1p_mpc` series
    at wp bits: log2|1 + u| = q 2**e is its real part over ``mpf_ln2(wp)``
    by ``mpf_div``, and the imaginary part is a libmp tuple."""
    vr, vi = log1p_mpc((from_man_exp(rm, re), from_man_exp(im, ie)), wp - 32)
    sign, man, exp, _ = mpf_div(vr, mpf_ln2(wp, RND), wp, RND)
    return (-int(man) if sign else int(man), int(exp)), vi


def log2_abs_1p_int(us: Iterable[Union[complex, Tuple[int, int, int, int, int]]],
                    wp: int) -> List[Tuple[int, int]]:
    """log2|1 + u| as (q, e), the exact dyadic q 2**e, for each u in us with
    |u| <= 1, a complex or the (rm, re, im, ie, mag) of :func:`dyadic_parts`
    (u = rm 2**re + i im 2**ie), at wp bits: bit for bit
    ``mpf_log_hypot(1 + u)`` over ``mpf_ln2(wp)`` in mpmath 1.3.0, both
    rounded to nearest.  One call takes a batch, a curve node's leaves or
    lp_perturb's one u, and rounds ln 2 once for it (:func:`ln2_rounded`).
    Tiny u (mag <= -16) takes :func:`_log1p_series`.

    The steps, each mpmath's:

    * 1 + Re u is rounded to nearest at wp bits, as ``mpf_add`` rounds it,
      and its mantissa made odd.
    * A zero part takes the log of the other part, unsquared.  Otherwise
      the squares are exact and their sum is rounded down at wp + 20 bits,
      with ``mpf_add``'s shortcut for a square whose exponent is more than
      100, and whose magnitude more than wp + 24 bits, below the other's: it
      adds one unit at wp + 24 bits below the larger square, not the square
      itself.  Where the sum lands within 2**-11 of 1 it is taken again at a
      precision that holds it exactly.
    * The log of x follows ``mpf_log``: a power of two 2**k takes k ln 2; x
      within a factor 2 of 1 widens the fixed-point precision wp1 by its
      cancellation (mag -1 measures it from 1/4, as mpf_log does) or, past
      wp + 20 bits of it, returns x - 1.  Otherwise ``log_taylor_cached``'s
      steps, its table point a and log a from ``_LOG_TAYLOR``, plus mag
      ``ln2_fixed``, and ``libmp.mpf_log`` only past ``LOG_TAYLOR_PREC``.
    * The log is rounded to nearest at wp bits, halved (for a sum of
      squares), and divided once by ln 2, correctly rounded at wp bits."""
    l2, sh = ln2_rounded(wp)
    out = []
    for u in us:
        rm, re, im, ie, mag = dyadic_parts(u, wp) if type(u) is complex else u
        if mag <= -16:
            out.append(_log1p_series(rm, re, im, ie, wp)[0])
            continue
        # w = 1 + Re u over 2**min(re, 0), rounded to nearest at wp, ties to even
        wm, we = (abs((1 << -re) + rm), re) if re < 0 else (abs(1 + (rm << re)), 0)
        n = wm.bit_length() - wp
        if n > 0:
            t = wm >> (n - 1)
            wm = (t >> 1) + 1 if t & 1 and (t & 2 or wm & ((1 << (n - 1)) - 1)) else t >> 1
            we += n
        if not wm & 1 and wm:
            n = (wm & -wm).bit_length() - 1
            wm, we = wm >> n, we + n
        im = abs(im)                      # a nonzero |Im u| < 1 has an odd mantissa
        half = 0
        if not im:
            if not wm:
                raise DomainError("log2|1 + u| at u = -1")
            man, exp = wm, we
        elif not wm:
            man, exp = im, ie
        else:
            half, hp = 1, wp + 20
            a2, ea2, b2, eb2 = wm * wm, 2 * we, im * im, 2 * ie
            if ea2 < eb2:
                a2, ea2, b2, eb2 = b2, eb2, a2, ea2
            if ea2 - eb2 > 100 and a2.bit_length() + ea2 - b2.bit_length() - eb2 > hp + 4:
                man, exp = (a2 << hp + 4) + 1, ea2 - hp - 4
            else:
                man, exp = (a2 << ea2 - eb2) + b2, eb2
            n = man.bit_length() - hp
            if n > 0:
                man, exp = man >> n, exp + n
            d = man - (1 << -exp) if exp <= 0 else (man << exp) - 1     # sum - 1 over 2**min(exp, 0)
            if not d or exp < 0 and d.bit_length() + exp < -10:
                man, exp = (a2 << ea2 - eb2) + b2, eb2
        # ln(man 2**exp) as m 2**e
        bc = man.bit_length()
        lmag, wp1 = exp + bc, wp + 20
        if man & (man - 1) == 0:
            m, e = (lmag - 1) * int(ln2_fixed(wp1)), -wp1
        else:
            cancellation = 0
            if -1 <= lmag <= 1:
                tman = (1 << bc) - man if lmag == 0 else man - (1 << (bc - 1))
                cancellation = bc - tman.bit_length()
            if cancellation > wp1:
                m, e = (tman if lmag else -tman), abs(lmag) - bc
            elif wp1 + cancellation > LOG_TAYLOR_PREC:
                sign, m, e, _ = libmp.mpf_log(libmp.from_man_exp(man, exp), wp, libmp.round_nearest)
                m, e = (-int(m) if sign else int(m)), int(e)
            else:
                wp1 += cancellation
                x = man << (wp1 - bc) if wp1 >= bc else man >> (bc - wp1)
                n = x >> (wp1 - 9)
                key = n, wp1
                if key not in _LOG_TAYLOR:      # log_taylor_cached(a, wp1) is log a
                    a = n << (wp1 - 9)
                    _LOG_TAYLOR[key] = a, int(log_taylor_cached(a, wp1)), int(ln2_fixed(wp1))
                a, m, ln2 = _LOG_TAYLOR[key]
                # log(x / a) = 2 (v + v**3/3 + ...), as log_taylor_cached sums it
                u = ((x - a) << wp1) // a
                v = (u << wp1) // ((2 << wp1) + u)
                v2 = (v * v) >> wp1
                v4 = (v2 * v2) >> wp1
                s0, s1, v, k = v, v // 3, (v * v4) >> wp1, 5
                while v:
                    s0, s1, v, k = s0 + v // k, s1 + v // (k + 2), (v * v4) >> wp1, k + 4
                m, e = m + ((s0 + ((s1 * v2) >> wp1)) << 1) + lmag * ln2, -wp1
        if not m:
            out.append((0, 0))
            continue
        # round at wp, halve, and divide by l2 2**(sh - wp - 20), rounding at wp
        q = abs(m)
        n = q.bit_length() - wp
        if n > 0:
            t = q >> (n - 1)
            q = (t >> 1) + 1 if t & 1 and (t & 2 or q & ((1 << (n - 1)) - 1)) else t >> 1
            e += n
        extra = wp - q.bit_length() + l2.bit_length() + 5      # at least 5: q < 2**(wp + 1)
        q, rem = divmod(q << extra, l2)
        if rem:                           # a sticky bit below the rounding position
            q, extra = (q << 1) + 1, extra + 1
        n = q.bit_length() - wp
        if n > 0:
            t = q >> (n - 1)
            q = (t >> 1) + 1 if t & 1 and (t & 2 or q & ((1 << (n - 1)) - 1)) else t >> 1
            e += n
        out.append(((-q if m < 0 else q), e - half - extra + wp + 20 - sh))
    return out


def lp_perturb(z: LogPolar, u: Union[complex, mpf, mpc, Tuple[tuple, tuple]],
               prec: int) -> LogPolar:
    """z * (1 + u) for a complex, mpf, mpc or libmp pair u with |u| <= 1, at
    any scale of u.

    The relative size of u may be far below 2**-prec; the result's rho then
    carries an exact tiny rational correction rather than losing it.

    Runs at prec + 32 bits with round-to-nearest, step for step what
    ``mpmath.log(1 + u)`` divided by ``ln(2)`` and by ``2 * pi`` gives at
    that precision in mpmath 1.3.0, bit for bit: rho moves by
    :func:`log2_abs_1p_int`, theta by ``mpc_arg(1 + u)`` (the
    :func:`log1p_mpc` series for |u| < 2**-16) over 2 ``mpf_pi``.

    A nonzero |u| below 2**-MAX_EXP_BITS raises ExponentBudgetError before
    the rho correction, whose denominator would outgrow the budget, is built.
    """
    if z.is_zero:
        return z
    wp = prec + 32
    rm, re, im, ie, mag = dyadic_parts(u, wp)
    if mag <= -MAX_EXP_BITS:
        raise ExponentBudgetError(f"lp_perturb of |u| < 2**{mag}, past the exponent budget")
    if mag <= -16:
        (q, e), vi = _log1p_series(rm, re, im, ie, wp)
    else:
        (q, e), = log2_abs_1p_int([(rm, re, im, ie, mag)], wp)
        vi = libmp.mpc_arg((mpf_add(from_man_exp(rm, re), fone, wp, RND),
                            from_man_exp(im, ie)), wp, RND)
    lim = _frac_of(mpf_div(vi, mpf_shift(mpf_pi(wp, RND), 1), wp, RND))
    return LogPolar(frac_add(z.rho, _dyadic(q, e)), Angle(frac_add(z.theta.turns, lim)))


def frac_ilog2(fr: Fraction) -> int:
    """floor(log2 |fr|) for fr != 0, exact."""
    if fr == 0:
        raise DomainError("ilog2 of zero")
    num, den = abs(fr.numerator), fr.denominator
    e = num.bit_length() - den.bit_length()
    # |fr| in [2**(e-1), 2**(e+1)); settle which half
    if e >= 0:
        return e if num >= (den << e) else e - 1
    return e if (num << -e) >= den else e - 1


def expm1_lp(drho: Fraction, dtheta: Fraction, prec: int) -> LogPolar:
    """(2**drho * e^(2 pi i dtheta)) - 1 as a LogPolar, for small inputs.

    Accurate down to arbitrarily tiny (drho, dtheta): the result's rho keeps
    an exact rational value around floor(log2 |L|), L = drho ln2 + 2 pi i
    dtheta, instead of underflowing.  Used for ratios of nearby points.
    """
    if not -dtheta.denominator <= 2 * dtheta.numerator < dtheta.denominator:
        dtheta = frac_mod1(dtheta + HALF) - HALF  # wrap to [-1/2, 1/2)
    if not drho and not dtheta:
        return LogPolar.zero_point()
    wp = prec + 64
    L = (mpf_mul(frac_to_mpf(drho, wp), mpf_ln2(wp, RND), wp, RND),
         mpf_mul(libmp.mpf_pos(mpf_shift(frac_to_mpf(dtheta, wp), 1), wp, RND), mpf_pi(wp, RND),
                 wp, RND))
    # at size = max(|drho|, |dtheta|) > 2**-16, exp(L) - 1 loses at most 17
    # of the 64 guard bits
    if (abs(drho.numerator) << 16 > drho.denominator
            or abs(dtheta.numerator) << 16 > dtheta.denominator):
        v = libmp.mpc_sub_mpf(libmp.mpc_exp(L, wp, RND), fone, wp, RND)
    else:
        v = expm1_series(L, -max(frac_ilog2(x) for x in (drho, dtheta) if x), prec, wp)
    return LogPolar.from_mpc(v, prec)


def pow2_minus1_log2(delta: Fraction, prec: int) -> Fraction:
    """log2(2**delta - 1) for delta > 0, stable for arbitrarily tiny delta.

    mpf mantissas carry arbitrary exponents, so a single expm1 path covers
    deltas down to 2**-huge without underflow.
    """
    if delta <= 0:
        raise DomainError("needs delta > 0")
    with mpmath.workprec(prec + 32):
        v = mpmath.expm1(mpmath.mp.make_mpf(frac_to_mpf(delta, prec + 32)) * mpmath.ln(2))
        return mpf_to_frac(mpmath.log(v, 2))


def below_log2_one_minus_pow2(d: Fraction, e: int) -> bool:
    """d < log2(1 - 2**-e) for an integer e >= 1, decided exactly.

    With D = -d and x = 2**-e this asks whether D ln 2 > -ln(1 - x) =
    sum_{k>=1} x**k / k.  In p-bit fixed point the K = floor(p / e) terms
    with k e <= p, each rounded down, sum to S with S <= 2**p (-ln(1 - x))
    < S + K + 2: each term is short by under one unit and the dropped tail
    is under two.  libmp's cached ``ln2_fixed(p)`` is within one unit of
    2**p ln 2 (the premise of mpmath's own directed roundings of ln 2);
    2**16 units are allowed.  That encloses both sides in integer intervals
    at any p, so the verdict is exact whatever p starts at: p starts at 64 +
    min(bits of d's denominator, e), 64 bits past d's resolution or past the
    threshold's distance 2**-e from 0, and doubles until the intervals
    separate, which they do because the threshold is irrational.
    """
    if d >= 0:
        return False
    a, b = -d.numerator, d.denominator
    slack = 1 << 16
    p = 64 + min(b.bit_length(), e)
    while True:
        terms = [(1 << (p - k * e)) // k for k in range(1, p // e + 1)]
        s_lo = sum(terms)
        s_hi = s_lo + len(terms) + 2
        ln2 = libmp.ln2_fixed(p)
        if a * (ln2 - slack) > b * s_hi:
            return True
        if a * (ln2 + slack) < b * s_lo:
            return False
        p *= 2
