import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import libmp

from juliadim.numerics import (
    ADD_GUARD,
    Angle,
    DivisionByZero,
    DomainError,
    LogPolar,
    SIG_BITS,
    below_log2_one_minus_pow2,
    const_log2_frac,
    cpair_add,
    cpair_add_real,
    cpair_below,
    cpair_div_int,
    cpair_mag,
    cpair_mpc,
    cpair_mul,
    cpair_mul_real,
    cpair_neg,
    cpair_of,
    cpair_shift,
    cpair_sub,
    dyadic_parts,
    expm1_lp,
    expm1_series,
    ln2_rounded,
    log1p_mpc,
    log2_abs_1p_int,
    frac_ilog2,
    lp_add,
    lp_perturb,
    lp_sub,
    mpf_to_frac,
    pair_add,
    pair_div_int,
    pair_mpf,
    pair_of,
    pair_of_int,
    pair_round,
    polar_pair,
    pow2_minus1_log2,
)

RND = libmp.round_nearest

# strategies -----------------------------------------------------------------

angles = st.builds(
    lambda n, b: Angle(Fraction(n, 1 << b)),
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.sampled_from([16, 32, 48]),
)


def test_pow2_exactness():
    a = LogPolar(6)
    b = LogPolar(-8)
    c = a.mul(b)
    assert c.rho == -2 and c.rho.denominator == 1

    # huge exponents combine exactly as integers
    big = LogPolar(2**60)
    sq = big.mul(big)
    assert sq.rho == 2**61 and sq.rho.denominator == 1


def test_table_recurrence_value():
    # c4 * (r4/2)**M4 = 2**-128 * (2**55)**16 = 2**752
    c4 = LogPolar(-128)
    half_r4 = LogPolar(55)
    r5 = c4.mul(half_r4.pow_int(16))
    assert r5.rho == 752 and r5.rho.denominator == 1


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        LogPolar(0).div(LogPolar.zero_point())


@settings(max_examples=100)
@given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.sampled_from([0, 1, 7, 40]),
       st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=9))
def test_pow_int_matches_repeated_mul(num, shift, tnum, n):
    a = LogPolar(Fraction(num, 1 << shift), Fraction(tnum, 1 << 32))
    acc = LogPolar(0)
    for _ in range(n):
        acc = acc.mul(a)
    assert a.pow_int(n) == acc  # exact: rho and theta are rationals


# Angle ----------------------------------------------------------------------

@settings(max_examples=200)
@given(angles, angles)
def test_angle_add_mod1(a, b):
    s = a.add(b)
    assert 0 <= s.turns < 1
    assert s.turns == (a.turns + b.turns) % 1


@settings(max_examples=200)
@given(angles, st.integers(min_value=1, max_value=1 << 16), st.integers(min_value=0))
def test_angle_root_then_power_identity(a, n, braw):
    b = braw % n
    assert a.div(n, b).mul_int(n) == a


def test_angle_branch_out_of_range():
    with pytest.raises(Exception):
        Angle(0).div(4, 4)


# LogPolar -------------------------------------------------------------------

def test_lp_pow_examples():
    z = LogPolar(Fraction(7, 2), Fraction(1, 4))
    w = z.pow_int(2)
    assert w.rho == 7 and w.theta.turns == Fraction(1, 2)
    back = w.root(2, 1)
    assert back.rho == Fraction(7, 2) and back.theta.turns == Fraction(3, 4)


def test_lp_pow_big_scale():
    # pow(64) of rho = 23008 + log2(2/5)
    rho = 23008 + Fraction(math.log2(0.4)).limit_denominator(1 << 50)
    z = LogPolar(rho, 0)
    w = z.pow_int(64)
    assert abs(float(w.rho - 64 * 23008) - 64 * math.log2(0.4)) < 1e-9


@settings(max_examples=150)
@given(
    st.integers(min_value=-(1 << 30), max_value=1 << 30),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0),
)
def test_lp_root_pow_roundtrip_exact(ri, tnum, n, braw):
    z = LogPolar(Fraction(ri, 1 << 10), Angle(Fraction(tnum, 1 << 32)))
    b = braw % n
    back = z.root(n, b).pow_int(n)
    assert back.rho == z.rho
    assert back.theta == z.theta


def test_lp_add_dominance():
    big = LogPolar(752)
    small = LogPolar(4)
    s = lp_add(big, small, ADD_GUARD, SIG_BITS)
    assert s.negligible and s.value.rho == 752


def test_lp_add_exact_cancellation():
    # equal moduli half a turn apart cancel to zero, in either order
    a = LogPolar(3)
    b = LogPolar(3, Fraction(1, 2))
    for x, y in ((a, b), (b, a)):
        s = lp_add(x, y, ADD_GUARD, SIG_BITS)
        assert s.cancelled and not s.negligible and s.value.is_zero


def test_lp_add_zero_operand():
    # a zero operand returns the other one as it is, in either order
    a = LogPolar(Fraction(-7, 3), Fraction(2, 5))
    for x, y in ((a, LogPolar.zero_point()), (LogPolar.zero_point(), a)):
        s = lp_add(x, y, ADD_GUARD, SIG_BITS)
        assert (s.value.rho, s.value.theta.turns) == (a.rho, a.theta.turns)
        assert not s.negligible and not s.cancelled
    s = lp_add(LogPolar.zero_point(), LogPolar.zero_point(), ADD_GUARD, SIG_BITS)
    assert s.value.is_zero and not s.negligible and not s.cancelled


def test_lp_add_sixth_turn():
    # 2^3 + 2^3 e^{2pi i/3} has modulus 2^3 and angle 1/6 turn
    a = LogPolar(3)
    b = LogPolar(3, Fraction(1, 3))
    s = lp_add(a, b, ADD_GUARD, SIG_BITS)
    assert not s.negligible and not s.cancelled
    assert abs(float(s.value.rho) - 3.0) < 1e-30
    assert abs(s.value.theta.to_float() - 1.0 / 6.0) < 1e-30


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-90, max_value=90),
    st.integers(min_value=-90, max_value=90),
    st.integers(min_value=0, max_value=(1 << 20) - 1),
    st.integers(min_value=0, max_value=(1 << 20) - 1),
)
def test_lp_add_matches_complex(e1, e2, t1, t2):
    a = LogPolar(Fraction(e1, 3), Angle(Fraction(t1, 1 << 20)))
    b = LogPolar(Fraction(e2, 3), Angle(Fraction(t2, 1 << 20)))
    s = lp_add(a, b, ADD_GUARD, SIG_BITS)
    za, zb = complex(_to_mpc_scaled_ref(a, 0, 64)), complex(_to_mpc_scaled_ref(b, 0, 64))
    zs = za + zb
    if s.cancelled:
        assert abs(zs) <= 1e-12 * max(abs(za), abs(zb))
        return
    got = complex(_to_mpc_scaled_ref(s.value, 0, 64))
    # the double-precision oracle itself carries cancellation error, so the
    # comparison is relative to the operand scale
    assert abs(got - zs) <= 1e-12 * max(abs(za), abs(zb))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-90, max_value=90),
    st.integers(min_value=-90, max_value=90),
    st.integers(min_value=0, max_value=(1 << 20) - 1),
    st.integers(min_value=0, max_value=(1 << 20) - 1),
)
def test_lp_add_commutes(e1, e2, t1, t2):
    a = LogPolar(Fraction(e1, 3), Angle(Fraction(t1, 1 << 20)))
    b = LogPolar(Fraction(e2, 3), Angle(Fraction(t2, 1 << 20)))
    s1, s2 = lp_add(a, b, ADD_GUARD, SIG_BITS), lp_add(b, a, ADD_GUARD, SIG_BITS)
    assert s1.value == s2.value


def _mpf(fr):
    return mpmath.mpf(fr.numerator) / fr.denominator


@pytest.mark.parametrize("prec, guard", [(128, 300), (400, 300), (400, 700)])
def test_lp_add_matches_mpmath_at_1200_bits(prec, guard):
    # the lp_perturb route at every gap scale, against log(1 + b/a) at 1200
    # bits; the near-cancellation box (expm1_lp) is left out, and a gap past
    # the guard must take the negligible route
    rng = random.Random(prec + guard)
    tol = mpmath.mpf(2) ** -(prec + 24)
    seen = set()
    for gap in (0, 5, 15, 16, 17, 40, 100, prec + 15, prec + 17, 255):
        for _ in range(8):
            a = LogPolar(Fraction(rng.getrandbits(80), 1 << 64) - (1 << 15),
                         Angle(Fraction(rng.getrandbits(64), 1 << 64)))
            drho = -gap - Fraction(rng.getrandbits(64), 1 << 64)
            dtheta = Fraction(rng.getrandbits(64), 1 << 64)
            if drho >= -Fraction(1, 4) and abs(dtheta - Fraction(1, 2)) <= Fraction(1, 16):
                continue
            b = LogPolar(a.rho + drho, a.theta.add(Angle(dtheta)))
            s = lp_add(a, b, guard, prec)
            assert not s.cancelled
            if gap >= guard:
                assert s.negligible and s.value == a
                continue
            with mpmath.workprec(1200):
                v = mpmath.log(1 + mpmath.mpf(2) ** _mpf(drho) * mpmath.expjpi(2 * _mpf(dtheta)))
                rho_err = abs(_mpf(s.value.rho - a.rho) - v.real / mpmath.ln(2))
                d = _mpf(s.value.theta.turns - a.theta.turns) - v.imag / (2 * mpmath.pi)
                th_err = abs(d - mpmath.nint(d))
            assert rho_err <= tol and th_err <= tol, (gap, rho_err, th_err)
            seen.add(gap)
    assert len(seen) >= 8


def test_lp_add_gap_past_the_exponent_budget_raises():
    # past the budget the ratio is never converted, at it the sum is still
    # formed (a petal step far below its petal's image stops at lp_perturb's
    # own check, test_lp_perturb_past_the_exponent_budget_raises; an origin
    # step keeps its offset as an AnchoredPoint and forms neither)
    from juliadim.numerics import ExponentBudgetError, MAX_EXP_BITS

    a, guard = LogPolar(0), MAX_EXP_BITS + 64
    with pytest.raises(ExponentBudgetError):
        lp_add(a, LogPolar(-(MAX_EXP_BITS + 1), Fraction(1, 3)), guard, SIG_BITS)
    s = lp_add(a, LogPolar(-MAX_EXP_BITS, Fraction(1, 3)), guard, SIG_BITS)
    assert not s.negligible and -1 < s.value.rho * 2 ** MAX_EXP_BITS < 0


def test_lp_perturb_past_the_exponent_budget_raises():
    # the rho correction of |u| below 2**-MAX_EXP_BITS would need a
    # denominator past the budget: refused before it is built, as lp_add
    # refuses a gap past it; at the budget the perturbation is still carried
    from juliadim.numerics import ExponentBudgetError, MAX_EXP_BITS

    with pytest.raises(ExponentBudgetError):
        lp_perturb(LogPolar(0), mpmath.ldexp(1, -(MAX_EXP_BITS + 8)), SIG_BITS)
    with pytest.raises(ExponentBudgetError):
        lp_perturb(LogPolar(0), mpmath.mpc(0, mpmath.ldexp(-3, -(MAX_EXP_BITS + 2))), SIG_BITS)
    z = lp_perturb(LogPolar(0), mpmath.ldexp(1, -MAX_EXP_BITS), SIG_BITS)
    assert 0 < z.rho * 2 ** MAX_EXP_BITS < 2


def test_lp_perturb_tiny_scale():
    # perturbation far below any float: the exact rho picks it up and a
    # power magnifies it back into range
    z = LogPolar(1000)
    u = mpmath.ldexp(mpmath.mpf(3), -1200)  # 3 * 2^-1200
    zp = lp_perturb(z, u, SIG_BITS)
    d = zp.rho - 1000
    assert d > 0
    # (1+u)^(2^1210) should change rho by about 3*2^10*log2(e)
    big = zp.pow_int(1 << 1210)
    shift = float(big.rho - (1000 << 1210))
    assert abs(shift - 3 * (1 << 10) / math.log(2)) < 1e-3


def _mpf_to_frac_ref(x):
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


# the mpc/mpf wrapper forms of the kernels that now run on libmp pairs, as
# they ran before: each at the working precision its callers set with
# mpmath.workprec ------------------------------------------------------------

def _frac_to_mpf_ref(fr, prec):
    num, den = fr.numerator, fr.denominator
    with mpmath.workprec(prec + 8):
        if den & (den - 1) == 0:
            return mpmath.ldexp(mpmath.mpf(num), -(den.bit_length() - 1))
        return mpmath.mpf(num) / mpmath.mpf(den)


def _polar(z, rho0, prec):
    # polar_pair of z / 2^rho0, a nonzero LogPolar
    d, t = z.rho - rho0, z.theta.turns
    return polar_pair(d.numerator, d.denominator, t.numerator, t.denominator, prec)


def _to_mpc_scaled_ref(z, rho0, prec):
    if z.is_zero:
        return mpmath.mpc(0)
    d = z.rho - Fraction(rho0)
    if abs(d.numerator // d.denominator) > (1 << 24):
        raise DomainError("scale gap too large for complex conversion")
    with mpmath.workprec(prec + 16):
        mag = mpmath.power(2, _frac_to_mpf_ref(d, prec + 16))
        t = _frac_to_mpf_ref(z.theta.turns, prec + 16)
        return mpmath.mpc(mag * mpmath.cospi(2 * t), mag * mpmath.sinpi(2 * t))


def _from_mpc_ref(w, prec):
    # mpc(w) keeps w only under a workprec that holds it, as expm1_lp's did
    w = mpmath.mpc(w)
    if w == 0:
        return LogPolar.zero_point()
    with mpmath.workprec(prec + 16):
        rho = _mpf_to_frac_ref(mpmath.log(abs(w), 2))
        th = _mpf_to_frac_ref(mpmath.atan2(w.imag, w.real) / (2 * mpmath.pi))
    return LogPolar(rho, Angle(th))


def _log1p_mpc_ref(u, prec):
    emag = mpmath.mag(u)
    if emag > -16:
        return mpmath.log(1 + u)
    nterms = max(1, (prec + 48) // max(15, -int(emag)))
    series = mpmath.mpc(1)
    term = mpmath.mpc(1)
    for i in range(2, nterms + 2):
        term = term * (-u)
        series += term / i
    return u * series


def _expm1_series_ref(L, scale, prec):
    if scale < 16:
        raise DomainError(f"expm1_series needs |L| < 2**-16, got scale {scale}")
    nterms = max(2, (prec + 48) // scale + 1)
    term = mpmath.mpc(1)
    series = mpmath.mpc(1)
    for i in range(2, nterms + 2):
        term = term * L / i
        series += term
    return L * series


def _expm1_lp_ref(drho, dtheta, prec):
    dtheta = (dtheta + Fraction(1, 2)) % 1 - Fraction(1, 2)
    if drho == 0 and dtheta == 0:
        return LogPolar.zero_point()
    size = max(abs(drho), abs(dtheta))
    wp = prec + 64
    with mpmath.workprec(wp):
        L = mpmath.mpc(_frac_to_mpf_ref(drho, wp) * mpmath.ln(2),
                       _frac_to_mpf_ref(dtheta, wp) * 2 * mpmath.pi)
        if size > Fraction(1, 1 << 16):
            v = mpmath.exp(L) - 1
            if v == 0:
                return LogPolar.zero_point()
            return _from_mpc_ref(v, prec)
        return _from_mpc_ref(_expm1_series_ref(L, -frac_ilog2(size), prec), prec)


def _half_sqrt1p_minus1_ref(q, prec):
    # the petal step's binomial series for h = sqrt(1 + q) - 1, halved
    q_mpc = _to_mpc_scaled_ref(q, Fraction(0), prec)
    with mpmath.workprec(prec + 32):
        coef = mpmath.mpf(1) / 2
        powq = q_mpc
        h = coef * powq
        eps = mpmath.ldexp(mpmath.mpf(1), -(prec + 16))
        for n in range(1, 200):
            coef = coef * (mpmath.mpf(1) / 2 - n) / (n + 1)
            powq = powq * q_mpc
            term = coef * powq
            h += term
            if abs(term) <= abs(h) * eps:
                break
        return h / 2


def _lp_perturb_mpc(z, u, prec):
    # the mpc body lp_perturb had before it ran on libmp tuples, reading u
    # at prec + 32 bits
    if z.is_zero:
        return z
    with mpmath.workprec(prec + 32):
        u = mpmath.mpc(u)
        if u == 0:
            return z
        v = _log1p_mpc_ref(u, prec)
        lre = _mpf_to_frac_ref(v.real / mpmath.ln(2))
        lim = _mpf_to_frac_ref(v.imag / (2 * mpmath.pi))
    return LogPolar(z.rho + lre, z.theta.add(Angle(lim)))


def _perturbations(rng, prec):
    """Seeded u with |u| from 2^-400 to 2^-1 in every shape: full complex,
    purely real and purely imaginary (mpmath.mag drops its +1 there), as
    Python complex and as mpc carrying prec + 32 bits, plus both sides of
    the series switch at mag(u) = -16."""
    us = [0j, mpmath.mpc(0)]
    for e in (-18, -17, -16):           # mag(u) = e + 1 for one part, e + 2 for two
        for re, im in ((1.5, 0.0), (0.0, -1.5), (1.5, 1.25), (-1.25, 1.5)):
            us.append(complex(math.ldexp(re, e), math.ldexp(im, e)))
    for i in range(160):
        e = rng.randint(-400, -1) if i % 2 else rng.randint(-16, -1)
        re, im = math.ldexp(rng.uniform(-1, 1), e), math.ldexp(rng.uniform(-1, 1), e)
        shape = rng.randrange(3)
        re, im = (re, 0.0) if shape == 1 else (0.0, im) if shape == 2 else (re, im)
        us.append(complex(re, im))
        with mpmath.workprec(prec + 32):
            us.append(mpmath.mpc(re, im) * (1 + mpmath.mpf(rng.getrandbits(prec)) / 2 ** prec))
    return us


@pytest.mark.parametrize("prec", [128, 256])
def test_lp_perturb_equals_the_mpc_path(prec):
    rng = random.Random(prec)
    z = LogPolar(Fraction(rng.getrandbits(80), 1 << 40) - (1 << 39),
                 Angle(Fraction(rng.getrandbits(64), 1 << 64)))
    branches = set()
    # an mpc u keeps all its prec + 32 bits whatever the caller's
    # precision: the default 53 bits, or prec + 32 inside inverse_step
    for wp in (mpmath.mp.prec, prec + 32):
        with mpmath.workprec(wp):
            for u in _perturbations(rng, prec):
                want = _lp_perturb_mpc(z, u, prec)
                got = lp_perturb(z, u, prec)
                assert (got.rho, got.theta.turns) == (want.rho, want.theta.turns), u
                if u != 0:
                    branches.add(mpmath.mag(mpmath.mpc(u)) > -16)
    assert branches == {True, False}
    assert lp_perturb(LogPolar.zero_point(), 0.25j, prec).is_zero


@pytest.mark.parametrize("prec", [128, 2400])
def test_log2_abs_1p_is_the_rho_step_of_lp_perturb(prec):
    # one formula for log2|1 + u|: lp_perturb moves rho by exactly its value
    # at z = 1, for complex and mpc u, on the direct and the |u| < 2^-16
    # series path
    rng = random.Random(prec + 1)
    z = LogPolar(Fraction(rng.getrandbits(80), 1 << 40) - (1 << 39),
                 Angle(Fraction(rng.getrandbits(64), 1 << 64)))
    kinds = set()
    for u in _perturbations(rng, prec):
        assert lp_perturb(z, u, prec).rho == z.rho + lp_perturb(LogPolar(0), u, prec).rho, u
        if u != 0:
            kinds.add((type(u), mpmath.mag(mpmath.mpc(u)) > -16))
    assert kinds == {(t, d) for t in (complex, mpmath.mpc) for d in (True, False)}
    assert lp_perturb(LogPolar(0), 0j, prec).rho == 0


# log2|1 + u| for |u| >= 2^-16: the integer kernel against mpmath ------------

def _log2_abs_1p_ref(u, prec):
    # mpmath 1.3.0's own steps: mpf_log_hypot of w = (1 + Re u rounded at
    # wp, Im u), over mpf_ln2, at wp = prec + 32 bits, rounded to nearest
    wp, rnd = prec + 32, libmp.round_nearest
    with mpmath.workprec(wp):
        u = mpmath.mpc(u)
        assert 0 < abs(u) < 1 and mpmath.mag(u) > -16
        ur, ui = u._mpc_
    return _mpf_to_frac_ref(mpmath.mp.make_mpf(_log2_abs_1p_steps(ur, ui, wp)))


def _log2_abs_1p_steps(ur, ui, wp):
    # the libmp tuple mpf_log_hypot(1 + ur, ui) / mpf_ln2 at wp
    rnd = libmp.round_nearest
    w = libmp.mpf_add(ur, libmp.fone, wp, rnd)
    return libmp.mpf_div(libmp.mpf_log_hypot(w, ui, wp, rnd), libmp.mpf_ln2(wp, rnd), wp, rnd)


def _wide(re, im, prec, bits):
    # re + i im as an mpc carrying prec + 32 bits, each part times
    # (1 + bits 2^-prec)
    with mpmath.workprec(prec + 32):
        f = 1 + mpmath.mpf(bits) / 2 ** prec
        return mpmath.mpc(mpmath.mpf(re) * f, mpmath.mpf(im) * f)


def _on_circle(theta, prec):
    # e^(i theta) - 1 at prec + 32 bits: |1 + u| = 1 but for rounding
    with mpmath.workprec(prec + 32):
        return mpmath.expj(theta) - 1


def _dyadic(re, im):
    # the mpc (re[0] 2^re[1]) + i (im[0] 2^im[1]), exact
    with mpmath.workprec(max(abs(re[0]).bit_length(), abs(im[0]).bit_length())):
        return mpmath.mpc(mpmath.ldexp(*re), mpmath.ldexp(*im))


def _near_circle(x, y, k):
    # x/2^k - 1 + i y/2^k, exact in k bits, with x^2 + y^2 close to 4^k
    with mpmath.workprec(k):
        return mpmath.mpc(mpmath.ldexp(x - (1 << k), -k), mpmath.ldexp(y, -k))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([128, 2400]), st.sampled_from(["both", "re", "im", "lopsided"]),
       st.integers(min_value=-15, max_value=0), st.integers(min_value=-1074, max_value=0),
       st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
       st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), st.booleans(),
       st.integers(min_value=0, max_value=(1 << 128) - 1), st.booleans())
# widening by up to 2 takes this |u| = 0.707 to 1 + 1.6e-39: the test rejects it
@example(128, "both", 0, 0, 0.5, 0.5, (1, 1), False, 140949571415070559626692937523481902399, True)
def test_log2_abs_1p_kernel_matches_mpf_log_hypot(prec, shape, e1, e2, a, b, signs, swap,
                                                  bits, as_mpc):
    # one part at least 2^-16 (the direct branch); the other as large, absent,
    # or anywhere down to the float range
    e2 = {"both": max(e2 // 64, -15), "lopsided": e2}.get(shape)
    re, im = signs[0] * math.ldexp(a, e1), (signs[1] * math.ldexp(b, e2) if e2 is not None else 0.0)
    if shape == "im" or swap:
        re, im = im, re
    u = _wide(re, im, prec, bits) if as_mpc else complex(re, im)
    assume(abs(u) < 1)
    assert lp_perturb(LogPolar(0), u, prec).rho == _log2_abs_1p_ref(u, prec), u


PINNED = [
    (p, c) for p in (128, 2400) for c in (
        "im zero", "im zero below", "re zero", "re rounds away", "re-sum", "re-sum float",
        "h2 < 1/2", "h2 = 1/2", "h2 near 1/4", "h2 >= 2", "just above 2^-16",
        "parts just above 2^-17", "im far below re")
] + [(2400, "past LOG_TAYLOR_PREC"),
     (128, "cancellation past wp + 20"), (128, "sum rounded down, not up"),
     (128, "sum rounded down, not to nearest"), (128, "mpf_add shortcut")]


def _pinned_u(prec, case):
    wp = prec + 32
    return {
        "im zero": complex(0.75, 0.0),
        "im zero below": complex(-0.3, 0.0),
        "re zero": complex(0.0, 0.6),
        # 1 + Re u needs more than wp bits
        "re rounds away": _wide(mpmath.ldexp(-1.2345, -(wp + 40)), 0.3, prec, 1),
        # |1 + u|^2 within 2^-11 of 1: summed again exactly
        "re-sum": _on_circle(0.5, prec),
        "re-sum float": complex(math.cos(0.5) - 1, math.sin(0.5)),
        "h2 < 1/2": complex(-0.4, -0.3),
        "h2 = 1/2": complex(-0.5, 0.5),
        # mpf_log measures the cancellation of x in [1/4, 1/2) from 1/4
        "h2 near 1/4": complex(-0.5, 2.0 ** -30),
        "h2 >= 2": complex(0.4, 0.3),
        "just above 2^-16": complex(2.0 ** -16, 0.0),
        "parts just above 2^-17": complex(1.5 * 2.0 ** -17, -1.5 * 2.0 ** -17),
        # Im u^2 more than wp + 24 bits and its exponent more than 100 below
        # (1 + Re u)^2: mpf_add's shortcut
        "im far below re": _wide(0.3, mpmath.ldexp(1, -(wp + 60)), prec, 3),
        # cancellation widens the log past LOG_TAYLOR_PREC: libmp.mpf_log
        "past LOG_TAYLOR_PREC": _on_circle(0.3, prec),
        # |1 + u|^2 - 1 below 2^-(wp + 20) relative: mpf_log returns x - 1
        "cancellation past wp + 20": _near_circle(0xfae54b89c3f93550b089f608613dd9560a2507f3,
                                                  0x32ddb5f34f889d58e35caae5fb25a0cbc08ca09d, 160),
        # found by search: the sum of squares rounded up, or to nearest, at
        # wp + 20 bits moves the result; so does adding Im u^2 exactly where
        # mpf_add adds one unit below the larger square
        "sum rounded down, not up": _dyadic((-39922822776179225266553399275572314802930098911, -160),
                                            (-170765700351065549295391407270779898099971319621, -159)),
        "sum rounded down, not to nearest": _dyadic(
            (-30532997711475142271803923387098422027347122583, -160),
            (602746190458258678790527227482343236783260292381, -161)),
        "mpf_add shortcut": _dyadic((-1067172944637529865914337119722883991903427471367, -170),
                                    (623726742995216117986538929365530013683, -222)),
    }[case]


@pytest.mark.parametrize("prec, case", PINNED)
def test_log2_abs_1p_kernel_pinned(prec, case):
    u = _pinned_u(prec, case)
    assert lp_perturb(LogPolar(0), u, prec).rho == _log2_abs_1p_ref(u, prec), u


# the kernel's integer form: one batch per call, ln 2 rounded once per batch ----

def test_ln2_rounded_is_mpf_ln2():
    for wp in (53, 160, 288, 2432):
        l2, sh = ln2_rounded(wp)
        want = _mpf_to_frac_ref(mpmath.mp.make_mpf(libmp.mpf_ln2(wp, libmp.round_nearest)))
        assert Fraction(l2, 1 << (wp + 20 - sh)) == want and l2.bit_length() == wp, wp


def _qe_frac(q, e):
    return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)


def _kernel_frac(u, wp):
    # the kernel on the one input u, a complex or dyadic_parts' tuple
    (q, e), = log2_abs_1p_int([u], wp)
    return _qe_frac(q, e)


@pytest.mark.parametrize("prec", [128, 256])
def test_kernel_integer_form_on_the_pinned_inputs(prec):
    # each of the 31 pinned inputs, wherever it was built, read at prec
    wp = prec + 32
    for built_at, case in PINNED:
        u = _pinned_u(built_at, case)
        got = _kernel_frac(dyadic_parts(u, wp), wp)
        assert got == lp_perturb(LogPolar(0), u, prec).rho == _log2_abs_1p_ref(u, prec), \
            (built_at, case)


def _kernel_batches(m, syn, k, depth):
    # (us, wp, out) of every batch the kernel takes in syn's trace (k, depth)
    from juliadim import curves

    batches, real = [], curves.log2_abs_1p_int

    def spy(us, wp):
        out = real(us, wp)
        batches.append((list(us), wp, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "log2_abs_1p_int", spy)
        curves.trace_gamma(m, syn, k, depth)
    return batches


def _model_and_field(phase_seed):
    from juliadim.curves import SyntheticOmega
    from juliadim.modelmap import ModelMap
    from juliadim.params import SQRT8, build_params

    return (ModelMap(table=build_params(5, 16)),
            SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=phase_seed))


@pytest.mark.parametrize("phase_seed", range(1, 9))
def test_kernel_integer_form_on_every_trace_leaf(phase_seed):
    # a synthetic trace hands the kernel one batch per parent node, the
    # node's leaf eps as complex values; the (q, e) of each leaf equals the
    # kernel's on that leaf alone, lp_perturb's rho step and mpmath's
    # mpf_log_hypot over mpf_ln2
    m, syn = _model_and_field(phase_seed)
    for k in (1, 2):
        batches = _kernel_batches(m, syn, k, 1)
        parents = len({a * m.table.n(k + 1) % 256 for a in range(256)})
        assert len(batches) == 2 * parents
        assert sum(len(us) for us, _, _ in batches) == 2 * 256
        for us, wp, out in batches:
            assert wp == m.prec + 32
            for u, (q, e) in zip(us, out, strict=True):
                assert type(u) is complex and dyadic_parts(u, wp)[4] > -16
                got = _qe_frac(q, e)
                assert got == _kernel_frac(u, wp) == _kernel_frac(dyadic_parts(u, wp), wp), u
                assert got == lp_perturb(LogPolar(0), u, m.prec).rho, u
                assert got == _log2_abs_1p_ref(u, m.prec), u


def test_batch_kernel_on_every_leaf_of_the_reference_traces():
    # the 96 synthetic traces perfbench stores (phase seeds 1-8, k = 1, 2,
    # depths 1-6): all 49,152 leaves, in the batches the traces take them,
    # against _log2_abs_1p_ref's libmp steps on each complex eps, read exactly
    n = 0
    for phase_seed in range(1, 9):
        m, syn = _model_and_field(phase_seed)
        for k, depth in itertools.product((1, 2), range(1, 7)):
            for us, wp, out in _kernel_batches(m, syn, k, depth):
                for u, (q, e) in zip(us, out, strict=True):
                    want = _log2_abs_1p_steps(libmp.from_float(u.real), libmp.from_float(u.imag), wp)
                    assert libmp.from_man_exp(q, e) == want, (phase_seed, k, depth, u)
                    n += 1
    assert n == 96 * 512


def test_log_table_is_kept_per_working_precision():
    # x's leading 9 bits n name the same table point a = n 2**(wp1 - 9) at
    # every precision, but a and log a are kept at wp1 bits: leaf-like u at
    # 128 bits and then at 129, where a table keyed on n alone would hand
    # the kernel a point of half the scale, each equal mpmath's
    us = [complex(0.01, 0.005), complex(-0.003, 0.002), complex(0.0007, -0.009)]
    for u in us:
        for prec in (128, 129):
            assert _kernel_frac(u, prec + 32) == _log2_abs_1p_ref(u, prec), (u, prec)


def _sum_of_squares(u, wp):
    # |w + i Im u|^2 exactly, w = 1 + Re u rounded as mpf_add rounds it at wp
    with mpmath.workprec(wp):
        ur, ui = mpmath.mpc(u)._mpc_
    w = _mpf_to_frac_ref(mpmath.mp.make_mpf(libmp.mpf_add(ur, libmp.fone, wp, libmp.round_nearest)))
    v = _mpf_to_frac_ref(mpmath.mp.make_mpf(ui))
    return w, v, w * w + v * v


def _is_pow2(x):
    return x.numerator & (x.numerator - 1) == 0 and x.denominator & (x.denominator - 1) == 0


def _odd_bits(x):
    # significant bits of a dyadic x
    num = abs(x.numerator)
    return (num >> ((num & -num).bit_length() - 1)).bit_length()


def _circle(theta, wp):
    # e^(i theta) - 1 at 2 wp bits: read at wp, |1 + u| is 1 up to rounding
    with mpmath.workprec(2 * wp):
        return mpmath.expj(theta) - 1


def _branch_inputs(branch, prec, rng):
    """Seeded u that take the kernel's branch, with the predicate that says
    they do, decided exactly on the sum of squares."""
    wp = prec + 32
    sign = lambda: rng.choice((-1, 1))                           # noqa: E731
    part = lambda lo, hi: sign() * math.ldexp(rng.uniform(0.5, 1), rng.randint(lo, hi))  # noqa: E731
    if branch == "|u| < 2^-16":
        e = [rng.randint(-400, -17) for _ in range(40)]
        return ([complex(part(x, x), part(x, x)) for x in e]
                + [_wide(part(x, x), part(x, x), prec, rng.getrandbits(prec)) for x in e],
                lambda u: mpmath.mag(mpmath.mpc(u)) <= -16)
    if branch == "a zero part":
        us = [complex(part(-15, -1), 0.0) for _ in range(20)]
        us += [complex(0.0, part(-15, -1)) for _ in range(20)]
        us += [_wide(u.real, u.imag, prec, rng.getrandbits(prec)) for u in us[::4]]
        return us, lambda u: not (mpmath.mpc(u).real and mpmath.mpc(u).imag)
    if branch == "a power-of-two sum":
        us = []
        for k in rng.sample(range(1, 50), 30):
            us += [complex(2.0 ** -k - 1, 0.0), complex(2.0 ** -k - 1, sign() * 2.0 ** -k)]
        return us, lambda u: _is_pow2(_sum_of_squares(u, wp)[2])
    if branch == "squares more than 100 exponents apart":
        us = [complex(part(-15, -1), part(-1000, -(wp // 2 + 20))) for _ in range(30)]
        us += [_wide(u.real, u.imag, prec, rng.getrandbits(prec)) for u in us[:10]]

        def far(u):
            w, v, _ = _sum_of_squares(u, wp)
            return frac_ilog2(w * w) - frac_ilog2(v * v) > wp + 30
        return us, far
    if branch == "a truncated sum":
        us = [_wide(part(-8, -2), part(-8, -2), prec, rng.getrandbits(prec)) for _ in range(40)]
        return us, lambda u: (_odd_bits(_sum_of_squares(u, wp)[2]) > wp + 20
                              and abs(_sum_of_squares(u, wp)[2] - 1) > Fraction(1, 1 << 11))
    if branch == "the near-1 retake":
        ths = [rng.uniform(2.0 ** -10, 1.0) for _ in range(30)]
        us = [complex(math.cos(t) - 1, math.sin(t)) for t in ths]
        us += [_circle(t, wp) for t in ths[:10]]
        return us, lambda u: 0 < abs(_sum_of_squares(u, wp)[2] - 1) < Fraction(1, 1 << 11)
    if branch == "cancellation past wp1":
        # 1 + Re u = 1 - d exact at wp bits, d near 2**-30, and Im u the
        # wp-bit rounding of sqrt(2 d - d**2): |1 + u|**2 - 1 is near 2**-188
        us = []
        for _ in range(30):
            with mpmath.workprec(wp):
                d = mpmath.ldexp(rng.getrandbits(wp - 30) | 1 << (wp - 31), -wp)
                us.append(mpmath.mpc(-d, sign() * mpmath.sqrt(2 * d - d * d)))
        return us, lambda u: 0 < abs(_sum_of_squares(u, wp)[2] - 1) < Fraction(1, 1 << (wp + 22))
    if branch == "wp1 past LOG_TAYLOR_PREC":
        us = [_circle(rng.uniform(0.1, 1.0), wp) for _ in range(10)]
        return us, lambda u: (Fraction(1, 1 << (wp + 19))
                              < abs(_sum_of_squares(u, wp)[2] - 1) < Fraction(1, 1 << 100))
    raise AssertionError(branch)


KERNEL_BRANCHES = [(128, b) for b in (
    "|u| < 2^-16", "a zero part", "a power-of-two sum", "squares more than 100 exponents apart",
    "a truncated sum", "the near-1 retake", "cancellation past wp1")] + [
    (2400, "wp1 past LOG_TAYLOR_PREC")]


def _kernel_ref(u, prec):
    # mpmath's mpf_log_hypot over mpf_ln2; below 2^-16, the log1p series
    # over ln 2 that lp_perturb's mpc form took
    with mpmath.workprec(prec + 32):
        tiny = mpmath.mag(mpmath.mpc(u)) <= -16
    return _lp_perturb_mpc(LogPolar(0), u, prec).rho if tiny else _log2_abs_1p_ref(u, prec)


def _kernel_input(u, wp):
    # a complex as it is, any other form as dyadic_parts' tuple
    return u if type(u) is complex else dyadic_parts(u, wp)


@pytest.mark.parametrize("prec, branch", KERNEL_BRANCHES)
def test_kernel_branches_match_mpmath(prec, branch):
    wp = prec + 32
    us, takes_branch = _branch_inputs(branch, prec, random.Random(f"{branch}:{prec}"))
    assert len(us) >= 10
    for u in us:
        assert takes_branch(u), u
        assert _kernel_frac(_kernel_input(u, wp), wp) == _kernel_ref(u, prec), u


@pytest.mark.parametrize("prec", sorted({p for p, _ in KERNEL_BRANCHES}))
def test_mixed_kernel_batch_equals_its_inputs_one_at_a_time(prec):
    # every branch's inputs at prec, complex and parts forms interleaved
    wp = prec + 32
    rng = random.Random(prec)
    us = [_kernel_input(u, wp) for p, b in KERNEL_BRANCHES if p == prec
          for u in _branch_inputs(b, prec, rng)[0]]
    rng.shuffle(us)
    assert log2_abs_1p_int(us, wp) == [log2_abs_1p_int([u], wp)[0] for u in us]


def test_lp_sub_close_scales():
    a = LogPolar(58, Fraction(1, 8))
    b = LogPolar(58, Fraction(1, 8) + Fraction(1, 1 << 30))
    d = lp_sub(a, b, ADD_GUARD, SIG_BITS)
    assert not d.value.is_zero
    with mpmath.workprec(220):
        za, zb, got = (_to_mpc_scaled_ref(x, 58, 200) for x in (a, b, d.value))
        err = abs(got - (za - zb)) / abs(za - zb)
        assert err < mpmath.mpf(2) ** -100


@pytest.mark.parametrize("drho, dtheta", [
    (Fraction(0), Fraction(1, 64)),
    (Fraction(0), Fraction(1, 100)),
    (Fraction(1, 64), Fraction(0)),
    (Fraction(0), Fraction(1, 4096)),
    (Fraction(0), Fraction(1, 1 << 17)),
    (Fraction(-3, 1 << 40), Fraction(5, 1 << 43)),
])
def test_expm1_lp_full_precision(drho, dtheta):
    # against exp(L) - 1 at 600 bits, on both sides of the series cut-over
    got = expm1_lp(drho, dtheta, SIG_BITS)
    with mpmath.workprec(600):
        L = mpmath.mpc(mpmath.mpf(drho.numerator) / drho.denominator * mpmath.ln(2),
                       mpmath.mpf(dtheta.numerator) / dtheta.denominator * 2 * mpmath.pi)
        v = mpmath.exp(L) - 1
        rho_err = abs(mpmath.log(abs(v), 2) - mpmath.mpf(got.rho.numerator) / got.rho.denominator)
        turns = mpmath.mpf(got.theta.turns.numerator) / got.theta.turns.denominator
        d = turns - mpmath.arg(v) / (2 * mpmath.pi)
        th_err = abs(d - mpmath.nint(d))
        bound = mpmath.mpf(2) ** -(SIG_BITS + 8)
        assert rho_err <= bound and th_err <= bound, (rho_err, th_err)


def test_expm1_series_rejects_wide_inputs():
    with pytest.raises(DomainError):
        expm1_series(mpmath.mpc(0, mpmath.mpf(2) ** -10)._mpc_, 10, SIG_BITS, SIG_BITS + 32)


# the libmp kernels against their mpc forms, bit for bit -----------------------

def _scales(rng, n):
    """Exponents e for |u| ~ 2^-e from 1 to 23000: the edges, both sides of
    the series switch at 2^-16, and the rest log-uniform."""
    return [1, 2, 15, 16, 17, 18, 23000] + [int(2 ** rng.uniform(0, math.log2(23000)))
                                          for _ in range(n)]


def _pair(rng, e, bits):
    """A libmp pair of modulus about 2^-e: both parts, only the real one or
    only the imaginary one, each a seeded bits-bit mantissa of either sign."""
    def part():
        return libmp.from_man_exp(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)),
                                  -e - bits)
    shape = rng.randrange(3)
    return (part() if shape != 2 else libmp.fzero), (part() if shape != 1 else libmp.fzero)


def _tiny_frac(rng, e, bits):
    # +-(a bits-bit numerator) / 2^(e + bits), or over 3 2^(e + bits - 2) (a
    # denominator that is not a power of two)
    num = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
    return (Fraction(num, 1 << (e + bits)) if rng.randrange(2)
            else Fraction(num, 3 << (e + bits - 2)))


def _mpc(pair):
    return mpmath.mp.make_mpc(pair)


@pytest.mark.parametrize("prec", [64, 128, 2400])
def test_libmp_kernels_equal_their_mpc_forms(prec):
    from juliadim.dynamics import _half_sqrt1p_minus1

    rng = random.Random(f"kernels:{prec}")
    n = 12 if prec == 2400 else 30
    for e in _scales(rng, n):
        # numerators and mantissas that fit the working precision, and
        # wider ones that each kernel rounds first
        bits = rng.choice((64, prec + 32, prec + 100))
        # polar_pair: 2^(rho - rho0) e^(2 pi i theta), |.| ~ 2^-e
        rho0 = rng.randrange(-(1 << 40), 1 << 40)
        turns = _tiny_frac(rng, rng.randrange(0, 60), bits) % 1
        z = LogPolar(rho0 - e + _tiny_frac(rng, 0, bits) % 1, Angle(turns))
        assert cpair_mpc(_polar(z, rho0, prec)) == _to_mpc_scaled_ref(z, rho0, prec)._mpc_, e

        # from_mpc, of w ~ 2^-e and of w = 1 + u near one
        u = _pair(rng, e, bits)
        for w in (u, libmp.mpc_add_mpf(u, libmp.fone, prec + 64 + e, libmp.round_nearest)):
            with mpmath.workprec(max(x[3] for x in w) + 1):
                want = _from_mpc_ref(_mpc(w), prec)
            got = LogPolar.from_mpc(w, prec)
            assert (got.rho, got.theta) == (want.rho, want.theta), e

        # log1p_mpc, below 1 in modulus; the mpc forms at the workprec
        # their callers set, the kernels at mpmath's default precision
        u = _pair(rng, max(e, 2), bits)
        with mpmath.workprec(prec + 32):
            want = _log1p_mpc_ref(_mpc(u), prec)._mpc_
        assert log1p_mpc(u, prec) == want, e

        # expm1_series at both working precisions its callers set
        L = _pair(rng, max(e, 18), bits)
        scale = -mpmath.mag(_mpc(L))
        for wp in (prec + 32, prec + 64):
            with mpmath.workprec(wp):
                want = _expm1_series_ref(_mpc(L), scale, prec)._mpc_
            assert expm1_series(L, scale, prec, wp) == want, e

        # expm1_lp of (drho, dtheta) of size ~ 2^-e, one of them possibly 0
        drho, dtheta = _tiny_frac(rng, e, bits), _tiny_frac(rng, e, bits)
        drho, dtheta = ((0, dtheta), (drho, 0), (drho, dtheta))[rng.randrange(3)]
        got, want = expm1_lp(drho, dtheta, prec), _expm1_lp_ref(drho, dtheta, prec)
        assert (got.rho, got.theta) == (want.rho, want.theta), e

        # the petal step's series, for |q| ~ 2^-e
        q = LogPolar(-e + _tiny_frac(rng, 0, bits) % 1, Angle(_tiny_frac(rng, 30, bits) % 1))
        got = cpair_mpc(_half_sqrt1p_minus1(_polar(q, 0, prec), prec))
        assert got == _half_sqrt1p_minus1_ref(q, prec)._mpc_, e


def _odd(rng, bits):
    # a random odd mantissa of exactly `bits` bits, either sign
    return rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) << 1 | 1 | 1 << (bits - 1)
                                  if bits > 1 else 1)


def _ties(rng, wp):
    # integer pairs (m, e) that pair_round meets at wp bits: exact ties, a tie
    # with a sticky bit below it, one under a tie, and all-ones mantissas
    # whose round-up carries into a new bit
    for _ in range(4):
        x = rng.getrandbits(wp - 1) | 1 << (wp - 1)
        for n in (1, 2, 9, 70):
            half = 1 << (n - 1)
            for low in (half, half + 1, half - 1, (1 << n) - 1):
                yield rng.choice((-1, 1)) * ((x << n) + low), rng.randrange(-500, 500)
    for n in (1, 2, 33):
        yield rng.choice((-1, 1)) * ((1 << (wp + n)) - 1), rng.randrange(-500, 500)


def _operands(rng, wp, count):
    # pairs of canonical reals: wp-bit values and the exact products mpc_mul
    # sums (up to 3 wp bits), their exponents 0..400 apart, and zeros
    for _ in range(count):
        bits = [rng.choice((1, 2, wp - 1, wp, wp + 1, 2 * wp, 3 * wp)) for _ in range(2)]
        e = rng.randrange(-3 * wp, 3 * wp)
        d = rng.choice((0, 1, -1, 100, -100, 101, -101, rng.randrange(-400, 400)))
        x, y = (_odd(rng, bits[0]), e), (_odd(rng, bits[1]), e - d)
        yield x, y
        yield x, (-x[0], x[1])                  # exact cancellation
        yield x, (0, 0)
    # mpf_add's far-operand shortcut: a longer than wp bits, leading b by
    # more than wp + 4 bits, exponents more than 100 apart.  Where the n bits
    # of a below its rounding point lie one unit from a tie and b moves the
    # sum across it, libmp's one unit toward b does not, and the two differ
    for _ in range(count):
        la = rng.choice((wp + 1, 2 * wp, 3 * wp))
        d = rng.randrange(101, 200)
        lb = la + d - wp - 5 - rng.randrange(1, 60)
        if lb >= 1:
            yield (_odd(rng, la), 7), (_odd(rng, lb), 7 - d)
        n, sign, toward = rng.choice((8, 40, wp)), rng.choice((-1, 1)), rng.choice((-1, 1))
        x = rng.getrandbits(wp - 1) | 1 << (wp - 1)
        a = sign * ((x << n) + (1 << (n - 1)) - toward)
        yield (a, 7), (sign * toward * _odd(rng, d + rng.randrange(2, n - 5)), 7 - d)


def _mpc_below_ref(x, y, bits, wp):
    if not x[0][1] and not x[1][1]:
        return True
    return libmp.mpf_le(libmp.mpc_abs(x, wp, RND), libmp.mpf_shift(libmp.mpc_abs(y, wp, RND), -bits))


@pytest.mark.parametrize("wp", [53, 64, 96, 160, 192, 400, 2432, 22715])
def test_integer_pairs_equal_libmp_tuple_for_tuple(wp):
    # every op of the integer-pair kernel against the libmp op it names, at
    # wp bits with round_nearest: random operands, ties with and without a
    # sticky bit, round-ups that carry into a new bit, exact cancellation,
    # zeros, both signs, and mpf_add's far-operand shortcut on operands
    # longer than wp bits, where it differs from the rounded exact sum
    rng = random.Random(f"pairs:{wp}")
    for m, e in _ties(rng, wp):
        assert pair_mpf(*pair_round(m, e, wp)) == libmp.from_man_exp(m, e, wp, RND), (m, e)
    shortcut = 0
    ops = list(_operands(rng, wp, 40 if wp < 5000 else 4))
    for (x, y), (z, w) in zip(ops, ops[1:] + ops[:1]):
        xf, yf = pair_mpf(*x), pair_mpf(*y)
        assert pair_of(xf) == x and pair_of_int(x[0] << 5) == pair_of(libmp.from_int(x[0] << 5))
        got, want = pair_add(*x, *y, wp), libmp.mpf_add(xf, yf, wp, RND)
        assert pair_mpf(*got) == want, (x, y)
        exact = libmp.from_man_exp(x[0] * 2 ** (x[1] - min(x[1], y[1]))
                                   + y[0] * 2 ** (y[1] - min(x[1], y[1])), min(x[1], y[1]), wp, RND)
        shortcut += want != exact
        assert pair_mpf(*pair_add(*x, -y[0], y[1], wp)) == libmp.mpf_sub(xf, yf, wp, RND), (x, y)
        for n in (2, 3, 6, 7, 31, 96, 199, rng.randrange(3, 1 << 70)):
            assert (pair_mpf(*pair_div_int(*x, n, wp))
                    == libmp.mpf_div(xf, libmp.from_int(n), wp, RND)), (x, n)
        a, b = (x, y), (z, w)
        am, bm = cpair_mpc(a), cpair_mpc(b)
        assert cpair_of(am) == a
        for pair_op, libmp_op in ((cpair_add, libmp.mpc_add), (cpair_sub, libmp.mpc_sub),
                                  (cpair_mul, libmp.mpc_mul)):
            assert cpair_mpc(pair_op(a, b, wp)) == libmp_op(am, bm, wp, RND), (a, b, pair_op)
        assert cpair_mpc(cpair_mul_real(a, z, wp)) == libmp.mpc_mul_mpf(am, pair_mpf(*z), wp, RND)
        assert cpair_mpc(cpair_add_real(a, z, wp)) == libmp.mpc_add_mpf(am, pair_mpf(*z), wp, RND)
        assert (cpair_mpc(cpair_div_int(a, 31, wp))
                == libmp.mpc_div_mpf(am, libmp.from_int(31), wp, RND))
        assert cpair_mpc(cpair_neg(a, wp)) == libmp.mpc_neg(am, wp, RND)
        assert cpair_mpc(cpair_shift(a, -77)) == libmp.mpc_shift(am, -77)
        if x[0] or y[0]:
            assert cpair_mag(a) == mpmath.mag(mpmath.mp.make_mpc(am))
        if z[0] or w[0]:
            base = cpair_mag(b) - cpair_mag(a) if x[0] or y[0] else 0
            for gap in range(-6, 8):    # the screen's -3..2-bit gap and either side of it
                bits = base + gap
                assert cpair_below(a, b, bits, wp) == _mpc_below_ref(am, bm, bits, wp), (a, b)
    assert shortcut, "no far-operand case where libmp's sum is not the rounded exact sum"


@pytest.mark.parametrize("prec", [64, 128, 2400])
def test_polar_pair_takes_2_to_the_d_as_mpf_pow(prec):
    # 2**d, d = rho - rho0, is mpf_pow(2, d, p)'s value bit for bit at p =
    # prec + 16: d = 0, integer d and d = n +- 1/2, which mpf_pow special-cases,
    # and seeded fractional d, where polar_pair repeats its general branch
    from juliadim.numerics import FTWO, RND, frac_to_mpf

    rng, p = random.Random(f"pow2:{prec}"), prec + 16
    ds = [Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 2)]
    ds += [Fraction(rng.randrange(-(1 << 24), 1 << 24)) for _ in range(20)]
    ds += [Fraction(2 * rng.randrange(-(1 << 20), 1 << 20) + 1, 2) for _ in range(20)]
    ds += [rng.randrange(-(1 << 20), 1 << 20)
           + _tiny_frac(rng, rng.randrange(0, 40), rng.choice((64, p + 32))) for _ in range(150)]
    for d in ds:
        rho0 = rng.randrange(-(1 << 40), 1 << 40)
        z = LogPolar(rho0 + d, Angle(Fraction(rng.randrange(1 << 30), 1 << 30)))
        mag = libmp.mpf_pow(FTWO, frac_to_mpf(d, p), p, RND)
        turns = libmp.mpf_pos(libmp.mpf_shift(frac_to_mpf(z.theta.turns, p), 1), p, RND)
        c, s = libmp.mpf_cos_sin_pi(turns, p, RND)
        want = libmp.mpf_mul(mag, c, p, RND), libmp.mpf_mul(mag, s, p, RND)
        assert cpair_mpc(_polar(z, rho0, prec)) == want, d


def _polar_inputs(rng, prec):
    """Seeded (d, turns) for polar_pair at p = prec + 16 bits.  d: integers
    and half-integers (mpf_pow's own cases), below 2**-(p + 14) (exp of it is
    1), within 2 and past 2 in modulus (mpf_exp's ln 2 reduction), numerators
    wider than p + 8 bits, over 2**k, 31 2**k and 63 2**k.  turns: 0, 1/4, 1/2
    and 3/4 (mpf_cos_sin's exp >= -1 cases), below 2**-(p + 11) (sin pi x as
    pi x), a few bits either side of a quarter turn, and seeded in each
    quadrant."""
    p = prec + 16

    def frac(lo, den):      # a seeded fraction of modulus about 2**-lo over den
        bits = rng.choice((20, p + 40))
        return Fraction(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1), den << (bits + lo))

    ds = [Fraction(n) for n in (0, 1, -3, 5)] + [Fraction(n, 2) for n in (1, -7, 9)]
    ds += [frac(p + 15 + rng.randrange(8), 1) for _ in range(3)]
    for den in (1, 31, 63):
        ds += [frac(rng.randrange(-1, 30), den) for _ in range(4)]
        ds += [rng.randrange(-(1 << 20), 1 << 20) + frac(0, den) for _ in range(3)]
    ts = [Fraction(n, 4) for n in range(4)] + [Fraction(1, 1 << (p + 12 + rng.randrange(9)))]
    for q in range(4):
        ts += [Fraction(q, 4) + abs(frac(rng.randrange(2, p), 1)) % Fraction(1, 4) for _ in range(3)]
        ts += [(Fraction(q, 4) + frac(rng.randrange(3, 80), den)) % 1 for den in (1, 31, 63)]
    return ([(d, rng.choice(ts)) for d in ds] + [(rng.choice(ds), t) for t in ts])


@pytest.mark.parametrize("prec", [64, 128, 144, 400, 2048])
def test_polar_pair_equals_the_libmp_read(prec):
    # tuple for tuple the read _to_mpc_scaled_ref composes from mpmath, on
    # d = rho - rho0 and turns handed over in lowest terms and times 3, 7 2**5
    # or 2**9 (polar_pair divides the odd factor out before rounding); at 64
    # bits 4000 more seeded reads, where the cos/sin precision libmp.bitcount
    # sets for a negative remainder decides the last bit of a few
    rng = random.Random(f"polar:{prec}")
    cases = _polar_inputs(rng, prec)
    if prec == 64:
        cases += [(Fraction(rng.randrange(-(1 << 70), 1 << 70), 1 << 66),
                   Fraction(rng.getrandbits(90), 1 << 90)) for _ in range(4000)]
    for d, t in cases:
        want = cpair_of(_to_mpc_scaled_ref(LogPolar(d, Angle(t)), 0, prec)._mpc_)
        f, g = rng.choice((1, 3, 7 << 5, 1 << 9)), rng.choice((1, 3, 7 << 5, 1 << 9))
        got = polar_pair(d.numerator * f, d.denominator * f, t.numerator * g, t.denominator * g,
                         prec)
        assert got == want, (d, t, f, g)


def test_polar_pair_equals_the_libmp_read_at_the_backwards_precision():
    # one read at 22699 bits, the backwards construction's petal step at
    # need[0] = 22683: 64-bit-wide d and turns, d over 31 2**k
    rng = random.Random("polar:22683")
    d = Fraction(rng.getrandbits(64), 31 << 60)
    t = Fraction(rng.getrandbits(64), 1 << 64)
    want = cpair_of(_to_mpc_scaled_ref(LogPolar(d, Angle(t)), 0, 22683)._mpc_)
    assert polar_pair(d.numerator, d.denominator, t.numerator, t.denominator, 22683) == want


def test_libmp_kernels_refuse_what_their_mpc_forms_refused():
    # a scale gap past 2^24, a zero point, expm1 of (0, 0) and of (0, 1) (a
    # whole turn), expm1_series past 2^-16; log1p_mpc of 0 is 0 where the
    # mpc form ended in a ValueError from int(mag(0)), mag(0) being -inf
    far = LogPolar((1 << 24) + 1, Fraction(1, 3))
    for f in (lambda: _polar(far, 0, 64), lambda: _to_mpc_scaled_ref(far, 0, 64)):
        with pytest.raises(DomainError, match="scale gap"):
            f()
    assert LogPolar.from_mpc((libmp.fzero,) * 2, 64).is_zero and _from_mpc_ref(0, 64).is_zero
    assert LogPolar.from_mpc(mpmath.mpc(0), 64).is_zero
    for drho, dtheta in ((0, 0), (0, 1), (0, -1)):
        assert expm1_lp(Fraction(drho), Fraction(dtheta), 64).is_zero
        assert _expm1_lp_ref(Fraction(drho), Fraction(dtheta), 64).is_zero
    L = mpmath.mpc(0, mpmath.ldexp(1, -16))
    for f in (lambda: expm1_series(L._mpc_, 15, 64, 96), lambda: _expm1_series_ref(L, 15, 64)):
        with pytest.raises(DomainError, match="2\\*\\*-16"):
            f()
    assert log1p_mpc((libmp.fzero,) * 2, 64) == (libmp.fzero,) * 2
    with mpmath.workprec(96), pytest.raises(ValueError):
        _log1p_mpc_ref(mpmath.mpc(0), 64)


def test_from_mpc_reads_its_input_exactly():
    # an mpc carrying 301 bits, read outside any workprec: mpc(w) used to
    # round it to the ambient 53 bits, where 1 + 2^-200 is 1, so rho was 0
    with mpmath.workprec(400):
        w = mpmath.mpc(1 + mpmath.ldexp(1, -200), mpmath.ldexp(1, -300))
    z = LogPolar.from_mpc(w, 256)
    assert abs(float(z.rho * 2 ** 200) - 1 / math.log(2)) < 1e-12
    assert abs(float(z.theta.turns * 2 ** 300) - 1 / (2 * math.pi)) < 1e-12
    assert LogPolar.from_mpc(w._mpc_, 256) == z


# exact glue against plain-Fraction references ----------------------------------

def _canonical(fr):
    return type(fr) is Fraction and fr.denominator > 0 and math.gcd(fr.numerator,
                                                                  fr.denominator) == 1


def _glue_values(rng, n, span=4):
    # power-of-two denominators up to 2**23000 and odd ones, 31 2**k as at the
    # origin zeros, of either sign and up to `span` in modulus
    out = []
    for _ in range(n):
        k = rng.choice([0, 1, 20, 64, 192, 1000, 23000])
        den = rng.choice([1 << k, 31 << k])
        out.append(Fraction(rng.randrange(-span * den, span * den + 1), den))
    return out


def _turns_ref(x):
    return Fraction(x.numerator % x.denominator, x.denominator)


def test_angle_and_logpolar_glue_equals_plain_fractions():
    rng = random.Random(2101)
    xs = _glue_values(rng, 200) + [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                                   Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 1 << 23000)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        a, b = Angle(x), Angle(y)
        assert a.turns == _turns_ref(x) and _canonical(a.turns)
        if 0 <= x < 1:
            assert a.turns is x          # a canonical turn is kept, not rebuilt
        n = rng.randrange(1, 1 << 40)
        for got, want in ((a.add(b), x + y), (a.sub(b), x - y), (a.mul_int(n), x * n),
                          (a.div(7, 3), (_turns_ref(x) + 3) / 7),
                          (a.half_turn(), x + Fraction(1, 2))):
            assert got.turns == _turns_ref(want) and _canonical(got.turns)
        d = _turns_ref(x - y)
        assert a.dist(b) == min(d, 1 - d) and _canonical(a.dist(b))
        z = LogPolar(x, a)
        assert z.rho is x and z.theta is a and z.rho_int() == math.floor(x)
        zy = LogPolar(y, b)
        for w in (z.mul(zy), z.div(zy), z.pow_int(n), z.root(5, 2), z.neg()):
            assert _canonical(w.rho) and _canonical(w.theta.turns) and 0 <= w.theta.turns < 1
        assert LogPolar(3).rho == 3 and type(LogPolar(3).rho) is Fraction
    # sums frac_add forms in integers: 2**k denominators past 22000 bits
    # whose low bits cancel, sums that are exactly 0 or an integer, either
    # sign; and the pairs it leaves to Fraction, an int and 31 2**k
    from juliadim.numerics import _dyadic, frac_add, frac_quantize, frac_sub
    k = 23000
    x = Fraction(rng.getrandbits(k + 2) | 1, 1 << k)
    cancel = Fraction((rng.getrandbits(k) << 100 | 1 << 99) - x.numerator, 1 << k)
    pairs = [(x, cancel), (x, -x), (x, 12 - x), (x, -5 - x), (x, x),
             (x, Fraction(rng.getrandbits(k) | 1, 1 << (k - 7))), (x, Fraction(3, 4)),
             (x, 7), (x, Fraction(-2)), (x, Fraction(rng.getrandbits(40) | 1, 31 << 20)),
             (Fraction(5, 31 << k), Fraction(-3, 1 << k)), (Fraction(1, 2), Fraction(1, 2))]
    for a, b in pairs + [(-a, -b) for a, b in pairs] + [(b, a) for a, b in pairs]:
        for got, want in ((frac_add(a, b), a + b), (frac_sub(a, b), a - b)):
            assert got == want and _canonical(got) and hash(got) == hash(want), (a, b)
        if type(b) is Fraction:
            assert Angle(a).add(Angle(b)).turns == _turns_ref(a + b)
            assert Angle(a).sub(Angle(b)).turns == _turns_ref(a - b)
            za, zb = LogPolar(a, Angle(a)), LogPolar(b, Angle(b))
            assert za.mul(zb).rho == a + b and za.div(zb).rho == a - b
    assert frac_add(x, cancel).denominator == 1 << (k - 99)
    for q in (0, 1, -1, 12 << 40, -(5 << 300), 1 << 23000, -(3 << 22999), rng.getrandbits(k) << 77):
        for e in (0, -1, -40, -77, -78, -300, -23000, -23001):
            got, want = _dyadic(q, e), Fraction(q, 1 << -e)
            assert got == want and _canonical(got) and hash(got) == hash(want), (q, e)
    for fr in (x, -x, cancel, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 31 << 200)):
        for bits in (0, 1, 64, 192):
            s = fr * (1 << bits)
            want = Fraction(math.floor(abs(s) + Fraction(1, 2)) * (1 if s >= 0 else -1), 1 << bits)
            got = frac_quantize(fr, bits)
            assert got == want and _canonical(got) and hash(got) == hash(want), (fr, bits)


def _lp_add_ref(a, b, guard, prec):
    # lp_add's routing with plain Fraction comparisons and % 1 wraps
    from juliadim.numerics import LpSum
    if a.is_zero or b.is_zero:
        return LpSum(b if a.is_zero else a)
    if (b.rho, b.theta.turns) > (a.rho, a.theta.turns):
        a, b = b, a
    drho, dtheta = b.rho - a.rho, (b.theta.turns - a.theta.turns) % 1
    if -math.floor(drho) > guard:
        return LpSum(a, negligible=True)
    if drho == 0 and dtheta == Fraction(1, 2):
        return LpSum(LogPolar.zero_point(), cancelled=True)
    if abs(drho) <= Fraction(1, 4) and abs(dtheta - Fraction(1, 2)) <= Fraction(1, 16):
        d = _expm1_lp_ref(drho, dtheta - Fraction(1, 2), prec)
        if d.is_zero:
            return LpSum(LogPolar.zero_point(), cancelled=True)
        return LpSum(LogPolar(a.rho + d.rho, (a.theta.turns + d.theta.turns + Fraction(1, 2)) % 1))
    s = lp_perturb(a, _to_mpc_scaled_ref(LogPolar(drho, dtheta), 0, prec + 16)._mpc_, prec)
    if s.rho - a.rho < -(prec - 8):
        return LpSum(LogPolar.zero_point(), cancelled=True)
    return LpSum(s)


def _lp_key(s):
    v = s.value
    return (None if v.is_zero else (v.rho, v.theta.turns), s.negligible, s.cancelled)


@pytest.mark.parametrize("prec", [64, 128])
def test_lp_add_routing_equals_plain_fractions(prec):
    # every route: the near-cancellation box and its edges (|drho| = 1/4,
    # |dtheta - 1/2| = 1/16), exact cancellation, equal rho with either
    # turn larger, the guard gap and the lp_perturb route
    rng = random.Random(2102 + prec)
    edges = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 16), Fraction(-1, 16)]
    routes = {}
    for r, t in zip(_glue_values(rng, 30), _glue_values(rng, 30)):
        tiny = Fraction(rng.randrange(-(1 << 30), 1 << 30), 1 << rng.choice([3, 40, 300]))
        for dr in edges[:3] + [tiny, Fraction(-rng.randrange(1, 600)), r]:
            for dt in [Fraction(1, 2) + e for e in edges] + [Fraction(0), t, -t]:
                a, b = LogPolar(r, Angle(t)), LogPolar(r + dr, Angle(t + dt))
                got, want = lp_add(a, b, 256, prec), _lp_add_ref(a, b, 256, prec)
                assert _lp_key(got) == _lp_key(want), (r, t, dr, dt)
                assert _lp_key(lp_add(b, a, 256, prec)) == _lp_key(got)
                if not got.value.is_zero:
                    assert _canonical(got.value.rho) and _canonical(got.value.theta.turns)
                routes[got.negligible, got.cancelled] = True
    assert len(routes) == 3


def test_expm1_lp_wrap_and_routing_equal_plain_fractions():
    # dtheta in and out of [-1/2, 1/2) (turns >= 1, negative, exactly +-1/2),
    # sizes on both sides of the 2**-16 switch and exactly at it
    rng = random.Random(2103)
    sizes = [Fraction(1, 1 << 16), Fraction(-1, 1 << 16), Fraction(0)]
    for x in _glue_values(rng, 40, span=1) + sizes:
        e = rng.choice([4, 16, 17, 40, 300, 22000])
        small = x / (1 << e)
        half = Fraction(1, 2) + rng.randrange(-2, 3)
        for drho, dtheta in ((small, x), (x / 8, small), (small, small + rng.randrange(-3, 4)),
                             (Fraction(0), half), (x, Fraction(0))):
            got, want = expm1_lp(drho, dtheta, 64), _expm1_lp_ref(drho, dtheta, 64)
            assert got == want, (drho, dtheta)
            if not got.is_zero:
                assert _canonical(got.rho) and _canonical(got.theta.turns)


def test_pow2_minus1_log2_tiny():
    delta = Fraction(1, 1 << 500)
    got = pow2_minus1_log2(delta, SIG_BITS)
    # 2^d - 1 ~ d ln 2: log2 ~ -500 + log2(ln 2)
    assert abs(float(got + 500) - math.log2(math.log(2))) < 1e-12


def test_renderings():
    from juliadim.report import pow2_str

    assert pow2_str(752 + const_log2_frac(31, 16)) == "1.9375x2^752"
    assert pow2_str(-(10**6 // 2)) == "1x2^-500000"
    # a significand that rounds up to 2 carries into the exponent
    assert pow2_str(Fraction(-1, 1 << 70)) == "1x2^0"


def test_rho_budget_is_decided_on_the_floor():
    # the division is skipped only where the bit lengths rule out a floor past
    # the budget: floor(-(2**(B+1) - 1) / 2) = -2**B needs B + 1 bits although
    # |n| // d = 2**B - 1 has B
    from juliadim.numerics import ExponentBudgetError, MAX_EXP_BITS as B

    for rho in (Fraction((1 << (B + 1)) - 1, 3), Fraction(1 - (1 << B)),
                Fraction(-(1 << B) + 1, 2)):
        assert LogPolar(rho).rho is rho
    for rho in (Fraction(1 << B), Fraction(-(1 << (B + 1)) + 1, 2), Fraction(-(1 << B))):
        with pytest.raises(ExponentBudgetError, match="in rho"):
            LogPolar(rho)


def test_exponent_budget_errors():
    from juliadim.numerics import ExponentBudgetError, MAX_EXP_BITS

    big = LogPolar(1 << (MAX_EXP_BITS - 2))
    with pytest.raises(ExponentBudgetError):
        big.pow_int(8)


def _below_log2_one_minus_pow2_from_resolution(d, e):
    # the rule below_log2_one_minus_pow2 started from before: p = 64 bits
    # past d's resolution, whatever e is
    if d >= 0:
        return False
    a, b = -d.numerator, d.denominator
    p = b.bit_length() + 64
    while True:
        terms = [(1 << (p - k * e)) // k for k in range(1, p // e + 1)]
        s_lo = sum(terms)
        ln2 = libmp.ln2_fixed(p)
        if a * (ln2 - (1 << 16)) > b * (s_lo + len(terms) + 2):
            return True
        if a * (ln2 + (1 << 16)) < b * s_lo:
            return False
        p *= 2


def test_threshold_verdict_does_not_depend_on_its_start():
    # 400 seeded (d, e): d within 2**-60 relative of log2(1 - 2**-e) (some
    # as close as d's own resolution, where the start at e + 64 bits must
    # double) or further, on either side, with denominators of e + 72 to e +
    # 271 bits or of 45004 bits (the backwards orbit's, where e = 752).  The
    # start at 64 + min(bits, e) gives the verdict of the start past d's
    # resolution
    rng = random.Random(29)
    cases = [(Fraction(-103, 100) + Fraction(1, (1 << 45003) + 1), 752)]
    with mpmath.workprec(256):
        for n in range(399):
            big = n % 10 == 0
            e = rng.randrange(600, 1200) if big else rng.randrange(1, 1200)
            rel = mpmath.ldexp(rng.uniform(1, 2), -rng.choice((60, 100)) if n % 2 else -rng.randrange(60))
            thr = mpmath.log1p(-mpmath.ldexp(1, -e)) / mpmath.ln(2)
            x = mpf_to_frac(thr * (1 + rel * rng.choice((-1, 1))))
            bits = 45004 if big else e + rng.randrange(72, 200)
            b = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
            cases.append((Fraction(round(x * b), b), e))
    for d, e in cases:
        assert below_log2_one_minus_pow2(d, e) == _below_log2_one_minus_pow2_from_resolution(d, e)
    assert sum(below_log2_one_minus_pow2(d, e) for d, e in cases) not in (0, len(cases))
