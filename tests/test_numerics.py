import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from juliadim.numerics import (
    Angle,
    DivisionByZero,
    DomainError,
    LogPolar,
    SIG_BITS,
    const_log2_frac,
    expm1_lp,
    expm1_series,
    log1p_mpc,
    log2_abs_1p,
    lp_add,
    lp_perturb,
    lp_sub,
    pow2_minus1_log2,
)

# strategies -----------------------------------------------------------------

angles = st.builds(
    lambda n, b: Angle(Fraction(n, 1 << b)),
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.sampled_from([16, 32, 48]),
)


def test_pow2_exactness():
    a = LogPolar.from_pow2(6)
    b = LogPolar.from_pow2(-8)
    c = a.mul(b)
    assert c.rho == -2 and c.rho.denominator == 1

    # huge exponents combine exactly as integers
    big = LogPolar.from_pow2(2**60)
    sq = big.mul(big)
    assert sq.rho == 2**61 and sq.rho.denominator == 1


def test_table_recurrence_value():
    # c4 * (r4/2)**M4 = 2**-128 * (2**55)**16 = 2**752
    c4 = LogPolar.from_pow2(-128)
    half_r4 = LogPolar.from_pow2(55)
    r5 = c4.mul(half_r4.pow_int(16))
    assert r5.rho == 752 and r5.rho.denominator == 1


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        LogPolar.from_pow2(0).div(LogPolar.zero_point())


@settings(max_examples=100)
@given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.sampled_from([0, 1, 7, 40]),
       st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=9))
def test_pow_int_matches_repeated_mul(num, shift, tnum, n):
    a = LogPolar(Fraction(num, 1 << shift), Fraction(tnum, 1 << 32))
    acc = LogPolar.from_pow2(0)
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
    big = LogPolar.from_pow2(752)
    small = LogPolar.from_pow2(4)
    s = lp_add(big, small)
    assert s.negligible and s.value.rho == 752


def test_lp_add_exact_cancellation():
    a = LogPolar.from_pow2(3)
    b = LogPolar.from_pow2(3, Fraction(1, 2))
    s = lp_add(a, b)
    assert s.cancelled and s.value.is_zero


def test_lp_add_sixth_turn():
    # 2^3 + 2^3 e^{2pi i/3} has modulus 2^3 and angle 1/6 turn
    a = LogPolar.from_pow2(3)
    b = LogPolar.from_pow2(3, Fraction(1, 3))
    s = lp_add(a, b)
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
    s = lp_add(a, b)
    za, zb = a.to_complex(), b.to_complex()
    zs = za + zb
    if s.cancelled:
        assert abs(zs) <= 1e-12 * max(abs(za), abs(zb))
        return
    got = s.value.to_complex()
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
    s1, s2 = lp_add(a, b), lp_add(b, a)
    assert s1.value == s2.value


def test_lp_perturb_tiny_scale():
    # perturbation far below any float: the exact rho picks it up and a
    # power magnifies it back into range
    z = LogPolar.from_pow2(1000)
    u = mpmath.ldexp(mpmath.mpf(3), -1200)  # 3 * 2^-1200
    zp = lp_perturb(z, u)
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


def _lp_perturb_mpc(z, u, prec):
    # the mpc body lp_perturb had before it ran on libmp tuples, reading u
    # at prec + 32 bits
    if z.zero:
        return z
    with mpmath.workprec(prec + 32):
        u = mpmath.mpc(u)
        if u == 0:
            return z
        v = log1p_mpc(u, prec)
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
    # one formula for log2|1 + u|: lp_perturb moves rho by exactly it, for
    # complex and mpc u, on the direct and the |u| < 2^-16 series path
    rng = random.Random(prec + 1)
    z = LogPolar(Fraction(rng.getrandbits(80), 1 << 40) - (1 << 39),
                 Angle(Fraction(rng.getrandbits(64), 1 << 64)))
    kinds = set()
    for u in _perturbations(rng, prec):
        assert lp_perturb(z, u, prec).rho == z.rho + log2_abs_1p(u, prec), u
        if u != 0:
            kinds.add((type(u), mpmath.mag(mpmath.mpc(u)) > -16))
    assert kinds == {(t, d) for t in (complex, mpmath.mpc) for d in (True, False)}
    assert log2_abs_1p(0j, prec) == 0


def test_lp_sub_close_scales():
    a = LogPolar.from_pow2(58, Fraction(1, 8))
    b = LogPolar.from_pow2(58, Fraction(1, 8) + Fraction(1, 1 << 30))
    d = lp_sub(a, b)
    assert not d.value.is_zero
    with mpmath.workprec(220):
        za = a.to_mpc_scaled(Fraction(58), 200)
        zb = b.to_mpc_scaled(Fraction(58), 200)
        got = d.value.to_mpc_scaled(Fraction(58), 200)
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
    got = expm1_lp(drho, dtheta)
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
        expm1_series(mpmath.mpc(0, mpmath.mpf(2) ** -10), 10)


def test_pow2_minus1_log2_tiny():
    delta = Fraction(1, 1 << 500)
    got = pow2_minus1_log2(delta)
    # 2^d - 1 ~ d ln 2: log2 ~ -500 + log2(ln 2)
    assert abs(float(got + 500) - math.log2(math.log(2))) < 1e-12


def test_renderings():
    from juliadim.report import pow2_str

    assert pow2_str(752 + const_log2_frac(31, 16)) == "1.9375x2^752"
    assert pow2_str(-(10**6 // 2)) == "1x2^-500000"
    # a significand that rounds up to 2 carries into the exponent
    assert pow2_str(Fraction(-1, 1 << 70)) == "1x2^0"


def test_exponent_budget_errors():
    from juliadim.numerics import ExponentBudgetError, MAX_EXP_BITS

    big = LogPolar.from_pow2(1 << (MAX_EXP_BITS - 2))
    with pytest.raises(ExponentBudgetError):
        big.pow_int(8)
