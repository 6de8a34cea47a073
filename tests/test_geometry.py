import dataclasses
from fractions import Fraction
from random import Random

import mpmath
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

import juliadim.geometry as geometry
from juliadim.geometry import (
    Region,
    classify,
    petal_membership,
    petal_radius_rel_log2,
)
from juliadim.dynamics import OriginBranch, PetalInverse, inverse_step
from juliadim.modelmap import AnchoredPoint, ModelMap
from juliadim.numerics import LogPolar, expm1_lp, frac_to_mpf, lp_perturb
from juliadim.params import build_params

M5 = ModelMap(table=build_params(5, 12))
T5 = M5.table


def test_region_parse_roundtrip():
    for s in ("A(3)", "B(0)", "V(2)", "P(1,17)", "D", "boundary", "A(-2)", "L(4)"):
        assert str(Region.parse(s)) == s


def test_classify_basic_zones():
    assert str(classify(T5, LogPolar(Fraction(T5.R_exp(2)), 0))) == "A(2)"
    assert str(classify(T5, LogPolar(Fraction(T5.R_exp(2) + 3), 0))) == "B(2)"
    assert str(classify(T5, LogPolar(Fraction(T5.R_exp(3) - 1), 0))) == "V(3)"
    assert str(classify(T5, LogPolar(Fraction(10), 0))) == "D"
    assert str(classify(T5, LogPolar.zero_point())) == "D"


def test_classify_boundary_margin():
    z = LogPolar(Fraction(T5.R_exp(2) + 2), 0)  # exactly 4 R_2
    assert str(classify(T5, z)) == "B(2)"
    assert str(classify(T5, z, margin=0.01)) == "boundary"


def test_classify_takes_its_margin_exactly():
    # the center of A(1) lies exactly 2 bits from both of its edges: a margin
    # of 2 + 2**-40 flags it, 2 and 2 - 2**-40 do not
    z = LogPolar(Fraction(T5.R_exp(1)), Fraction(1, 3))
    assert str(classify(T5, z, margin=2 + 2.0 ** -40)) == "boundary"
    assert str(classify(T5, z, margin=2.0)) == "A(1)"
    assert str(classify(T5, z, margin=2 - 2.0 ** -40)) == "A(1)"
    assert str(classify(T5, z.mul_pow2(2), margin=2 + 2.0 ** -40)) == "boundary"


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=63))
def test_partition_above_central_disk(num, den_pow):
    # every point outside D lands in exactly one A_k or B_k
    lo = T5.R_exp(1) - 2
    hi = T5.R_exp(10)
    rho = lo + Fraction(num, 1 << den_pow) % (hi - lo)
    r = classify(T5, LogPolar(rho, Fraction(num % 97, 97)))
    assert r.kind in ("A", "B", "V", "D")
    if r.kind == "V":
        # V is inside A by definition of the zones
        assert Fraction(T5.R_exp(r.k) - 2) < rho < Fraction(T5.R_exp(r.k) + 2)


def test_zero_ring_layout():
    for k in (1, 2):
        nk = T5.n(k)
        zz = [M5.ring_zero(k + T5.N - 1, j) for j in range(1, T5.n(k) + 1)]
        assert len(zz) == nk == 2 ** (5 + k - 1)
        assert all(z.rho == zz[0].rho for z in zz)
        # all moduli in A((3/5) R_k, (5/4) R_k)
        assert T5.R_exp(k) - Fraction(74, 100) < zz[0].rho < T5.R_exp(k) + Fraction(33, 100)
        # consecutive angles differ by exactly 1/n_k of a turn
        diffs = {zz[i + 1].theta.sub(zz[i].theta).turns for i in range(nk - 1)}
        assert diffs == {Fraction(1, nk)}


def test_petals_disjoint_and_off_V():
    # angular gap between centers is 1/n_k turn; ball angular radius is
    # about 2^-n_k / (2 pi) turns, far smaller
    nk = T5.n(1)
    assert Fraction(1, nk) > Fraction(4, 2 ** nk)
    # petal moduli sit above the V zone
    zz = [M5.ring_zero(T5.N, j) for j in range(1, T5.n(1) + 1)]
    v_hi = T5.R_exp(1) - Fraction(74, 100)
    assert all(z.rho > v_hi for z in zz)


def test_petal_membership_center_and_boundary():
    k = 1
    z0 = M5.ring_zero(k + T5.N - 1, 5)
    assert petal_membership(M5, k, z0) == 5
    # ball relative radius is 2^rad_rel ~ 2^-32.1: nudge rho by smaller and
    # larger tiny offsets
    inside = LogPolar(z0.rho + Fraction(1, 1 << 34), z0.theta)
    outside = LogPolar(z0.rho + Fraction(1, 1 << 30), z0.theta)
    assert petal_membership(M5, k, inside) == 5
    assert petal_membership(M5, k, outside) is None


def test_petal_membership_escalates_only_in_its_tie_band(monkeypatch):
    # z = w (1 + u), u = 2^rad_rel (1 + sign 2^-s) e^(2 pi i phi), around
    # seeded ring zeros w on a 2048-bit model: the decision first taken at
    # SIG_BITS + 64 bits is the 2048-bit one, and 2048-bit expm1_lp runs
    # exactly for the points inside the tie band 2 E: s = 200, 400, and the
    # s at which the point lies about 1.4 E from rad_rel, E = (|rad_rel| +
    # 1) 2**-144 at p = 192 (the petal_membership docstring)
    m = dataclasses.replace(M5, prec=2048, guard=2048)
    bits = []

    def expm1(drho, dtheta, prec):
        bits.append(prec)
        return expm1_lp(drho, dtheta, prec)

    monkeypatch.setattr(geometry, "expm1_lp", expm1)
    rng = Random(1729)
    for k in (1, 2, 3):
        ring, rad = k + T5.N - 1, petal_radius_rel_log2(T5.n(k))
        edge = 145 - (int(-rad) + 1).bit_length()
        for s in (4, 16, 64, 200, 400, edge):
            for sign in (1, -1):
                j = rng.randrange(1, T5.n(k) + 1)
                w = m.ring_zero(ring, j)
                turns = Fraction(rng.randrange(1 << 30), 1 << 30)
                phi, rad_mpf = (mpmath.mp.make_mpf(frac_to_mpf(x, 2600)) for x in (turns, rad))
                with mpmath.workprec(2600):
                    mag = mpmath.power(2, rad_mpf) * (1 + sign * mpmath.ldexp(1, -s))
                    u = mpmath.mpc(mag * mpmath.cospi(2 * phi), mag * mpmath.sinpi(2 * phi))
                z = lp_perturb(w, u, 2400)
                dth = z.theta.sub(w.theta).turns
                dth = dth if dth <= Fraction(1, 2) else dth - 1
                full = expm1_lp(z.rho - w.rho, dth, m.prec).rho <= rad
                assert full == (sign < 0)
                bits.clear()
                got = petal_membership(m, k, z)
                assert got == (j if full else None), (k, s, sign)
                assert bits.count(m.prec) == (1 if s >= edge else 0), (k, s, sign)
                assert len(bits) == bits.count(m.prec) + 1


def test_petal_membership_reads_other_charts_as_their_absolute_points():
    # the absolute fallback: origin charts (ring 0), petal charts asked about
    # another level's ring, and charts on the level's own ring whose |u|
    # reaches past the petal radius answer as z.absolute(prec) does, inside
    # a petal and outside every one
    rng, tol, answers = Random(4141), 2.0 ** -64, set()

    def target(k):
        return LogPolar(T5.R_exp(k) + Fraction(rng.randrange(-(1 << 20), 0), 1 << 20),
                        Fraction(rng.randrange(1 << 30), 1 << 30))

    charts = [inverse_step(M5, target(1), OriginBranch(rng.randrange(1, 1 << T5.N)), tol)
              for _ in range(3)]
    charts += [inverse_step(M5, target(k + 1), PetalInverse(k, rng.randrange(1, T5.n(k) + 1)), tol)
               for k in (1, 2, 3)]
    for k in (1, 2, 3):
        ring, j = k + T5.N - 1, rng.randrange(1, T5.n(k) + 1)
        # |u| = 1.5 2**e, |z / w - 1| ~ |u| / 2**ring, and reach = e + 2 - ring
        for e in (-ring - 24, -ring - 20, -12):
            u = (from_man_exp(3, e - 1), from_man_exp(rng.choice((-1, 1)) * 5, e - 4))
            charts.append(AnchoredPoint(j, M5.ring_zero(ring, j), u, ring))
    for z in charts:
        for k in (1, 2, 3):
            if z.ring == k + T5.N - 1 and z.reach() <= petal_radius_rel_log2(T5.n(k)):
                continue    # decided on the chart itself
            got = petal_membership(M5, k, z)
            assert got == petal_membership(M5, k, z.absolute(M5.prec)), (z, k)
            answers.add(got is None)
    assert answers == {True, False}


def test_classify_petal_via_model():
    z0 = M5.ring_zero(T5.N, 3)
    assert str(classify(T5, z0, model=M5)) == "P(1,3)"


def _classify_scan(t, z, margin=0.0, model=None):
    # classify's level search for a LogPolar point before the integer cuts:
    # k = 1..kmax in turn, an exact Fraction comparison at each threshold
    mfr = Fraction(margin) if margin else None
    d_top = Fraction(t.R_exp(1) - 2)
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
            v_lo, v_hi = e + geometry.LOG2_2_5, e + geometry.LOG2_3_5
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
    raise geometry.DomainError("point beyond the built table")


def _region_or_error(f, *args):
    try:
        return str(f(*args))
    except geometry.DomainError as e:
        return f"DomainError: {e}"


def test_classify_equals_the_level_scan():
    # seeded points at every level: on each integer threshold R_k +- 2 and
    # D's top, on V_k's edges, a hair either side of each, at random in D,
    # A_k, V_k and B_k, past the table, and next to ring zeros (petals);
    # margin 0 and three positive margins, with and without a model
    rng = Random(31)
    t, n = T5, T5.N
    rhos = [Fraction(0), Fraction(rng.randrange(1, 1 << 40), 1 << 20)]
    hair = (0, Fraction(1, 1 << 200), -Fraction(1, 1 << 200), Fraction(1, 3), -Fraction(1, 3))
    for k in range(1, t.kmax + 1):
        e = t.R_exp(k)
        edges = [Fraction(e - 2), Fraction(e + 2), e + geometry.LOG2_2_5, e + geometry.LOG2_3_5]
        rhos += [x + h for x in edges for h in hair]
        top = t.R_exp(k + 1) - 2 if k < t.kmax else e + 40
        rhos += [Fraction(rng.randrange((e - 2) << 64, top << 64), 1 << 64) for _ in range(4)]
        rhos += [e - 2 + Fraction(rng.randrange(1, 1 << 64), 1 << 64) for _ in range(4)]
    points = [LogPolar(r, Fraction(rng.randrange(1 << 32), 1 << 32)) for r in rhos]
    points.append(LogPolar.zero_point())
    for k in range(1, t.kmax - 1):
        for j in rng.sample(range(1, t.n(k) + 1), 3):
            w = M5.ring_zero(k + n - 1, j)
            for d in (0, Fraction(1, 1 << 40), Fraction(1, 1 << 20), Fraction(3, 2)):
                points.append(LogPolar(w.rho + d, w.theta.turns + d / 7))
    kinds = set()
    for z in points:
        for margin in (0.0, 2.0 ** -60, 0.01, 0.5):
            for model in (None, M5):
                want = _region_or_error(_classify_scan, t, z, margin, model)
                assert _region_or_error(classify, t, z, margin, model) == want, (z, margin)
                kinds.add(want.split("(")[0].split(":")[0])
    assert kinds == {"D", "A", "V", "B", "P", "boundary", "DomainError"}
