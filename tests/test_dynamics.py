import dataclasses
import hashlib
import math
import time
from fractions import Fraction
from random import Random

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp import from_man_exp, fzero

from juliadim.dynamics import (
    BranchError,
    ItineraryError,
    OriginBranch,
    PetalInverse,
    VkRoot,
    _normalize_itinerary,
    backward_construct,
    check_singular_values,
    inverse_step,
    itinerary_orbit,
    itinerary_precision,
    iterate_orbit,
    verify_inclusions,
)
from juliadim.config import Config
from juliadim.geometry import Region, classify
from juliadim.modelmap import SEAM_MARGIN_BITS, AnchoredPoint, ModelMap, PieceId, qN_landmarks
from juliadim.numerics import (RND, DomainError, ExponentBudgetError, LogPolar, const_log2_frac,
                               cpair_mpc, cpair_of, cpair_shift, expm1_series, log1p_mpc, lp_add,
                               lp_perturb, lp_sub, mpc_mag, polar_pair)
from juliadim.params import CertificateReport, build_params

M5 = ModelMap(table=build_params(5, 25))
T5 = M5.table
TOL = 2.0 ** -64


def _newton_polish(m, z, target, tol):
    """The absolute route the inverse steps no longer take: z polished
    towards f(z) = target by Newton on f with m.deriv, returned with f(z) at
    its first residual below tol in log2 magnitude and in turns."""
    one = LogPolar(Fraction(0), 0)
    for _ in range(64):
        fz, _ = m.eval(z)
        if abs(float(fz.rho - target.rho)) < tol and float(fz.theta.dist(target.theta)) < tol:
            return z, fz
        diff = lp_sub(fz, target, guard=m.guard, prec=m.prec).value
        if diff.is_zero:
            return z, fz
        dz, _ = m.deriv(z)
        step = diff.div(dz).div(z)  # relative correction
        assert step.rho <= -2, "newton step out of basin"
        upd = lp_sub(one, step, guard=max(m.guard, 96 - step.rho_int()), prec=m.prec).value
        z = z.mul(upd)
    raise AssertionError("newton stagnated")


def _seam_zero_offset_ln_mpc(m, j, u):
    """ln |S_j(zeta (1 + u))| - seam_zero_log2_base(j) ln 2, zeta a zero of
    ring j: Re L + ln |e**L - 1|, L = M_j log(1 + u), for an mpc u with
    0 < |u| < 1, on libmp pairs at prec + 32 bits, rounded to nearest, as an
    mpf.  The petal boundary's enclosure is held against it."""
    wp = m.prec + 32
    L = libmp.mpc_mul_int(log1p_mpc(u._mpc_, m.prec), 1 << j, wp, RND)
    lmag = mpc_mag(L)
    if lmag > -16:
        e = libmp.mpc_sub_mpf(libmp.mpc_exp(L, wp, RND), libmp.fone, wp, RND)
    else:
        e = expm1_series(L, -lmag, m.prec, wp)
    ln_e = libmp.mpf_log(libmp.mpc_abs(e, wp, RND), wp, RND)
    return mpmath.mp.make_mpf(libmp.mpf_add(L[0], ln_e, wp, RND))


# orbits ----------------------------------------------------------------------

def test_orbit_from_escape_gap():
    z = LogPolar(Fraction(T5.R_exp(1) + 10), Fraction(1, 3))
    rec = iterate_orbit(M5, z, 5)
    assert str(rec.classification) == "FatouEscape(1)"
    assert rec.region_strs() == ["B(1)"]
    # the gap maps into the next gap
    w, _ = M5.eval(z)
    assert str(classify(T5, w)) == "B(2)"


def test_orbit_from_54_circle():
    z = LogPolar(T5.R_exp(2) + const_log2_frac(5, 4), Fraction(3, 17))
    rec = iterate_orbit(M5, z, 5)
    assert rec.region_strs() == ["A(2)", "B(3)"]
    assert str(rec.classification) == "FatouEscape(3)"


def test_orbit_monotone_rule_and_escape_chain():
    # a gap orbit never re-enters any A level
    z = LogPolar(Fraction(T5.R_exp(1) + 5), Fraction(1, 9))
    cur = z
    for _ in range(4):
        w, _ = M5.eval(cur)
        r = classify(T5, w)
        assert r.kind == "B"
        cur = w


def test_origin_disk_negative_index_backfill():
    # a point of the central disk that exits into level 1 gets ring tags
    # A(0), A(-1), ... retroactively
    target = LogPolar(Fraction(T5.R_exp(1)), Fraction(1, 5))
    z1 = inverse_step(M5, target, OriginBranch(3), TOL)   # in A(0)
    z2 = inverse_step(M5, z1, OriginBranch(0), TOL)       # in A(-1)
    rec = iterate_orbit(M5, z2, 4)
    assert rec.region_strs()[:3] == ["A(-1)", "A(0)", "A(1)"]
    assert rec.orbit_seq[:3] == [-1, 0, 1]
    assert rec.backwards_events == []


def test_ecandidate_for_fixed_origin():
    rec = iterate_orbit(M5, LogPolar.zero_point(), 6)
    assert str(rec.classification) == "ECandidate"


# inverse branches --------------------------------------------------------------

def _rand_target(rng, k, t=T5):
    rho = Fraction(t.R_exp(k)) + Fraction(rng.randrange(-2**20, 2**20), 2**20)
    return LogPolar(rho, Fraction(rng.randrange(2**30), 2**30))


@pytest.mark.parametrize("kind", ["vk", "petal", "origin"])
def test_inverse_round_trips(kind):
    rng = Random(11)
    for _ in range(60):
        if kind == "vk":
            k = rng.randrange(1, 5)
            target = _rand_target(rng, k + 1)
            spec = VkRoot(k, rng.randrange(T5.n(k)))
        elif kind == "petal":
            k = rng.randrange(1, 4)
            target = _rand_target(rng, k + 1)
            spec = PetalInverse(k, rng.randrange(1, T5.n(k) + 1))
        else:
            target = _rand_target(rng, 1)
            spec = OriginBranch(rng.randrange(1 << T5.N))
        z = inverse_step(M5, target, spec, TOL)
        got, _ = M5.eval(z)
        assert abs(float(got.rho - target.rho)) < TOL
        assert float(got.theta.dist(target.theta)) < TOL


def test_branch_contract_violations():
    with pytest.raises(BranchError):
        inverse_step(M5, _rand_target(Random(0), 2), VkRoot(1, T5.n(1)))
    with pytest.raises(BranchError):
        inverse_step(M5, LogPolar(Fraction(T5.R_exp(3)), 0), OriginBranch(0))


# origin branches in the zero's coordinate -----------------------------------------

def _origin_cases(rng, n, t=T5):
    return [(_rand_target(rng, 1, t), rng.randrange(1, 1 << t.N)) for _ in range(n)]


def test_origin_step_neither_evaluates_nor_differentiates(monkeypatch):
    # the residual is decided on g(u) - tau in the solve's own coordinate
    qN_landmarks(M5)   # built once per model, by its own evaluation
    calls = {"eval": 0, "deriv": 0}
    for name in calls:
        def counted(self, z, _real=getattr(ModelMap, name), _name=name):
            calls[_name] += 1
            return _real(self, z)
        monkeypatch.setattr(ModelMap, name, counted)
    for target, i in _origin_cases(Random(5), 10):
        inverse_step(M5, target, OriginBranch(i), TOL)
    assert calls == {"eval": 0, "deriv": 0}


@pytest.mark.parametrize("prec", [128, 400])
def test_origin_residual_decision_is_sound(prec):
    # 60 seeded steps per tol: an accepted step re-evaluates within tol,
    # 2**-64 is always certified, and a tol at or past 2**-(prec + 20), finer
    # than tau's rounding at prec + 16 bits allows, never is, though g(u) -
    # tau often rounds to 0 at prec + 32 bits
    for N in (5, 6, 8, 10):
        m = ModelMap(table=build_params(N, 12), prec=prec)
        for target, i in _origin_cases(Random(f"sound:{N}"), 15, m.table):
            for tol in (2.0 ** -64, 2.0 ** -100, 2.0 ** -(prec + 8), 2.0 ** -(prec + 20),
                        2.0 ** -200):
                try:
                    z = inverse_step(m, target, OriginBranch(i), tol)
                except BranchError:
                    assert tol < 2.0 ** -64, (N, tol)
                    continue
                assert tol > 2.0 ** -(prec + 20), (N, tol)
                got, _ = m.eval(z)
                assert abs(float(got.rho - target.rho)) < tol, (N, tol)
                assert float(got.theta.dist(target.theta)) < tol, (N, tol)


def test_origin_step_matches_the_absolute_newton_polish():
    # the absolute route: seed zero_i + t/q'(zero_i), then Newton on f; the
    # step's anchored point w (1 + u) is read as lp_perturb(w, u) to compare
    lm = qN_landmarks(M5)
    lim = Fraction(1, 2 ** (M5.prec - 8))
    for target, i in _origin_cases(Random(17), 50):
        p = inverse_step(M5, target, OriginBranch(i), TOL)
        assert isinstance(p, AnchoredPoint) and p.index == i and p.zero == lm.zero(i)
        z = lp_perturb(p.zero, p.u, M5.prec)
        seed = lp_add(lm.zero(i), target.div(lm.deriv_at_zero), guard=max(M5.guard, 512),
                      prec=M5.prec).value
        ref, _ = _newton_polish(M5, seed, target, TOL)
        assert abs(z.rho - ref.rho) < lim and z.theta.dist(ref.theta) < lim
    assert inverse_step(M5, LogPolar.zero_point(), OriginBranch(3), TOL) == lm.zero(3)


# petal branches and origin branch 0 in their own coordinates ---------------------

def _petal_cases(rng, n, t=T5):
    out = []
    for _ in range(n):
        k = rng.randrange(1, 4)
        out.append((_rand_target(rng, k + 1, t), PetalInverse(k, rng.randrange(1, t.n(k) + 1))))
    return out


def _read(z, rho0, prec):
    # polar_pair of z / 2**rho0, a nonzero LogPolar: the step's read
    d, t = z.rho - rho0, z.theta.turns
    return polar_pair(d.numerator, d.denominator, t.numerator, t.denominator, prec)


def _petal_reference(m, target, spec):
    # the closed form as it stood before the step decided its own residual:
    # s from the binomial series, z = lp_perturb(Z, s).root(n_k, j - 1), then
    # the Newton polish on f
    from juliadim.dynamics import _half_sqrt1p_minus1

    t, k = m.table, spec.k
    nk, zc = t.n(k), m.zcap(k + t.N - 1)
    q = LogPolar(target.rho + (nk * t.R_exp(k) - t.C_exp(k) + 2) - 2 * zc.rho, target.theta)
    e_q = q.rho_int()
    s = _half_sqrt1p_minus1(cpair_shift(_read(q, e_q, m.prec), e_q), m.prec)
    return _newton_polish(m, lp_perturb(zc, cpair_mpc(s), m.prec).root(nk, spec.j - 1), target,
                          TOL)[0]


def test_petal_step_point_is_unchanged():
    # the chart point (ring, zero index, s) read as its absolute form is,
    # bit for bit, the point the step built before it kept its chart
    for N in (5, 6, 8):
        for prec in (128, 400):
            m = ModelMap(table=build_params(N, 12), prec=prec)
            for target, spec in _petal_cases(Random(f"petal-ref:{N}:{prec}"), 8, m.table):
                p, ref = inverse_step(m, target, spec, TOL), _petal_reference(m, target, spec)
                assert isinstance(p, AnchoredPoint) and p.ring == spec.k + N - 1, spec
                assert (p.index, p.zero) == (spec.j, m.ring_zero(p.ring, spec.j))
                z = p.absolute(prec)
                assert (z.rho, z.theta.turns) == (ref.rho, ref.theta.turns), (N, prec, spec)


def test_petal_chart_eval_equals_the_absolute_route():
    # S_j(z) = c_j r_j**(-M_j) Z_j**2 s (1 + s) in closed form equals the
    # route it replaces, lp_perturb(Z, s).root(n_k, j - 1) through the
    # seam's lp_add, within 2**-(prec - 8)
    for N in (5, 6, 8):
        for prec in (128, 400):
            m = ModelMap(table=build_params(N, 12), prec=prec)
            lim = Fraction(1, 2 ** (prec - 8))
            for target, spec in _petal_cases(Random(f"chart-eval:{N}:{prec}"), 8, m.table):
                z = inverse_step(m, target, spec, TOL)
                (got, piece), (ref, ref_piece) = m.eval(z), m.eval(z.absolute(prec))
                assert piece == ref_piece == PieceId("seam", z.ring)
                assert abs(got.rho - ref.rho) < lim and got.theta.dist(ref.theta) < lim, (N, spec)
    # the closed form refuses an anchor that is not a zero of its ring: a
    # zero turned by a quarter of the zeros' spacing
    w = z.zero.mul(LogPolar(0, Fraction(1, 4 << z.ring)))
    with pytest.raises(DomainError, match="not a zero"):
        m.eval(AnchoredPoint(z.index, w, z.u, z.ring))


def test_petal_chart_is_placed_as_its_absolute_point():
    # piece_of, classify (with and without margins) and iterate_orbit place
    # the chart point from its exact enclosure w.rho +- 2**reach, reach =
    # mag(s) + 1 - j, where its absolute form lands; a margin that leaves less
    # room than that falls back to the absolute form
    for N in (5, 6, 8):
        m = ModelMap(table=build_params(N, 12))
        t = m.table
        for target, spec in _petal_cases(Random(f"chart-place:{N}"), 12, t):
            z = inverse_step(m, target, spec, TOL)
            a = z.absolute(m.prec)
            assert m.piece_of(z) == m.piece_of(a) == PieceId("seam", z.ring)
            assert classify(t, z, model=m) == classify(t, a, model=m) == Region("P", spec.k, spec.j)
            for margin in (1.5, 1.96, 1.97, 2.5):
                assert classify(t, z, margin, m) == classify(t, a, margin, m), margin
                assert classify(t, z, margin) == classify(t, a, margin), margin
            assert classify(t, z) == classify(t, a) == Region("A", spec.k)
            assert iterate_orbit(m, z, 1).regions == iterate_orbit(m, a, 1).regions
            unit = Fraction(2) ** (mpc_mag(z.u) + 1 - z.ring)
            for d, side in ((unit, z.below), (-unit, z.above)):
                assert side(z.zero.rho + d) and not side(z.zero.rho + d * Fraction(63, 64))


def test_far_petal_chart_is_placed_without_a_model(monkeypatch):
    # a chart 2**-1446673 from its zero, whose absolute form is past the
    # exponent budget: without a model its enclosure alone places it in A(2),
    # with a margin that leaves it room, and absolute() is never called
    m = ModelMap(table=build_params(5, 25))
    z = inverse_step(m, LogPolar(752, Fraction(3, 10)), PetalInverse(2, 64), TOL)
    with pytest.raises(ExponentBudgetError):
        z.absolute(m.prec)
    assert classify(m.table, z, model=m) == Region("P", 2, 64)

    def refused(self, prec):
        raise AssertionError("absolute form read")
    monkeypatch.setattr(AnchoredPoint, "absolute", refused)
    for margin in (0.0, 1.5, 1.97):
        assert classify(m.table, z, margin) == Region("A", 2), margin


def test_chart_target_is_read_as_its_absolute_point():
    # inverse_step reads a petal chart target through absolute(m.prec): every
    # branch returns for it what it returns for that absolute target
    rng = Random(41)
    for k in (2, 3, 1):
        spec = PetalInverse(k, rng.randrange(1, T5.n(k) + 1))
        z = inverse_step(M5, _rand_target(rng, k + 1), spec, TOL)
        a = z.absolute(M5.prec)
        if k > 1:
            branches = (VkRoot(k - 1, rng.randrange(T5.n(k - 1))),
                        PetalInverse(k - 1, rng.randrange(1, T5.n(k - 1) + 1)))
        else:   # a level-1 petal lies in the origin branches' domain
            branches = (OriginBranch(0), OriginBranch(rng.randrange(1, 32)))
        for branch in branches:
            assert inverse_step(M5, z, branch, TOL) == inverse_step(M5, a, branch, TOL), branch


def test_petal_and_branch_0_steps_neither_evaluate_nor_differentiate(monkeypatch):
    calls = {"eval": 0, "deriv": 0}
    for name in calls:
        def counted(self, z, _real=getattr(ModelMap, name), _name=name):
            calls[_name] += 1
            return _real(self, z)
        monkeypatch.setattr(ModelMap, name, counted)
    m2048 = dataclasses.replace(M5, prec=2048, guard=2048)   # branch 0's Newton solve
    for target, spec in _petal_cases(Random(6), 10):
        inverse_step(M5, target, spec, TOL)
    for m in (M5, m2048):
        for target, _ in _origin_cases(Random(7), 4):
            inverse_step(m, target, OriginBranch(0), TOL)
    assert calls == {"eval": 0, "deriv": 0}


@pytest.mark.parametrize("prec", [128, 400])
def test_petal_residual_decision_is_sound(prec):
    # 36 seeded steps per tol at N = 5, 6, 8: an accepted step re-evaluates
    # within tol, at its precision and at 4 times it.  2**-64 and 2**-100
    # are always certified.  The allowance for reading q at prec + 16 bits
    # is a = 5 (the _petal_step docstring), so b <= prec + 10: a tol of
    # 2**-(prec + 8) (b = prec + 12) or finer is never certified, though
    # s (1 + s) - q/4 rounds far below it
    for N in (5, 6, 8):
        m = ModelMap(table=build_params(N, 12), prec=prec)
        hi = dataclasses.replace(m, prec=4 * prec, guard=4 * prec)
        for target, spec in _petal_cases(Random(f"petal-sound:{N}"), 12, m.table):
            for tol in (2.0 ** -64, 2.0 ** -100, 2.0 ** -(prec + 8), 2.0 ** -(prec + 20)):
                try:
                    z = inverse_step(m, target, spec, tol)
                except BranchError:
                    assert tol < 2.0 ** -100, (N, spec, tol)
                    continue
                assert tol >= 2.0 ** -100, (N, spec, tol)
                for mm in (m, hi):
                    got, piece = mm.eval(z)
                    assert piece.kind == "seam"
                    assert abs(float(got.rho - target.rho)) < tol, (N, spec, tol)
                    assert float(got.theta.dist(target.theta)) < tol, (N, spec, tol)


@pytest.mark.parametrize("prec", [128, 400])
def test_petal_step_reads_q_at_its_integer_scale(monkeypatch, prec):
    # 900 seeded steps whose e, the bit length of |floor(log2 |q|)|, runs
    # from the smallest the domain admits (6 at k = 1) to 24: the q~ the
    # step hands its series is within 2**-(prec + 13) |q| of q at prec + 240
    # bits, and its decision cap prec + 15 - a is prec + 10 whatever e (a
    # read of log2 |q| itself lost e bits of q~)
    import juliadim.dynamics as dyn

    seen = {"q": [], "exact": []}
    series, decide = dyn._half_sqrt1p_minus1, dyn.residual_below

    def series_spy(q, p):
        seen["q"].append(q)
        return series(q, p)

    def decide_spy(s, tau, bits, exact, wp):
        seen["exact"].append(exact)
        return decide(s, tau, bits, exact, wp)

    monkeypatch.setattr(dyn, "_half_sqrt1p_minus1", series_spy)
    monkeypatch.setattr(dyn, "residual_below", decide_spy)
    m, t, rng = dataclasses.replace(M5, prec=prec), T5, Random(f"q-scale:{prec}")
    for n in range(900):
        k = rng.randrange(1, 4)
        off = t.n(k) * t.R_exp(k) - t.C_exp(k) + 2 - 2 * m.zcap_log2(k + t.N - 1)
        low = 1 - math.floor(t.R_exp(k + 1) + 2 + off)    # the least e_q the domain admits
        e = low.bit_length() + n % (25 - low.bit_length())
        e_q = rng.randrange(max(1 << (e - 1), low), 1 << e)
        q_rho = -e_q + Fraction(rng.getrandbits(64), 1 << 64)
        theta = Fraction(rng.getrandbits(64), 1 << 64)
        inverse_step(m, LogPolar(q_rho - off, theta), PetalInverse(k, rng.randrange(1, t.n(k) + 1)),
                     TOL)
        with mpmath.workprec(prec + 240):
            q = (mpmath.mpf(2) ** (mpmath.mpf(q_rho.numerator) / q_rho.denominator)
                 * mpmath.expjpi(2 * mpmath.mpf(theta.numerator) / theta.denominator))
            err = abs(mpmath.mp.make_mpc(cpair_mpc(seen["q"][-1])) - q) / abs(q)
            assert err <= mpmath.mpf(2) ** -(prec + 13), (k, e)
    assert seen["exact"] == [prec + 10] * 900


def test_petal_and_origin_steps_read_without_libmp_wrappers_or_fractions(monkeypatch):
    # a seeded petal step and origin step at N = 5 and 128 bits read q and
    # tau through numerics.polar_pair: no mpf_exp, mpf_cos_sin_pi or mpf_div
    # under any name a module of mpmath or juliadim binds them to, and no
    # Fraction built, once the steps' table constants exist
    import sys
    import juliadim.numerics as num

    rng = Random("read-spy")
    (pt, spec), (ot, i) = _petal_cases(rng, 1)[0], _origin_cases(rng, 1)[0]
    steps = [lambda: inverse_step(M5, pt, spec, TOL),
             lambda: inverse_step(M5, ot, OriginBranch(i), TOL)]
    want = [step() for step in steps]
    calls = []
    for real in (libmp.mpf_exp, libmp.mpf_cos_sin_pi, libmp.mpf_div):
        def spy(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        for mod in [m for name, m in sys.modules.items()
                    if m is not None and name.startswith(("mpmath", "juliadim"))]:
            for name, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, name, spy)
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        calls.append("Fraction")
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    num.mpf_div(libmp.fone, libmp.fone, 53, RND), Fraction(1, 3)   # the spies see these
    assert calls == ["mpf_div", "Fraction"]
    calls.clear()
    got = [step() for step in steps]
    assert calls == []
    assert [(p.index, p.zero, p.u, p.ring) for p in got] == [
        (p.index, p.zero, p.u, p.ring) for p in want]


def test_petal_step_refuses_q_past_its_series_bound():
    # |q| >= 2**-16, past which lp_perturb would leave its series branch, is
    # refused; the domain check |target| <= 4 R_{k+1} admits only |q| <=
    # 2**-30.27 (N = 5, k = 1), and the step still holds at |q| ~ 2**-17.27
    from juliadim.dynamics import _petal_step

    top = T5.R_exp(2) + 2
    for e in (15, 20):
        with pytest.raises(BranchError, match=r"\|q\| < 2\*\*-16"):
            _petal_step(M5, LogPolar(top + e, Fraction(1, 7)), 1, 3, TOL)
    target = LogPolar(top + 13, Fraction(1, 7))
    got, _ = M5.eval(_petal_step(M5, target, 1, 3, TOL))
    assert abs(float(got.rho - target.rho)) < TOL and float(got.theta.dist(target.theta)) < TOL


@pytest.mark.parametrize("N", [5, 8, 10])
def test_origin_branch_0_round_trips(N):
    # z = tau0 = target / r_N wherever |sigma| <= 2**-(prec + 16): every
    # step here at 128 bits.  At N = 5 and 2048 bits, |sigma| ~ 2**-1700 is
    # above that and the Newton solve runs; its point re-evaluates at 8192
    # bits, with the power term of q kept, within 2**-2000, where tau0's
    # residual is |sigma|.  The N = 5 targets include the 50 of
    # test_origin_step_matches_the_absolute_newton_polish, where the polish
    # took its only Newton steps in the tests.  A tol <= 0 or nan is refused
    m = M5 if N == 5 else ModelMap(table=build_params(N, 12))
    targets = [target for target, _ in _origin_cases(Random(f"branch0:{N}"), 12, m.table)]
    models = [m]
    if N == 5:
        targets += [target for target, _ in _origin_cases(Random(17), 50)]
        models.append(dataclasses.replace(m, prec=2048, guard=2048))
    for mm in models:
        hi = dataclasses.replace(mm, prec=4 * mm.prec, guard=4096)
        for target in targets:
            z = inverse_step(mm, target, OriginBranch(0), TOL)
            tau0 = LogPolar(target.rho - m.table.r_exp(N), target.theta)
            assert (z == tau0) == (mm.prec == 128)
            for e in (mm, hi):
                got, piece = e.eval(z)
                assert piece.kind == "origin"
                assert abs(float(got.rho - target.rho)) < TOL
                assert float(got.theta.dist(target.theta)) < TOL
            if mm.prec == 2048:
                assert abs(got.rho - target.rho) < Fraction(1, 1 << 2000)
                assert got.theta.dist(target.theta) < Fraction(1, 1 << 2000)
            for tol in (0.0, -TOL, math.nan):
                with pytest.raises(BranchError):
                    inverse_step(mm, target, OriginBranch(0), tol)


@pytest.mark.parametrize("N", [6, 7])
def test_origin_round_trips_at_tiny_offsets(N):
    # |u| is about 2**-768 at N = 6 and 2**-23195 at N = 7: the series
    # follow that scale, and the closed form q = -r_N w g(u) keeps it
    m = ModelMap(table=build_params(N, 12))
    for target, i in _origin_cases(Random(N), 8, m.table):
        got, _ = m.eval(inverse_step(m, target, OriginBranch(i), TOL))
        assert abs(float(got.rho - target.rho)) < TOL
        assert float(got.theta.dist(target.theta)) < TOL


def _step_fields(z):
    if type(z) is AnchoredPoint:
        return (z.index, z.ring, z.zero.rho, z.zero.theta.turns) + z.u
    return z.rho, z.theta.turns


# digest of seeded OriginBranch points, i >= 1 and i = 0 (its Newton solve
# at N = 5 and 2048 bits), recorded before the step kept its constants on
# the table and read 2**x through one mpf_exp
ORIGIN_STEP_PIN = "4224a59cc05d8080ef0b14a1"


def test_origin_step_points_are_pinned():
    h = hashlib.sha256()
    for N in (5, 6, 8, 10):
        t = build_params(N, 12)
        for prec in (128, 400) + ((2048,) if N == 5 else ()):
            m = ModelMap(table=t, prec=prec, guard=max(256, prec))
            rng = Random(f"origin-digest:{N}:{prec}")
            for _ in range(8):
                target = _rand_target(rng, 1, t)
                for i in (0, rng.randrange(1, 1 << N)):
                    z = inverse_step(m, target, OriginBranch(i), TOL)
                    h.update(repr(_step_fields(z)).encode())
    assert h.hexdigest()[:24] == ORIGIN_STEP_PIN


def test_step_constants_are_kept_per_table():
    # petal and origin steps on N = 5 and N = 6 models at 128 and 400 bits,
    # interleaved in one process (two models share each table), equal the
    # same steps on fresh tables, and each re-evaluates to its target
    tables = {N: build_params(N, 12) for N in (5, 6)}
    configs = [(N, prec) for N in (5, 6) for prec in (128, 400)]

    def cases(N, prec):
        rng, t = Random(f"isolation:{N}:{prec}"), tables[N]
        out = _petal_cases(rng, 6, t)
        return out + [(target, OriginBranch(i)) for target, i in _origin_cases(rng, 4, t)]

    def steps(m, N, prec):
        return [inverse_step(m, target, spec, TOL) for target, spec in cases(N, prec)]

    shared = {c: ModelMap(table=tables[c[0]], prec=c[1]) for c in configs}
    got = {c: [] for c in configs}
    for n in range(10):
        for c in configs:
            target, spec = cases(*c)[n]
            got[c].append(inverse_step(shared[c], target, spec, TOL))
    for c in configs:
        fresh = ModelMap(table=build_params(c[0], 12), prec=c[1])
        assert got[c] == steps(fresh, *c), c
        for (target, spec), z in zip(cases(*c), got[c]):
            back, _ = shared[c].eval(z)
            assert abs(float(back.rho - target.rho)) < TOL, (c, spec)
            assert float(back.theta.dist(target.theta)) < TOL, (c, spec)


def _spy(monkeypatch, calls, *names):
    # each call of dynamics.<name> is appended to calls[-1] as (name, first
    # argument, result); origin_g's slope sums are named "origin_g'"
    import juliadim.dynamics as dyn

    def spy(name, real):
        def f(*args, **kwargs):
            out = real(*args, **kwargs)
            calls[-1].append((name + "'" * bool(kwargs.get("slope")), args[0], out))
            return out
        return f
    for name in names:
        monkeypatch.setattr(dyn, name, spy(name, getattr(dyn, name)))


@pytest.mark.parametrize("prec", [128, 160, 192])
def test_origin_newton_stops_at_its_first_step_below_the_threshold(prec, monkeypatch):
    # the solve stops at the first iterate u whose |g(u) - tau| is at most
    # 2**-(prec + 16) |tau|, recomputed here with mpmath at 2 prec bits, and
    # never one iterate later.  The third-order seed leaves under 2**-163.6
    # |tau| at N = 5 (the _origin_zero_step docstring): at 128 bits it is
    # kept as it stands, at 160 and 192 bits these targets need one step
    calls = []
    _spy(monkeypatch, calls, "origin_g")
    m = dataclasses.replace(M5, prec=prec)
    lm, M = qN_landmarks(m), 1 << T5.N
    counts = []
    for target, i in _origin_cases(Random(3), 6):
        target = target.mul_pow2(1)
        calls.append([])
        p = inverse_step(m, target, OriginBranch(i), TOL)
        iterates = [cpair_mpc(u) for name, u, _ in calls[-1] if name == "origin_g"]
        assert iterates[-1] == p.u
        w = lm.zero(i)
        tau = target.div(LogPolar(T5.r_exp(T5.N) + w.rho, w.theta)).neg()
        with mpmath.workprec(2 * prec):
            t = mpmath.mp.make_mpc(cpair_mpc(_read(tau, 0, 2 * prec)))
            within = [abs((1 + u) ** M - 1 - u - t) <= abs(t) * mpmath.ldexp(1, -(prec + 16))
                      for u in map(mpmath.mp.make_mpc, iterates)]
        assert within[-1] and not any(within[:-1]), within
        counts.append(len(iterates) - 1)
    assert counts == [0] * 6 if prec == 128 else counts == [1] * 6, counts


def test_newton_stagnation_raises_after_its_step_budget():
    # a residual that never falls below 2**-(prec + 16) of its scale: the
    # solve refuses after NEWTON_MAX_ITER steps instead of returning a point
    from juliadim.dynamics import NEWTON_MAX_ITER, _newton
    one, zero = (1, 0), (0, 0)
    seen = []

    def residual(u):
        seen.append(u)
        return one, zero

    with pytest.raises(BranchError, match=f"stagnated after {NEWTON_MAX_ITER} steps"):
        _newton((zero, zero), residual, lambda u: (one, zero), (one, zero), 128, 160)
    # one residual per step, each step subtracting residual / slope = 1
    assert [Fraction(m) * 2 ** e for (m, e), _ in seen] == [-i for i in range(NEWTON_MAX_ITER)]


@pytest.mark.parametrize("N", [5, 6, 7])
def test_origin_solve_keeps_its_seed_at_128_bits(N, monkeypatch):
    # the third-order seed leaves |g(u0) - tau| under 2**-163.6 |tau| at N =
    # 5, and far less from N = 6 on (the _origin_zero_step docstring), within
    # the 2**-144 stop rule: one residual, and neither g' nor a division.
    # The targets include |target| = 4 R_1, the largest the domain admits
    calls = []
    _spy(monkeypatch, calls, "origin_g", "mpc_div")
    m = M5 if N == 5 else ModelMap(table=build_params(N, 12))
    rng = Random(100 + N)
    top = LogPolar(Fraction(m.table.R_exp(1) + 2), Fraction(rng.randrange(2**30), 2**30))
    cases = _origin_cases(rng, 12 if N < 7 else 4, m.table) + [(top, 1), (top, (1 << N) - 1)]
    for target, i in cases:
        calls.append([])
        p = inverse_step(m, target, OriginBranch(i), TOL)
        assert [(name, u) for name, u, _ in calls[-1]] == [("origin_g", cpair_of(p.u))]


def test_origin_solve_skips_the_division_on_a_zero_residual(monkeypatch):
    # 300 seeded N = 5 steps at 128 bits: g(u0) - tau rounds to 0 at wp bits
    # in about a third of them.  That residual, like every other one here,
    # is within the stop rule: the solve returns its seed u0, the one the
    # residual was taken at, with no g' and no division
    calls = []
    _spy(monkeypatch, calls, "origin_g", "cpair_sub", "mpc_div")
    zero_exits = 0
    for target, i in _origin_cases(Random(29), 300):
        calls.append([])
        p = inverse_step(M5, target, OriginBranch(i), TOL)
        (g, u0, _), (sub, _, res) = calls[-1]
        assert (g, sub, u0) == ("origin_g", "cpair_sub", cpair_of(p.u))
        zero_exits += not res[0][0] and not res[1][0]
    assert 60 <= zero_exits <= 240, zero_exits


@pytest.mark.parametrize("prec", [128, 400])
def test_origin_solve_meets_g_within_its_stop_rule(prec):
    # the u of the anchored point solves g(u) = tau within 2**-(prec+12)
    # of tau, with g(u) = (1 + u)**M - 1 - u at 1200 bits: the Horner sums
    # keep every binomial term down to 2**-(prec+32) of the linear one
    m = dataclasses.replace(M5, prec=prec)
    lm, M = qN_landmarks(m), 1 << T5.N
    for target, i in _origin_cases(Random(23), 6):
        p = inverse_step(m, target, OriginBranch(i), TOL)
        w = lm.zero(i)
        tau = target.div(LogPolar(T5.r_exp(T5.N) + w.rho, w.theta)).neg()
        with mpmath.workprec(1200):
            u, t = mpmath.mp.make_mpc(p.u), mpmath.mp.make_mpc(cpair_mpc(_read(tau, 0, 1200)))
            assert abs((1 + u) ** M - 1 - u - t) <= abs(t) * mpmath.ldexp(1, -(prec + 12))


def test_origin_step_refuses_tau_past_its_series_bound():
    # |tau| >= 2**-17, where M|u| may pass 2**-16, is refused before any
    # Newton step; the domain check |target| <= 4 R_1 admits only |tau| <
    # 2**-53.5 (the _origin_zero_step docstring), and the solve still holds
    # just below the bound, with 10 binomial terms at 128 bits
    from juliadim.dynamics import _origin_zero_step

    w = qN_landmarks(M5).zero(1)
    base = T5.r_exp(T5.N) + w.rho          # |tau| = |target| / 2**base
    assert T5.R_exp(1) + 2 - base < -53.5
    for e in (-17, Fraction(-33, 2), -3):
        with pytest.raises(BranchError, match=r"\|tau\| < 2\*\*-17"):
            _origin_zero_step(M5, LogPolar(base + e, Fraction(1, 7)), 1, TOL)
    target = LogPolar(base - Fraction(35, 2), Fraction(1, 7))
    z = _origin_zero_step(M5, target, 1, TOL)
    fz, _ = M5.eval(z)
    assert abs(float(fz.rho - target.rho)) < TOL and float(fz.theta.dist(target.theta)) < TOL


def _budget_edge_cases():
    # N = 8: the four targets perfbench's untimed N = 8 probe draws (seed 7),
    # |u| about 2**-1453043; N = 10: eight seeded ones, |u| about 2**-4.7e10.
    # An absolute LogPolar of either would need a rho denominator of that
    # many bits, past the exponent budget
    rng8, m8 = Random("inverse-probe:7"), ModelMap(table=build_params(8, 12))
    m10 = ModelMap(table=build_params(10, 12))
    cases = [(m8, _rand_target(rng8, 1, m8.table), rng8.randrange(1, 1 << 8)) for _ in range(4)]
    return cases + [(m10, target, i) for target, i in _origin_cases(Random(10), 8, m10.table)]


def test_origin_steps_round_trip_past_the_exponent_budget():
    for m, target, i in _budget_edge_cases():
        start = time.perf_counter()
        z = inverse_step(m, target, OriginBranch(i), TOL)
        assert time.perf_counter() - start < 0.01
        got, piece = m.eval(z)
        assert piece.kind == "origin"
        assert abs(float(got.rho - target.rho)) < TOL
        assert float(got.theta.dist(target.theta)) < TOL


def test_orbit_from_an_anchored_point_past_the_exponent_budget():
    # step 0 is classified from the enclosure w.rho +- 2|u| and evaluated in
    # closed form; step 1 lands in the target's region
    for m, target, i in _budget_edge_cases()[:4]:
        z = inverse_step(m, target, OriginBranch(i), TOL)
        assert str(classify(m.table, z, model=m)) == "D"
        assert str(classify(m.table, z, margin=1.5, model=m)) == "D"
        rec = iterate_orbit(m, z, 1)
        assert rec.points[0] is z and str(rec.regions[0]) == "A(0)"   # D, backfilled
        assert rec.regions[1] == classify(m.table, target, model=m)
        assert str(iterate_orbit(m, z, 1, phi_budget=True).regions[0]) in ("D", "A(0)")


def test_anchored_enclosure_decides_the_region_exactly():
    # the enclosure's top w.rho + 2**(mag(u) + 1) is compared exactly, and
    # classify compares it with D's top less the margin: a margin that leaves
    # less room than that half-width gives 'boundary', though w itself is D
    z = inverse_step(M5, _rand_target(Random(4), 1), OriginBranch(5), TOL)
    unit = Fraction(2) ** (mpc_mag(z.u) + 1)
    assert z.below(z.zero.rho + unit) and not z.below(z.zero.rho + unit * Fraction(63, 64))
    wide = AnchoredPoint(5, z.zero, (from_man_exp(1, -3), fzero))    # u = 1/8: half-width 1/2
    room = float(T5.R_exp(1) - 2 - z.zero.rho)
    for p in (z, wide):
        assert str(classify(T5, p)) == "D" and M5.piece_of(p).kind == "origin"
    assert str(classify(T5, wide, margin=room - 0.75)) == "D"
    assert str(classify(T5, wide, margin=room - 0.25)) == "boundary"
    assert str(classify(T5, z, margin=room - 0.25)) == "D"
    for u in ((from_man_exp(1, -2), fzero), (fzero, fzero)):   # |u| = 1/2 and 0
        with pytest.raises(DomainError):
            AnchoredPoint(5, z.zero, u)


def test_closed_form_equals_the_absolute_route():
    # at N = 5 the closed form -r_N w g(u) equals the route it replaces,
    # lp_perturb(w, u) then ModelMap.eval's lp_add, within 2**-(prec - 8)
    for prec in (128, 192):
        m = dataclasses.replace(M5, prec=prec)
        lim = Fraction(1, 2 ** (prec - 8))
        for target, i in _origin_cases(Random(prec), 30):
            z = inverse_step(m, target, OriginBranch(i), TOL)
            got, _ = m.eval(z)
            ref, _ = m.eval(lp_perturb(z.zero, z.u, prec))
            assert abs(got.rho - ref.rho) < lim and got.theta.dist(ref.theta) < lim
    # the closed form refuses an anchor that is not a zero of the model's q:
    # another model's zero, or a zero turned by half a turn
    z = inverse_step(M5, _rand_target(Random(1), 1), OriginBranch(3), TOL)
    for m, w in ((ModelMap(table=build_params(6, 12)), z.zero), (M5, z.zero.neg())):
        with pytest.raises(DomainError, match="not a zero"):
            m.eval(AnchoredPoint(3, w, z.u))


def test_origin_step_builds_no_absolute_point(monkeypatch):
    # neither the step nor its closed-form evaluation forms w (1 + u) as a
    # LogPolar: no lp_perturb, and no lp_add of the polynomial's two terms
    import juliadim.dynamics as dyn
    import juliadim.modelmap as mm

    def refuse(*args, **kwargs):
        raise AssertionError("absolute route taken")
    qN_landmarks(M5)   # built once per model, by its own evaluation
    for mod, name in ((dyn, "lp_perturb"), (mm, "lp_perturb"), (mm, "lp_add")):
        monkeypatch.setattr(mod, name, refuse)
    for target, i in _origin_cases(Random(31), 10):
        got, _ = M5.eval(inverse_step(M5, target, OriginBranch(i), TOL))
        assert abs(float(got.rho - target.rho)) < TOL


def test_anchored_targets_end_in_typed_errors_past_the_budget():
    # from N = 8 on an anchored target needs its absolute form, which every
    # branch refuses with ExponentBudgetError naming the step
    m, target, i = _budget_edge_cases()[0]
    z = inverse_step(m, target, OriginBranch(i), TOL)
    for branch in (OriginBranch(0), OriginBranch(i), VkRoot(1), PetalInverse(1, 1)):
        with pytest.raises(ExponentBudgetError, match=rf"{type(branch).__name__}\(.*lp_perturb"):
            inverse_step(m, z, branch, TOL)
    # at N = 7 (|u| about 2**-23195) the chain still runs: an anchored
    # target is read as lp_perturb(w, u) and inverted again
    m7 = ModelMap(table=build_params(7, 12))
    target = _rand_target(Random(7), 1, m7.table)
    z1 = inverse_step(m7, target, OriginBranch(9), TOL)
    z2 = inverse_step(m7, z1, OriginBranch(0), TOL)
    got, _ = m7.eval(z2)
    ref = z1.absolute(m7.prec)
    assert abs(float(got.rho - ref.rho)) < TOL and float(got.theta.dist(ref.theta)) < TOL


# backward construction ----------------------------------------------------------

def test_all_V_itinerary():
    itin = [f"V({k})" for k in range(1, 11)]
    anchor = LogPolar(Fraction(T5.R_exp(11)), Fraction(1, 5))
    z = backward_construct(M5, itin, anchor)
    rec = iterate_orbit(M5, z, 9)
    assert rec.region_strs()[:10] == itin
    assert rec.backwards_events == []
    assert str(rec.classification) == "Z1Like(0)"
    # run past the realized window: the orbit escapes like any finite tail
    assert str(iterate_orbit(M5, z, 12).classification) == "FatouEscape(12)"


def test_petal_then_forward_is_z1_like_off_curve():
    itin = ["P(1,3)", "V(2)", "V(3)", "V(4)"]
    anchor = LogPolar(Fraction(T5.R_exp(5)), Fraction(2, 9))
    z = backward_construct(M5, itin, anchor)
    rec = iterate_orbit(M5, z, 5)
    assert rec.region_strs()[:4] == itin
    assert rec.backwards_events == []


def test_petal_visits_forward_moving_z2_like():
    itin = ["V(1)", "P(2,5)", "V(3)", "P(4,2)", "V(5)", "V(6)"]
    anchor = LogPolar(Fraction(T5.R_exp(7)), Fraction(1, 5))
    z = backward_construct(M5, itin, anchor)
    import dataclasses
    m_hi = dataclasses.replace(M5, prec=640, guard=768)
    rec = iterate_orbit(m_hi, z, 5)
    assert rec.region_strs()[:6] == itin
    assert str(rec.classification) == "Z2Like"


def test_backwards_move_y_like():
    itin = ["P(1,3)", "V(1)", "V(2)", "V(3)"]
    anchor = LogPolar(Fraction(T5.R_exp(4)), Fraction(2, 9))
    z = backward_construct(M5, itin, anchor, budget_bits=1 << 16)
    rec = iterate_orbit(M5, z, 5)
    assert rec.region_strs()[:4] == itin
    assert rec.backwards_events == [1]


def test_orbit_monotone_rule_on_constructed_orbits():
    itin = ["V(1)", "P(2,5)", "V(3)", "V(4)", "V(5)"]
    anchor = LogPolar(Fraction(T5.R_exp(6)), Fraction(3, 7))
    z = backward_construct(M5, itin, anchor)
    rec = iterate_orbit(M5, z, 6)
    seq = [k for k in rec.orbit_seq if k is not None]
    assert all(b <= a + 1 for a, b in zip(seq, seq[1:]))


def _construction_shapes(seed):
    """The three itinerary shapes of the inverse benchmark (climb, forward
    petal visits, one backwards move), seeded branches and anchor angles."""
    rng = Random(f"backward-pin:{seed}")
    climb = [f"V({k}):{rng.randrange(T5.n(k))}" for k in range(1, 21)]
    forward = (["V(1)", f"P(2,{rng.randrange(1, T5.n(2) + 1)})", "V(3)",
                f"P(4,{rng.randrange(1, T5.n(4) + 1)})"] + [f"V({k})" for k in range(5, 21)])
    backwards = [f"P(1,{rng.randrange(1, T5.n(1) + 1)})"] + [f"V({k})" for k in range(1, 20)]
    return {name: (itin, LogPolar(Fraction(T5.R_exp(top)),
                                  Fraction(rng.randrange(1, 1 << 30), 1 << 30)))
            for name, itin, top in (("climb", climb, 21), ("forward", forward, 21),
                                    ("backwards", backwards, 20))}


def _point_digest(z):
    h = hashlib.sha256()
    for v in (z.rho.numerator, z.rho.denominator,
              z.theta.turns.numerator, z.theta.turns.denominator):
        h.update(format(v, "x").encode() + b";")
    return h.hexdigest()[:24]


# digests of the constructed points and the whole-itinerary precision need[0],
# recorded before the re-verification ran at a per-step precision; the
# backwards digests again after the petal step read q at its integer scale
CONSTRUCTION_PINS = {
    1: {"climb": "b6878cd2715ee9d95c340b93", "forward": "b06f88ad3426f55b7af940a1",
        "backwards": "21db8b18f543a1643bc1691f"},
    2: {"climb": "a212a61078ccbfb39f1dffef", "forward": "236f366bc553724cf4c44d60",
        "backwards": "473f1ad7aafbbb4ab833a955"},
    3: {"climb": "bcd13583797fbe0473b5cf99", "forward": "8207bbc321a65ab2f583225a",
        "backwards": "95c7058a60834b5b5ceb9fc1"},
}
NEED0_PINS = {"climb": 410, "forward": 732, "backwards": 22683}


@pytest.mark.parametrize("seed", sorted(CONSTRUCTION_PINS))
def test_constructed_points_are_pinned(seed):
    for name, (itin, anchor) in _construction_shapes(seed).items():
        z = backward_construct(M5, itin, anchor, tol=TOL, budget_bits=1 << 16)
        assert _point_digest(z) == CONSTRUCTION_PINS[seed][name], name
        need = itinerary_precision(M5, _normalize_itinerary(itin))
        assert need[0] == NEED0_PINS[name], name


def test_backward_construct_refuses_an_itinerary_past_its_budget(monkeypatch):
    # the backwards shape P(1, j) V(1..19) needs 22683 working bits: at a
    # 1000-bit budget the construction refuses it before any inverse step
    import juliadim.dynamics as dynamics

    def no_step(*a, **k):
        raise AssertionError("an inverse step ran past the budget")

    monkeypatch.setattr(dynamics, "inverse_step", no_step)
    itin, anchor = _construction_shapes(1)["backwards"]
    assert itin[0].startswith("P(1,") and itin[1:] == [f"V({k})" for k in range(1, 20)]
    with pytest.raises(DomainError, match=r"^itinerary needs about 22683 working bits, "
                                          r"budget is 1000; deep or backwards petal visits "
                                          r"are out of the configured resolution$"):
        backward_construct(M5, itin, anchor, tol=TOL, budget_bits=1000)


def test_backwards_shape_takes_no_gcd_of_two_long_integers(monkeypatch):
    # its values carry 22683-bit power-of-two denominators; a sum of two is
    # reduced by trailing zeros (numerics.frac_add), never by a gcd, and the
    # conversions build their Fractions in lowest terms
    gcd, long_calls = math.gcd, []

    def spy(*args):
        if len(args) == 2 and min(abs(x).bit_length() for x in args) > 1024:
            long_calls.append(tuple(abs(x).bit_length() for x in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    itin, anchor = _construction_shapes(1)["backwards"]
    z = backward_construct(M5, itin, anchor, tol=TOL, verify=True, budget_bits=1 << 16)
    assert str(classify(T5, z, model=M5)) == itin[0]
    assert long_calls == []


def test_itinerary_precision_per_suffix():
    # need[s] is the figure of the suffix entries[s:] on its own
    itin = _normalize_itinerary(_construction_shapes(1)["forward"][0])
    need = itinerary_precision(M5, itin)
    assert len(need) == len(itin)
    for s in range(len(itin)):
        assert need[s] == itinerary_precision(M5, itin[s:])[0]
    assert all(a >= b for a, b in zip(need, need[1:]))


def test_backwards_step_0_image_at_need_1_bits():
    # need[0] counts step 0's own amplification, but the error of step 0's
    # evaluation is amplified only from step 1 on: f(z_0) of the seed-1
    # backwards point at need[1] bits already agrees with f(z_0) at need[0]
    # bits far below step 1's resolution (measured: 2**-22290 in rho,
    # 2**-405 in turns)
    import dataclasses
    itin, anchor = _construction_shapes(1)["backwards"]
    z = backward_construct(M5, itin, anchor, tol=TOL, budget_bits=1 << 16)
    need = itinerary_precision(M5, _normalize_itinerary(itin))
    lo, _ = dataclasses.replace(M5, prec=need[1], guard=need[1]).eval(z)
    hi, _ = dataclasses.replace(M5, prec=need[0], guard=need[0]).eval(z)
    tol = Fraction(1, 1 << (need[1] - 16))
    assert (need[0], need[1]) == (22683, 387)
    assert abs(lo.rho - hi.rho) <= tol
    assert lo.theta.dist(hi.theta) <= tol


def test_backwards_verification_runs_only_step_0_above_1024_bits(monkeypatch):
    # the construction runs at need[0] = 22683 bits and evaluates no point:
    # each inverse step decides its own residual.  The re-verification
    # evaluates each point once, step s at need[s]: step 0 at need[0], every
    # later one at most 1024 bits, and it classifies step 0's petal at the
    # precision of the comparison.  So no point is evaluated twice
    import juliadim.dynamics as dyn
    import juliadim.geometry as geo
    import juliadim.numerics as num

    evals, expm1_bits, phase = [], [], ["construct"]
    real_eval, real_iterate, real_expm1 = ModelMap.eval, dyn.iterate_orbit, num.expm1_lp

    def eval_(self, z):
        evals.append((phase[-1], self.prec, self.guard, self.ang_bits))
        return real_eval(self, z)

    def expm1(drho, dtheta, prec=num.SIG_BITS):
        expm1_bits.append((phase[-1], prec))
        return real_expm1(drho, dtheta, prec)

    def iterate(*args, **kwargs):
        phase.append("verify")
        try:
            return real_iterate(*args, **kwargs)
        finally:
            phase.pop()

    monkeypatch.setattr(ModelMap, "eval", eval_)
    monkeypatch.setattr(num, "expm1_lp", expm1)
    monkeypatch.setattr(geo, "expm1_lp", expm1)
    monkeypatch.setattr(dyn, "iterate_orbit", iterate)
    itin, anchor = _construction_shapes(1)["backwards"]
    backward_construct(M5, itin, anchor, tol=TOL, budget_bits=1 << 16)
    need = itinerary_precision(M5, _normalize_itinerary(itin))
    assert need[0] == 22683
    assert [e for e in evals if e[0] == "construct"] == []
    verified = [e[1:] for e in evals]
    assert [(p, g) for p, g, _ in verified] == [(max(M5.prec, b), max(M5.guard, b)) for b in need]
    assert verified[0][:2] == (need[0], need[0])
    assert max(p for p, _, _ in verified[1:]) <= 1024
    # the angle budget is spent over the whole orbit: raised at every step
    assert {a for _, _, a in verified} == {need[0] + 64}
    # above 1024 bits only step 0's one evaluation, through its seam's lp_add
    assert [(ph, b) for ph, b in expm1_bits if b > 1024] == [("verify", need[0])]


def test_itinerary_orbit_names_the_first_step_off_the_itinerary():
    itin = ["V(1)", "V(2)", "V(3)"]
    z = backward_construct(M5, itin, LogPolar(Fraction(T5.R_exp(4)), Fraction(1, 5)))
    assert itinerary_orbit(M5, z, itin).region_strs()[:3] == itin
    with pytest.raises(ItineraryError, match="at step 2: wanted V\\(4\\), got V\\(3\\)"):
        itinerary_orbit(M5, z, ["V(1)", "V(2)", "V(4)"])


def test_illegal_itineraries_rejected():
    anchor = LogPolar(Fraction(T5.R_exp(4)), 0)
    with pytest.raises(ItineraryError):
        backward_construct(M5, ["V(1)", "V(3)"], anchor)      # level jump by 2
    with pytest.raises(ItineraryError):
        backward_construct(M5, ["V(2)", "V(2)"], anchor)      # V must move up
    with pytest.raises(ItineraryError):
        backward_construct(M5, ["A(2)", "V(3)"], anchor)      # bare A ambiguous


# certificates -------------------------------------------------------------------

def test_inclusion_suite_k1():
    rep = verify_inclusions(M5, 1, samples=4096)
    assert rep.all_pass, rep.failures()
    names = {c.name for c in rep.certificates}
    assert "inner_circle_max_below_quarter_next" in names
    assert "petal_boundary_min_above_4Rk1" in names


def _sampled_circle_extrema(m, rho, samples):
    """Circle extrema by evaluating every sample point through ModelMap.eval."""
    vals = [m.eval(LogPolar(rho, Fraction(i, samples)))[0].rho for i in range(samples)]
    return min(vals), max(vals)


def test_inclusion_extrema_match_pointwise_evaluation():
    import mpmath
    from juliadim.dynamics import _circle_extrema, _petal_boundary_extrema
    from juliadim.numerics import lp_perturb, mpf_to_frac, pi_over_ln2_frac

    samples = 4096
    tol = Fraction(1, 1 << (M5.prec - 8))
    # petal boundary z = zeta_j (1 + u): closed form against the seam piece
    for k in range(1, 7):
        nk, j = T5.n(k), k + T5.N - 1
        zeta = M5.ring_zero(j, 1)
        const = M5.seam_zero_log2_base(j)
        rad_rel = -nk - pi_over_ln2_frac(4 * nk)
        old_vals = []
        with mpmath.workprec(M5.prec + 32):
            base = mpmath.power(2, mpmath.mpf(rad_rel.numerator) / rad_rel.denominator)
            for i in range(0, samples, samples // 64):
                ang = mpmath.mpf(2) * mpmath.pi * i / samples
                u = base * mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
                old, piece = M5.eval(lp_perturb(zeta, u, M5.prec))
                assert str(piece) == f"seam({j})"
                new = const + mpf_to_frac(_seam_zero_offset_ln_mpc(M5, j, u) / mpmath.ln(2))
                assert abs(new - old.rho) <= tol, (k, i)
                old_vals.append(old.rho)
        if k == 1:
            # the indices span both halves of the boundary
            lo, hi = _petal_boundary_extrema(M5, k)
            assert lo - tol <= min(old_vals) and max(old_vals) <= hi + tol
    # power-piece circles: one evaluation is the exact extremum
    k = 2
    for rho in (Fraction(T5.R_exp(k) + 2), T5.R_exp(k) + const_log2_frac(5, 4)):
        assert M5.piece_of(rho).kind == "power"
        assert _circle_extrema(M5, rho, samples) == _sampled_circle_extrema(M5, rho, samples)


def test_petal_boundary_must_lie_on_its_seam_piece(monkeypatch):
    from juliadim.dynamics import _petal_boundary_extrema
    from juliadim.modelmap import PieceId
    m = ModelMap(table=T5)
    monkeypatch.setattr(ModelMap, "piece_of", lambda self, rho: PieceId("power", 6))
    with pytest.raises(DomainError, match="leaves piece seam"):
        _petal_boundary_extrema(m, 1)


def test_petal_boundary_extrema_equal_the_half_grid():
    # the enclosure holds the complex form on the 2049-point half grid of
    # 4096 samples that the conjugation symmetry leaves to evaluate, and is
    # 2 delta wide
    from juliadim.dynamics import _petal_boundary_extrema
    from juliadim.numerics import mpf_to_frac, pi_over_ln2_frac

    samples = 4096
    for m in (M5, ModelMap(table=build_params(6, 25)), ModelMap(table=build_params(8, 25))):
        t = m.table
        for k in (1, 2):
            nk, j = t.n(k), k + t.N - 1
            rad_rel = -nk - pi_over_ln2_frac(4 * nk)
            lo, hi = _petal_boundary_extrema(m, k)
            assert hi - lo == Fraction(2, 1 << min(nk, j + 64) - j - 4), (t.N, k)
            with mpmath.workprec(m.prec + 32):
                base = mpmath.power(2, mpmath.mpf(rad_rel.numerator) / rad_rel.denominator)
                const, ln2 = m.seam_zero_log2_base(j), mpmath.ln(2)
                for i in range(samples // 2 + 1):
                    ang = mpmath.mpf(2) * mpmath.pi * i / samples
                    u = base * mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
                    v = const + mpf_to_frac(_seam_zero_offset_ln_mpc(m, j, u) / ln2)
                    assert lo <= v <= hi, (t.N, k, i)


def test_petal_boundary_enclosure_holds_the_real_points():
    # the reference at the two real points u = -eps and u = eps lies inside
    # the enclosure at every N = 5..14 and level k <= 12
    from juliadim.dynamics import _petal_boundary_extrema
    from juliadim.numerics import mpf_to_frac, pi_over_ln2_frac

    for N in range(5, 15):
        m = ModelMap(table=build_params(N, 12))
        t = m.table
        for k in range(1, min(12, t.kmax_shifted() - 1) + 1):
            nk, j = t.n(k), k + N - 1
            rad_rel = -nk - pi_over_ln2_frac(4 * nk)
            lo, hi = _petal_boundary_extrema(m, k)
            with mpmath.workprec(m.prec + 32):
                eps = mpmath.power(2, mpmath.mpf(rad_rel.numerator) / rad_rel.denominator)
                const, ln2 = m.seam_zero_log2_base(j), mpmath.ln(2)
                for u in (-eps, eps):
                    v = const + mpf_to_frac(_seam_zero_offset_ln_mpc(m, j, mpmath.mpc(u)) / ln2)
                    assert lo <= v <= hi, (N, k, u > 0)


def test_petal_reach_keeps_its_denominator_short(monkeypatch):
    # the boundary's rho reach handed to piece_of is 3 * 2**-min(n_k, j + 64):
    # at k = 12 (n_k = 2**16) a reach of 3 * 2**-n_k has a 65,537-bit denominator
    from juliadim.dynamics import _petal_boundary_extrema
    seen, piece_of = [], ModelMap.piece_of

    def spy(self, z):
        seen.append(z)
        return piece_of(self, z)

    monkeypatch.setattr(ModelMap, "piece_of", spy)
    _petal_boundary_extrema(M5, 12)
    assert len(seen) == 2
    assert all(rho.denominator.bit_length() < 1024 for rho in seen)


def test_petal_boundary_monotonicity_guard(monkeypatch):
    # a table whose petal radius eps has M eps > 2**-8 voids the remainder
    # bound, which needs 4 M eps <= 1/2: the enclosure must refuse, not guess
    from juliadim.dynamics import _petal_boundary_extrema
    m = ModelMap(table=build_params(5, 25))
    monkeypatch.setattr(type(m.table), "n", lambda self, k: 4)
    with pytest.raises(DomainError, match=r"remainder bound, which needs 4 n_k eps <= 1/2"):
        _petal_boundary_extrema(m, 1)


def test_origin_circles_are_radial_and_exact():
    from juliadim.dynamics import _circle_extrema
    from juliadim.geometry import LOG2_2_5, LOG2_3_5

    k, samples = 1, 4096
    e1, e2 = T5.R_exp(k), T5.R_exp(k + 1)
    circles = (e1 + LOG2_2_5, e1 + LOG2_3_5, Fraction(e1 + 2), Fraction(e2 - 2),
               e1 + const_log2_frac(5, 4))
    origin = [rho for rho in circles if M5.piece_of(rho).kind == "origin"]
    assert len(origin) == 2
    for rho in origin:
        assert M5.radial_log2(rho) is not None
        assert _circle_extrema(M5, rho, samples) == _sampled_circle_extrema(M5, rho, samples)


def test_inclusion_requires_enough_samples():
    with pytest.raises(DomainError, match="4096"):
        verify_inclusions(M5, 1, samples=512)


def test_circle_extrema_samples_a_non_radial_circle():
    # a seam circle is not radial, so its extrema come from the sample loop;
    # the origin circle through the polynomial's zeros meets one at angle 0
    from juliadim.dynamics import _circle_extrema
    rho = T5.r_exp(5) + Fraction(1, 10**9)
    assert M5.piece_of(rho).kind == "seam" and M5.radial_log2(rho) is None
    assert _circle_extrema(M5, rho, 4096) == _sampled_circle_extrema(M5, rho, 4096)
    rho = qN_landmarks(M5).zero_rho
    assert M5.piece_of(rho).kind == "origin" and M5.radial_log2(rho) is None
    with pytest.raises(DomainError, match="circle passes through a zero"):
        _circle_extrema(M5, rho, 4096)


# the CLI's verify tables (--kmax 12) and its default --khi
VERIFY_MODELS = {N: ModelMap(table=build_params(N, 12)) for N in (5, 6, 8, 10, 14)}
VERIFY_KHI = 6


def _fraction_row(got, target, upper):
    """An inclusion row's verdict and rendered sides, as the Fraction
    expressions that decided them: got +- margin against the target."""
    mb, target = Fraction(SEAM_MARGIN_BITS), Fraction(target)
    return (got + mb < target if upper else got - mb > target,
            f"{float(got):.6f}", f"{float(target):.6f}")


@pytest.mark.parametrize("N", sorted(VERIFY_MODELS))
def test_inclusion_rows_equal_their_fraction_expressions(N, monkeypatch):
    import juliadim.dynamics as dyn

    m, seen, real = VERIFY_MODELS[N], [], dyn._inclusion_row

    def spy(rep, k, upper, name, got, target):
        real(rep, k, upper, name, got, target)
        seen.append((rep.certificates[-1], upper, got, target))

    monkeypatch.setattr(dyn, "_inclusion_row", spy)
    khi = min(VERIFY_KHI, m.table.kmax_shifted() - 1)
    assert khi == 6
    for k in range(1, khi + 1):
        rep = verify_inclusions(m, k)
        assert rep.certificates == [c for c, *_ in seen[-len(rep):]]
    assert len(seen) == 12 * khi
    assert {upper for _, upper, *_ in seen} == {True, False}
    for c, upper, got, target in seen:
        assert type(got) is Fraction and type(target) is int, c
        assert (c.passed, c.lhs, c.rhs) == _fraction_row(got, target, upper), c


@pytest.mark.parametrize("upper", [True, False])
def test_inclusion_row_edges_are_strict(upper):
    # an upper row needs got + margin < target, a lower one got - margin >
    # target: a row exactly at target -+ margin fails, one unit of got's
    # denominator inside passes, one outside fails
    from juliadim.dynamics import _inclusion_row

    rep = CertificateReport("edges")
    inward = Fraction(-1 if upper else 1)
    for target in (T5.R_exp(2) - 2, -7):
        edge = target + inward * Fraction(SEAM_MARGIN_BITS)
        for d in (1, 1 << 40, 3 << 70):
            for got, want in ((edge, False), (edge + inward / d, True),
                              (edge - inward / d, False)):
                _inclusion_row(rep, 1, upper, "edge", got, target)
                c = rep.certificates[-1]
                assert c.passed is want, (target, d, got)
                assert (c.passed, c.lhs, c.rhs) == _fraction_row(got, target, upper)


def test_power_circles_and_inclusion_rows_build_no_logpolar_angle_or_fraction(monkeypatch):
    # at N = 5, k = 2 every inclusion circle is on a power piece: radial_log2
    # reads each in closed form, building no LogPolar or Angle, and every
    # row is decided and rendered in integers, building no Fraction
    import juliadim.dynamics as dyn
    from juliadim.geometry import LOG2_2_5, LOG2_3_5
    from juliadim.numerics import Angle

    k = 2
    e1, e2 = T5.R_exp(k), T5.R_exp(k + 1)
    circles = (e1 + LOG2_2_5, e1 + LOG2_3_5, Fraction(e1 + 2), Fraction(e2 - 2),
               e1 + const_log2_frac(5, 4))
    assert {M5.piece_of(rho).kind for rho in circles} == {"power"}
    want = verify_inclusions(M5, k).certificates
    inside, built = [], []

    def within(label, fn):
        def wrapped(*args, **kwargs):
            inside.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def counted(label, fn):
        def wrapped(*args, **kwargs):
            built.append((label, inside[-1] if inside else None))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ModelMap, "radial_log2", within("radial_log2", ModelMap.radial_log2))
    monkeypatch.setattr(dyn, "_inclusion_row", within("row", dyn._inclusion_row))
    monkeypatch.setattr(LogPolar, "__init__", counted("LogPolar", LogPolar.__init__))
    monkeypatch.setattr(Angle, "__init__", counted("Angle", Angle.__init__))
    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    LogPolar(1)   # the spies see it
    assert set(built) == {("LogPolar", None), ("Angle", None), ("Fraction", None)}
    built.clear()
    assert verify_inclusions(M5, k).certificates == want
    assert {label for label, _ in built} == {"Fraction"}   # the circles' rho and pieces
    assert [b for b in built if b[1] == "row" or b[0] != "Fraction"] == []


def _fraction_singular_rows(m):
    """check_singular_values' rows as (name, index, pass, lhs, rhs), from
    the Fraction expressions that decided and rendered them."""
    from juliadim.numerics import pi_over_ln2_frac

    t = m.table
    lo = Fraction(t.r_exp(t.N) + 3)
    hi = Fraction(t.r_exp(t.N + 1)) - 4 - Fraction(1, 2)
    cv_rho = qN_landmarks(m).first_crit_value.rho
    rows = [("poly_crit_values_above_8rN", t.N, cv_rho > lo,
             f"{float(cv_rho):.6f}", f"{float(lo):.6f}"),
            ("poly_crit_values_below_rN1_16sqrt2", t.N, cv_rho < hi,
             f"{float(cv_rho):.6f}", f"{float(hi):.6f}")]
    for k in range(1, min(t.kmax_shifted(), t.kmax) + 1):
        nk = t.n(k)
        lhs, rhs = t.C_exp(k) + nk * t.R_exp(k), nk + t.R_exp(k + 1)
        cv = Fraction(rhs) + pi_over_ln2_frac(2) - 2
        shift = pi_over_ln2_frac(4 * nk) - Fraction(1, nk)
        rows += [("power_identity", k, lhs == rhs, lhs, rhs),
                 ("ring_crit_value_above_8Rk1", k, cv > t.R_exp(k + 1) + 3,
                  f"{float(cv - t.R_exp(k + 1)):.4f}+e(R_{k + 1})", t.R_exp(k + 1) + 3),
                 ("ring_crit_value_below_eighth_Rk2", k, cv < t.R_exp(k + 2) - 3,
                  str(cv.numerator // cv.denominator), t.R_exp(k + 2) - 3),
                 ("ring_crit_point_radius_shift", k, abs(shift) < Fraction(1, nk),
                  f"2^({float(shift):.3g}) relative", "within 2^(1/n_k)")]
    return rows


@pytest.mark.parametrize("N", sorted(VERIFY_MODELS))
def test_singular_value_rows_equal_their_fraction_expressions(N):
    for m in (VERIFY_MODELS[N], ModelMap(table=build_params(N, 25))):
        rep = check_singular_values(m)
        assert len(rep) == 2 + 4 * min(m.table.kmax_shifted(), m.table.kmax)
        assert [(c.name, c.index, c.passed, c.lhs, c.rhs)
                for c in rep.certificates] == _fraction_singular_rows(m)


def test_singular_values_all_in_gaps():
    rep = check_singular_values(M5)
    assert rep.all_pass, rep.failures()
    # exact identity rows are equalities
    rows = [c for c in rep.certificates if c.name == "power_identity"]
    assert rows and all(c.lhs == c.rhs for c in rows)


def test_eval_then_inverse_identity():
    rng = Random(31)
    for _ in range(40):
        k = rng.randrange(1, 4)
        # stay close enough to the V center that the image remains in the
        # next annulus (the branch's domain): |32 delta| < 2
        rho = Fraction(T5.R_exp(k) - 1) + Fraction(rng.randrange(-2**18, 2**18), 2**25)
        z = LogPolar(rho, Fraction(rng.randrange(2**30), 2**30))
        assert str(classify(T5, z, model=M5)) == f"V({k})"
        w, _ = M5.eval(z)
        back = inverse_step(M5, w, VkRoot(k, int(z.theta.turns * T5.n(k))), TOL)
        assert abs(float(back.rho - z.rho)) < TOL
        assert float(back.theta.dist(z.theta)) < TOL


def test_petal_inverse_lands_in_petal_ball():
    # the preimage of anything up to modulus 4 R_{k+1} sits inside the ball:
    # the chart point's enclosure |z / w_j - 1| < 2**reach decides it exactly,
    # and its absolute form agrees
    from juliadim.geometry import petal_membership, petal_radius_rel_log2
    rng = Random(13)
    for _ in range(10):
        k = rng.randrange(1, 4)
        target = LogPolar(Fraction(T5.R_exp(k + 1) + 2), Fraction(rng.randrange(997), 997))
        j = rng.randrange(1, T5.n(k) + 1)
        z = inverse_step(M5, target, PetalInverse(k, j), TOL)
        assert isinstance(z, AnchoredPoint) and z.reach() <= petal_radius_rel_log2(T5.n(k))
        assert petal_membership(M5, k, z) == j == petal_membership(M5, k, z.absolute(M5.prec))


def test_petal_derivative_expansion_bound():
    # |f'| >= (1/4) n_k (R_{k+1}/R_k) on sampled petal-ball points
    rng = Random(17)
    for k in (1, 2):
        floor_log2 = -2 + (T5.N + k - 1) + T5.R_exp(k + 1) - T5.R_exp(k)
        for _ in range(8):
            j = rng.randrange(1, T5.n(k) + 1)
            w = M5.ring_zero(k + T5.N - 1, j)
            z = LogPolar(w.rho + Fraction(rng.randrange(-7, 8), 1 << (T5.n(k) + 4)),
                         w.theta.add(LogPolar(0, Fraction(
                             rng.randrange(-7, 8), 1 << (T5.n(k) + 6))).theta))
            d, _ = M5.deriv(z)
            assert float(d.rho) >= floor_log2


def test_orbit_truncates_on_angular_budget():
    z = LogPolar(Fraction(T5.R_exp(1)), Fraction(1, 3))
    m = Config(N=5, kmax=25, P_ang=68).build_model()
    rec = iterate_orbit(m, z, 3)  # first step already needs 5 bits
    assert str(rec.classification).startswith("Truncated(angular budget")


def test_orbit_truncates_on_table_exhaustion():
    t = build_params(5, 1)
    m = ModelMap(table=t)
    z = LogPolar(Fraction(t.R_exp(1)), Fraction(1, 3))
    rec = iterate_orbit(m, z, 6)
    assert rec.classification.kind in ("FatouEscape", "Truncated")


def test_outer_circle_margin_magnitude():
    # the min on the outer V circle clears 4 R_{k+1} by about
    # n_k log2(9/8) - 2 bits (identity model: exactly n_k log2(3/5) + n_k)
    from juliadim.numerics import const_log2_frac
    k = 2
    rho = T5.R_exp(k) + const_log2_frac(3, 5)
    w, _ = M5.eval(LogPolar(rho, 0))
    margin = float(w.rho - (T5.R_exp(k + 1) + 2))
    approx = T5.n(k) * (1 + __import__("math").log2(0.6)) - 2  # n_k log2(6/5) - 2
    assert margin > 0
    assert abs(margin - approx) < 3.0


def test_image_level_rises_at_most_one_property():
    # hypothesis-style sweep without the framework (exact Fractions in play):
    # for points across A_k, the image's level is exactly k+1 or an escape gap
    rng = Random(23)
    for _ in range(60):
        k = rng.randrange(1, 6)
        rho = Fraction(T5.R_exp(k)) + Fraction(rng.randrange(-2**20 + 1, 2**20), 2**19)
        z = LogPolar(rho, Fraction(rng.randrange(2**24), 2**24))
        w, _ = M5.eval(z)
        reg = classify(T5, w)
        assert reg.kind in ("A", "B", "V")
        assert reg.k <= k + 1
