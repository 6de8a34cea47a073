import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from juliadim.modelmap import (
    AmbiguousPieceError,
    BUMP_DERIV_ARGMAX,
    DILATATION_GRID,
    ModelMap,
    bump_deriv_log2,
    bump_log2,
    dilatation_onset,
    dilatation_sup,
    qN_landmarks,
    seam_mismatch,
)
from juliadim.numerics import (Angle, DomainError, LogPolar, below_log2_one_minus_pow2,
                               lp_sub, mpf_to_frac, pow2_minus1_log2)
from juliadim.params import build_params


def model(N=5, kmax=10):
    return ModelMap(table=build_params(N, kmax))


M5 = model()


# piece selection ---------------------------------------------------------------

def test_piece_layout():
    t = M5.table
    assert str(M5.piece_of(Fraction(10))) == "origin"
    assert str(M5.piece_of(Fraction(t.r_exp(5)))) == "bump(5)"
    # just above r_5: seam ring 5; above its top: power ring 6
    assert str(M5.piece_of(t.r_exp(5) + Fraction(1, 10**9))) == "seam(5)"
    assert str(M5.piece_of(Fraction(t.r_exp(5) + 5))) == "power(6)"
    assert str(M5.piece_of(Fraction(t.r_exp(6)))) == "power(6)"  # r_6 belongs to power(6)


def test_piece_resolves_strip_exactly():
    # relative decrement 2^-740 moves |z| about 2^12 below r_5: origin side;
    # relative decrement 2^-800 moves it by 2^-48: still inside the strip
    t = M5.table
    assert str(M5.piece_of(t.r_exp(5) - Fraction(1, 1 << 740))) == "origin"
    assert str(M5.piece_of(t.r_exp(5) - Fraction(1, 1 << 800))) == "bump(5)"


@functools.lru_cache(maxsize=None)
def _mpmath_origin_threshold(eN, res_bits):
    # the threshold _below_origin_top compared against before it summed the
    # series: log2(1 - 2^-eN) by mpmath.log at res_bits + 64 bits
    with mpmath.workprec(res_bits + 64):
        return mpf_to_frac(mpmath.log(1 - mpmath.ldexp(mpmath.mpf(1), -eN), 2))


def _below_origin_top_mpmath(m, rho):
    eN = m.table.r_exp(m.table.N)
    d = rho - eN
    if d >= 0:
        return False
    res_bits = d.denominator.bit_length()
    if eN > res_bits + 4 or eN.bit_length() > 30:
        return True
    return d < _mpmath_origin_threshold(eN, res_bits)


@pytest.mark.parametrize("N, fine", [(5, (748, 752, 753, 2000, 45005)),
                                     (6, (23009,))])
def test_origin_threshold_matches_mpmath_log(N, fine):
    m = model(N, 2)
    eN = m.table.r_exp(N)
    rng = random.Random(N)
    cases = []
    # coarse rho: the sign test alone decides
    for r in (0, 8, eN - 5):
        cases += [eN - Fraction(rng.randrange(1, 1 << 12), 1 << r), Fraction(eN)]
    # ultra-fine rho, far from the threshold and at it, both sides: c / 2^r is
    # the last multiple of 2^-r below the threshold, (c + 1) / 2^r the first above
    for r in fine:
        cases += [eN - Fraction(rng.getrandbits(r + 4) | 1, 1 << r),
                  eN - Fraction(rng.getrandbits(max(1, r - eN + 2)) | 1, 1 << r)]
        with mpmath.workprec(r + eN + 64):
            thr = mpmath.log(1 - mpmath.ldexp(mpmath.mpf(1), -eN), 2)
            c = int(mpmath.floor(thr * mpmath.ldexp(1, r)))
        for off in (-2, -1, 0, 1, 2, 3):
            rho = eN + Fraction(c + off, 1 << r)
            assert m._below_origin_top(rho) == (off <= 0), (r, off)
            cases.append(rho)
    for rho in cases:
        assert m._below_origin_top(rho) == _below_origin_top_mpmath(m, rho), rho


def test_origin_threshold_takes_no_mpmath_log(monkeypatch):
    # the ultra-fine comparison is integer fixed point over libmp's cached
    # ln 2, not a log at the resolution of rho (45000 bits on a backwards orbit)
    eN = M5.table.r_exp(5)
    r = 45005
    below = eN - Fraction(1, 1 << (eN - 1)) - Fraction(1, 1 << r)
    above = eN - Fraction(1, 1 << (eN + 1)) + Fraction(1, 1 << r)

    def boom(*args, **kwargs):
        raise AssertionError("mpmath.log called")

    monkeypatch.setattr(mpmath, "log", boom)
    monkeypatch.setattr(mpmath, "ln", boom)
    assert M5._below_origin_top(below) is True
    assert M5._below_origin_top(above) is False
    assert str(M5.piece_of(below)) == "origin"
    assert str(M5.piece_of(above)) == "bump(5)"


# power piece -------------------------------------------------------------------

def test_power_piece_exact_exponent():
    t = M5.table
    j = 7
    z = LogPolar(Fraction(t.r_exp(j) - 3), Fraction(0))
    w, piece = M5.eval(z)
    assert str(piece) == f"power({j})"
    assert w.rho == t.c_exp(j) + (1 << j) * (t.r_exp(j) - 3)
    assert w.theta.turns == 0


def test_power_piece_big_scale_value():
    # |z| = (2/5) R_2 at N=5: log2|f| = -25088 + 64*(23008 + log2(2/5))
    t = M5.table
    rho = t.R_exp(2) + Fraction(math.log2(0.4)).limit_denominator(1 << 60)
    w, piece = M5.eval(LogPolar(rho, Fraction(1, 7)))
    assert str(piece) == "power(6)"
    want = -25088 + 64 * (23008 + math.log2(0.4))
    assert abs(float(w.rho - 1447339) - (want - 1447339)) < 1e-9
    assert abs(want - 1447339.4) < 0.01
    assert float(w.rho) < t.R_exp(3) - 2  # stays below R_3/4


# origin polynomial -------------------------------------------------------------

def test_landmarks_match_closed_forms():
    lm = qN_landmarks(M5)
    t = M5.table
    assert lm.degree == 31
    for i in (0, 32):
        for accessor in (lm.zero, lm.crit_point, lm.crit_value):
            with pytest.raises(DomainError):
                accessor(i)
    # r_N / c_N = 2^752 / 2^-1024 = 2^1776, degree M_N - 1 = 31
    assert lm.zero_rho == Fraction(752 + 1024, 31)
    assert lm.crit_rho == Fraction(752 + 1024 - 5, 31)
    # q'(0) = r_N; q' at a zero = r_N (1 - M_N) = -31 * 2^752
    d0, _ = M5.deriv(LogPolar.zero_point())
    assert d0.rho == 752
    assert lm.deriv_at_zero.rho_int() == 756
    assert abs(2 ** lm.deriv_at_zero.rho_frac_float() - 31 / 16) < 1e-15
    assert lm.deriv_at_zero.theta == Angle(Fraction(1, 2))


def test_polynomial_vanishes_at_its_zeros():
    lm = qN_landmarks(M5)
    for i in range(1, 6):
        w, piece = M5.eval(lm.zero(i))
        assert str(piece) == "origin"
        assert w.is_zero  # exact cancellation in exact arithmetic


def test_derivative_vanishes_at_critical_points():
    lm = qN_landmarks(M5)
    for i in range(1, 6):
        d, _ = M5.deriv(lm.crit_point(i))
        assert d.is_zero


def test_landmarks_built_once_per_model(monkeypatch):
    import dataclasses
    calls = []
    orig_eval = ModelMap.eval
    monkeypatch.setattr(ModelMap, "eval", lambda self, z: calls.append(z) or orig_eval(self, z))
    m = model()
    lm = qN_landmarks(m)
    assert qN_landmarks(m) is lm
    # one evaluation, no per-landmark sequence; all 31 points come from
    # the accessors without evaluating again
    assert len(calls) == 1
    assert not any(isinstance(v, (tuple, list)) for v in vars(lm).values())
    pts = [(lm.zero(i), lm.crit_point(i), lm.crit_value(i)) for i in range(1, 32)]
    assert len(calls) == 1
    assert len({p for row in pts for p in row}) == 3 * 31
    # the critical values depend on prec: a replaced model builds its own
    assert qN_landmarks(dataclasses.replace(m, prec=m.prec + 64)) is not lm


@pytest.mark.parametrize("N,kmax,sample", [(5, 8, None), (6, 8, None), (7, 8, None),
                                           (8, 8, None), (10, 6, 40), (14, 6, 40)])
def test_critical_values_equal_evaluation(N, kmax, sample):
    # reference: evaluate the polynomial at every (or a seeded sample of)
    # critical point(s) and compare with the rotated closed form, exactly
    from random import Random
    m = model(N=N, kmax=kmax)
    lm = qN_landmarks(m)
    idx = range(1, lm.degree + 1)
    if sample is not None:
        idx = [1, lm.degree] + Random(N).sample(range(2, lm.degree), sample - 2)
    for i in idx:
        assert lm.crit_value(i) == m.eval(lm.crit_point(i))[0], i


def test_radial_circles():
    t = M5.table
    # power piece: |f| = |c_j| |z|**M_j
    rho = Fraction(t.r_exp(6) + 3)
    assert str(M5.piece_of(rho)) == "power(7)"
    assert M5.radial_log2(rho) == t.c_exp(7) + 128 * rho
    # origin piece, linear term dominant by far more than the guard
    assert M5.radial_log2(Fraction(10)) == t.r_exp(5) + 10
    # origin piece at the zeros of the polynomial, and a seam circle: no
    lm = qN_landmarks(M5)
    assert M5.radial_log2(lm.zero_rho) is None
    assert M5.radial_log2(t.r_exp(5) + Fraction(1, 10**9)) is None


def test_critical_values_inside_first_gap():
    # moduli in (8 r_N, r_{N+1} / (16 sqrt 2))
    t = M5.table
    lm = qN_landmarks(M5)
    lo = t.r_exp(5) + 3
    hi = Fraction(t.r_exp(6)) - 4 - Fraction(1, 2)
    for i in range(1, lm.degree + 1):
        assert lo < lm.crit_value(i).rho < hi


def test_polynomial_sandwich_on_middle_annulus():
    # (1/2) c_N |z|^{M_N} <= |q(z)| <= 2 c_N |z|^{M_N} on (1/20 R_1, 19/20 R_1)
    t = M5.table
    for frac_num, frac_den in [(1, 20), (1, 2), (19, 20)]:
        rho = t.R_exp(1) + Fraction(math.log2(frac_num / frac_den)).limit_denominator(1 << 50)
        for i in range(7):
            z = LogPolar(rho, Fraction(i, 7))
            w, _ = M5.eval(z)
            power_rho = t.c_exp(5) + (1 << 5) * rho
            assert abs(float(w.rho - power_rho)) <= 1.0


def test_deriv_matches_finite_difference_on_seam():
    # |S'| at a point near a ring zero vs a centered difference quotient
    t = M5.table
    j = 5
    z = LogPolar(t.r_exp(j) + Fraction(1, 2048), Fraction(3, 1 << 7))
    d, piece = M5.deriv(z)
    assert str(piece) == f"seam({j})"
    h = Fraction(1, 1 << 40)
    zp = LogPolar(z.rho + h, z.theta)
    zm = LogPolar(z.rho - h, z.theta)
    fp, _ = M5.eval(zp)
    fm, _ = M5.eval(zm)
    num = lp_sub(fp, fm, M5.guard, M5.prec).value
    # dz = z * (2^h - 2^-h) = z * 2^-h (2^(2h) - 1) along the radial direction
    dz_log2 = z.rho - h + pow2_minus1_log2(2 * h, M5.prec)
    fd_rho = num.rho - dz_log2
    assert abs(float(fd_rho - d.rho)) < 1e-6


def test_deriv_boundary_straddle_raises():
    t = M5.table
    with pytest.raises(AmbiguousPieceError):
        M5.deriv(LogPolar(Fraction(t.r_exp(6)), Fraction(1, 3)))
    # the bump strip is narrower than the guard, so every bump point raises;
    # |z| = r_5 2^(-2^-756) lies inside r_5 - 1 <= |z| <= r_5
    z = LogPolar(t.r_exp(5) - Fraction(1, 1 << (t.r_exp(5) + 4)), Fraction(1, 3))
    assert str(M5.piece_of(z)) == "bump(5)"
    with pytest.raises(AmbiguousPieceError, match=r"bump\(5\)"):
        M5.deriv(z)


# bump blend ---------------------------------------------------------------------

def test_bump_profile_edges():
    def bump(s):
        l2 = bump_log2(s)
        return 0.0 if l2 is None else 2.0 ** float(l2)

    assert bump_log2(0.0) == 0
    assert bump_log2(1.0) is None
    assert bump_log2(0.5) < 0
    assert bump(0.0) == 1.0 and bump(1.0) == 0.0 and 0.0 < bump(0.5) < 1.0
    # |b'| peaks at (1/3)^(1/4) with value < e
    xs = [i / 1000 for i in range(1, 1000)]
    db = [abs(bump(x + 1e-7) - bump(x - 1e-7)) / 2e-7 for x in xs]
    i = max(range(len(db)), key=db.__getitem__)
    assert abs(xs[i] - BUMP_DERIV_ARGMAX) < 5e-3
    assert max(db) < math.e


def test_bump_blend_edges_match_neighbours():
    t = M5.table
    eN = t.r_exp(5)
    # at |z| = r_N the blend is the pure power map
    z_top = LogPolar(Fraction(eN), Fraction(3, 64))
    w, piece = M5.eval(z_top)
    assert str(piece) == "bump(5)"
    assert w.rho == t.c_exp(5) + (1 << 5) * eN
    # at |z| = r_N - 1 it is the full polynomial: compare against the origin
    # piece value just below
    z_bot = LogPolar(eN + Fraction(-3, 1 << 753) * 2, Fraction(3, 64))  # below r_N - 1
    w2, piece2 = M5.eval(z_bot)
    assert str(piece2) == "origin"
    assert not w2.is_zero


# dilatation ----------------------------------------------------------------------

def test_dilatation_far_below_one_and_decreasing():
    sups = []
    for k in range(5, 14):
        rep = dilatation_sup(M5, k)
        assert rep.below_one
        sups.append(rep.sup_log2)
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert dilatation_onset(M5, 13) == 5


def _grid_dilatation_sup(m, k, grid=DILATATION_GRID):
    # reference: the per-point loop over the grid, with its gap exclusion
    t = m.table
    ek, epsk, Mk = t.r_exp(k), t.c_exp(k), 1 << k
    lead = float(epsk + k + (Mk - 1) * ek)
    sup = -math.inf
    for i in range(1, grid):
        s = i / grid
        ld = float(bump_deriv_log2(s))
        num_log2 = 2.0 * float(ek) + ld - 1.0
        gap2 = float(ek) + float(bump_log2(s)) - lead
        gap3 = num_log2 - lead
        if max(gap2, gap3) > -8.0:
            continue
        den_log2 = lead + math.log2(max(1.0 - 2.0 ** gap2 - 2.0 ** gap3, 0.5))
        sup = max(sup, num_log2 - den_log2)
    return sup


@pytest.mark.parametrize("N", [5, 6, 8])
def test_dilatation_sup_equals_the_grid_loop(N):
    m = model(N=N, kmax=16)
    for k in range(5, 14):
        assert repr(dilatation_sup(m, k).sup_log2) == repr(_grid_dilatation_sup(m, k))


def test_dilatation_rejects_blend_terms_near_the_lead(monkeypatch):
    # a grid maximum of log2|b'| that lifts the blend term to within 64 bits
    # of the leading term must raise, naming the ring
    import juliadim.modelmap as mm
    t = M5.table
    k = 6
    ek, lead = t.r_exp(k), t.c_exp(k) + k + ((1 << k) - 1) * t.r_exp(k)
    ld_max = float(lead - 2 * ek + 1) - 32.0   # num_log2 = lead - 32
    monkeypatch.setattr(mm, "_bump_grid_max_log2", lambda: (0.0, ld_max))
    with pytest.raises(DomainError, match="ring 6"):
        dilatation_sup(M5, k)


def test_boundary_distance_covers_every_cut():
    t = M5.table
    cuts = [Fraction(t.r_exp(t.N))]
    for j in range(t.N, t.jmax):
        cuts += [M5.seam_top(j), Fraction(t.r_exp(j + 1))]
    for c in cuts:
        for rho in (c, c - Fraction(1, 7), c + Fraction(1, 1 << 60)):
            assert M5.boundary_distance(rho) == min(abs(rho - x) for x in cuts)


def _piece_ref(m, rho):
    # exact bisect over the cuts with plain Fraction comparisons
    t = m.table
    eN = t.r_exp(t.N)
    d = rho - eN
    if d < 0 and (eN > d.denominator.bit_length() + 4 or eN.bit_length() > 30
                  or below_log2_one_minus_pow2(d, eN)):
        return "origin"
    if rho <= eN:
        return f"bump({t.N})"
    cuts = m._cuts()[0]
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rho <= cuts[mid][0] else (mid + 1, hi)
    return str(cuts[lo][1]) if lo < len(cuts) else "beyond"


@pytest.mark.parametrize("N", [5, 6])
def test_piece_of_equals_the_exact_bisect(N):
    # every cut, the bump strip's top and the origin threshold, each +- 2**-k,
    # and rationals sharing a cut's integer part on either side of it
    m = M5 if N == 5 else model(6, 8)
    t = m.table
    eN = t.r_exp(N)
    rng = random.Random(2104 + N)
    cuts = [Fraction(eN), eN - Fraction(3, 1 << (eN + 1))] + [c for c, _ in m._cuts()[0]]
    for c in cuts:
        fl = math.floor(c)
        near = [c] + [c + s * Fraction(1, 1 << k) for s in (1, -1)
                      for k in (1, 30, 200, eN - 1, eN, eN + 1, 23000)]
        ties = [fl + Fraction(rng.randrange(1 << 64), 1 << 64) for _ in range(4)]
        ties += [fl + Fraction(rng.randrange(31 << 40), 31 << 40) for _ in range(4)]
        for rho in near + ties:
            try:
                got = str(m.piece_of(rho))
            except DomainError:
                got = "beyond"
            assert got == _piece_ref(m, rho), rho
            if got != "beyond":
                assert str(m.piece_of(LogPolar(rho, Fraction(1, 3)))) == got


def test_seam_zero_offset_rejects_the_zero():
    from mpmath.libmp import fzero
    from juliadim.numerics import DomainError
    with pytest.raises(DomainError):
        M5.seam_zero_offset_ln(6, fzero)


# seam mismatch -------------------------------------------------------------------

def test_seam_mismatch_bounds():
    for j in (5, 6, 8):
        sm = seam_mismatch(M5, j)
        assert sm.inner_max_log2_ratio <= 2.0
        assert sm.outer_max_log2_ratio <= 0.15
        # analytic extremes: log2(e^(pi/4)+1) and -log2(1-e^(-3pi/4))
        assert abs(sm.inner_max_log2_ratio - math.log2(math.exp(math.pi / 4) + 1)) < 0.01
        assert abs(sm.outer_max_log2_ratio + math.log2(1 - math.exp(-3 * math.pi / 4))) < 0.01


def test_seam_mismatch_stable_across_rings():
    a = seam_mismatch(M5, 5)
    b = seam_mismatch(M5, 6)
    assert abs(a.inner_max_log2_ratio - b.inner_max_log2_ratio) < 1.0 / 32
    assert abs(a.outer_max_log2_ratio - b.outer_max_log2_ratio) < 1.0 / 32


def _sampled_seam_mismatch(m, j, samples=256):
    """Both seam-circle deviations as maxima over a psi = M_j theta grid."""
    t = m.table
    Mj = 1 << j
    zc = m.zcap(j)
    inner_max = outer_max = 0.0
    for i in range(samples):
        psi = Fraction(i, samples)
        v_in = LogPolar(Fraction(Mj * t.r_exp(j)), psi)
        d_in = lp_sub(v_in, zc, guard=m.guard, prec=m.prec).value
        inner_max = max(inner_max, abs(float(d_in.rho - Mj * t.r_exp(j))))
        v_out = LogPolar(Fraction(Mj) * m.seam_top(j), psi)
        d_out = lp_sub(v_out, zc, guard=m.guard, prec=m.prec).value
        outer_max = max(outer_max, abs(float(d_out.rho - v_out.rho)))
    return inner_max, outer_max


def test_seam_mismatch_equals_the_psi_grid():
    for j in (5, 6, 8, 10, 14):
        sm = seam_mismatch(M5, j)
        assert (sm.inner_max_log2_ratio, sm.outer_max_log2_ratio) == _sampled_seam_mismatch(M5, j)


# seam zeros ----------------------------------------------------------------------

def test_seam_vanishes_exactly_at_ring_zeros():
    for j in (5, 6):
        Mj = 1 << j
        for i in (1, 2, Mj):
            z = M5.ring_zero(j, i)
            w, piece = M5.eval(z)
            assert str(piece) == f"seam({j})"
            assert w.is_zero


def test_seam_nonzero_off_the_zero_set():
    j = 5
    z = M5.ring_zero(j, 1)
    z2 = LogPolar(z.rho, z.theta.add(Angle(Fraction(1, 1 << 20))))
    w, _ = M5.eval(z2)
    assert not w.is_zero


def test_seam_critical_values_modulus():
    # |S'| = 0 at v = Z/2; critical value modulus (e^(pi/2)/4) c_j r_j^(M_j)
    t = M5.table
    j = 5
    Mj = 1 << j
    # critical point: rho = (zcap_log2 - 1)/M_j, angle on the zero rays
    rho_cp = (M5.zcap_log2(j) - 1) / Mj
    cp = LogPolar(rho_cp, Fraction(1, 2 * Mj))
    d, _ = M5.deriv(cp)
    assert d.is_zero
    val, _ = M5.eval(cp)
    want = t.c_exp(j) + Mj * t.r_exp(j) + math.pi / 2 / math.log(2) - 2
    assert abs(float(val.rho) - want) < 1e-9


def test_bump_family_any_ring():
    # the model's own blend g_N, evaluated off its bump strip too
    from juliadim.modelmap import eval_bump_gk
    t = M5.table
    k = t.N
    ek = t.r_exp(k)
    # above the strip: pure power
    z = LogPolar(Fraction(ek), Fraction(1, 5))
    w = eval_bump_gk(M5, z)
    assert w.rho == t.c_exp(k) + (1 << k) * ek
    # a deep-origin point: eta = 1 exactly, full blend c z^M + r z
    zlow = LogPolar(Fraction(ek - 3), Fraction(1, 5))
    w = eval_bump_gk(M5, zlow)
    t1 = LogPolar(t.c_exp(k) + (1 << k) * zlow.rho, zlow.theta.mul_int(1 << k))
    t2 = LogPolar(Fraction(ek) + zlow.rho, zlow.theta)
    want = lp_sub(t1, t2.neg(), M5.guard, M5.prec).value  # t1 + t2
    assert abs(float(w.rho - want.rho)) < 1e-20


def test_nowhere_else_zero_on_dense_samples():
    # the map vanishes only at the prescribed zero set: dense samples of
    # every piece kind stay nonzero
    from random import Random
    rng = Random(3)
    t = M5.table
    probes = []
    for _ in range(40):
        probes.append(LogPolar(Fraction(rng.randrange(1, 700 * 8), 8),
                               Fraction(rng.randrange(2**20), 2**20)))           # origin
        j = rng.choice([6, 7, 8])
        probes.append(LogPolar(Fraction(t.r_exp(j) - rng.randrange(1, 99), 7),
                               Fraction(rng.randrange(2**20), 2**20)))           # power
        probes.append(LogPolar(t.r_exp(6) + Fraction(rng.randrange(1, 2**10), 2**14),
                               Fraction(rng.randrange(2**20), 2**20)))           # seam
    for z in probes:
        w, _ = M5.eval(z)
        assert not w.is_zero


def test_big_N_model_smoke():
    # N = 14 pushes exponents to ~2^91-bit values; piece selection, power
    # evaluation, and landmark arithmetic must stay exact
    m14 = model(N=14, kmax=6)
    t = m14.table
    z = LogPolar(Fraction(t.R_exp(2) - 1), Fraction(1, 9))
    w, piece = m14.eval(z)
    assert str(piece) == f"power({2 + 13})"
    assert w.rho == t.C_exp(2) + t.n(2) * (t.R_exp(2) - 1)
    lm = qN_landmarks(m14)
    assert lm.deriv_at_zero.rho_int() == t.r_exp(14) + 13
    assert abs(2 ** lm.deriv_at_zero.rho_frac_float()
               - ((1 << 14) - 1) / (1 << 13)) < 1e-15
    v, _ = m14.eval(lm.zero(1))
    assert v.is_zero


def test_deriv_finite_difference_sweep():
    # centered differences across random seam and origin points
    from random import Random
    rng = Random(41)
    t = M5.table
    h = Fraction(1, 1 << 40)
    probes = []
    for _ in range(4):
        probes.append(LogPolar(t.r_exp(5) + Fraction(rng.randrange(1, 2**10), 2**13),
                               Fraction(rng.randrange(2**16), 2**16)))   # seam(5)
        probes.append(LogPolar(Fraction(rng.randrange(40 * 8, 700 * 8), 8),
                               Fraction(rng.randrange(2**16), 2**16)))   # origin
    for z in probes:
        d, _ = M5.deriv(z)
        fp, _ = M5.eval(LogPolar(z.rho + h, z.theta))
        fm, _ = M5.eval(LogPolar(z.rho - h, z.theta))
        num = lp_sub(fp, fm, M5.guard, M5.prec).value
        dz_log2 = z.rho - h + pow2_minus1_log2(2 * h, M5.prec)
        assert abs(float((num.rho - dz_log2) - d.rho)) < 1e-6
