"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time
from fractions import Fraction
from random import Random

from juliadim.curves import (
    Identity,
    SyntheticOmega,
    dilatation_integral,
    tangent_products,
    trace_gamma,
    width_check,
)
from juliadim.dimension import (
    holesum_eval,
    min_N_for_dimension,
    origin_dim_bound,
    z2_tail,
)
from juliadim.dynamics import (
    OriginBranch,
    PetalInverse,
    VkRoot,
    backward_construct,
    check_singular_values,
    inverse_step,
    verify_inclusions,
)
from juliadim.modelmap import ModelMap, dilatation_onset, dilatation_sup, qN_landmarks
from juliadim.numerics import Angle, LogPolar
from juliadim.params import SQRT8, build_params, verify_inequalities

TOL_RT = 2.0 ** -64


def _verdict(num, ok, msg):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    t = build_params(9, 8)
    expect = {0: (1, None, None), 1: (2, 0, 4), 2: (4, -8, 6),
              3: (8, -32, 12), 4: (16, -128, 56)}
    ok = True
    for j, (M, ce, re) in expect.items():
        ok &= t.M(j) == M
        if j >= 1:
            ok &= t.c_exp(j) == ce and t.r_exp(j) == re
            # exact powers: integer exponents, zero tolerance
            ok &= type(t.c_exp(j)) is int and type(t.r_exp(j)) is int
    dt = time.monotonic() - t0
    ok &= dt < 1.0
    _verdict(1, ok, f"table values exact for k <= 4 at N=9 ({dt:.3f}s < 1s)")


def test_criterion_2_inequality_suite():
    t0 = time.monotonic()
    total = 0
    ok = True
    for N in (5, 10, 14):
        rep = verify_inequalities(build_params(N, 64))
        total += len(rep)
        ok &= rep.all_pass
    dt = time.monotonic() - t0
    ok &= dt < 10.0
    _verdict(2, ok, f"{total} exact-exponent certificates pass for "
                    f"N in {{5,10,14}}, k <= 64 ({dt:.2f}s < 10s)")


def test_criterion_3_mapping_inclusions():
    t0 = time.monotonic()
    m = ModelMap(table=build_params(5, 10))
    ok = True
    rows = 0
    for k in range(1, 7):
        rep = verify_inclusions(m, k, samples=4096)
        rows += len(rep)
        ok &= rep.all_pass
    sg = check_singular_values(m)
    ok &= sg.all_pass
    dt = time.monotonic() - t0
    ok &= dt < 60.0
    _verdict(3, ok, f"{rows} circle-extrema rows at 4096 samples, k=1..6, "
                    f"2-bit seam margin ({dt:.1f}s < 60s)")


def test_criterion_4_polynomial_landmarks():
    m = ModelMap(table=build_params(5, 8))
    lm = qN_landmarks(m)
    t = m.table
    ok = True
    # |q(zero)| below 2^(rho-100) relative (exact cancellation here)
    for i in range(1, lm.degree + 1):
        z = lm.zero(i)
        v, _ = m.eval(z)
        ok &= v.is_zero or float(v.rho - z.rho) < -100
    # q'(critical point) below the same threshold
    for i in range(1, lm.degree + 1):
        cp = lm.crit_point(i)
        d, _ = m.deriv(cp)
        ok &= d.is_zero or float(d.rho - cp.rho) < -100
    # q'(zero) = r_N (1 - M_N): real negative, modulus 31 * 2^752 to 1e-12 relative
    dq = lm.deriv_at_zero
    ok &= dq.rho_int() == t.r_exp(5) + 4 and dq.theta == Angle(Fraction(1, 2))
    ok &= abs(2 ** dq.rho_frac_float() / (31 / 16) - 1) < 1e-12
    # critical values inside (8 r_N, r_{N+1}/(16 sqrt 2))
    lo = Fraction(t.r_exp(5) + 3)
    hi = t.r_exp(6) - 4 - Fraction(1, 2)
    ok &= lm.degree == 31
    ok &= all(lo < lm.crit_value(i).rho < hi for i in range(1, lm.degree + 1))
    _verdict(4, ok, "zeros/critical points cancel exactly; |q'(zero)| = 31*2^752; "
                    "critical values inside (8 r_N, r_{N+1}/(16 sqrt 2))")


def test_criterion_5_dimension_certificates():
    t5 = build_params(5, 12)
    ok = origin_dim_bound(t5, 1.0).detail["critical_exponent"] == Fraction(5, 752)
    t10 = build_params(10, 12)
    for tdim in (1.0, 0.1, 0.01):
        h = holesum_eval(t10, tdim)
        z = z2_tail(t10, 1, tdim)
        ok &= h.converges and h.tail_bound_log2 <= h.detail["first_omitted_log2"] + 1.0
        ok &= z.converges and z.tail_bound_log2 <= z.detail["first_omitted_log2"] + 1.0
    ns = [min_N_for_dimension(x) for x in (1.0, 0.1, 0.01)]
    ok &= ns[0] == 5 and ns[0] <= ns[1] <= ns[2]
    ok &= all(z2_tail(t10, 1, x).converges for x in (1.0, 0.1, 0.01, 0.001))
    _verdict(5, ok, f"t* = 5/752 exact; sums converge with tails < 2x first "
                    f"omitted term; min_N = {ns} monotone; singleton tail "
                    f"converges for every tested t > 0")


def test_criterion_6_curve_suite():
    m = ModelMap(table=build_params(5, 16))
    t = m.table
    ok = True
    for depth in range(1, 9):
        tr = trace_gamma(m, Identity(), 1, depth, grid=256)
        i_osc, o_osc = tr.oscillation_log2()
        ok &= max(i_osc, o_osc) <= 2.0 ** (-m.prec + 8)
        wc = width_check(m, tr)
        ok &= wc.ok  # measured <= 8^(m-1) R_2 / (n_2 ... n_{m+1})
    syn = SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=1)
    rep = tangent_products(m, syn, Angle(Fraction(2, 7)), 12)
    ok &= rep.cauchy_diff_ok()
    ok &= rep.limit_modulus() >= rep.limit_lower_bound(t.N) > 0.0
    _verdict(6, ok, "identity traces are circles to 2^-120; widths under the "
                    "contraction bound for m <= 8; synthetic tangent products "
                    "Cauchy with non-vanishing limit")


def test_criterion_7_dilatation():
    m = ModelMap(table=build_params(5, 16))
    kp = dilatation_onset(m, 14)
    ok = kp == 5
    sups = [dilatation_sup(m, k).sup_log2 for k in range(kp, kp + 9)]
    ok &= all(s < 0 for s in sups)
    ratios = []
    for s in range(4, 15):
        di = dilatation_integral(m.table, -(2 ** s))
        ratios.append(di.ratio)
    K = 16.0
    ok &= all(r <= K for r in ratios)
    _verdict(7, ok, f"blend dilatation < 1 from ring K'={kp} through K'+8; "
                    f"ring integral <= {K} * omega_1 over r = 2^-(2^s), "
                    f"s=4..14 (max ratio {max(ratios):.2f})")


def test_criterion_8_round_trips():
    t0 = time.monotonic()
    m = ModelMap(table=build_params(5, 25))
    t = m.table
    rng = Random(2024)
    ok = True

    def rand_target(k):
        rho = Fraction(t.R_exp(k)) + Fraction(rng.randrange(-2 ** 20, 2 ** 20), 2 ** 20)
        return LogPolar(rho, Fraction(rng.randrange(2 ** 30), 2 ** 30))

    for kind in ("vk", "petal", "origin"):
        worst_r, worst_t = 0.0, 0.0
        for _ in range(1000):
            if kind == "vk":
                k = rng.randrange(1, 5)
                spec = VkRoot(k, rng.randrange(t.n(k)))
                target = rand_target(k + 1)
            elif kind == "petal":
                k = rng.randrange(1, 4)
                spec = PetalInverse(k, rng.randrange(1, t.n(k) + 1))
                target = rand_target(k + 1)
            else:
                spec = OriginBranch(rng.randrange(1 << t.N))
                target = rand_target(1)
            z = inverse_step(m, target, spec, TOL_RT)
            got, _ = m.eval(z)
            worst_r = max(worst_r, abs(float(got.rho - target.rho)))
            worst_t = max(worst_t, float(got.theta.dist(target.theta)))
        ok &= worst_r < TOL_RT and worst_t < TOL_RT

    itineraries = [
        [f"V({k})" for k in range(1, 21)],
        ["V(1)", "P(2,5)", "V(3)", "P(4,2)"] + [f"V({k})" for k in range(5, 21)],
        ["P(1,3)"] + [f"V({k})" for k in range(1, 20)],
    ]
    for itin in itineraries:
        last = itin[-1]
        lvl = int(last[last.index("(") + 1:last.index(")" if "," not in last else ",")])
        anchor = LogPolar(Fraction(t.R_exp(lvl + 1)), Fraction(1, 5))
        backward_construct(m, itin, anchor, tol=TOL_RT, budget_bits=1 << 16)
    dt = time.monotonic() - t0
    _verdict(8, ok, f"3x1000 inverse/eval pairs within 2^-64 in log2 magnitude "
                    f"and turns; three length-20 itineraries re-verify ({dt:.1f}s)")
