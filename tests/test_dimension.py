import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from juliadim import dimension
from juliadim.dimension import (
    SINGLETON_EPS,
    CoverReport,
    holesum_eval,
    layer_checks,
    min_N_for_dimension,
    origin_dim_bound,
    z2_tail,
)
from juliadim.params import CertificateReport, build_params

T5 = build_params(5, 12)
T10 = build_params(10, 12)
CURVES_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                    / "curves.json")


def test_origin_critical_exponent_exact():
    r = origin_dim_bound(T5, 1.0)
    assert r.detail["critical_exponent"] == Fraction(5, 752)
    assert r.converges
    # above t*: converges; below: diverges; ratio root is t* itself
    assert origin_dim_bound(T5, 5 / 752 * 1.01).converges
    assert origin_dim_bound(T5, 5 / 752 / 2).verdict == "diverges"


def test_origin_ratio_value():
    r = origin_dim_bound(T5, 1.0)
    assert abs(r.ratio_log2 - (5 - 752)) < 1e-9


@pytest.mark.parametrize("tdim", [1.0, 0.1, 0.01])
def test_holesum_converges_with_tight_tail(tdim):
    rep = holesum_eval(T10, tdim)
    assert rep.converges
    # tail bound below 2x the first omitted term
    assert rep.tail_bound_log2 <= rep.detail["first_omitted_log2"] + 1.0


def test_holesum_term_formula():
    # log2 term_k = k + k N + k(k-1)/2 - t e_{k+N-1}
    tdim = 0.25
    rep = holesum_eval(T10, tdim, kcut=5)
    k = 1
    want = k + k * 10 + 0 - 0.25 * T10.R_exp(1)
    # first term dominates the partial sum at this scale
    assert abs(rep.partial_sum_log2 - want) < 1.0


def test_holesum_monotone_in_N():
    t14 = build_params(14, 12)
    a = holesum_eval(T10, 0.1).total_log2
    b = holesum_eval(t14, 0.1).total_log2
    assert b < a


def test_layer_checks_pass_and_fail_threshold():
    ok = layer_checks(build_params(14, 10), 0.05, Lpp=10.0)
    assert ok.all_pass
    bad = layer_checks(T5, 0.01, Lpp=10.0)
    assert not bad.all_pass
    note = [c.note for c in bad.certificates if c.name == "single_layer_shrink"][0]
    assert "would pass from N = 6" in note


@pytest.mark.parametrize("tdim", [1.0, 0.1, 0.01, 0.001])
def test_z2_tail_converges_for_every_t(tdim):
    rep = z2_tail(T10, 1, tdim)
    assert rep.converges
    assert rep.tail_bound_log2 <= rep.detail["first_omitted_log2"] + 1.0
    assert rep.detail["lcut_for_eps"] is not None


def test_z2_tail_super_exponential_decay():
    rep = z2_tail(T5, 1, 0.5, lcut=1)
    # consecutive term ratio is around -t n_{k+j}: hugely negative
    assert rep.ratio_log2 < -100


def test_min_N_values_and_monotonicity():
    n1 = min_N_for_dimension(1.0)
    n01 = min_N_for_dimension(0.1)
    n001 = min_N_for_dimension(0.01)
    assert n1 == 5
    assert n1 <= n01 <= n001
    # re-verify the definition: all four pass at the returned N, at least
    # one fails at N-1
    for tdim, n in ((0.01, n001),):
        t = build_params(n, 12)
        assert origin_dim_bound(t, tdim).converges
        assert holesum_eval(t, tdim).converges
        assert layer_checks(t, tdim).all_pass
        assert z2_tail(t, 1, tdim).converges
        if n > 5:
            tm = build_params(n - 1, 12)
            assert not (origin_dim_bound(tm, tdim).converges
                        and holesum_eval(tm, tdim).converges
                        and layer_checks(tm, tdim).all_pass
                        and z2_tail(tm, 1, tdim).converges)


def test_tail_overestimate_stability():
    # doubling kcut never pushes partial+tail above the previous bound
    for tdim in (0.5, 0.05):
        short = holesum_eval(T10, tdim, kcut=4)
        long = holesum_eval(T10, tdim, kcut=8)
        assert long.total_log2 <= short.total_log2 + 1e-9


def test_origin_ratio_vanishes_at_critical_exponent():
    r = origin_dim_bound(T5, 5 / 752)
    # t* is the unique root of the ratio: to float resolution the log-ratio
    # at t* is 0
    assert abs(r.ratio_log2) < 1e-9


def test_layer_total_value():
    rep = layer_checks(T5, 0.5, Lpp=10.0)
    row = {c.name: c for c in rep.certificates}["layer_total"]
    # total <= diam(A_1)^t / 9 with diam(A_1) = 8 R_1
    want = 0.5 * (3 + 752) - __import__("math").log2(9.0)
    assert abs(float(row.lhs) - want) < 1e-3  # row renders 4 decimals


def test_z2_term_formula():
    # log2 term_j = j + (k+j) N + (k+j)(k+j-1)/2 - t n_{k+j} (+ prefactor)
    rep = z2_tail(T5, 2, 0.5, lcut=3)
    j = 3
    pref = 0.5 * __import__("math").log2(10.0) + 0.5 * T5.R_exp(2)
    want = j + (2 + j) * 5 + (2 + j) * (1 + j) // 2 - 0.5 * T5.n(2 + j) + pref
    assert abs(rep.partial_sum_log2 - want) < 1.0


def test_holesum_inconclusive_at_vanishing_exponent():
    rep = holesum_eval(T5, 1e-12, kcut=3)
    assert rep.verdict == "inconclusive"
    assert rep.tail_bound_log2 == float("inf")


def test_dimension_entries_match_reference():
    # the stored dimension outputs of the benchmark's curves workload, all 64
    # grid values t = i/64, through the same JSON round trip
    ref = json.loads(CURVES_REFERENCE.read_text())
    got = {}
    for i in range(1, 65):
        tdim = i / 64
        got[repr(tdim)] = json.loads(json.dumps({
            "min_N": min_N_for_dimension(tdim),
            "origin": origin_dim_bound(T5, tdim).to_json_obj(),
            "backwards": holesum_eval(T10, tdim).to_json_obj(),
            "singleton": z2_tail(T10, 1, tdim).to_json_obj(),
        }))
    assert got == ref["dimension"]
    assert got["1.0"]["origin"]["detail"]["critical_exponent"] == ref["t_star"] == "5/752"


# -- the sums against a Fraction reference ------------------------------------------
# The reference builds every log2 term as an exact Fraction (t rounded to a
# denominator <= 2**40, times integer exponents) and converts with float(),
# saturating to +-inf past 2**1000: the formulas the integer-numerator sums
# replace.  Every float must match bit for bit (float.hex tells -0.0, inf and
# -inf apart).

_SATURATED = []


def _ref_log2(fr):
    n = fr.numerator // fr.denominator
    if abs(n).bit_length() > 1000:
        _SATURATED.append(n > 0)
        return math.inf if n > 0 else -math.inf
    return float(fr)


def _ref_log_sum(terms):
    top = max(terms)
    acc = 0.0
    for l in terms:
        d = _ref_log2(l - top)
        if d > -80:
            acc += 2.0 ** d
    return _ref_log2(top) + math.log2(acc)


def _ref_tail(first, ratio):
    if ratio < -1:
        return first - math.log2(1.0 - 2.0 ** max(ratio, -60.0)), "converges"
    return math.inf, "inconclusive"


def _ref_origin(t, tdim):
    tf = Fraction(tdim).limit_denominator(1 << 40)
    r = _ref_log2(Fraction(t.N) - tf * t.R_exp(1))
    tstar = Fraction(t.N, t.R_exp(1))
    if r < 0:
        total = r - math.log2(max(1.0 - 2.0 ** r, 2.0 ** -60))
        partial, tail, verdict = r, total if r > -50 else r, "converges"
    else:
        partial, tail, verdict = math.inf, math.inf, "diverges"
    return CoverReport("origin_cover", tdim, partial, tail, r, verdict, {},
                       {"critical_exponent": tstar, "critical_exponent_float": float(tstar)})


def _ref_holesum(t, tdim, kcut=8):
    tf = Fraction(tdim).limit_denominator(1 << 40)
    kcut = min(kcut, t.kmax_shifted() - 1)
    terms = [Fraction(k + k * t.N + k * (k - 1) // 2) - tf * t.R_exp(k)
             for k in range(1, kcut + 2)]
    nxt = terms.pop()
    ratio = _ref_log2(nxt - terms[-1])
    envelope = 3 + (t.N + kcut - 1) + _ref_log2(-tf * t.n(kcut))
    tail, verdict = _ref_tail(_ref_log2(nxt), ratio)
    return CoverReport("backwards_cover", tdim, _ref_log_sum(terms), tail, ratio, verdict, {},
                       {"kcut": kcut, "first_omitted_log2": _ref_log2(nxt),
                        "ratio_envelope_log2": envelope})


def _ref_layer_checks(t, tdim, Lpp=10.0):
    tf = Fraction(tdim).limit_denominator(1 << 40)
    rep = CertificateReport("layer checks")
    lhs_a = tdim * math.log2(Lpp) + t.N - _ref_log2(tf * t.R_exp(1))
    rhs = math.log2(1.0 / 100.0)
    note_a = ""
    if lhs_a > rhs:
        for N2 in range(t.N + 1, 65):
            if tdim * math.log2(Lpp) + N2 - _ref_log2(tf * build_params(N2, 1).R_exp(1)) <= rhs:
                note_a = f"would pass from N = {N2}"
                break
    rep.add("single_layer_shrink", None, lhs_a <= rhs, f"{lhs_a:.4f}", f"{rhs:.4f}",
            note=note_a)
    hs = _ref_holesum(t, tdim)
    lhs_b, rhs_b = hs.total_log2, rhs + tdim * (1.0 - 2.0 * math.log2(Lpp))
    rep.add("hole_sum_shrink", None, hs.converges and lhs_b <= rhs_b,
            f"{lhs_b:.4f}", f"{rhs_b:.4f}")
    diam_t = tdim * (3.0 + _ref_log2(Fraction(t.R_exp(1))))
    rep.add("layer_total", None, True, f"{diam_t - math.log2(9.0):.4f}",
            f"{diam_t:.4f} - log2(9)", note="geometric layers with ratio 1/10")
    return rep


def _ref_z2_tail(t, k, tdim, lcut=1, Pp=10.0):
    tf = Fraction(tdim).limit_denominator(1 << 40)
    pref = tdim * math.log2(Pp) + _ref_log2(tf * t.R_exp(k))

    def term(j):
        return Fraction(j + (k + j) * t.N + (k + j) * (k + j - 1) // 2) - tf * t.n(k + j)

    terms = [term(j) for j in range(lcut, lcut + 8)]
    nxt = terms.pop()
    ratio = _ref_log2(nxt - terms[-1])
    tail, verdict = _ref_tail(_ref_log2(nxt) + pref, ratio)
    l_for_eps = next(l for l in range(1, 1 << 12)
                     if _ref_log2(term(l)) + pref + 1 < math.log2(SINGLETON_EPS))
    return CoverReport("singleton_tail", tdim, _ref_log_sum(terms) + pref, tail,
                       ratio, verdict, {"Pp": Pp},
                       {"k": k, "lcut": lcut, "lcut_for_eps": l_for_eps,
                        "eps": SINGLETON_EPS, "first_omitted_log2": _ref_log2(nxt) + pref})


def _ref_min_N(tdim, Lpp=10.0):
    for N in range(5, 65):
        t = build_params(N, 12)
        if (_ref_origin(t, tdim).converges and _ref_holesum(t, tdim).converges
                and _ref_layer_checks(t, tdim, Lpp).all_pass
                and _ref_z2_tail(t, 1, tdim).converges):
            return N
    return None


def _bits(rep):
    # every field, floats (also inside dicts) by their exact hex form
    def b(v):
        if isinstance(v, dict):
            return {k: b(x) for k, x in v.items()}
        return v.hex() if isinstance(v, float) else v
    return [b(getattr(rep, f.name)) for f in dataclasses.fields(rep)]


# i/4096 and 0.004 put singleton ratios between 2**-60 and 1/2, where the
# order of the tail's float sum shows
_T_EQUIV = sorted({i / 64 for i in range(1, 65)} | {i / 4096 for i in range(1, 33)} | {
    1e-12, 2.0 ** -40, 3 * 2.0 ** -41, 5 / 752, math.nextafter(5 / 752, 0.0),
    math.nextafter(5 / 752, 1.0), 0.004, 0.01, 0.1, 1 / 3, 1.0})


@pytest.mark.parametrize("N", [5, 6, 8, 10, 14])
def test_cover_reports_equal_the_fraction_reference(N):
    t = build_params(N, 12)
    for tdim in _T_EQUIV:
        assert _bits(origin_dim_bound(t, tdim)) == _bits(_ref_origin(t, tdim)), tdim
        for kcut in (3, 5, 8):
            assert (_bits(holesum_eval(t, tdim, kcut))
                    == _bits(_ref_holesum(t, tdim, kcut))), (tdim, kcut)
        for k in (1, 2):
            for lcut in (1, 3):
                assert (_bits(z2_tail(t, k, tdim, lcut))
                        == _bits(_ref_z2_tail(t, k, tdim, lcut))), (tdim, k, lcut)
        rows = layer_checks(t, tdim).certificates
        assert rows == _ref_layer_checks(t, tdim).certificates, tdim


def test_log2_saturates_past_2_1000_like_the_reference():
    # integer parts of 1000 bits convert, of 1001 bits saturate, on both sides
    # of 0 and for floors that land on the boundary from either side
    for top in (1 << 1000, (1 << 1000) - 1, (1 << 999) + 12345):
        for den in (1, 3, 1 << 40, 752):
            for num in (top * den, top * den + den - 1, top * den - 1,
                        -top * den, -top * den - 1, -top * den + 1):
                want = _ref_log2(Fraction(num, den))
                assert dimension._log2(num, den).hex() == want.hex(), (num, den)


def test_layer_note_equals_the_fraction_reference():
    rows = layer_checks(T5, 0.01).certificates
    assert rows == _ref_layer_checks(T5, 0.01).certificates
    assert rows[0].note == "would pass from N = 6" and not rows[0].passed


def test_min_N_equals_the_fraction_reference():
    # every t of the equivalence grid, the smallest (2**-40 scans to N = 39,
    # where the backwards terms pass 2**1000 and saturate), and an L'' = inf
    # that fails every layer check, so the scan runs to N = 64 through the
    # saturated origin ratios
    _SATURATED.clear()
    for tdim in _T_EQUIV:
        assert min_N_for_dimension(tdim) == _ref_min_N(tdim), tdim
    assert min_N_for_dimension(2.0 ** -40) == 39 and False in _SATURATED
    _SATURATED.clear()
    for tdim in (2.0 ** -40, 1.0):
        assert min_N_for_dimension(tdim, Lpp=math.inf) is _ref_min_N(tdim, math.inf) is None
    assert True in _SATURATED and False in _SATURATED


def test_min_N_takes_t_once_and_each_hole_sum_once_per_N(monkeypatch):
    seen = {"_tfrac": [], "_holesum": []}
    for name, log in seen.items():
        def spy(*args, _real=getattr(dimension, name), _log=log):
            _log.append(args[0] if isinstance(args[0], float) else args[0].N)
            return _real(*args)
        monkeypatch.setattr(dimension, name, spy)
    assert min_N_for_dimension(1e-6) == 18
    assert seen["_tfrac"] == [1e-6]
    hs = seen["_holesum"]
    assert len(hs) == len(set(hs)) and max(hs) == 18
