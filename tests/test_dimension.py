import json
from fractions import Fraction
from pathlib import Path

import pytest

from juliadim.dimension import (
    holesum_eval,
    layer_checks,
    min_N_for_dimension,
    origin_dim_bound,
    z2_tail,
)
from juliadim.params import build_params

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
