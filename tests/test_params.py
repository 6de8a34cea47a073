import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from juliadim.numerics import DomainError
from juliadim.params import (
    SQRT8,
    Certificate,
    CertificateReport,
    alpha_beta_window,
    build_params,
    check_permissible,
    compute_k0,
    decimal_bits_limit,
    omega_from_rho,
    verify_inequalities,
)


# hand recurrence oracle on (e_j, eps_j): e' = eps + M(e-1), eps' = eps - M e
def exponent_oracle(jmax):
    e, eps = {1: 4}, {1: 0}
    for j in range(1, jmax):
        M = 2**j
        e[j + 1] = eps[j] + M * (e[j] - 1)
        eps[j + 1] = eps[j] - M * e[j]
    return e, eps


def test_small_table_values():
    t = build_params(5, 8)
    # M_k, c_k, r_k for k <= 4: (M, c-exponent, r-exponent)
    assert [t.M(j) for j in range(5)] == [1, 2, 4, 8, 16]
    assert t.r_exp(1) == 4 and t.c_exp(1) == 0          # r_1 = 16, c_1 = 1
    assert t.r_exp(2) == 6 and t.c_exp(2) == -8          # r_2 = 64
    assert t.r_exp(3) == 12 and t.c_exp(3) == -32        # r_3 = 2^12
    assert t.r_exp(4) == 56 and t.c_exp(4) == -128       # r_4 = 2^56
    # next rungs, frozen from the hand recurrence
    assert t.r_exp(5) == 752 and t.c_exp(5) == -1024
    assert t.r_exp(6) == 23008


def test_matches_exponent_oracle_deep():
    t = build_params(5, 40)
    e, eps = exponent_oracle(t.jmax)
    for j in range(1, t.jmax + 1):
        assert t.r_exp(j) == e[j]
        assert t.c_exp(j) == eps[j]


def test_r_values_are_exact_powers_of_two():
    t = build_params(5, 59)  # r_j for j <= 64
    for j in range(1, 65):
        assert type(t.r_exp(j)) is int
        assert type(t.c_exp(j)) is int


def test_shifted_indices():
    t = build_params(5, 8)
    assert t.n(1) == 2**5 and t.n(2) == 2**6
    assert t.R_exp(1) == t.r_exp(5)
    assert t.C_exp(2) == t.c_exp(6)
    assert t.C_exp(2) == -25088  # c_6


def test_build_rejects_small_N():
    with pytest.raises(DomainError):
        build_params(4, 4)


@pytest.mark.parametrize("N", [5, 10, 14])
def test_inequality_suite_passes(N):
    t = build_params(N, 64)
    rep = verify_inequalities(t)
    assert len(rep) > 400
    assert rep.all_pass, [c for c in rep.failures()][:5]


# sha256 of the rendered (name, index, pass, lhs, rhs) rows, first 24 hex
# digits, recorded while every row was rendered to str when added
GROWTH_ROW_PINS = {5: (856, "0dff1f3831083ad2a519815c"),
                   10: (888, "73fd3dad89d5dc18432c3415"),
                   14: (912, "93debe8aed02bde3224d83a4")}


@pytest.mark.parametrize("N", sorted(GROWTH_ROW_PINS))
def test_growth_rows_are_pinned(N):
    rows = [[c.name, c.index, c.passed, str(c.lhs), str(c.rhs)]
            for c in verify_inequalities(build_params(N, 64)).certificates]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:24]
    assert (len(rows), digest) == GROWTH_ROW_PINS[N]


def test_specific_certificates():
    t = build_params(5, 16)
    rep = verify_inequalities(t)
    by = {(c.name, c.index): c for c in rep.certificates}
    # rows keep the exact exponents; they render only when emitted
    # c_4 r_4^16 = 2^768 >= r_4^9 = 2^504
    c = by[("coef_power_lower", 4)]
    assert c.passed and (c.lhs, c.rhs) == (768, 504)
    # sqrt(r_3) >= r_2 holds with equality: 12 = 2*6
    c = by[("sqrt_growth", 2)]
    assert c.passed and (c.lhs, c.rhs) == (12, 12)
    # r_6 >= 2^(2^5): 23008 >= 32
    c = by[("tower_growth", 5)]
    assert c.passed and (c.lhs, c.rhs) == (23008, 32)


def test_recursion_identity_is_exact():
    t = build_params(7, 32)
    for j in range(1, t.jmax):
        assert t.e[j + 1] + t.M(j) == t.eps[j] + t.M(j) * t.e[j]


def test_quotient_bracket_for_large_N():
    t = build_params(10, 8)
    rep = verify_inequalities(t)
    names = {c.name for c in rep.certificates}
    assert "critical_radius_lower" in names and "critical_radius_upper" in names
    assert rep.all_pass


def test_permissibility_fails_only_at_first_ring():
    t = build_params(5, 16)
    rep = check_permissible(t)
    bad = [c for c in rep.failures()]
    assert len(bad) == 1 and bad[0].name == "ring_gap" and bad[0].index == 1


def test_alpha_beta_monotone_toward_one():
    t = build_params(5, 64)
    for k in range(1, 64):
        assert t.alpha[k] > t.alpha[k + 1] > 1.0
        assert t.beta[k] < t.beta[k + 1] < 1.0
    rep = alpha_beta_window(t)
    assert len(rep) == 1  # reported threshold, pass/fail depends on Cprime


def test_alpha_beta_window_names_the_first_k_of_its_tail():
    # a small distortion constant puts every envelope of the table inside
    # (99/100, 101/100): the row passes and names the least k of the tail
    t = build_params(5, 12, Cprime=1e-3)
    (row,) = alpha_beta_window(t).certificates
    first = min(k for k in range(1, t.kmax + 1)
                if all(0.99 < t.beta[i] < 1.0 < t.alpha[i] < 1.01 for i in range(k, t.kmax + 1)))
    assert row.passed and row.index == first
    assert row.lhs == f"holds for k >= {first}"


# omega ------------------------------------------------------------------------

def omega_at(p, log2_inv_r):
    """omega_p(r) for 0 < r < 1 given by log2(1/r) as a float."""
    rho_int = math.floor(log2_inv_r)
    return omega_from_rho(p, rho_int, log2_inv_r - rho_int)


def test_omega_boundary_and_first_scale():
    # omega(1/e) = 1 for every p; omega(e^-e) = 2^(-1/p)
    assert abs(omega_at(1.0, math.log2(math.e)) - 1.0) < 1e-6
    for p in (1.0, 2.0, SQRT8):
        assert abs(omega_at(p, math.e / math.log(2.0)) - 0.5 ** (1.0 / p)) < 1e-12


def test_omega_quarter():
    assert abs(omega_at(1.0, math.exp(4) / math.log(2.0)) - 0.25) < 1e-12


def test_omega_huge_scale():
    # r = 2^-(2^16), p = 2 sqrt 2
    want = 0.5 ** (math.sqrt(math.log(2**16 * math.log(2.0))) / SQRT8)
    assert abs(omega_from_rho(SQRT8, 2**16) - want) < 1e-14


def test_omega_domain_error():
    with pytest.raises(DomainError):
        omega_from_rho(1.0, 1)  # r = 1/2 > 1/e
    with pytest.raises(DomainError):
        omega_from_rho(1.0, 0)


@settings(max_examples=40)
@given(st.integers(min_value=4, max_value=10**5), st.floats(min_value=0.5, max_value=4.0))
def test_omega_monotone_decreasing_in_scale(e, p):
    a = omega_from_rho(p, e)
    b = omega_from_rho(p, 2 * e)
    assert 0.0 < b < a <= 1.0


# k0 ---------------------------------------------------------------------------

def test_k0_defining_property():
    t = build_params(5, 32)
    k0 = t.k0
    assert k0 is not None
    for k in (k0, k0 + 1):
        ek = t.r_exp(k)
        assert math.log(ek * math.log(2.0) - math.log(20.0)) >= k / 2.0
    # minimality: k0 - 1 fails somewhere at or above it
    if k0 > 1:
        assert compute_k0(t) == k0


def test_k0_log_from_exponent_field():
    t = build_params(5, 16)
    e10 = t.r_exp(10)
    direct = math.log(e10 * math.log(2.0) + math.log(1.0 / 20.0))
    assert math.isfinite(direct) and direct >= 5.0


def test_build_params_budget_error_names_index():
    from juliadim.numerics import ExponentBudgetError

    with pytest.raises(ExponentBudgetError) as ei:
        build_params(5, 3400)
    assert "j=" in str(ei.value)


@pytest.fixture
def restore_int_digits():
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("limit", [0, 640, 4300, 4301, 30103, 10**6])
def test_decimal_bits_limit_is_the_digit_bound(limit, restore_int_digits):
    # a b-bit integer has at most floor(b log10 2) + 1 digits (0.30103 >
    # log10 2): the threshold is the first b where that bound passes the limit
    sys.set_int_max_str_digits(limit)
    lo = decimal_bits_limit()
    for bits in range(max(1, lo - 20000), lo + 20000) if limit else (1, 10**9):
        assert (bits >= lo) == bool(limit and bits * 30103 // 100000 + 1 > limit), bits


def test_certificate_rows_read_the_digit_limit_when_added(restore_int_digits):
    # the guard measures the longest exact integer of the row, an int or a
    # Fraction's numerator or denominator, and reads the limit at each add
    rep = CertificateReport("demo")
    sys.set_int_max_str_digits(4300)
    rep.add("fits", 1, True, -(1 << 14282), Fraction(1 << 14282, 3))
    rep.add("words", 2, True, "x" * 20000, True)
    # a negative part counts by its magnitude: 14285 bits pass 4300 digits
    for rhs in (3, Fraction(1, 3)):
        with pytest.raises(DomainError, match=r"row neg\[0\] of 'demo': a 14285-bit"):
            rep.add("neg", 0, True, -(1 << 14284), rhs)
    sys.set_int_max_str_digits(640)
    with pytest.raises(DomainError, match=r"row tight\[3\] of 'demo': a 2127-bit .* 640-digit"):
        rep.add("tight", 3, True, 5, Fraction(1, 1 << 2126))
    rep.add("loose", 4, True, 1 << 2125, Fraction(-1, 3))
    sys.set_int_max_str_digits(0)
    rep.add("unlimited", 5, True, 1 << 10**6, 0)
    assert [c.name for c in rep.certificates] == ["fits", "words", "loose", "unlimited"]


def test_certificate_rows_are_immutable_and_compare_field_by_field():
    rep = CertificateReport("demo")
    rep.add("row", 3, 1, 5, Fraction(7, 2))
    rep.add("row", 3, True, 5, Fraction(7, 2), note="n")
    c, noted = rep.certificates
    assert (c.name, c.index, c.passed, c.lhs, c.rhs, c.note) == ("row", 3, True, 5,
                                                                  Fraction(7, 2), "")
    assert c.passed is True
    for field in ("name", "index", "passed", "lhs", "rhs", "note"):
        with pytest.raises(AttributeError):
            setattr(c, field, None)
    with pytest.raises(AttributeError):
        c.extra = 1
    assert c == Certificate("row", 3, True, 5, Fraction(7, 2)) == c._replace(note="")
    assert hash(c) == hash(Certificate("row", 3, True, 5, Fraction(7, 2)))
    for field, other in (("name", "rows"), ("index", 4), ("passed", False), ("lhs", 6),
                         ("rhs", Fraction(7, 3)), ("note", "n")):
        assert c != c._replace(**{field: other}), field
    assert noted == c._replace(note="n")
    assert c.to_json_obj() == {"name": "row", "index": 3, "lhs_exponent": "5",
                               "rhs_exponent": "7/2", "pass": True}
    assert noted.to_json_obj()["note"] == "n"
