import cmath
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from juliadim import curves
from juliadim.config import Config
from juliadim.curves import (
    CurveTrace,
    Identity,
    SyntheticOmega,
    angle_check,
    dilatation_integral,
    tangent_products,
    trace_gamma,
    width_check,
)
from juliadim.modelmap import ModelMap
from juliadim.numerics import (Angle, DomainError, LogPolar, const_log2_frac, dyadic_parts,
                               log2_abs_1p_int)
from juliadim.params import SQRT8, build_params, omega_from_rho

M5 = ModelMap(table=build_params(5, 16))
T5 = M5.table
IDENT = Identity()
SYN = SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=7)
CURVES_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                    / "curves.json")


def _eps(phi, z):
    # eps at z by the leaf path: the rho half, then the angle half
    return phi.eps_at(phi.rho_part(z.rho), float(z.theta.turns))


def _hex(z):
    # a complex bit for bit: -0.0, inf and nan included
    return z.real.hex(), z.imag.hex()


# traces -------------------------------------------------------------------------

def test_identity_depth1_radii_closed_form():
    tr = trace_gamma(M5, IDENT, 1, 1, grid=256)
    n2 = T5.n(2)
    # (1/2)(1/4)^(1/n) R and (1/2)(3/4)^(1/n) R
    assert tr.inner_radii[0] == T5.R_exp(2) - 1 - Fraction(2, n2)
    want_out = T5.R_exp(2) - 1 + math.log2(0.75) / n2
    assert abs(float(tr.outer_radii[0]) - want_out) < 1e-12
    i_osc, o_osc = tr.oscillation_log2()
    assert i_osc == 0.0 and o_osc == 0.0


def test_identity_traces_are_circles_all_depths():
    for depth in range(1, 6):
        tr = trace_gamma(M5, IDENT, 1, depth, grid=256)
        i_osc, o_osc = tr.oscillation_log2()
        assert max(i_osc, o_osc) <= 2.0 ** (-M5.prec + 8)


def test_trace_nesting():
    prev = trace_gamma(M5, IDENT, 1, 1, grid=256)
    for depth in (2, 3, 4):
        cur = trace_gamma(M5, IDENT, 1, depth, grid=256)
        for a_in, a_out, b_in, b_out in zip(prev.inner_radii, prev.outer_radii,
                                            cur.inner_radii, cur.outer_radii):
            assert a_in < b_in < b_out < a_out
        prev = cur


def test_trace_radii_in_curve_zone():
    tr = trace_gamma(M5, IDENT, 1, 3, grid=256)
    lo = T5.R_exp(2) + Fraction(-132, 100)
    hi = T5.R_exp(2) + Fraction(-73, 100)
    assert all(lo < r < hi for r in tr.inner_radii + tr.outer_radii)


def test_width_bounds_depths():
    for depth in range(1, 6):
        tr = trace_gamma(M5, IDENT, 1, depth, grid=256)
        wc = width_check(M5, tr)
        assert wc.ok
    # depth-1 width also under R_{k+1}/n_{k+1}
    tr = trace_gamma(M5, IDENT, 1, 1, grid=256)
    wc = width_check(M5, tr)
    assert float(wc.measured_log2) <= T5.R_exp(2) - (5 + 2 - 1) + 1e-9
    # the bound shrinks by at least n_{k+m}/8 per extra level
    b1 = width_check(M5, trace_gamma(M5, IDENT, 1, 2, grid=256)).bound_log2
    b2 = width_check(M5, trace_gamma(M5, IDENT, 1, 3, grid=256)).bound_log2
    assert b1 - b2 >= (5 + 4 - 1) - 3


@pytest.mark.parametrize("phi", [IDENT, SYN], ids=["identity", "synthetic"])
@pytest.mark.parametrize("k,depth", [(3, d) for d in range(1, 7)]
                         + [(k, d) for k in (1, 2, 3) for d in (8, 10)])
def test_width_bounds_at_k3_and_depths_8_and_10(phi, k, depth):
    # past the workload's k <= 2 and depth <= 6, on the kmax = 16 table:
    # the widths stay under their bounds, and identity traces stay circles
    tr = trace_gamma(M5, phi, k, depth, grid=256)
    wc = width_check(M5, tr)
    assert wc.ok and wc.measured_log2 < wc.bound_log2
    if phi is IDENT:
        assert max(tr.oscillation_log2()) <= 2.0 ** (-M5.prec + 8)


def test_synthetic_trace_oscillation_within_budget():
    tr = trace_gamma(M5, SYN, 1, 3, grid=256)
    i_osc, o_osc = tr.oscillation_log2()
    # accumulated per-step field bound, in log2 units
    budget = 0.0
    for j in range(1, 5):
        w = omega_from_rho(SQRT8, T5.R_exp(1 + j) - 1)
        budget += 2.0 * math.log2(1.0 + min(w, SyntheticOmega.CAP))
    assert 0.0 < max(i_osc, o_osc) <= budget


def _trace_digest(tr, wc) -> str:
    # sha256 over the numeric hashes of the exact radii and width log2 values
    h = hashlib.sha256()
    for v in [*tr.inner_radii, *tr.outer_radii, wc.measured_log2, wc.bound_log2]:
        h.update(hash(v).to_bytes(8, "little", signed=True))
    return h.hexdigest()[:24]


def test_trace_digests_match_reference():
    # every stored trace of the benchmark's curves workload (identity and
    # phase seeds 1-8): the pullback tree and the per-parent leaf level must
    # not move a single exact radius; depth 6 at k = 2 is the deepest chain
    # the workload draws
    ref = json.loads(CURVES_REFERENCE.read_text())["traces"]
    phis = [IDENT] + [SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=s) for s in range(1, 9)]
    seen = set()
    for phi, k, depth in itertools.product(phis, (1, 2), range(1, 7)):
        tr = trace_gamma(M5, phi, k, depth, grid=256)
        key = f"{phi.kind}:{getattr(phi, 'phase_seed', 0)}:{k}:{depth}"
        assert _trace_digest(tr, width_check(M5, tr)) == ref[key], key
        seen.add(key)
    assert seen == set(ref) and len(seen) == 108


@pytest.mark.parametrize("k,depth", [(1, 6), (2, 5)])
def test_trace_reaches_the_top_levels_of_its_table(k, depth):
    # k + depth = 7 is one more than tangent_products accepts on a kmax = 6
    # table; a trace uses no tangent products
    m = ModelMap(table=build_params(5, 6))
    for phi in (IDENT, SYN):
        tr = trace_gamma(m, phi, k, depth)
        assert width_check(m, tr).ok, phi.kind


def _reference_radii(m, phi, k, depth, grid, seed_rho):
    # the per-theta pullback loop, with the angle bookkeeping in Fractions
    t = m.table
    radii = []
    for i in range(grid):
        params = [Fraction(i, grid)]
        for j in range(depth):
            params.append(params[-1] * t.n(k + j + 1))
        z = LogPolar(seed_rho, Angle(params[depth]))
        for j in range(depth - 1, -1, -1):
            n = t.n(k + j + 1)
            b = math.floor(n * (params[j] % 1))
            w = LogPolar(z.rho - t.C_exp(k + j + 1), z.theta).root(n, b)
            z = phi.phi(w, m.prec, phi.rho_part(w.rho))
        radii.append(z.rho)
    return radii


@pytest.mark.parametrize("k", [1, 2])
def test_identity_trace_is_one_chain_per_seed(k, monkeypatch):
    top = T5.R_exp
    for depth in (1, 2, 3, 4):
        tr = trace_gamma(M5, IDENT, k, depth, grid=256)
        seeds = (Fraction(top(k + depth + 1) - 2),
                 top(k + depth + 1) + const_log2_frac(3, 4))
        assert list(tr.inner_radii) == _reference_radii(M5, IDENT, k, depth, 256, seeds[0])
        assert list(tr.outer_radii) == _reference_radii(M5, IDENT, k, depth, 256, seeds[1])
        assert tr.theta_grid == [Angle(Fraction(i, 256)) for i in range(256)]
    chains, widths = [], []
    real_tree, real_width = curves._pullback_levels, curves.pow2_minus1_log2

    def tree(*a):
        out = real_tree(*a)
        chains.extend(out[0])
        return out

    monkeypatch.setattr(curves, "_pullback_levels", tree)
    monkeypatch.setattr(curves, "pow2_minus1_log2",
                        lambda *a: widths.append(1) or real_width(*a))
    counts = []
    for grid in (256, 1024):
        chains.clear()
        tr = trace_gamma(M5, IDENT, k, 3, grid=grid)
        counts.append(len(chains))
        assert len(tr.inner_radii) == grid
    assert counts[0] == counts[1] <= 3  # one leaf per seed
    width_check(M5, tr)
    assert len(widths) == 1


@pytest.mark.parametrize("k", [1, 2])
def test_synthetic_tree_matches_per_angle_chains(k):
    # the tree makes the same exact operations on the same inputs as the
    # per-theta loop, so every radius is bit-equal
    top = T5.R_exp
    for depth in (2, 4, 6):
        tr = trace_gamma(M5, SYN, k, depth, grid=256)
        seeds = (Fraction(top(k + depth + 1) - 2),
                 top(k + depth + 1) + const_log2_frac(3, 4))
        assert list(tr.inner_radii) == _reference_radii(M5, SYN, k, depth, 256, seeds[0]), depth
        assert list(tr.outer_radii) == _reference_radii(M5, SYN, k, depth, 256, seeds[1]), depth


def _distinct_nodes(t, k, depth, grid):
    # (j, frac(theta n_{k+1} ... n_{k+j})) over the grid, for the steps
    # j = 0..depth-1 that apply phi
    nodes = set()
    for i in range(grid):
        turns = Fraction(i, grid)
        for j in range(depth):
            nodes.add((j, turns))
            turns = turns * t.n(k + j + 1) % 1
    return len(nodes)


@pytest.mark.parametrize("k,depth", [(1, 6), (2, 3)])
def test_synthetic_tree_applies_phi_once_per_node(k, depth, monkeypatch):
    # the steps above the leaves run phi.phi once per node; the leaf level
    # runs the field once per leaf and the integer kernel for log2|1 + eps|
    # once per leaf, in one batch of each for the leaves of a parent.  The
    # children of one node share one radius, so the rho half runs once per
    # node of the steps 1..depth: at depth 6 and k = 1, 9 times per seed
    # where it ran 12 times, once per phi node and parent
    calls = {"phi": 0, "eps": 0, "eps_list": 0, "rho_part": 0, "log2": 0, "log2_batches": 0}
    syn = SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=7)

    def counted(name, fn, size=lambda a: 1):
        def wrapper(*a):
            calls[name] += size(a)
            return fn(*a)
        return wrapper

    for name in ("phi", "rho_part"):
        setattr(syn, name, counted(name, getattr(syn, name)))
    # eps_at is eps_list of one angle: count the angles the field is taken at
    syn.eps_list = counted("eps_list", counted("eps", syn.eps_list, lambda a: len(a[1])))
    log2 = counted("log2", curves.log2_abs_1p_int, lambda a: len(a[0]))
    monkeypatch.setattr(curves, "log2_abs_1p_int", counted("log2_batches", log2))
    trace_gamma(M5, syn, k, depth, grid=256)
    nodes = _distinct_nodes(T5, k, depth, 256)
    parents = len({i * T5.n(k + 1) % 256 for i in range(256)})  # step-1 nodes
    if (k, depth) == (1, 6):
        assert nodes == 256 + 4 + 4 * 1 and parents == 4
    # two seeds of 256 leaves each
    assert calls["eps"] == 2 * nodes
    assert calls["phi"] == 2 * (nodes - 256)
    assert calls["eps_list"] == 2 * (nodes - 256 + parents)
    assert calls["log2"] == 2 * 256
    assert calls["log2_batches"] == 2 * parents
    assert calls["rho_part"] == 2 * (_distinct_nodes(T5, k, depth + 1, 256) - 256)
    if (k, depth) == (1, 6):
        assert calls["rho_part"] == 2 * 9
    # angle_check: one tree of depth n2 + 1 over its samples, and one
    # factor (1 + eps)/phi' per distinct node of the steps [n1, n2), whose
    # eps and phi' share one rho half
    calls.update(phi=0, prime=0, rho_part=0)
    syn.eps_and_prime = counted("prime", syn.eps_and_prime)
    angle_check(M5, syn, 1, 0, 3, samples=32)
    assert calls["phi"] == _distinct_nodes(T5, 1, 4, 32)
    assert calls["prime"] == _distinct_nodes(T5, 1, 3, 32) == 34
    assert calls["rho_part"] == _distinct_nodes(T5, 1, 5, 32) - 32 + 34


@pytest.mark.parametrize("n1,n2,samples", [(0, 3, 32), (1, 3, 64)])
def test_angle_check_equals_the_per_sample_products(n1, n2, samples):
    # the per-node factors give each sample the product of its own chain
    paths, levels = curves._pullback_levels(M5, SYN, 1, n2 + 1, samples, range(samples),
                                            Fraction(T5.R_exp(1 + n2 + 2) - 1))
    chains = [[lv[a] for lv, a in zip(levels, p)] for p in paths]
    worst = 0.0
    for chain in chains:
        prod = 1.0 + 0.0j
        for j in range(n1, n2):
            eps, prime = SYN.eps_and_prime(chain[j])
            assert _hex(eps) == _hex(_eps(SYN, chain[j]))
            prod *= (1.0 + _eps(SYN, chain[j])) / prime
        worst = max(worst, abs(cmath.phase(prod)))
    assert angle_check(M5, SYN, 1, n1, n2, samples=samples)[0] == worst > 0.0


@pytest.mark.parametrize("jump,fails", [(Fraction(1, 4), False),
                                        (Fraction(1, 4) + Fraction(1, 1 << 80), True)])
def test_branch_consistency_compares_exactly(jump, fails, monkeypatch):
    # a jump past a quarter of a bit between grid neighbours is a branch
    # error, decided exactly (as floats both jumps read 0.25)
    def leaf_radii(m, phi, k, depth, grid, seeds):
        r_in, r_out = seeds
        tr = CurveTrace.from_radii(k, depth, [r_in] * (grid - 1) + [r_in + jump], [r_out] * grid)
        return tr.D, tr.inner, tr.outer

    monkeypatch.setattr(curves, "_leaf_radii", leaf_radii)
    if fails:
        # the first offending cell is named: the jump also returns at 255 -> 0
        with pytest.raises(DomainError, match=r"branch inconsistency on the inner trace "
                                              r"in theta cell \[254/256, 255/256\]$"):
            trace_gamma(M5, SYN, 1, 1, grid=256)
    else:
        trace_gamma(M5, SYN, 1, 1, grid=256)


def test_branch_check_names_the_first_offending_cell(monkeypatch):
    # the outer trace jumps at cells 3 and 200, the inner one nowhere
    def leaf_radii(m, phi, k, depth, grid, seeds):
        r_in, r_out = seeds
        outer = [r_out + (i >= 4) + (i >= 201) for i in range(grid)]
        tr = CurveTrace.from_radii(k, depth, [r_in] * grid, outer)
        return tr.D, tr.inner, tr.outer

    monkeypatch.setattr(curves, "_leaf_radii", leaf_radii)
    with pytest.raises(DomainError, match=r"on the outer trace in theta cell \[3/256, 4/256\]$"):
        trace_gamma(M5, SYN, 1, 1, grid=256)


@pytest.mark.parametrize("phase_seed", range(1, 9))
def test_width_check_frontier_equals_all_pairs(phase_seed, monkeypatch):
    # the Pareto frontier and the float screen keep the all-pairs exact
    # maximum, and the screen leaves at most 3 pairs to the exact evaluation
    syn = SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=phase_seed)
    widths = []
    real_width = curves.pow2_minus1_log2
    monkeypatch.setattr(curves, "pow2_minus1_log2",
                        lambda *a: widths.append(1) or real_width(*a))
    for k, depth in itertools.product((1, 2), range(1, 7)):
        tr = trace_gamma(M5, syn, k, depth, grid=256)
        pairs = set((r, o - r) for r, o in zip(tr.inner_radii, tr.outer_radii))
        all_pairs = max(r + real_width(g, M5.prec) for r, g in pairs)
        widths.clear()
        assert width_check(M5, tr).measured_log2 == all_pairs, (k, depth)
        assert 1 <= len(widths) <= 3, (k, depth)


def test_width_screen_evaluates_pairs_closer_than_its_margin(monkeypatch):
    # two frontier pairs over one D whose exact widths differ by at most
    # 1/D = 2**-80, far below the float error: the screen cannot order
    # them, so both are evaluated exactly, whichever float is larger
    D = 1 << 80
    real_width = curves.pow2_minus1_log2
    widths = []
    monkeypatch.setattr(curves, "pow2_minus1_log2",
                        lambda *a: widths.append(1) or real_width(*a))
    for g1, g2, r1 in ((D // 3, D // 5, 10 * D), (D // 2, D // 7, -3 * D), (D >> 40, D >> 41, D),
                       (3 * D, 2 * D + 12345, 700 * D)):
        exact = [real_width(Fraction(g, D), M5.prec) for g in (g1, g2)]
        r2 = r1 + round((exact[0] - exact[1]) * D)      # r2 > r1, gap g2 < g1
        want = max(Fraction(r1, D) + exact[0], Fraction(r2, D) + exact[1])
        assert abs(Fraction(r1, D) + exact[0] - Fraction(r2, D) - exact[1]) <= Fraction(1, D)
        tr = CurveTrace.from_radii(1, 1, [Fraction(r1, D), Fraction(r2, D)],
                                   [Fraction(r1 + g1, D), Fraction(r2 + g2, D)])
        widths.clear()
        assert width_check(M5, tr).measured_log2 == want
        assert len(widths) == 2, (g1, g2)


def test_width_check_refuses_inverted_radii():
    tr = trace_gamma(M5, SYN, 1, 1, grid=256)
    outer = list(tr.outer_radii)
    outer[100] = tr.inner_radii[100]
    tr = CurveTrace.from_radii(tr.k, tr.m, tr.inner_radii, outer)
    with pytest.raises(DomainError, match="inverted trace radii"):
        width_check(M5, tr)


@pytest.mark.parametrize("phi", [IDENT, SYN], ids=["identity", "synthetic"])
def test_curve_trace_from_radii_round_trips(phi):
    # the stored integers over D are the only form: from_radii rebuilds the
    # same radii (over the reduced lcm), and the width and oscillation
    # computed from it equal those of the trace itself
    tr = trace_gamma(M5, phi, 1, 3, grid=256)
    again = CurveTrace.from_radii(tr.k, tr.m, tr.inner_radii, tr.outer_radii)
    D, inner, outer = again.D, again.inner, again.outer
    assert [Fraction(v, D) for v in inner] == list(tr.inner_radii)
    assert [Fraction(v, D) for v in outer] == list(tr.outer_radii)
    assert again.inner_radii == tr.inner_radii and again.outer_radii == tr.outer_radii
    assert width_check(M5, again) == width_check(M5, tr)
    assert again.oscillation_log2() == tr.oscillation_log2()
    # derived once per object, read-only
    assert tr.inner_radii is tr.inner_radii and isinstance(tr.inner_radii, tuple)
    with pytest.raises(AttributeError):
        tr.D = 1


@pytest.mark.parametrize("phi", [IDENT, SYN], ids=["identity", "synthetic"])
def test_trace_radii_equal_their_fractions_over_d(phi):
    # over a power-of-two D the radii are reduced by trailing zeros, not by
    # a gcd: the same canonical Fractions as Fraction(v, D), and over any
    # other D they are Fraction(v, D) itself
    tr = trace_gamma(M5, phi, 1, 3, grid=256)
    assert tr.D & (tr.D - 1) == 0
    odd = CurveTrace(tr.k, tr.m, 3 * tr.D, tuple(3 * v for v in tr.inner),
                     tuple(3 * v for v in tr.outer))
    for t in (tr, odd):
        for got, v in zip(t.inner_radii + t.outer_radii, t.inner + t.outer):
            want = Fraction(v, t.D)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
    assert odd.inner_radii == tr.inner_radii and odd.outer_radii == tr.outer_radii


def test_identity_trace_shares_one_fraction_per_seed():
    tr = trace_gamma(M5, IDENT, 1, 2, grid=256)
    assert len({id(r) for r in tr.inner_radii}) == len({id(r) for r in tr.outer_radii}) == 1


@pytest.mark.parametrize("phi", [IDENT, SYN], ids=["identity", "synthetic"])
def test_trace_builds_its_scaled_form_once(phi, monkeypatch):
    # trace_gamma's branch check, width_check and oscillation_log2 all read
    # the stored form: one lcm for an identity trace, none for a synthetic
    # one, whose leaves sum over one power-of-two denominator
    lcms, built, real_lcm, real_from = [], [], math.lcm, CurveTrace.from_radii.__func__
    monkeypatch.setattr(math, "lcm", lambda *a: lcms.append(1) or real_lcm(*a))
    monkeypatch.setattr(CurveTrace, "from_radii",
                        classmethod(lambda cls, *a: built.append(1) or real_from(cls, *a)))
    tr = trace_gamma(M5, phi, 2, 3, grid=256)
    stored = tr.D, tr.inner, tr.outer
    width_check(M5, tr)
    tr.oscillation_log2()
    assert all(x is y for x, y in zip((tr.D, tr.inner, tr.outer), stored))
    assert len(lcms) == len(built) == (phi is IDENT)
    if phi is SYN:
        assert stored[0] & (stored[0] - 1) == 0


@pytest.mark.parametrize("depth", [1, 4])
def test_synthetic_trace_builds_no_fraction_per_leaf(depth, monkeypatch):
    made, real = [], curves.Fraction
    monkeypatch.setattr(curves, "Fraction", lambda *a: made.append(a) or real(*a))
    for grid in (256, 1024):
        made.clear()
        tr = trace_gamma(M5, SYN, 1, depth, grid=grid)
        width_check(M5, tr)
        tr.oscillation_log2()
        # one seed, one angle per top node of each seed's pullback tree (at
        # most one per parent of the leaves), and the few width pairs
        parents = len({a * T5.n(2) % grid for a in range(grid)})
        assert 0 < len(made) <= 2 * parents + 8 < grid // 8, (grid, len(made))


def test_trace_depth_budget_reads_P_ang():
    # depth 1 at k = 1 needs N + 2 = 7 angle bits above the 64-bit reserve,
    # depth 2 needs 15
    m = Config(N=5, kmax=16, P_ang=64 + 7).build_model()
    trace_gamma(m, IDENT, 1, 1, grid=256)
    with pytest.raises(DomainError, match="angle bits"):
        trace_gamma(m, IDENT, 1, 2, grid=256)


def test_synthetic_trace_follows_P_sig():
    lo = trace_gamma(Config(N=5, kmax=16, P_sig=128).build_model(), SYN, 1, 1, grid=256)
    hi = trace_gamma(Config(N=5, kmax=16, P_sig=256).build_model(), SYN, 1, 1, grid=256)
    assert lo.inner_radii != hi.inner_radii
    assert max(abs(float(a - b)) for a, b in zip(lo.inner_radii, hi.inner_radii)) < 2.0 ** -100


# field invariants ----------------------------------------------------------------

def test_synthetic_field_envelope_invariant():
    for k in (1, 3, 6, 10):
        for i in range(16):
            z = LogPolar(Fraction(T5.R_exp(k) - 1), Fraction(i, 16))
            e = _eps(SYN, z)
            assert _hex(e) == _hex(SYN.eps_and_prime(z)[0])
            assert abs(e) <= SYN._envelope(z.rho) + 1e-15


def test_synthetic_derivative_envelope():
    # |phi' - 1| stays below C' omega (10 C' omega is the Cauchy-estimate
    # allowance downstream bounds tolerate)
    for k in (1, 4, 8):
        for i in range(16):
            z = LogPolar(Fraction(T5.R_exp(k) - 1), Fraction(i, 16))
            dev = abs(SYN.eps_and_prime(z)[1] - 1.0)
            assert dev <= SYN._envelope(z.rho)
            assert dev <= 10.0 * SYN._envelope(z.rho)



def _eps_at_reference(part, th):
    # the list-and-sum form of the field: a * sum([mode0, mode1, mode2])
    a, mode0, rest = part
    return a * sum([mode0] + [w * cmath.exp(1j * (curves.TWO_PI * (fq * th + rp) + ph))
                              for w, fq, rp, ph in rest])


def _dyadic_parts_reference(u):
    # the complex branch as an isinstance test, cmath.isfinite and mpmath.mag
    if not cmath.isfinite(u):
        raise DomainError(f"non-finite {u!r}")
    (rm, rd), (im, idn) = u.real.as_integer_ratio(), u.imag.as_integer_ratio()
    re, ie = 1 - rd.bit_length(), 1 - idn.bit_length()
    if rm and im:
        return rm, re, im, ie, 1 + max(re + abs(rm).bit_length(), ie + abs(im).bit_length())
    return rm, re, im, ie, re + abs(rm).bit_length() if rm else ie + abs(im).bit_length()


def test_leaf_field_and_its_parts_equal_the_reference_forms():
    # eps_list sums its modes in place, eps_at is its one-angle case, and
    # dyadic_parts reads a complex on its first branch, as the kernel reads a
    # leaf's eps; all must give the old forms' floats and integers bit for
    # bit: seeded eps from 2**-60 to 2**0, parts that are 0 or -0.0, and
    # non-finite eps, which dyadic_parts and the kernel refuse
    rng = random.Random(2301)
    wp = M5.prec + 32
    cases = []
    for _ in range(400):
        syn = SyntheticOmega(Cprime=1.0, p=SQRT8, phase_seed=rng.randrange(1, 9))
        _, mode0, rest = syn.rho_part(Fraction(rng.randrange(1, 1 << 40), 1 << 20))
        cases.append((syn, (2.0 ** -rng.uniform(0.0, 60.0), mode0, rest), rng.random()))
    zero = ((0.0, 1, 0.0, 0.0), (-0.0, 2, 0.5, 1.0))
    for a in (1.0, -1.0, 0.0, -0.0, 2.0 ** -60, math.inf, -math.inf, math.nan):
        for mode0 in (complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.5),
                      complex(0.25, -0.0), complex(math.inf, 0.0), complex(0.0, math.nan)):
            cases += [(SYN, (a, mode0, rest), th) for th in (0.0, 0.25, 0.75)
                      for rest in (zero, ())]
    finite = nonfinite = zeros = 0
    for syn, part, th in cases:
        eps = syn.eps_at(part, th)
        assert _hex(eps) == _hex(_eps_at_reference(part, th)), (part, th)
        assert list(map(_hex, syn.eps_list(part, (th, th / 3)))) == [
            _hex(eps), _hex(_eps_at_reference(part, th / 3))], (part, th)
        try:
            want = _dyadic_parts_reference(eps)
        except DomainError:
            nonfinite += 1
            with pytest.raises(DomainError):
                dyadic_parts(eps, wp)
            with pytest.raises(DomainError):
                log2_abs_1p_int([eps], wp)
            continue
        finite += 1
        zeros += not (want[0] and want[2])
        assert dyadic_parts(eps, wp) == want, eps
    assert finite > 400 and nonfinite > 50 and zeros > 50
    # the seeded eps span 2**-60 to 2**0
    mags = [dyadic_parts(syn.eps_at(part, th), wp)[4] for syn, part, th in cases[:400]]
    assert min(mags) <= -59 and max(mags) >= -1


# tangent products ----------------------------------------------------------------

def test_identity_tangent_partials_are_one():
    rep = tangent_products(M5, IDENT, Angle(0), 8)
    assert all(abs(p - 1.0) < 1e-15 for p in rep.partials)
    assert rep.cauchy_diff_ok()


def test_synthetic_tangent_cauchy_and_limit():
    rep = tangent_products(M5, SYN, Angle(Fraction(1, 3)), 12)
    assert rep.cauchy_diff_ok()
    # per-pair actual log-factors sit below the 2 C' 2^(-sqrt(j+N+2)/4) budget
    assert all(a <= b for a, b in zip(rep.pair_log_actual, rep.pair_log_budget))
    assert rep.limit_modulus() >= rep.limit_lower_bound(T5.N)
    assert rep.limit_modulus() > 0.0



def _report(partials, budget):
    return curves.TangentReport(k=1, mmax=len(partials) + 1, theta0=Angle(0),
                                partials=partials, pair_log_actual=[0.0] * len(budget),
                                pair_log_budget=budget, Cprime=1.0)


def test_cauchy_check_rounds_outward_without_headroom():
    # p_a = 3/4 and p_b = p_a + i d, so the computed distance is d exactly;
    # the bound is |p_a| B, B = expm1 of budget index a + 1..b = [1] only
    pa, budget = 0.75, [2.0 ** -10, 2.0 ** -20]
    B = pa * math.expm1(budget[1])

    def ok(d):
        return _report([complex(pa), complex(pa, d)], budget).cauchy_diff_ok()
    # a distance 2**-41 relative past the bound: the old + 1e-12 of headroom
    # would let it through; the outward-rounded comparison refuses it
    assert B * (1.0 + 2.0 ** -41) <= B + 1e-12
    assert not ok(B * (1.0 + 2.0 ** -41)) and ok(B * (1.0 - 2.0 ** -30))
    # the computed budget may lie 2**-43 above its value, so it is rounded
    # down by 2**-40, |p_a| by 2**-50 and one unit, and the distance up by
    # 2**-50
    lo = (pa * (1.0 - 2.0 ** -50) - 2.0 ** -1074) * (math.expm1(budget[1]) * (1.0 - 2.0 ** -40))
    for d, want in ((B, False), (B * (1.0 - 2.0 ** -45), False), (lo, False),
                    (lo * (1.0 - 2.0 ** -49), True)):
        assert ok(d) is want, d
    # pairs the old index set a..b, or the bound without |p_a|, passed: the
    # budget of step a + 1 (index 0) lies before p_a, and |p_a| = 1/2 halves
    # the bound
    assert not ok(2.0 * B)
    assert 2.0 * B <= math.expm1(math.fsum(budget)) * (1.0 - 2.0 ** -40)
    half = _report([0.5 + 0j, complex(0.5, 0.75 * math.expm1(budget[1]))], [0.0, budget[1]])
    assert not half.cauchy_diff_ok()
    assert _report([0.5 + 0j, complex(0.5, 0.49 * math.expm1(budget[1]))],
                   [0.0, budget[1]]).cauchy_diff_ok()
    # equal partials pass a zero budget, and a zero p_a passes only them;
    # nothing passes a negative, an infinite or a nan budget, and a nan
    # distance fails
    assert _report([1 + 0j, 1 + 0j], [0.0, 0.0]).cauchy_diff_ok()
    assert _report([0j, 0j], budget).cauchy_diff_ok()
    assert not _report([0j, complex(2.0 ** -1074)], budget).cauchy_diff_ok()
    assert not _report([1 + 0j, complex(1.0, 2.0 ** -1074)], [0.0, 0.0]).cauchy_diff_ok()
    for bad in (-1e-300, math.inf, math.nan):
        assert not _report([1 + 0j, 1 + 0j], [0.0, bad]).cauchy_diff_ok(), bad
    assert not ok(math.nan)
    # a subnormal bound (16 units) loses one unit, and a subnormal distance
    # counts one unit more than its computed value
    for units, want in ((14, True), (15, False)):
        rep = _report([1 + 0j, complex(1.0, units * 2.0 ** -1074)], [0.0, 2.0 ** -1070])
        assert rep.cauchy_diff_ok() is want, units


@pytest.mark.parametrize("Cprime,N", [(1.0, 5), (2.0, 8), (1.0, 10)])
def test_limit_lower_bound_counts_the_tail(Cprime, N):
    # exp(-S) with S the whole series: no larger than exp of minus a long
    # direct partial sum, which the truncated series alone exceeded
    rep = curves.TangentReport(k=1, mmax=1, theta0=Angle(0), partials=[],
                               pair_log_actual=[], pair_log_budget=[], Cprime=Cprime)
    direct = math.fsum(2.0 * Cprime * 2.0 ** (-math.sqrt(k + N) / 4.0)
                       for k in range(200000))
    assert 0.0 < rep.limit_lower_bound(N) <= math.exp(-direct)
    # and the midpoint-integral tail keeps it tight
    assert rep.limit_lower_bound(N) >= (1.0 - 1e-5) * math.exp(-direct)


@pytest.mark.parametrize("Cprime,N", [(1.0, 5), (2.0, 8), (0.125, 10), (1.0, 1 << 20)])
def test_limit_lower_bound_rounds_outward(Cprime, N):
    # the float bound is at most exp(-2 C' (head + tail)) evaluated at 200
    # bits, and within 2^-20 relative of it (S is inflated by 2^-32 relative)
    rep = curves.TangentReport(k=1, mmax=1, theta0=Angle(0), partials=[],
                               pair_log_actual=[], pair_log_budget=[], Cprime=Cprime)
    with mpmath.workprec(200):
        a = mpmath.ln(2) / 4
        head = mpmath.fsum(mpmath.mpf(2) ** (-mpmath.sqrt(k + N) / 4) for k in range(1024))
        U = mpmath.sqrt(mpmath.mpf(1024) - mpmath.mpf(1) / 2 + N)
        tail = 2 * mpmath.exp(-a * U) * (U / a + 1 / a ** 2)
        exact = mpmath.exp(-2 * mpmath.mpf(Cprime) * (head + tail))
        got = mpmath.mpf(rep.limit_lower_bound(N))
        assert got <= exact and got >= exact * (1 - mpmath.mpf(2) ** -20)
    with pytest.raises(DomainError, match="N <= 2"):
        rep.limit_lower_bound((1 << 20) + 1)


def test_angle_checks():
    worst, budget = angle_check(M5, IDENT, 1, 0, 2, samples=16)
    assert worst == 0.0
    worst, budget = angle_check(M5, SYN, 1, 0, 1, samples=16)
    assert worst <= budget
    assert budget <= math.atan(48.0 * SYN.Cprime * 2.0 ** (-math.sqrt(T5.N + 2) / 4.0)) + 1e-12
    # budgets accumulate telescopically over deeper windows
    w2, b2 = angle_check(M5, SYN, 1, 0, 3, samples=8)
    _, b01 = angle_check(M5, SYN, 1, 0, 1, samples=8)
    _, b13 = angle_check(M5, SYN, 1, 1, 3, samples=8)
    assert abs(b2 - (b01 + b13)) < 1e-12
    assert w2 <= b2


# dilatation integral --------------------------------------------------------------

def test_dilatation_integral_sweep():
    ratios = []
    for s in range(4, 15):
        di = dilatation_integral(T5, -(2 ** s))
        assert di.I_estimate > 0 and di.omega1 > 0
        ratios.append(di.ratio)
    K = max(ratios)
    assert K <= 16.0
    assert min(ratios) > 1.0  # bounded away from zero as well
    # decay: the estimate halves as the start ring advances
    d4 = dilatation_integral(T5, -(2 ** 4))
    d14 = dilatation_integral(T5, -(2 ** 14))
    assert d14.I_estimate < d4.I_estimate
    assert d14.j_start > d4.j_start


def test_dilatation_integral_summand_shape():
    # summand ~ pi (e^(2 pi / M_j) - 1) ~ 2 pi^2 / M_j once r_j is huge
    di = dilatation_integral(T5, -(2 ** 14))
    first = math.pi * (math.exp(2 * math.pi / (1 << di.j_start)) - 1.0)
    assert di.I_estimate >= first
    assert di.I_estimate <= 2.2 * first + di.tail_bound + 1e-9


@pytest.mark.parametrize("N", [5, 10])
def test_dilatation_tail_bounds_the_remaining_rings(N):
    # the loop runs out of built rings (no summand falls below 2^-70 by
    # jmax), so the tail 4.4 pi^2 / M_j covers the rings j = jmax + 1, ...;
    # a table 64 rings longer has the same exponents and holds them
    t, ext = build_params(N, 12), build_params(N, 12 + 64)
    assert ext.e[:t.jmax + 1] == t.e
    j = t.jmax + 1
    tail = 4.4 * math.pi ** 2 / (1 << j)
    for r_log2 in (-(2 ** 4), -(2 ** 10), -(2 ** 14)):
        assert dilatation_integral(t, r_log2).tail_bound == tail
    with mpmath.workprec(128):
        pi = mpmath.pi
        rings = mpmath.fsum(pi * ((1 - mpmath.mpf(2) ** -ext.r_exp(i)) ** -2
                                  * mpmath.exp(2 * pi / (1 << i)) - 1)
                            for i in range(j, ext.jmax + 1))
        # past ext.jmax each summand is below 4 pi^2 / M_i
        rest = 8 * pi ** 2 / (1 << ext.jmax)
        assert 0.9 * tail < rings + rest <= tail


def test_backward_point_sits_inside_traced_annulus():
    # cross-module check: a point realizing the all-V itinerary lies between
    # the traced inner/outer radii of the matching curve annulus
    from juliadim.dynamics import backward_construct

    depth = 4
    itin = [f"V({k})" for k in range(1, depth + 2)]
    anchor = LogPolar(Fraction(T5.R_exp(depth + 2) - 1), Fraction(1, 5))
    z = backward_construct(M5, itin, anchor)
    tr = trace_gamma(M5, IDENT, 0, depth + 1, grid=256)
    assert tr.inner_radii[0] < z.rho < tr.outer_radii[0]
    # and within the width bound of either boundary
    wc = width_check(M5, tr)
    assert float(tr.outer_radii[0] - z.rho) < 1.0  # same log2 window
