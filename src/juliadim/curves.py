"""Invariant-curve tracing and the regularity certificates.

The nested curve families around each escape gap are traced by iterated
branch-consistent root pullback

    w_j(theta) = phi( (w_{j+1}(n theta) / C)**(1/n) ),

seeded on circles.  With the identity correction the traces are exact
circles: the root maps rho to (rho - C)/n at every angle, so an identity
trace is one pullback chain per seed, not one per grid angle.  Otherwise
the chains of all grid angles form one tree of (step, angle) nodes, each
pulled back once; the children of a node share its root's radius, so the
field's rho half is taken once per parent, and the leaves of the grid level
add only the angle half, summed in place, and log2|1 + eps|, one batch per
parent.  Radii stay integers from there on: the integer kernel
``numerics.log2_abs_1p_int`` takes a parent's leaf eps in one call and gives
each leaf's log as q 2**e, and the leaf adds q to its parent's dyadic
radius over one power-of-two denominator D per trace.  A
CurveTrace stores only (D, inner, outer); the branch check, the width
check and the oscillation read those integers, and Fraction radii are
derived once, on first use.  The width check keeps the Pareto frontier
of the (inner radius, gap) pairs, and of it evaluates exactly only the
pairs a proven float screen cannot rule out.  The synthetic correction
model perturbs each pullback step by a seeded band-limited field epsilon
with |epsilon| <= C' omega_p(1/|z|), the only property the downstream
estimates use.  Its closed-form z-derivative keeps |phi' - 1| below
C' omega_p as well, so tangent partial products are Cauchy with
explicitly summable differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Iterable, List, Tuple

from .numerics import (
    Angle,
    DomainError,
    LogPolar,
    _dyadic,
    const_log2_frac,
    log2_abs_1p_int,
    lp_perturb,
    pow2_minus1_log2,
)
from .modelmap import ModelMap
from .params import ParamTable, omega_from_rho

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# correction-map models
# ---------------------------------------------------------------------------

class Identity:
    """The exact model: phi(z) = z."""

    kind = "identity"

    def rho_part(self, rho: Fraction) -> None:
        return None

    def phi(self, z: LogPolar, prec: int, part: None) -> LogPolar:
        return z

    def eps_and_prime(self, z: LogPolar) -> Tuple[complex, complex]:
        return 0.0 + 0.0j, 1.0 + 0.0j


class SyntheticOmega:
    """phi(z) = z (1 + eps(z)) with |eps| <= C' omega_p(1/|z|).

    eps = a(rho) u(rho, theta): the amplitude a is 0.8 min(C' omega_p, 1/64)
    and u is a three-mode unit-bounded phase field from the seed, slowly
    varying in rho and low-frequency in theta so that the closed-form
    derivative satisfies |phi' - 1| <= C' omega_p too (tests verify it
    against the looser 10 C' omega_p Cauchy-estimate allowance as well).
    """

    kind = "synthetic"
    SHAPE = 0.8
    CAP = 1.0 / 64.0
    RHO_SCALE = 64.0

    def __init__(self, Cprime: float = 1.0, p: float = 2.0 * math.sqrt(2.0),
                 phase_seed: int = 1):
        self.Cprime = Cprime
        self.p = p
        self.phase_seed = phase_seed
        rng = Random(phase_seed)
        self.weights = (0.7, 0.2, 0.1)
        self.freqs = (0, 1, 2)                     # angular frequencies
        self.rho_freqs = tuple(rng.uniform(0.3, 1.0) for _ in range(3))
        self.phases = tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
        # exact rational rho multipliers of the modes, per unit of rho
        self._rho_mults = tuple(Fraction(rf).limit_denominator(1 << 20)
                                / int(self.RHO_SCALE) for rf in self.rho_freqs)

    # -- field ----------------------------------------------------------------

    def _envelope(self, rho: Fraction) -> float:
        ri = rho.numerator // rho.denominator
        return self.Cprime * omega_from_rho(self.p, ri, float(rho - ri))

    def rho_part(self, rho: Fraction) -> Tuple[float, complex, tuple]:
        """The half of the field that depends on rho alone: the amplitude a,
        the frequency-0 mode, and (weight, frequency, frac(rho * mult),
        phase) of the other modes.  The frequency-0 mode is the same float at
        every angle: 0 * th = 0.0 for th in [0, 1), so it is taken at 0.0."""
        num, den = rho.numerator, rho.denominator
        a = self.SHAPE * min(self._envelope(rho), self.CAP)
        rho_phases = []
        for mult in self._rho_mults:
            # frac(rho * mult) in integers, unreduced: int / int is still
            # the correctly rounded float of the exact fraction
            d = den * mult.denominator
            rho_phases.append(num * mult.numerator % d / d)
        modes = tuple(zip(self.weights, self.freqs, rho_phases, self.phases))
        w, fq, rp, ph = modes[0]
        return a, w * cmath.exp(1j * (TWO_PI * (fq * 0.0 + rp) + ph)), modes[1:]

    def eps_list(self, part: Tuple[float, complex, tuple], ths: Iterable[float]) -> List[complex]:
        """eps at each th turns of ths on the circle whose rho_part is part: a
        times the sum 0 + mode0 + mode1 + mode2, taken in that order."""
        a, u, rest = part
        u = 0 + u
        out = []
        for th in ths:
            s = u
            for w, fq, rp, ph in rest:
                s += w * cmath.exp(1j * (TWO_PI * (fq * th + rp) + ph))
            out.append(a * s)
        return out

    def eps_at(self, part: Tuple[float, complex, tuple], th: float) -> complex:
        """eps at th turns: eps_list of the one angle."""
        return self.eps_list(part, (th,))[0]

    def phi(self, z: LogPolar, prec: int, part: Tuple[float, complex, tuple]) -> LogPolar:
        """z (1 + eps(z)) at prec, part = rho_part(z.rho), which the nodes of
        one radius share."""
        return lp_perturb(z, self.eps_at(part, float(z.theta.turns)), prec)

    def eps_and_prime(self, z: LogPolar) -> Tuple[complex, complex]:
        """(eps, phi') at z from one rho_part: phi' = 1 + eps + z eps_z, the
        Wirtinger derivative in closed form, z eps_z = eps_rho / (2 ln 2) +
        eps_theta / (4 pi i).  eps is eps_at's bit for bit."""
        a, mode0, rest = self.rho_part(z.rho)
        th = float(z.theta.turns)
        modes = [mode0] + [w * cmath.exp(1j * (TWO_PI * (fq * th + rp) + ph))
                           for w, fq, rp, ph in rest]
        eps = a * sum(modes)
        du_drho = sum(1j * TWO_PI * rf / self.RHO_SCALE * mode
                      for rf, mode in zip(self.rho_freqs, modes))
        du_dth = sum(1j * TWO_PI * fq * mode
                     for fq, mode in zip(self.freqs, modes))
        # amplitude varies on the omega scale: d(log a)/d(rho) ~ 1/(rho ln rho)
        z_eps_z = a * (du_drho / (2.0 * LN2) + du_dth / (4.0 * math.pi * 1j))
        return eps, 1.0 + eps + z_eps_z


# ---------------------------------------------------------------------------
# curve traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTrace:
    """The inner and outer log2-radii of a traced annulus (level k, depth m)
    at the grid angles i / len(inner), stored exactly and only as integers
    over one common denominator D: radius i is inner[i] / D."""

    k: int
    m: int
    D: int
    inner: Tuple[int, ...]
    outer: Tuple[int, ...]

    @classmethod
    def from_radii(cls, k: int, m: int, inner: Iterable[Fraction],
                   outer: Iterable[Fraction]) -> "CurveTrace":
        """The trace of exact radii, D the lcm of their denominators (a
        trace has few distinct ones: each scale D // d is taken once)."""
        inner, outer = tuple(inner), tuple(outer)
        dens = {r.denominator for r in inner + outer}
        D = math.lcm(*dens)
        scale = {d: D // d for d in dens}
        def ints(rs): return tuple(r.numerator * scale[r.denominator] for r in rs)
        return cls(k, m, D, ints(inner), ints(outer))

    @cached_property
    def _radii(self) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
        # built on first use; equal integers share one Fraction, reduced by
        # trailing zeros, not by a gcd, over a power-of-two D (every trace of
        # trace_gamma)
        D = self.D
        if D & (D - 1):
            radius = {v: Fraction(v, D) for v in {*self.inner, *self.outer}}.__getitem__
        else:
            S = 1 - D.bit_length()
            radius = {v: _dyadic(v, S) for v in {*self.inner, *self.outer}}.__getitem__
        return tuple(map(radius, self.inner)), tuple(map(radius, self.outer))

    @property
    def inner_radii(self) -> Tuple[Fraction, ...]:
        return self._radii[0]

    @property
    def outer_radii(self) -> Tuple[Fraction, ...]:
        return self._radii[1]

    @property
    def theta_grid(self) -> List[Angle]:
        return [Angle(Fraction(i, len(self.inner))) for i in range(len(self.inner))]

    def oscillation_log2(self) -> Tuple[float, float]:
        """(inner, outer) max radial oscillation over theta, in log2 units:
        max - min of the stored integers over D, as a correctly rounded
        int-by-int division (the float of the exact Fraction difference)."""
        D, inner, outer = self.D, self.inner, self.outer
        return (max(inner) - min(inner)) / D, (max(outer) - min(outer)) / D


def _pullback_levels(m: ModelMap, phi, k: int, depth: int, q: int, nums: Iterable[int],
                     seed_rho: Fraction):
    """For each theta = a/q, a in nums, the path turns[0..depth] and the node
    tables levels[j]: turns[j] -> w_j of the depth-fold pullback through
    theta of the circle log2-radius seed_rho sitting at level k + depth + 1.

    w_depth is the seed point and w_j = f^j(w_0) lies in the level-(k+j+1)
    curve zone; each root branch is the one containing the angle
    turns[j] / q = frac(theta n_{k+1} ... n_{k+j}) that theta reaches after
    j steps.  Since turns[j+1] = turns[j] n_{k+j+1} mod q, the node (j,
    turns[j]) fixes everything above it, so the chains form a tree: each
    node is pulled back once, top-down from the seed, and shared by every
    chain through it.  The root gives the children of one node one radius,
    (rho - C)/n, so phi's rho half is taken once per parent.  At N = 5 the
    grid angles i/256 meet in at most four nodes after one step and in one
    after two."""
    t = m.table
    ns = [t.n(k + j + 1) for j in range(depth)]
    paths = []
    for a in nums:
        turns = [a % q]
        for n in ns:
            turns.append(turns[-1] * n % q)
        paths.append(turns)
    level = {a: LogPolar(seed_rho, Angle(Fraction(a, q))) for a in {p[depth] for p in paths}}
    levels = [level]
    for j in range(depth - 1, -1, -1):
        n, C, above, level, parts = ns[j], t.C_exp(k + j + 1), level, {}, {}
        for p in paths:
            a, b = p[j], p[j + 1]
            if a not in level:
                z = above[b]
                # floor(n turns[j] / q) is the branch, in [0, n)
                w = LogPolar(z.rho - C, z.theta).root(n, a * n // q)
                if b not in parts:
                    parts[b] = phi.rho_part(w.rho)
                level[a] = phi.phi(w, m.prec, parts[b])
        levels.append(level)
    levels.reverse()
    return paths, levels


def _leaf_radii(m: ModelMap, phi: SyntheticOmega, k: int, depth: int, grid: int,
                seeds: Iterable[Fraction]) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(D, inner, outer): rho of w_0 at each grid angle a/grid for the inner
    and the outer seed, times one power of two D.  Per parent w_1 (a leaf
    of the depth - 1 tree one level up): r = (rho_1 - C)/n and
    phi.rho_part(r); r is a dyadic rn / 2**rs, since the seeds are, n is a
    power of two and lp_perturb adds dyadics.  Its leaves a, those with a n
    = turns_1 mod grid, take th = (turns_1 + floor(a n / grid))/n as an
    int-by-int division (correctly rounded: the float of the root's Angle),
    then what phi.phi would add to r, in one batch per parent: eps_list,
    and log2|1 + eps| = q 2**e from the integer kernel, which reads each
    complex eps itself.  D = 2**S with S the largest of every rs and -e,
    and a radius is rn 2**(S - rs) + q 2**(S + e): no Fraction per leaf."""
    n, C, wp = m.table.n(k + 1), m.table.C_exp(k + 1), m.prec + 32
    kids = {}
    for a in range(grid):
        kids.setdefault(a * n % grid, []).append(a)
    S, traces = 0, []
    for seed_rho in seeds:
        _, (above, *_) = _pullback_levels(m, phi, k + 1, depth - 1, grid, kids, seed_rho)
        leaves = [None] * grid
        for c, z in above.items():
            r, turns = (z.rho - C) / n, z.theta.turns
            pn, pd = turns.numerator, turns.denominator
            ths = [(pn + a * n // grid * pd) / (pd * n) for a in kids[c]]
            qe = log2_abs_1p_int(phi.eps_list(phi.rho_part(r), ths), wp)
            rn, rs = r.numerator, r.denominator.bit_length() - 1
            S = max(S, rs, -min(e for _, e in qe))
            for a, (q, e) in zip(kids[c], qe):
                leaves[a] = rn, rs, q, e
        traces.append(leaves)
    inner, outer = (tuple((rn << S - rs) + (q << S + e) for rn, rs, q, e in leaves)
                    for leaves in traces)
    return 1 << S, inner, outer


def trace_gamma(m: ModelMap, phi, k: int, depth: int, grid: int = 256) -> CurveTrace:
    """Boundary circles of the depth-th nested curve annulus at level k.

    Seeds are the enclosing-annulus radii (1/4 and 3/4 of R_{k+depth+1});
    with the identity model the outputs are the closed-form pullback radii,
    constant in theta.  Adjacent grid cells are checked for branch
    consistency in one pass over the neighbour differences, which names the
    first offending cell only when it fails.
    """
    if grid < 256:
        raise DomainError("trace grid must be >= 256")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if k < 0:
        raise DomainError(f"trace level k = {k} must be >= 0")
    t = m.table
    ang_cost = sum(t.N + k + j for j in range(1, depth + 1))
    if ang_cost > m.ang_bits - 64:
        raise DomainError(f"pullback depth needs {ang_cost + 64} angle bits "
                          f"(budget {m.ang_bits})")
    top = t.R_exp(k + depth + 1)
    seeds = (Fraction(top - 2), top + const_log2_frac(3, 4))
    if isinstance(phi, Identity):
        # root maps rho to (rho - C)/n whatever the angle or branch, so
        # one leaf per seed gives the radius at every theta
        r_in, r_out = ([_pullback_levels(m, phi, k, depth, grid, [0], s)[1][0][0].rho]
                       for s in seeds)
        one = CurveTrace.from_radii(k, depth, r_in, r_out)
        tr = CurveTrace(k, depth, one.D, one.inner * grid, one.outer * grid)
    else:
        tr = CurveTrace(k, depth, *_leaf_radii(m, phi, k, depth, grid, seeds))
    for name, arr in (("inner", tr.inner), ("outer", tr.outer)):
        jumps = [abs(b - a) for a, b in zip(arr, arr[1:] + arr[:1])]
        if 4 * max(jumps) > tr.D:
            i = next(i for i, d in enumerate(jumps) if 4 * d > tr.D)
            raise DomainError(f"branch inconsistency on the {name} trace in theta cell "
                              f"[{i}/{grid}, {i + 1}/{grid}]")
    return tr


@dataclass(frozen=True)
class WidthCheck:
    measured_log2: Fraction
    bound_log2: Fraction

    @property
    def ok(self) -> bool:
        return self.measured_log2 <= self.bound_log2


def _width_estimate(dr: int, gap: int, D: int, prec: int):
    """(F, margin) with |F - (w - r0)| <= margin, where w is the width
    r_in + log2(2**gap - 1) of the pair r_in = r0 + dr/D, gap/D as
    width_check computes it exactly; None when the floats may leave their
    normal range (see width_check)."""
    g = gap / D
    if not 2.0 ** -1000 < g < 1000.0 or -dr >= D << 64:
        return None
    x = dr / D
    h = math.log2(math.expm1(g * LN2))
    return x + h, (2.0 ** -40 + 2.0 ** -(prec + 15)) * (1.0 - x + abs(h) + g)


def width_check(m: ModelMap, trace: CurveTrace) -> WidthCheck:
    """Max linear width of the traced annulus against the contraction bound
    8**(m-1) R_{k+1} / (n_{k+1} ... n_{k+m}).

    The width of a radius pair is w = r_in + log2(2**gap - 1), gap = r_out
    - r_in, which increases in r_in and in gap.  So a pair with another
    pair at r_in' >= r_in and gap' >= gap cannot hold the maximum: only the
    Pareto frontier of the distinct pairs is kept, in order of decreasing
    r_in, each pair whose gap beats every gap before it.  (The computed
    log2(2**gap - 1) is rounded at prec + 32 bits, so it could break that
    order only for two gaps within a few units of that precision; the
    tests compare the frontier maximum with the all-pairs one.)  The pairs
    are deduplicated and ordered as the stored integers over the trace's
    one denominator D.

    A float screen then leaves for the exact pow2_minus1_log2 only the
    frontier pairs that may hold the maximum of the exact values E.  Per
    pair, with r0 the largest r_in, X = (r_in - r0)/D, G = gap/D and H =
    log2(2**G - 1), it takes x = fl(X), g = fl(G) (int-by-int divisions,
    correctly rounded), h = log2(expm1(g LN2)) and F = fl(x + h).  Let u =
    2**-53, and assume libm's log (for LN2), expm1 and log2 within 2**-45
    relative of the true values (256 units in the last place; glibc
    documents at most 2).  Then:
      - |x - X| <= u |X|, or an absolute 2**-1075 if x is subnormal;
      - g LN2 is G ln 2 (1 + d) with |d| <= 2**-45 + 3u.  As a function of
        ln y, log2(expm1 y) has slope y e**y / ((e**y - 1) ln 2) <= (1 +
        y)/ln 2, so d moves H by at most 2**-44 (1 + G);
      - expm1's error moves h by at most 2**-44, log2's by 2**-45 |h|;
      - the last sum adds u |x + h|.
    In all |F - (X + H)| <= 2**-43 (1 + |x| + |h| + g).  The exact value
    is computed at prec + 32 bits: a few roundings of G ln 2, expm1 and
    log(v, 2), each within a few units at that precision, so with 2**12
    units to spare |E - r0/D - (X + H)| <= 2**-(prec+16) (2 + |h| + g).
    The margin (2**-40 + 2**-(prec+15)) (1 + |x| + |h| + g) covers both,
    so |F - (E - r0/D)| <= margin, and a pair whose F + margin is below
    F' - margin' of another pair has E < E': it is skipped.  The floats
    stay normal and finite while 2**-1000 < g < 1000 and |x| < 2**64; a
    pair outside that range is always evaluated exactly.  On the
    synthetic traces of phase seeds 1-8 the screen leaves 1 to 3 of about
    24 frontier pairs; an identity trace has a single pair.
    """
    t = m.table
    k, depth = trace.k, trace.m
    D, inner, outer = trace.D, trace.inner, trace.outer
    pairs = sorted({(r_in, r_out - r_in) for r_in, r_out in zip(inner, outer)}, reverse=True)
    if min(gap for _, gap in pairs) <= 0:
        raise DomainError("inverted trace radii")
    frontier, best_gap = [], 0
    for r_in, gap in pairs:
        if gap > best_gap:
            best_gap = gap
            frontier.append((r_in, gap))
    r0 = frontier[0][0]
    est = [_width_estimate(r_in - r0, gap, D, m.prec) for r_in, gap in frontier]
    floor = max((f - e for f, e in filter(None, est)), default=-math.inf)
    measured_log2 = max(Fraction(r_in, D) + pow2_minus1_log2(Fraction(gap, D), m.prec)
                        for (r_in, gap), fe in zip(frontier, est)
                        if fe is None or fe[0] + fe[1] >= floor)
    bound_log2 = Fraction(3 * (depth - 1) + t.R_exp(k + 1)
                          - sum(t.N + k + i - 1 for i in range(1, depth + 1)))
    return WidthCheck(measured_log2, bound_log2)


# ---------------------------------------------------------------------------
# tangent partial products
# ---------------------------------------------------------------------------

@dataclass
class TangentReport:
    k: int
    mmax: int
    theta0: Angle
    partials: List[complex]            # partial products, index m = 1..mmax
    pair_log_actual: List[float]       # per-step |log(1+eps)| + |log(1/phi')|
    pair_log_budget: List[float]       # per-step 2 C' 2**(-sqrt(j+N+2)/4)
    Cprime: float

    def cauchy_diff_ok(self) -> bool:
        """|p_b - p_a| <= |p_a| B, B = exp(S) - 1, S the sum of
        pair_log_budget[a+1..b], for every pair a < b of the stored partials,
        decided outward-rounded: the computed d = abs(p_b - p_a) plus the
        allowance d 2**-50 + min(d, 2**-1074) must be at most the rounded-down
        |p_a| times the computed budget times 1 - 2**-40, and that must be
        finite.

        Partial a holds the factors of steps up to a + 1 and budget index a
        is step a + 1's (tangent_products), so p_b = p_a P with P the product
        of steps a + 2..b + 1, budget indices a + 1..b; each factor's |log|
        within its budget gives |P - 1| <= exp(S) - 1, and |p_b - p_a| =
        |p_a| |P - 1|.

        Proof, with u = 2**-53.  Left: each part of p_b - p_a is rounded
        within u relative, or exactly when it is subnormal, so the true
        distance is at most H (1 + 1.01 u), H the exact hypot of the computed
        parts.  abs rounds H to within one unit in the last place (glibc's
        hypot does), so H < d (1 + 2**-52) for a normal H; then d (1 +
        2**-50), even rounded down, is at least d (1 + 2**-50.2) and covers
        the distance.  A subnormal H has exact parts and H < d + 2**-1074,
        with d >= 2**-1074 unless H = 0, which the added min(d, 2**-1074)
        covers.  Right: fsum rounds S correctly, so within u relative; since
        S e**S / (e**S - 1) <= 1 + S, that moves expm1 by at most u (1 + S)
        e**(uS) relative, under 2**-43.5 while expm1 stays finite (S <= 710).
        With libm's expm1 within 2**-45 relative, as width_check assumes of
        its libm calls, the computed budget is within 2**-43 relative of B for
        S >= 0, and its product with 1 - 2**-40, rounded, is below B (1 -
        2**-40.2).  |p_a|: abs is within one unit in the last place of the
        exact modulus H of the stored p_a, so abs (1 - 2**-50), rounded, is
        at most H when H is normal, and the one unit 2**-1074 subtracted
        covers a subnormal H (exact there).  Their product rounds up by at
        most 2**-53 relative, which the factor 1 - 2**-40.2 absorbs, or by
        at most 2**-1075 below 2**-1022, which the unit subtracted there
        (exactly) absorbs.  S < 0 gives a negative bound, which fails every
        pair with p_a != 0; S = 0 or p_a = 0 passes only equal partials.  A
        nan or infinite side fails."""
        for a in range(len(self.partials)):
            pa = abs(self.partials[a]) * (1.0 - 2.0 ** -50) - 2.0 ** -1074
            for b in range(a + 1, len(self.partials)):
                S = math.fsum(self.pair_log_budget[a + 1:b + 1])
                budget = math.expm1(S) * (1.0 - 2.0 ** -40)
                bound = max(pa, 0.0) * budget
                if 0.0 < bound < 2.0 ** -1022:
                    bound -= 2.0 ** -1074
                d = abs(self.partials[b] - self.partials[a])
                if not d * (1.0 + 2.0 ** -50) + min(d, 2.0 ** -1074) <= bound < math.inf:
                    return False
        return True

    def limit_modulus(self) -> float:
        return abs(self.partials[-1])

    def limit_lower_bound(self, N: int) -> float:
        """A float at most exp(-S), S = sum over k >= 0 of 2 C' f(k), f(x) =
        2**(-sqrt(x+N)/4), for 1 <= N <= 2**20.

        f(x) = e**(-a sqrt(x+N)), a = ln 2 / 4, is convex for x > -N: with
        u = x + N, f'' = e**(-a sqrt u) (a**2/(4u) + a/(4 u**1.5)) > 0.  So
        f(k) <= the integral of f over [k - 1/2, k + 1/2], and the tail k >=
        K is at most the integral over [K - 1/2, inf), which u = sqrt(x+N)
        turns into 2 e**(-aU) (U/a + 1/a**2), U = sqrt(K - 1/2 + N).  The
        head k < K = 1024 is summed (fsum); head plus tail bound S above.

        Outward rounding.  Let u = 2**-53; sqrt and fsum round correctly,
        and, as in width_check, libm's pow and log are taken within 2**-45
        relative of the true values.  A head term: sqrt(k+N) is within u
        relative, which moves the exponent sqrt(k+N)/4 by at most
        sqrt(K+N) u / 4 <= 2**-44.5 (K + N <= 2**21), so f(k) by under
        2**-45 relative; pow adds 2**-45; fsum adds u.  The tail: LN2
        and a = LN2/4 are within 2**-44.9, U within u, and aU <= 178, so
        the computed aU is within 178 (2**-44.9 + 2u) < 2**-37.4 of the
        true one, which moves e**(-aU) by under 2**-37.3 relative; exp's own
        error, U/a and 1/a**2 add under 2**-42.  The sum head + tail and
        the product with 2 C' round twice more.  So the computed s is within
        2**-37 relative of 2 C' (head + tail) >= S, and s (1 + 2**-32), one
        more rounding, is at least S.  exp of its negative is then
        at most exp(-S) but for exp's own rounding, which one step down
        (math.nextafter towards 0) covers on the premise that exp errs by
        under one unit in the last place.
        """
        if not 1 <= N <= 1 << 20:
            raise DomainError(f"limit_lower_bound needs 1 <= N <= 2**20, got {N}")
        K, a = 1024, LN2 / 4.0
        head = math.fsum(2.0 ** (-math.sqrt(k + N) / 4.0) for k in range(K))
        U = math.sqrt(K - 0.5 + N)
        tail = 2.0 * math.exp(-a * U) * (U / a + 1.0 / a ** 2)
        S = 2.0 * self.Cprime * (head + tail) * (1.0 + 2.0 ** -32)
        return math.nextafter(math.exp(-S), 0.0)


def tangent_products(m: ModelMap, phi, theta0: Angle, mmax: int,
                     k: int = 1) -> TangentReport:
    """Partial products of the two tangent factor families along the fixed
    pullback orbit through theta0.

    The orbit points w_j live in the level-(k+j+1) curve zones; factor one
    is phi(w)/w = 1 + eps(w), factor two is 1/phi'(w).  Identity gives all
    factors exactly 1.
    """
    t = m.table
    if k + mmax + 2 > t.kmax_shifted() + 1:
        raise DomainError("table too small for the requested depth")
    # orbit points: pull the mid-circle anchor back through the V chain
    turns = theta0.turns
    (path,), levels = _pullback_levels(m, phi, k, mmax, turns.denominator, [turns.numerator],
                                       Fraction(t.R_exp(k + mmax + 1) - 1))
    chain = [lv[a] for lv, a in zip(levels, path)]
    Cp = getattr(phi, "Cprime", 0.0)
    partials: List[complex] = []
    pair_actual: List[float] = []
    pair_budget: List[float] = []
    prod = 1.0 / phi.eps_and_prime(chain[0])[1]
    for j in range(1, mmax):
        eps, prime = phi.eps_and_prime(chain[j])
        f1, f2 = 1.0 + eps, 1.0 / prime
        prod *= f1 * f2
        partials.append(prod)
        pair_actual.append(abs(cmath.log(f1)) + abs(cmath.log(f2)))
        pair_budget.append(2.0 * Cp * 2.0 ** (-math.sqrt(j + t.N + 2) / 4.0))
    return TangentReport(k=k, mmax=mmax, theta0=theta0, partials=partials,
                         pair_log_actual=pair_actual, pair_log_budget=pair_budget,
                         Cprime=Cp)


def angle_check(m: ModelMap, phi, k: int, n1: int, n2: int,
                samples: int = 64) -> Tuple[float, float]:
    """(max sampled leaf angle, budget) between the depth-n1 and depth-n2
    foliations, computed by the tangent-direction argument formula.

    The angle between the two leaves through a shared point is the argument
    of the partial product of the factor pairs over steps [n1, n2)."""
    if not 0 <= n1 < n2:
        raise DomainError("need 0 <= n1 < n2")
    t = m.table
    paths, levels = _pullback_levels(m, phi, k, n2 + 1, samples, range(samples),
                                     Fraction(t.R_exp(k + n2 + 2) - 1))
    # one factor per distinct (step, angle) node, shared by its samples
    factors = [{a: (1.0 + e) / d for a, z in levels[j].items()
                for e, d in (phi.eps_and_prime(z),)} for j in range(n1, n2)]
    worst = 0.0
    for p in paths:
        prod = 1.0 + 0.0j
        for f, a in zip(factors, p[n1:n2]):
            prod *= f[a]
        worst = max(worst, abs(cmath.phase(prod)))
    Cp = getattr(phi, "Cprime", 0.0)
    budget = sum(math.atan(48.0 * Cp * 2.0 ** (-math.sqrt(l + t.N + 2) / 4.0))
                 for l in range(n1, n2))
    return worst, budget


# ---------------------------------------------------------------------------
# dilatation integral over the inversion rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilatationIntegral:
    r_log2: int
    j_start: int
    I_estimate: float
    omega1: float
    tail_bound: float

    @property
    def ratio(self) -> float:
        return self.I_estimate / self.omega1


def dilatation_integral(t: ParamTable, r_log2: int) -> DilatationIntegral:
    """Per-ring estimate of the normalized dilatation mass below radius
    r = 2**r_log2 (for the inverted map), summed from the first ring
    crossing 1/r:

        sum_j pi ((r_j/(r_j-1))**2 e**(2 pi/M_j) - 1)  ~  (1/2)**j(r),

    compared against omega_1(r).

    The sum runs over the built rings and stops early at a summand below
    2**-70; the rings i >= j that it leaves are covered by the tail
    4.4 pi**2 / M_j.  Proof, with x_i = 2 pi / M_i, r_i = 2**e_i and
    b_i = (1 - 2**-e_i)**-2:

    * j >= 6: the loop leaves either at j = jmax + 1 >= N + 4 >= 9, or at a
      summand below 2**-70, which needs 2 pi**2 / M_j < 2**-70, so j >= 75.
    * e_i >= i + 4 for i >= 2, beyond the table too: the two recursions of
      ``build_params`` give e_{i+1} = (M_i + 1) e_i - M_i - M_{i-1}
      (2 e_{i-1} - 1), so e_{i+1} >= (2**i - 3) e_i - 2**i >= 2**(i-1) e_i
      by induction from e_3 = 12, e_4 = 56 (e_2 = 6).
    * For i >= 6, x_i <= pi/32 < 0.0982, so e**x_i - 1 <= x_i (1 + x_i
      e**x_i / 2) <= 1.0542 x_i; and b_i - 1 = d (2 - d)/(1 - d)**2 <= 3.56 d
      for d = 2**-e_i <= 1/4, so (b_i - 1) e**x_i <= 3.56 * 1.1032 / 16 *
      2**-i <= 0.0395 x_i.  Hence b_i e**x_i - 1 <= 1.0937 x_i and the
      summand pi (b_i e**x_i - 1) is at most 1.1 pi x_i = 2.2 pi**2 / M_i.
    * sum_{i >= j} 2.2 pi**2 / 2**i = 4.4 pi**2 / 2**j.  The factor 1.1
      leaves 0.5 % over 1.0937, far above the float rounding of
      ``4.4 * pi**2 / 2**j``; past j = 1060 the divisor stays 2**1060,
      which only widens the tail."""
    if r_log2 >= 0:
        raise DomainError("need 0 < r < 1")
    j_start = None
    for j in range(1, t.jmax + 1):
        if -r_log2 < t.r_exp(j) + math.pi / ((1 << j) * LN2):
            j_start = j
            break
    if j_start is None:
        raise DomainError("r below the built table's resolution")
    total = 0.0
    j = j_start
    while j <= t.jmax:
        ej, Mj = t.r_exp(j), 1 << j
        # (r_j/(r_j-1))^2 = (1 - 2^-e_j)^-2, indistinguishable from 1 once
        # e_j clears the float exponent range
        blow = (1.0 - 2.0 ** -float(min(ej, 1060))) ** -2 if ej < 1060 else 1.0
        summand = math.pi * (blow * math.exp(TWO_PI / Mj) - 1.0)
        total += summand
        if summand < 2.0 ** -70:
            break
        j += 1
    # geometric tail over the remaining rings (proof above): summand_i <= 2.2 pi^2 / M_i
    tail = 4.4 * math.pi ** 2 / (1 << min(j, 1060))
    om1 = omega_from_rho(1.0, -r_log2)
    return DilatationIntegral(r_log2=r_log2, j_start=j_start,
                              I_estimate=total + tail, omega1=om1, tail_bound=tail)
