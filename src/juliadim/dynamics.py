"""Orbit iteration, inverse branches, and the mapping-inclusion certificates.

Orbits are iterated in exact log-polar arithmetic.  Every step through a
piece of degree d multiplies the angle by d, which amplifies the input's
angular quantization by log2(d) bits; the iterator budgets this against
the configured angle resolution and truncates rather than guessing.

Inverse branches come in three kinds:

* ``VkRoot(k, branch)``     -- exact root extraction of target / C_k,
* ``PetalInverse(k, j)``    -- the zero-ring blend is quadratic in z**n_k,
                               so the petal preimage is closed-form (a
                               binomial series), then Newton-polished,
* ``OriginBranch(i)``       -- i = 0: Newton on the origin polynomial q,
                               seeded at t/r_N; i >= 1: g(u) = tau solved
                               in the coordinate z = w_i (1 + u) of the
                               zero w_i, g(u) = (1 + u)**M - 1 - u, by
                               Newton with Horner sums from the inverse
                               series to third order (one step at N >= 5
                               and 128 bits); the point is the
                               AnchoredPoint (i, u), whose residual g(u) -
                               tau the solve certifies, at every N.

Both the petal series and the origin solve run on libmp pairs at the
model's prec + 32 bits, rounded to nearest; the petal step hands its
offset to ``lp_perturb`` as such a pair, the origin step keeps it.  No mpc
object lies between a target and the point that is checked against it.

The inclusion certificates take circle extrema of log2 |f| -- exact on
radial circles and on the petal boundary, sampled elsewhere -- and compare
them against the target annuli in exact exponent arithmetic, with the seam
deviation carried as an explicit bit margin.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from mpmath.libmp import (fone, from_int, fzero, mpc_add, mpc_add_mpf, mpc_div, mpc_mul,
                          mpc_mul_mpf, mpc_shift, mpc_sub, mpf_div, mpf_mul, mpf_sub)

from .numerics import (
    HALF,
    RND,
    DomainError,
    ExponentBudgetError,
    LogPolar,
    NumericsError,
    const_log2_frac,
    lp_sub,
    lp_perturb,
    mpc_below as _below,
    mpf_to_frac,
    pi_over_ln2_frac,
)
from .geometry import LOG2_2_5, LOG2_3_5, Region, classify, petal_radius_rel_log2
from .modelmap import (SEAM_MARGIN_BITS, AnchoredPoint, ModelMap, PieceId, Point, origin_binomials,
                       origin_g, origin_residual_below, qN_landmarks)
from .params import CertificateReport, omega_from_rho

ONE = LogPolar(Fraction(0), 0)
NEWTON_MAX_ITER = 64


class BranchError(DomainError):
    pass


class ItineraryError(DomainError):
    pass


# ---------------------------------------------------------------------------
# inverse branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VkRoot:
    k: int
    branch: int = 0


@dataclass(frozen=True)
class PetalInverse:
    k: int
    j: int


@dataclass(frozen=True)
class OriginBranch:
    index: int


InverseBranchSpec = Union[VkRoot, PetalInverse, OriginBranch]


def _residual(got: LogPolar, target: LogPolar) -> Tuple[float, float]:
    if got.is_zero or target.is_zero:
        return math.inf, math.inf
    return abs(float(got.rho - target.rho)), float(got.theta.dist(target.theta))


def _newton_polish(m: ModelMap, z: LogPolar, target: LogPolar,
                   tol: float) -> Tuple[LogPolar, LogPolar]:
    """z polished towards f(z) = target, and f(z) from the last residual
    check, at m's precision."""
    for _ in range(NEWTON_MAX_ITER):
        fz, _ = m.eval(z)
        dr, dth = _residual(fz, target)
        if dr < tol and dth < tol:
            return z, fz
        diff = lp_sub(fz, target, guard=m.guard, prec=m.prec).value
        if diff.is_zero:
            return z, fz
        dz, _ = m.deriv(z)
        step = diff.div(dz).div(z)  # relative correction
        if step.rho > -2:  # reject wild steps
            raise BranchError("newton step out of basin")
        wide = max(m.guard, 96 - step.rho_int())
        upd = lp_sub(ONE, step, guard=wide, prec=m.prec).value
        z = z.mul(upd)
    dr, dth = _residual(m.eval(z)[0], target)
    raise BranchError(f"newton stagnated: residual log2-mag {dr:.3g}, turns {dth:.3g}")


def inverse_step(m: ModelMap, target: Point, branch: InverseBranchSpec,
                 tol: float = 2.0 ** -64) -> Point:
    """One inverse branch applied to `target`; the result re-evaluates to the
    target within tol both in log2 magnitude and in turns.  OriginBranch(i),
    i >= 1, returns an AnchoredPoint; an AnchoredPoint target is read as
    its absolute LogPolar first, which from N = 8 on raises
    ExponentBudgetError naming the step."""
    return _inverse_image(m, target, branch, tol)[0]


def _inverse_image(m: ModelMap, target: Point, branch: InverseBranchSpec,
                   tol: float) -> Tuple[Point, Optional[LogPolar]]:
    """inverse_step's point z and, when its Newton polish evaluated it, f(z)
    at m's precision; None for V and origin steps, which evaluate nothing."""
    if type(target) is AnchoredPoint:
        try:
            target = target.absolute(m.prec)
        except ExponentBudgetError as e:
            raise ExponentBudgetError(f"{branch}: anchored target: {e}") from None
    t = m.table
    if isinstance(branch, VkRoot):
        k = branch.k
        nk = t.n(k)
        if not (0 <= branch.branch < nk):
            raise BranchError(f"root branch {branch.branch} out of range")
        lo, hi = t.R_exp(k + 1) - 2, t.R_exp(k + 1) + 2
        if not (lo <= target.rho <= hi):
            raise BranchError(f"V-branch target must lie in the level-{k + 1} annulus")
        return LogPolar(target.rho - t.C_exp(k), target.theta).root(nk, branch.branch), None

    if isinstance(branch, PetalInverse):
        k, j = branch.k, branch.j
        nk = t.n(k)
        if not 1 <= j <= nk:
            raise BranchError(f"petal index {j} out of range")
        if target.is_zero:
            return m.ring_zero(k + t.N - 1, j), None
        if target.rho > t.R_exp(k + 1) + 2:
            raise BranchError("petal inverse defined for |target| <= 4 R_{k+1}")
        ring = k + t.N - 1
        zc = m.zcap(ring)
        # v = z**n_k solves v(v - Z) = tau, tau = target R_k**n_k / C_k;
        # the zero-side root is v = Z (1 + h/2), h = sqrt(1 + 4 tau/Z^2) - 1,
        # and Z**2 > 0 as Z is real and negative
        q = LogPolar(target.rho + (nk * t.R_exp(k) - t.C_exp(k) + 2) - 2 * zc.rho, target.theta)
        z = lp_perturb(zc, _half_sqrt1p_minus1(q, m.prec), m.prec).root(nk, j - 1)
        return _newton_polish(m, z, target, tol)

    if isinstance(branch, OriginBranch):
        N = t.N
        deg = 1 << N
        if not 0 <= branch.index < deg:
            raise BranchError(f"origin branch {branch.index} out of range")
        if target.rho > t.R_exp(1) + 2:
            raise BranchError("origin inverse defined for |target| <= 4 R_1")
        if branch.index == 0:
            if target.is_zero:
                return LogPolar.zero_point(), None
            z0 = LogPolar(target.rho - t.r_exp(N), target.theta)
            return _newton_polish(m, z0, target, tol)
        return _origin_zero_step(m, target, branch.index, tol)

    raise BranchError(f"unknown branch kind {branch!r}")


_HALF_MPF = (0, 1, -1, 1)      # 1/2 as a libmp tuple
# wp -> [C(1/2, n)] for n = 1, 2, ..., each by C(1/2, n + 1) = C(1/2, n) (1/2 - n)
# / (n + 1) rounded to nearest at wp; grown as the petal series reaches them
_BINOM_HALF: dict = {}


def _half_sqrt1p_minus1(q: LogPolar, prec: int) -> Tuple[tuple, tuple]:
    """h / 2 as a libmp pair, h = sqrt(1 + q) - 1 by the binomial series.

    q is read by ``to_mpc_scaled(0, prec)``; every step is rounded to
    nearest at wp = prec + 32 bits (the coefficients C(1/2, n) once per wp,
    in ``_BINOM_HALF``), and the sum stops at its first term
    whose modulus is at most 2**-(prec + 16) of the partial sum's (199
    terms at most).  A target far below the petal's full image makes q,
    hence the offset from the ring zero, exponentially small, which libmp
    exponents and the exact-rational perturbation both carry without
    underflow.
    """
    wp = prec + 32
    q = q.to_mpc_scaled(0, prec)
    coefs = _BINOM_HALF.setdefault(wp, [_HALF_MPF])
    powq, h = q, mpc_mul_mpf(q, _HALF_MPF, wp, RND)
    for n in range(1, 200):
        if n == len(coefs):
            coefs.append(mpf_div(mpf_mul(coefs[-1], mpf_sub(_HALF_MPF, from_int(n), wp, RND),
                                         wp, RND), from_int(n + 1), wp, RND))
        powq = mpc_mul(powq, q, wp, RND)
        term = mpc_mul_mpf(powq, coefs[n], wp, RND)
        h = mpc_add(h, term, wp, RND)
        if _below(term, h, prec + 16, wp):
            break
    return mpc_shift(h, -1)


def _origin_zero_step(m: ModelMap, target: LogPolar, i: int,
                      tol: float) -> Tuple[Point, Optional[LogPolar]]:
    """OriginBranch(i), i >= 1, solved in the coordinate of the zero w = w_i:
    the AnchoredPoint (i, u), or w itself for target 0, and no image.

    c_N w**(M-1) = -r_N exactly (M = 2**N), so at z = w (1 + u)

        q(z) = -r_N w g(u),  g(u) = (1 + u)**M - 1 - u,

    and the step solves g(u) = tau = -target / (r_N w), exact in log-polar,
    by Newton on libmp pairs at wp = prec + 32 bits, rounded to nearest.  It
    stops at its first step below 2**-(prec + 16) relative to u, or before
    building g' when g(u) - tau rounds to 0 at wp bits: that step would be
    0 / g' = 0 and leave u bit for bit as it is (about 2 in 5 seeded N = 5
    steps at 128 bits).

    The seed is the inverse series of g to third order.  With t = tau / (M -
    1), y = M|t| and P(u) = g(u) / (M - 1) = u + sum_{k>=2} a_k u**k, a_2 =
    M/2, a_3 = M (M - 2)/6, the seed u0 = t - a_2 t**2 + (2 a_2**2 - a_3) t**3
    = t - (M/2) t**2 + (M (M + 1)/3) t**3 makes P(u0) - t a power series in
    t from t**4 on, led by M (M + 2)(2M + 1)/8 t**4.  Its coefficients are
    at most those of Ph(Uh(|t|)): a_k <= C(M, k) / (M - 1) <= M**(k-1), so
    Ph(u) = u + M u**2 / (1 - M u), and Uh(s) = s phi(y), phi = 1 + y/2 + (M
    + 1) y**2 / (3M).  That tail is |t| times the y**(>=3) part of y phi**2 /
    (1 - y phi), whose y**3 coefficient is 11/4 + 2 (M + 1) / (3M): under 4
    y**3 for y <= 2**-50.  So |g(u0) - tau| <= 4 y**3 |tau|; with |g'(u0)| >=
    (M - 1)(1 - 3y) and |u1| >= |t| (1 - 2y), the first step is |du| <= 4
    y**3 (1 + 6y) |u1|, and rounding at wp bits adds under 2**-(prec + 29)
    |u1|.  At N = 5, y <= 2**-55.2 (below): |du| < 2**-163.7 |u1| (the
    leading term alone gives 2**-167.6), so the solve ends at its first step
    for prec <= 147, and from N = 6 on (y <= 2**-761.4) for prec <= 2260.
    That step leaves an error of order y (4 y**3)**2 |t|, below the rounding.

    g and g' = M (1 + u)**(M-1) - 1 are the binomial sums (M - 1) u +
    sum_{2<=k<=K} C(M, k) u**k (:func:`origin_g`) and M - 1 + sum k C(M, k)
    u**(k-1), by Horner, with the K that :func:`origin_binomials` takes
    from the seed.

    The domain check |target| <= 4 R_1 = 4 r_N admits only M|u| <= 2**-53:
    |w| = 2**zero_rho with zero_rho = (e_N - eps_N) / (M - 1) (qN_landmarks),
    and e_N - eps_N = M_{N-1} (2 e_{N-1} - 1) by the recurrence of
    ``params``, so zero_rho > e_{N-1} - 1/2 >= e_4 - 1/2 = 55.5 at N >= 5
    and |tau| = |target| / (r_N |w|) <= 2**(2 - zero_rho) < 2**-53.5.  Any
    tau with |tau| < 2**-17 has a root with M|u| <= 2**-16: on that disk
    |g(u) / ((M - 1) u) - 1| <= M|u| <= 2**-16, so u = tau / ((M - 1) (1 +
    O(2**-16))) and M|u| <= (32/31) |tau| (1 + 2**-15) < 2 |tau|.  So M|u|
    is 2**-55.2 at most at N = 5 and 2**-761.4 at N = 6, from zero_rho =
    57.3 and 763.4.  A tau of modulus 2**-17 or more, which the domain
    check does not admit, raises BranchError rather than summing a long
    series.

    The point is the AnchoredPoint (i, u) and no image: nothing is built or
    evaluated after the solve, at any N.  Its exact image -r_N w g(u) is
    target g(u) / tau, within -log2(1 - eps) of the target in log2 modulus
    and asin(eps) / (2 pi) < eps / 4 in turns, eps = |g(u) / tau - 1|.  u is
    kept when res = g~ - tau~ passes |res| <= 2**-b |tau~|
    (:func:`origin_residual_below`), 2**-b <= min(tol, 1) / 8 and b <= prec
    + 15; else BranchError.  tau~ is within 2**-(prec + 16) |tau| (read at
    prec + 32 bits); g~, origin_g at wp bits (the loop's if its res rounded
    to 0, else one more sum), within 2**-(prec + 24) |g(u)| (its roundings,
    and a tail under 2**-(wp - 1) of the linear term while u is within |u| /
    2 of the seed that chose K); rounding res and mpc_below's moduli adds
    2**-(wp - 4).  So eps <= 2**-b (1 + 2**-78) + 2**-(prec + 15) < 0.251
    min(tol, 1), and -log2(1 - eps) < 1.67 eps < tol / 2.
    """
    t = m.table
    M = 1 << t.N
    w = qN_landmarks(m).zero(i)
    if target.is_zero:
        return w, None
    tau = LogPolar(target.rho - t.r_exp(t.N) - w.rho, target.theta.turns - w.theta.turns + HALF)
    e_tau = tau.rho_int()
    if e_tau >= -17:
        raise BranchError(f"origin step needs |tau| < 2**-17 (M|u| <= 2**-16), "
                          f"got |tau| ~ 2**{e_tau}")
    wp = m.prec + 32
    # tau as a pair whose exponent may lie past any float's range
    tau_c = mpc_shift(tau.to_mpc_scaled(e_tau, m.prec + 16), e_tau)
    m1 = from_int(M - 1)
    tt = (mpf_div(tau_c[0], m1, wp, RND), mpf_div(tau_c[1], m1, wp, RND))
    # the reverted series to third order: u = t (1 + t (-M/2 + t M (M + 1)/3))
    c3 = mpf_div(from_int(M * (M + 1)), from_int(3), wp, RND)
    u = mpc_add_mpf(mpc_mul_mpf(tt, c3, wp, RND), from_int(-M // 2), wp, RND)
    u = mpc_mul(tt, mpc_add_mpf(mpc_mul(u, tt, wp, RND), fone, wp, RND), wp, RND)
    coef = origin_binomials(t.N, u, wp)
    K = len(coef) - 1
    for _ in range(NEWTON_MAX_ITER):
        res = mpc_sub(origin_g(u, coef, wp), tau_c, wp, RND)
        if not res[0][1] and not res[1][1]:
            break       # du would be 0 and leave u as it is
        # d = sum k C(M,k) u**(k-2) over 2 <= k <= K
        d = from_int(K * coef[K]), fzero
        for k in range(K - 1, 1, -1):
            d = mpc_add_mpf(mpc_mul(d, u, wp, RND), from_int(k * coef[k]), wp, RND)
        du = mpc_div(res, mpc_add_mpf(mpc_mul(u, d, wp, RND), m1, wp, RND), wp, RND)
        u = mpc_sub(u, du, wp, RND)
        if _below(du, u, m.prec + 16, wp):
            res = None      # g(u) - tau is still to be taken at this u
            break
    else:
        raise BranchError(f"origin newton stagnated after {NEWTON_MAX_ITER} steps")
    b = 4 - math.frexp(min(tol, 1.0))[1]
    if not (tol > 0 and origin_residual_below(u, coef, tau_c, b, m.prec, wp, res)):
        raise BranchError(f"origin residual not certified below tol {tol:.3g} at {m.prec} bits")
    return AnchoredPoint(i, w, u), None


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    kind: str                      # FatouEscape | ECandidate | YLike | Z1Like | Z2Like | Truncated
    value: Optional[int] = None    # escape level / backwards count / entry step
    reason: str = ""

    def __str__(self):
        if self.kind == "Truncated":
            return f"Truncated({self.reason})"
        return self.kind if self.value is None else f"{self.kind}({self.value})"


@dataclass
class OrbitRecord:
    points: List[Point]
    regions: List[Region]
    orbit_seq: List[Optional[int]]
    backwards_events: List[int]
    classification: Classification

    def region_strs(self) -> List[str]:
        return [str(r) for r in self.regions]


def _backfill_negative_indices(regions: List[Region]) -> List[Region]:
    """Rewrite runs of D tags that exit into level 1 as negative-index tags."""
    out = list(regions)
    i = 0
    while i < len(out):
        if out[i].kind != "D":
            i += 1
            continue
        j = i
        while j < len(out) and out[j].kind == "D":
            j += 1
        if j < len(out) and out[j].kind in ("A", "V", "P", "B") and (out[j].k or 0) == 1:
            exit_kind = "B" if out[j].kind == "B" else "A"
            for s in range(i, j):
                out[s] = Region(exit_kind, 1 - (j - s))
        i = j
    return out


def _at_precision(m: ModelMap, bits: int) -> ModelMap:
    """m with its working precision and lp_add guard raised to `bits`."""
    if bits <= m.prec and bits <= m.guard:
        return m
    return dataclasses.replace(m, prec=max(m.prec, bits), guard=max(m.guard, bits))


def iterate_orbit(m: ModelMap, z: Point, nmax: int, phi_budget: bool = False,
                  schedule: Sequence[int] = (),
                  image: Optional[LogPolar] = None) -> OrbitRecord:
    """Forward orbit with region bookkeeping.

    Stops early on entering an escape gap (FatouEscape) or when the angular
    amplification budget m.ang_bits runs out (Truncated).  Points are
    classified with no margin; with phi_budget=True the margin at each point
    is the distortion budget log2(1 + C' omega(1/|z|)), plus the seam
    deviation SEAM_MARGIN_BITS where the step into the point was evaluated
    on a seam piece: the start point and the image of any other piece take
    the distortion term alone.

    schedule[n], where given, raises the working precision and guard of
    step n (classifying the n-th point and evaluating it) to that many
    bits; later steps run at m's own.  `image`, where given, is f(z) as
    step 0 would evaluate it (at schedule[0] bits, if any), and stands in
    for that evaluation.

    An AnchoredPoint start is classified from its enclosure (geometry.classify),
    and step 0 evaluates it in closed form; its distortion margin is taken at
    w.rho - 1, below every log2 |z| of the enclosure, where omega is larger.
    """
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    t = m.table
    points = [z]
    regions: List[Region] = []
    bits_used = 0
    truncated: Optional[str] = None
    escaped = False
    piece = None     # the piece the step into zn was evaluated on
    for n in range(nmax + 1):
        zn = points[-1]
        mn = _at_precision(m, schedule[n]) if n < len(schedule) else m
        mb = 0.0
        rho = zn.zero.rho - 1 if type(zn) is AnchoredPoint else zn.rho
        if phi_budget and not zn.is_zero and rho > 4:
            w = t.Cprime * omega_from_rho(t.p, rho.numerator // rho.denominator)
            mb += math.log2(1.0 + w) + (SEAM_MARGIN_BITS if piece and piece.kind == "seam" else 0)
        try:
            reg = classify(t, zn, margin=mb, model=mn)
        except DomainError:
            truncated = f"table exhausted at step {n}"
            break
        regions.append(reg)
        if reg.kind == "boundary":
            truncated = f"boundary at step {n}"
            break
        if reg.kind == "B":
            escaped = True
            break
        if n == nmax:
            break
        piece = m.piece_of(zn) if not zn.is_zero else None
        cost = t.N if piece is None or piece.kind in ("origin", "bump") else piece.index + 1
        if bits_used + cost > m.ang_bits - 64:
            truncated = f"angular budget: needs {bits_used + cost + 64} bits"
            break
        bits_used += cost
        points.append(image if n == 0 and image is not None else mn.eval(zn)[0])
    regions = _backfill_negative_indices(regions)
    orbit_seq: List[Optional[int]] = [
        r.k if r.kind in ("A", "V", "P") else None for r in regions
    ]
    backwards = [
        n for n in range(1, len(orbit_seq))
        if orbit_seq[n] is not None and orbit_seq[n - 1] is not None
        and orbit_seq[n] < orbit_seq[n - 1] + 1
    ]
    cls = _classify_window(regions, backwards, truncated, escaped)
    return OrbitRecord(points, regions, orbit_seq, backwards, cls)


def _classify_window(regions, backwards, truncated, escaped) -> Classification:
    if truncated:
        return Classification("Truncated", reason=truncated)
    if escaped:
        k = regions[-1].k
        return Classification("FatouEscape", k)
    if all(r.kind == "D" for r in regions):
        return Classification("ECandidate")
    # full window spent inside the A levels; the window labels are
    # extrapolations: a trailing V run covering at least half the window
    # reads as curve-bound, recurring petal visits as singleton-bound,
    # backwards moves as the moving-backwards set
    start = (backwards[-1] if backwards else 0)
    tail = regions[start:]
    v_from = None
    for i in range(len(regions) - 1, start - 1, -1):
        if regions[i].kind != "V":
            break
        v_from = i
    if v_from is not None and (len(regions) - v_from) * 2 >= len(regions) - start:
        return Classification("Z1Like", v_from)
    if any(r.kind == "P" for r in tail):
        return Classification("Z2Like")
    if backwards:
        return Classification("YLike", len(backwards))
    if v_from is not None:
        return Classification("Z1Like", v_from)
    return Classification("Truncated", reason="window inconclusive")


# ---------------------------------------------------------------------------
# mapping-inclusion certificates
# ---------------------------------------------------------------------------

def _circle_extrema(m: ModelMap, rho: Fraction, samples: int) -> Tuple[Fraction, Fraction]:
    # on a radial circle log2 |f| does not depend on the angle, so one
    # evaluation is the exact extremum (ModelMap.radial_log2)
    c = m.radial_log2(rho)
    if c is not None:
        return c, c
    lo = hi = None
    for i in range(samples):
        w, _ = m.eval(LogPolar(rho, Fraction(i, samples)))
        if w.is_zero:
            raise DomainError("circle passes through a zero")
        if lo is None or w.rho < lo:
            lo = w.rho
        if hi is None or w.rho > hi:
            hi = w.rho
    return lo, hi


def _petal_boundary_extrema(m: ModelMap, k: int) -> Tuple[Fraction, Fraction]:
    """Exact extrema of log2 |f| over the whole level-k petal boundary.

    The blend depends on z only through z**n_k, so every petal is an exact
    rotation of the first.  On its boundary z = zeta (1 + u), u = eps e**(i phi),
    eps = 2**rad_rel, log2 |f| is an exact constant plus v(phi) / ln 2 with
    (ModelMap.seam_zero_offset_ln, M = n_k)

        v(phi) = M ln |1 + u| + ln |(1 + u)**M - 1|.

    Maximum: |1 + u| <= 1 + eps, and by the triangle inequality on the
    binomial sum |(1 + u)**M - 1| <= (1 + eps)**M - 1; both hold with
    equality at phi = 0.

    Minimum: v = ln eps + Re F(u), F(u) = M log(1 + u) + log(((1 + u)**M - 1) / u)
    a power series sum b_k u**k with real coefficients, b_1 = (3M - 1) / 2.
    On |u| = 1/(4M), |F - F(0)| < 1/2, so Cauchy's bound gives |b_k| <= (4M)**k.
    So v = const + sum b_k eps**k cos(k phi) and, U the Chebyshev polynomials
    of the second kind,

        dv/dphi = -sin(phi) sum k b_k eps**k U_{k-1}(cos phi),  |U_{k-1}| <= k,

    whose sum is at least eps (b_1 - 4M ((1+x)/(1-x)**3 - 1)), x = 4 M eps.
    For M eps <= 2**-8 that is above eps (1.25 M - 0.27 M) > 0, so v strictly
    decreases on (0, pi), and by v(-phi) = v(phi) the minimum is at phi = pi.
    The condition is checked exactly as log2 M + rad_rel <= -8 (every table
    with N >= 5 has M eps <= 2**-27) and a failure raises DomainError.
    """
    t = m.table
    nk = t.n(k)
    j = k + t.N - 1
    rad_rel = petal_radius_rel_log2(nk)
    if j + rad_rel > -8:
        raise DomainError(f"petal boundary at level {k} too wide for its monotone extrema")
    # |u| <= 2**-n_k, so |log2 |1 + u|| < 3 |u| bounds the boundary's rho range
    reach = Fraction(3, 1 << nk)
    zeta_rho = m.ring_zero_rho(j)
    seam = PieceId("seam", j)
    if m.piece_of(zeta_rho - reach) != seam or m.piece_of(zeta_rho + reach) != seam:
        raise DomainError(f"petal boundary at level {k} leaves piece {seam}")
    with mpmath.workprec(m.prec + 32):
        eps = mpmath.power(2, mpmath.mpf(rad_rel.numerator) / rad_rel.denominator)
        hi = m.seam_zero_offset_ln(j, mpmath.mpc(eps))
        lo = m.seam_zero_offset_ln(j, mpmath.mpc(-eps))
        const = m.seam_zero_log2_base(j)
        ln2 = mpmath.ln(2)
        return const + mpf_to_frac(lo / ln2), const + mpf_to_frac(hi / ln2)


def verify_inclusions(m: ModelMap, k: int, samples: int = 4096) -> CertificateReport:
    """Circle extrema of log2 |f| against the target annuli.

    A radial circle (ModelMap.radial_log2: a power piece, or the origin
    piece where one term of the polynomial is negligible) has one exact
    value of log2 |f|; the petal boundary takes its exact extrema over the
    whole circle at u = +-|u|, where _petal_boundary_extrema shows they
    lie.  Only the other circles (bump, seam, origin with both terms alive)
    take the extrema of `samples` evenly spaced points; at N = 5, k = 1..6
    there are none, so every row is the exact extremum.
    Upper-bound rows pass when max + margin < target, lower-bound rows when
    min - margin > target; the margin is the seam deviation budget
    SEAM_MARGIN_BITS.
    """
    if samples < 1 << 12:
        raise DomainError("inclusion sampling needs >= 4096 points per circle")
    t = m.table
    mb = Fraction(SEAM_MARGIN_BITS)
    rep = CertificateReport(f"mapping inclusions k={k}")

    def upper(name, got, target_rho):
        rep.add(name, k, got + mb < target_rho, f"{float(got):.6f}", f"{float(target_rho):.6f}")

    def lower(name, got, target_rho):
        rep.add(name, k, got - mb > target_rho, f"{float(got):.6f}", f"{float(target_rho):.6f}")

    e1, e2, e3 = t.R_exp(k), t.R_exp(k + 1), t.R_exp(k + 2)

    lo, hi = _circle_extrema(m, e1 + LOG2_2_5, samples)
    upper("inner_circle_max_below_quarter_next", hi, Fraction(e2 - 2))
    lower("inner_circle_min_above_8Rk", lo, Fraction(e1 + 3))

    lo, hi = _circle_extrema(m, e1 + LOG2_3_5, samples)
    lower("outer_circle_min_above_4Rk1", lo, Fraction(e2 + 2))
    upper("outer_circle_max_below_eighth_Rk2", hi, Fraction(e3 - 3))

    for name, rho in (
        ("gap_inner_circle", Fraction(e1 + 2)),
        ("gap_outer_circle", Fraction(e2 - 2)),
        ("ring54_circle", e1 + const_log2_frac(5, 4)),
    ):
        lo, hi = _circle_extrema(m, rho, samples)
        lower(f"{name}_min_above_8Rk1", lo, Fraction(e2 + 3))
        upper(f"{name}_max_below_eighth_Rk2", hi, Fraction(e3 - 3))

    lo, hi = _petal_boundary_extrema(m, k)
    lower("petal_boundary_min_above_4Rk1", lo, Fraction(e2 + 2))
    upper("petal_boundary_max_below_quarter_Rk2", hi, Fraction(e3 - 2))
    return rep


def check_singular_values(m: ModelMap) -> CertificateReport:
    """Every critical value of every piece lands in the asserted escape gap."""
    t = m.table
    rep = CertificateReport("singular values")
    lm = qN_landmarks(m)
    lo = Fraction(t.r_exp(t.N) + 3)
    hi = Fraction(t.r_exp(t.N + 1)) - 4 - Fraction(1, 2)
    cv_rho = lm.first_crit_value.rho   # every critical value has this modulus
    rep.add("poly_crit_values_above_8rN", t.N, cv_rho > lo,
            f"{float(cv_rho):.6f}", f"{float(lo):.6f}")
    rep.add("poly_crit_values_below_rN1_16sqrt2", t.N, cv_rho < hi,
            f"{float(cv_rho):.6f}", f"{float(hi):.6f}")

    half_pi_log2e = pi_over_ln2_frac(2)
    for k in range(1, min(t.kmax_shifted(), t.kmax) + 1):
        nk = t.n(k)
        # exact exponent identity C_k R_k^{n_k} = 2^{n_k} R_{k+1}
        lhs = t.C_exp(k) + nk * t.R_exp(k)
        rhs = nk + t.R_exp(k + 1)
        rep.add("power_identity", k, lhs == rhs, lhs, rhs)
        cv = Fraction(rhs) + half_pi_log2e - 2   # modulus (e^(pi/2)/4) 2^{n_k} R_{k+1}
        rep.add("ring_crit_value_above_8Rk1", k, cv > t.R_exp(k + 1) + 3,
                f"{float(cv - t.R_exp(k + 1)):.4f}+e(R_{k + 1})", t.R_exp(k + 1) + 3)
        rep.add("ring_crit_value_below_eighth_Rk2", k, cv < t.R_exp(k + 2) - 3,
                str(cv.numerator // cv.denominator), t.R_exp(k + 2) - 3)
        # stand-in critical circle sits a 1/n_k-order factor above the ring
        shift = pi_over_ln2_frac(4 * nk) - Fraction(1, nk)
        rep.add("ring_crit_point_radius_shift", k, abs(shift) < Fraction(1, nk),
                f"2^({float(shift):.3g}) relative", "within 2^(1/n_k)",
                note="ring radius vs blend critical circle; both reported")
    return rep


# ---------------------------------------------------------------------------
# backward construction of prescribed itineraries
# ---------------------------------------------------------------------------

def _normalize_itinerary(entries: Sequence[str]) -> List[Tuple[Region, Optional[int]]]:
    """Tags such as 'V(2)' or 'P(3,17)', each with an optional root-branch
    choice 'V(2):5', as (Region, branch or None) pairs."""
    out = []
    for s in entries:
        tag, _, br = s.partition(":")
        try:
            branch = int(br) if br else None
        except ValueError:
            raise ItineraryError(f"root branch of {s!r} is not an integer") from None
        out.append((Region.parse(tag), branch))
    return out


def region_level(r: Region) -> Optional[int]:
    return r.k if r.kind in ("A", "V", "P", "B") else None


def itinerary_precision(m: ModelMap, entries) -> List[int]:
    """Working bits needed to re-verify an itinerary by forward iteration,
    one figure per suffix: need[s] is what re-verifying entries[s:] from the
    s-th point needs.

    A step through a degree-n piece amplifies any earlier evaluation error
    by n; a petal step at level k targeting level j amplifies it by about
    2**(n_k + (log2 R_{k+1} - log2 R_j)) because the blend is evaluated that
    deep inside its zero.  Classifying the step-i tag then needs the
    error accumulated since step s below the tag's own resolution.  An
    evaluation error made at step s is covered by need[s] whatever the
    precision of the steps after it, so step s of the re-verification runs
    at need[s] bits.  need[0] is the figure for the whole itinerary: the
    construction runs at it and the budget is checked against it.  The
    list never increases.
    """
    t = m.table
    amp: List[int] = []
    tol: List[int] = []
    for i, (reg, _) in enumerate(entries):
        k = reg.k
        if reg.kind == "V":
            amp.append(t.N + k - 1)
            tol.append(16)
            continue
        if i + 1 < len(entries):
            jlvl = region_level(entries[i + 1][0])
        else:
            jlvl = k + 1
        gap = 0
        if jlvl is not None and jlvl <= k + 1:
            gap = max(0, t.R_exp(k + 1) - t.R_exp(jlvl))
        amp.append(t.n(k) + gap + 8)
        tol.append(t.n(k) + 8)
    # reach: the largest amplification from step s to a later tag plus that
    # tag's resolution and 128 bits
    need: List[int] = []
    reach = -math.inf
    for a, tl in zip(reversed(amp), reversed(tol)):
        reach = max(tl + 128, a + reach)
        need.append(max(192, reach))
    return need[::-1]


def itinerary_orbit(m: ModelMap, z: LogPolar, itinerary: Sequence[str],
                    image: Optional[LogPolar] = None) -> OrbitRecord:
    """The forward orbit of z over one step per itinerary entry, checked
    against the entries' tags; the first step whose region differs raises
    ItineraryError naming it.

    This is how backward_construct re-verifies its point: step s runs at
    need[s] bits of :func:`itinerary_precision` (or m's own, if higher), and
    the angle budget, which the whole orbit spends, is raised to
    need[0] + 64.  `image`, where given, is f(z) at need[0] bits; step 0
    takes it instead of evaluating z again (:func:`backward_orbit` passes
    the construction's own)."""
    entries = _normalize_itinerary(itinerary)
    need = itinerary_precision(m, entries)
    if need[0] + 64 > m.ang_bits:
        m = dataclasses.replace(m, ang_bits=need[0] + 64)
    rec = iterate_orbit(m, z, nmax=len(entries), schedule=need, image=image)
    for i, ((want, _), have) in enumerate(zip(entries, rec.regions)):
        ok = want.kind == have.kind and want.k == have.k and (
            want.kind != "P" or want.j is None or want.j == have.j)
        if not ok:
            raise ItineraryError(f"verification failed at step {i}: "
                                 f"wanted {want}, got {have}")
    return rec


def backward_construct(m: ModelMap, itinerary: Sequence[str],
                       anchor: LogPolar, tol: float = 2.0 ** -64,
                       verify: bool = True,
                       budget_bits: Optional[int] = None) -> LogPolar:
    """A point whose forward orbit realizes the given region tags.

    itinerary[i] prescribes the region of f^i(z); `anchor` is the point the
    orbit reaches after the last step.  Entries are tags such as 'V(2)' or
    'P(3,17)', with an optional root-branch choice 'V(2):5'.

    The inverse steps run at need[0] working bits of
    :func:`itinerary_precision`, the figure for the whole itinerary, which
    must fit the budget.  With verify=True the point's forward orbit is then
    checked by :func:`itinerary_orbit`, where step s runs at need[s] bits:
    only the first steps of a backwards itinerary need the full figure.
    When the first entry is a petal, step 0 reuses the f(z_0) of its Newton
    polish (:func:`backward_orbit`), so the verification evaluates nothing
    at need[0] bits.
    """
    if verify:
        return backward_orbit(m, itinerary, anchor, tol, budget_bits)[0]
    return _construct(m, _normalize_itinerary(itinerary), anchor, tol, budget_bits)[0]


def backward_orbit(m: ModelMap, itinerary: Sequence[str], anchor: LogPolar,
                   tol: float = 2.0 ** -64,
                   budget_bits: Optional[int] = None) -> Tuple[LogPolar, OrbitRecord]:
    """The point of :func:`backward_construct` and the forward orbit that
    verified it.  ModelMap.eval does not read the angle budget, so the
    Newton polish's last f(z_0), at need[0] bits, is bit-equal to what step
    0 of the verification would evaluate; that step takes it instead."""
    z, image = _construct(m, _normalize_itinerary(itinerary), anchor, tol, budget_bits)
    return z, itinerary_orbit(m, z, itinerary, image)


def _construct(m: ModelMap, entries, anchor: LogPolar, tol: float,
               budget_bits: Optional[int]) -> Tuple[LogPolar, Optional[LogPolar]]:
    """The point z_0 of backward_construct and, when the first entry is a
    petal, f(z_0) from its Newton polish at need[0] bits (else None)."""
    if not entries:
        raise ItineraryError("empty itinerary")
    for i, (reg, _) in enumerate(entries):
        if reg.kind not in ("V", "P") or reg.k < 1:
            raise ItineraryError(f"entry {i}: only V/P tags at level >= 1 are realizable, "
                                 f"got {reg}")
        # 1 <= j <= n_k = 2**bits, without building n_k for a huge level
        bits = m.table.N + reg.k - 1
        if reg.kind == "P" and not (reg.j >= 1 and (reg.j - 1).bit_length() <= bits):
            raise ItineraryError(f"entry {i}: petal index of {reg} outside "
                                 f"1..n_{reg.k} = 2**{bits}")
    budget = budget_bits if budget_bits is not None else m.ang_bits
    need = itinerary_precision(m, entries)[0]
    if need > budget:
        raise DomainError(
            f"itinerary needs about {need} working bits, budget is {budget}; "
            "deep or backwards petal visits are out of the configured resolution")
    hi = _at_precision(m, need)
    for i in range(len(entries) - 1):
        cur, nxt = entries[i][0], entries[i + 1][0]
        lc, ln = cur.k, nxt.k
        if ln > lc + 1:
            raise ItineraryError(
                f"entry {i}: level may rise by at most one ({cur} -> {nxt})")
        if ln <= lc and cur.kind != "P":
            raise ItineraryError(
                f"entry {i}: a non-increasing step needs a petal, got {cur} -> {nxt}")
        if cur.kind == "V" and ln != lc + 1:
            raise ItineraryError(
                f"entry {i}: a V step moves up exactly one level ({cur} -> {nxt})")
    z, image = anchor, None
    for i in range(len(entries) - 1, -1, -1):
        reg, br = entries[i]
        spec = VkRoot(reg.k, br or 0) if reg.kind == "V" else PetalInverse(reg.k, reg.j)
        try:
            z, image = _inverse_image(hi, z, spec, tol)
        except NumericsError as e:
            raise type(e)(f"entry {i}: {reg}: {e}") from None
    return z, image
