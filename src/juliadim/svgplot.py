"""Log-polar SVG renderer.

The only scale at which the construction is visible is (log2 |z|, theta):
radii spanning 2**4 to 2**(10**6) become a linear horizontal axis, the
angle is the vertical axis in turns.  Output is deterministic for a fixed
config up to the build-stamp comment; element groups carry stable ids
('Ak-3', 'petal-3-17', 'orbit', 'trace-inner', ...).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .modelmap import ModelMap
from .numerics import DomainError, LogPolar

W, H, PAD = 900, 420, 40


class LogPolarCanvas:
    def __init__(self, rho_lo: Fraction, rho_hi: Fraction, stamp: str = ""):
        self.lo, self.hi = Fraction(rho_lo), Fraction(rho_hi)
        self.parts: List[str] = []
        self.stamp = stamp

    def x(self, rho: Fraction) -> float:
        # ratios of huge exponents stay well-conditioned as exact fractions
        frac = (Fraction(rho) - self.lo) / (self.hi - self.lo)
        return PAD + float(frac) * (W - 2 * PAD)

    def y(self, turns: float) -> float:
        return PAD + (1.0 - float(turns) % 1.0) * (H - 2 * PAD)

    def band(self, gid: str, rho0, rho1, color: str, opacity: float = 0.5):
        x0, x1 = self.x(rho0), self.x(rho1)
        self.parts.append(
            f'<rect id="{gid}" x="{x0:.2f}" y="{PAD}" width="{max(x1 - x0, 0.5):.2f}" '
            f'height="{H - 2 * PAD}" fill="{color}" fill-opacity="{opacity}"/>')

    def dot(self, gid: str, z: LogPolar, color: str, r: float = 2.0):
        self.parts.append(
            f'<circle id="{gid}" cx="{self.x(z.rho):.2f}" cy="{self.y(z.theta.to_float()):.2f}" '
            f'r="{r}" fill="{color}"/>')

    def polyline(self, gid: str, pts: Iterable[Tuple[Fraction, float]], color: str):
        coords = " ".join(f"{self.x(r):.2f},{self.y(th):.2f}" for r, th in pts)
        self.parts.append(
            f'<polyline id="{gid}" points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1"/>')

    def to_svg(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
                f'viewBox="0 0 {W} {H}">')
        stamp = f"<!-- {self.stamp} -->" if self.stamp else ""
        axes = (f'<rect x="{PAD}" y="{PAD}" width="{W - 2 * PAD}" height="{H - 2 * PAD}" '
                f'fill="none" stroke="#222"/>')
        return "\n".join([head, stamp, axes, *self.parts, "</svg>"])


def render_atlas(m: ModelMap, k_lo: int = 1, k_hi: int = 4,
                 orbits: Optional[List[List[LogPolar]]] = None,
                 traces: Optional[List[Tuple[str, List[Tuple[Fraction, float]]]]] = None,
                 stamp: str = "") -> str:
    """Annulus bands, petal dots (the ring zeros of the model), optional
    orbits and curve traces."""
    t = m.table
    k_hi = min(k_hi, t.kmax_shifted() - 1)
    if not 1 <= k_lo <= k_hi:
        raise DomainError(f"atlas levels klo = {k_lo}, khi = {k_hi} need 1 <= klo <= khi "
                          f"(khi is at most {t.kmax_shifted() - 1} at kmax = {t.kmax})")
    lo = Fraction(t.R_exp(k_lo) - 4)
    hi = Fraction(t.R_exp(k_hi + 1) + 4)
    cv = LogPolarCanvas(lo, hi, stamp)
    # one group per region class, stable element ids inside
    cv.parts.append('<g id="annuli">')
    for k in range(k_lo, k_hi + 1):
        cv.band(f"Ak-{k}", Fraction(t.R_exp(k) - 2), Fraction(t.R_exp(k) + 2),
                "#b9c6dd", 0.6)
        cv.band(f"Vk-{k}", t.R_exp(k) - Fraction(132, 100), t.R_exp(k) - Fraction(74, 100),
                "#6f87b3", 0.8)
        if k < k_hi:
            cv.band(f"Bk-{k}", Fraction(t.R_exp(k) + 2), Fraction(t.R_exp(k + 1) - 2),
                    "#f4f4f4", 0.4)
    cv.parts.append("</g>")
    cv.parts.append('<g id="petals">')
    for k in range(k_lo, k_hi + 1):
        if t.n(k) <= 1 << 10:
            for j in range(1, t.n(k) + 1):
                cv.dot(f"petal-{k}-{j}", m.ring_zero(k + t.N - 1, j), "#8a2d2d", 1.5)
    cv.parts.append("</g>")
    cv.parts.append('<g id="orbits">')
    for i, orbit in enumerate(orbits or []):
        pts = [(z.rho, z.theta.to_float()) for z in orbit if not z.is_zero
               and lo <= z.rho <= hi]
        if pts:
            cv.polyline(f"orbit-{i}", pts, "#276b2d")
    cv.parts.append("</g>")
    cv.parts.append('<g id="traces">')
    for gid, pts in traces or []:
        cv.polyline(gid, pts, "#5a2d8a")
    cv.parts.append("</g>")
    return cv.to_svg()
