#!/usr/bin/env python3
"""Trace the nested curve annuli at several depths under both correction
models, check the width bounds, and render the atlas with the traces."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from juliadim.config import Config
from juliadim.curves import Identity, SyntheticOmega, trace_gamma, width_check
from juliadim.numerics import Angle
from juliadim.curves import tangent_products
from juliadim.report import pow2_str, write_csv
from juliadim.svgplot import render_atlas

if __name__ == "__main__":
    cfg = Config()
    cfg.N, cfg.kmax = 5, 16
    m = cfg.build_model()
    for name, phi in (("identity", Identity()),
                      ("synthetic", SyntheticOmega(cfg.Cprime, cfg.p, cfg.seed))):
        for depth in (1, 2, 4):
            tr = trace_gamma(m, phi, 1, depth, grid=256)
            wc = width_check(m, tr)
            i_osc, o_osc = tr.oscillation_log2()
            print(f"{name} depth {depth}: width {pow2_str(wc.measured_log2)} <= "
                  f"{pow2_str(wc.bound_log2)} ({wc.ok}); oscillation log2 "
                  f"{max(i_osc, o_osc):.3g}")
            write_csv(f"trace_{name}_m{depth}.csv",
                      ["theta", "inner_rho", "outer_rho"],
                      [[th.to_float(), ri, ro] for th, ri, ro in
                       zip(tr.theta_grid, tr.inner_radii, tr.outer_radii)])
    syn = SyntheticOmega(cfg.Cprime, cfg.p, cfg.seed)
    rep = tangent_products(m, syn, Angle(Fraction(2, 7)), 12)
    print(f"tangent partial products Cauchy: {rep.cauchy_diff_ok()}, "
          f"limit modulus {rep.limit_modulus():.6f} >= "
          f"{rep.limit_lower_bound(cfg.N):.3g}")
    tr = trace_gamma(m, Identity(), 1, 2, grid=256)
    svg = render_atlas(m, 1, 4,
                       traces=[("trace-inner",
                                [(r, th.to_float()) for th, r in
                                 zip(tr.theta_grid, tr.inner_radii)])],
                       stamp="trace_curves")
    Path("curve_atlas.svg").write_text(svg)
    print("atlas: curve_atlas.svg")
