"""Command-line front end.

Subcommands: params, verify, eval, orbit, backward, dims, trace, render.
Outputs are deterministic for a fixed config: JSON with sorted keys, CSV
with fixed headers, SVG up to a build-stamp comment.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .config import Config
from .numerics import Angle, DomainError, LogPolar, NumericsError
from .params import (CertificateReport, alpha_beta_window, build_params,
                     check_permissible, verify_inequalities)
from .report import (make_report, point_fields, pow2_str, read_decimal, render_value,
                     to_json, write_csv)


def _add_common(sp):
    sp.add_argument("--config", help="key=value config file")
    sp.add_argument("--N", type=int)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--Cprime", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output file (default: stdout)")


def _load_config(args) -> Config:
    cfg = Config.from_file(args.config) if args.config else Config()
    for key in ("N", "kmax", "Cprime", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    return cfg


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text + ("\n" if not text.endswith("\n") else ""))
    else:
        sys.stdout.write(text + "\n")


def parse_point(s: str) -> LogPolar:
    """'rho_int,rho_frac,theta' -> LogPolar; rho_int is an arbitrary-size
    decimal integer, the others decimal fractions."""
    try:
        ri, rf, th = s.split(",")
        rho, turns = int(ri) + read_decimal(rf), read_decimal(th)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"point {s!r} is not rho_int,rho_frac,theta: {exc}") from None
    return LogPolar(rho, Angle(turns))


def _read_points(args) -> list:
    """The --point argument, then the rows of the --input CSV (header skipped)."""
    points = [parse_point(args.point)] if args.point else []
    if args.input:
        for line in Path(args.input).read_text().splitlines()[1:]:
            if line.strip():
                points.append(parse_point(line))
    return points


def cmd_params(args) -> int:
    cfg = _load_config(args)
    t = cfg.build_table()
    doc = {"config": cfg.to_dict(), "table": t.table_rows(args.jhi),
           "k0": t.k0}
    _emit(args, to_json(doc))
    return 0


def cmd_verify(args) -> int:
    from .dynamics import check_singular_values, verify_inclusions
    from .modelmap import dilatation_sup, seam_mismatch

    cfg = _load_config(args)
    m = cfg.build_model()
    t = m.table
    reports = [verify_inequalities(t)]
    summaries = {}
    khi = min(args.khi, t.kmax_shifted() - 1)
    for k in range(1, khi + 1):
        reports.append(verify_inclusions(m, k, samples=args.samples))
    reports.append(check_singular_values(m))
    window = alpha_beta_window(t)   # empirical: emitted, not gated
    reports.append(window)
    sups = {}
    for k in range(5, min(5 + 9, t.jmax - 1)):
        sups[k] = dilatation_sup(m, k).sup_log2
    summaries["dilatation_sup_log2"] = {str(k): repr(v) for k, v in sups.items()}
    sm = seam_mismatch(m, t.N)
    summaries["seam_mismatch"] = {"inner_log2": repr(sm.inner_max_log2_ratio),
                                  "outer_log2": repr(sm.outer_max_log2_ratio)}
    seam_rep = CertificateReport("seam deviation")
    seam_rep.add("seam_inner_within_2_bits", t.N,
                 sm.inner_max_log2_ratio <= 2.0,
                 f"{sm.inner_max_log2_ratio:.4f}", "2.0")
    seam_rep.add("seam_outer_within_015_bits", t.N,
                 sm.outer_max_log2_ratio <= 0.15,
                 f"{sm.outer_max_log2_ratio:.4f}", "0.15")
    reports.append(seam_rep)
    summaries["admissibility_failures"] = [
        c.to_json_obj() for c in check_permissible(t).failures()]
    text = make_report(cfg, reports, summaries)
    _emit(args, text)
    gate = [r for r in reports if r is not window]
    ok = all(r.all_pass for r in gate) and all(v < 0 for v in sups.values())
    return 0 if ok else 1


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    m = cfg.build_model()
    rows = []
    for z in _read_points(args):
        w, piece = m.eval(z)
        out = ("0", "0", "0") if w.is_zero else point_fields(w)
        rows.append([*point_fields(z), *out, str(piece)])
    header = ["rho_int", "rho_frac", "theta", "out_rho_int", "out_rho_frac",
              "out_theta", "piece"]
    write_csv(args.out, header, rows)
    return 0


def cmd_orbit(args) -> int:
    from .dynamics import iterate_orbit

    cfg = _load_config(args)
    m = cfg.build_model()
    lines = []
    for z in _read_points(args):
        rec = iterate_orbit(m, z, nmax=args.nmax, phi_budget=args.phi_budget)
        lines.append(json.dumps({
            "start": render_value(z),
            "regions": rec.region_strs(),
            "orbit_seq": rec.orbit_seq,
            "backwards_events": rec.backwards_events,
            "classification": str(rec.classification),
        }, sort_keys=True))
    _emit(args, "\n".join(lines))
    return 0


def cmd_backward(args) -> int:
    from .dynamics import backward_construct, itinerary_orbit

    cfg = _load_config(args)
    m = cfg.build_model()
    itinerary = [s.strip() for s in args.itinerary.split(";")]
    anchor = parse_point(args.anchor)
    # the construction's own verification: raises ItineraryError at the
    # first step off the itinerary, and the printed orbit is the one checked
    z = backward_construct(m, itinerary, anchor, tol=cfg.tol, verify=False)
    rec = itinerary_orbit(m, z, itinerary)
    _emit(args, to_json({
        "point": render_value(z),
        "regions": rec.region_strs()[:len(itinerary)],
        "classification": str(rec.classification),
    }))
    return 0


def cmd_dims(args) -> int:
    from .dimension import (holesum_eval, layer_checks, min_N_for_dimension,
                            origin_dim_bound, z2_tail)

    cfg = _load_config(args)
    if args.sweep:
        rows = []
        try:
            ts = [float(x) for x in args.sweep.split(",")]
        except ValueError:
            raise DomainError(f"--sweep {args.sweep!r} is not a comma list of numbers") from None
        for N in range(5, args.sweep_Nmax + 1):
            t = build_params(N, max(cfg.kmax, 12), cfg.Cprime, cfg.p)
            for td in ts:
                rows.append([N, td,
                             origin_dim_bound(t, td).verdict,
                             holesum_eval(t, td).verdict,
                             "pass" if layer_checks(t, td, cfg.Lpp).all_pass else "fail",
                             z2_tail(t, 1, td, Pp=cfg.Pp).verdict])
        header = ["N", "t", "origin", "backwards", "layers", "singleton"]
        write_csv(args.out, header, rows)
        return 0
    t = cfg.build_table()
    td = args.t
    reports = {
        "origin": origin_dim_bound(t, td).to_json_obj(),
        "backwards": holesum_eval(t, td).to_json_obj(),
        "singleton": z2_tail(t, 1, td, Pp=cfg.Pp).to_json_obj(),
        "singleton_t_sweep": {
            repr(x): z2_tail(t, 1, x, Pp=cfg.Pp).verdict
            for x in (1.0, 0.1, 0.01, 0.001)
        },
        "min_N": min_N_for_dimension(td, cfg.Lpp, cfg.Pp),
    }
    doc = {"config": cfg.to_dict(), "t": td, "reports": reports,
           "layer_checks": [c.to_json_obj()
                            for c in layer_checks(t, td, cfg.Lpp).certificates]}
    _emit(args, to_json(doc))
    return 0


def cmd_trace(args) -> int:
    from .curves import Identity, SyntheticOmega, trace_gamma, width_check

    cfg = _load_config(args)
    m = cfg.build_model()
    phi = Identity() if args.model == "identity" else SyntheticOmega(
        cfg.Cprime, cfg.p, cfg.seed)
    tr = trace_gamma(m, phi, args.k, args.depth, grid=args.grid)
    wc = width_check(m, tr)
    rows = [[th.to_float(), ri, ro] for th, ri, ro in
            zip(tr.theta_grid, tr.inner_radii, tr.outer_radii)]
    header = ["theta", "inner_rho", "outer_rho"]
    out = args.out or f"trace_k{args.k}_m{args.depth}.csv"
    write_csv(out, header, rows)
    sys.stdout.write(json.dumps({
        "k": args.k, "depth": args.depth, "grid": args.grid,
        "width_measured": pow2_str(wc.measured_log2),
        "width_bound": pow2_str(wc.bound_log2),
        "width_ok": wc.ok,
        "csv": out,
    }, sort_keys=True) + "\n")
    return 0


def cmd_render(args) -> int:
    from .svgplot import render_atlas

    cfg = _load_config(args)
    m = cfg.build_model()
    orbits = None
    if args.what == "orbit" and args.point:
        from .dynamics import iterate_orbit
        rec = iterate_orbit(m, parse_point(args.point), nmax=args.nmax)
        orbits = [rec.points]
    traces = None
    if args.what == "trace":
        from .curves import Identity, trace_gamma
        tr = trace_gamma(m, Identity(), args.k, args.depth, grid=max(args.grid, 256))
        traces = [("trace-inner", [(r, th.to_float()) for th, r in
                                   zip(tr.theta_grid, tr.inner_radii)]),
                  ("trace-outer", [(r, th.to_float()) for th, r in
                                   zip(tr.theta_grid, tr.outer_radii)])]
    svg = render_atlas(m, k_lo=args.klo, k_hi=args.khi, orbits=orbits,
                       traces=traces, stamp=f"juliadim N={cfg.N}")
    out = args.out or f"atlas_{args.what}.svg"
    Path(out).write_text(svg)
    sys.stdout.write(out + "\n")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="juliadim",
                                 description="exact dyadic-scale model-map laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("params", help="emit the parameter table")
    _add_common(sp)
    sp.add_argument("--jhi", type=int, default=None)
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("verify", help="run the full certificate suite")
    _add_common(sp)
    sp.add_argument("--khi", type=int, default=6)
    sp.add_argument("--samples", type=int, default=4096,
                    help="samples per non-radial inclusion circle (N=5, k<=6 "
                         "has none: every circle there is radial or the petal "
                         "boundary, whose extrema are exact)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eval", help="evaluate the model map on points")
    _add_common(sp)
    sp.add_argument("--point", help="rho_int,rho_frac,theta")
    sp.add_argument("--input", help="CSV of points")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("orbit", help="iterate orbits, JSONL out")
    _add_common(sp)
    sp.add_argument("--point")
    sp.add_argument("--input")
    sp.add_argument("--nmax", type=int, default=20)
    sp.add_argument("--phi-budget", action="store_true", dest="phi_budget")
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("backward", help="realize a region itinerary")
    _add_common(sp)
    sp.add_argument("--itinerary", required=True, help="e.g. 'V(1);P(2,5);V(3)'")
    sp.add_argument("--anchor", required=True, help="rho_int,rho_frac,theta")
    sp.set_defaults(fn=cmd_backward)

    sp = sub.add_parser("dims", help="dimension certificates")
    _add_common(sp)
    sp.add_argument("--t", type=float, default=0.1)
    sp.add_argument("--sweep", help="comma list of t values: emit CSV over N")
    sp.add_argument("--sweep-Nmax", type=int, default=12, dest="sweep_Nmax")
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("trace", help="trace nested curve annuli")
    _add_common(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--model", choices=("identity", "synthetic"), default="identity")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("render", help="draw the log-polar atlas as SVG")
    _add_common(sp)
    sp.add_argument("--what", choices=("annuli", "petals", "orbit", "trace"),
                    default="annuli")
    sp.add_argument("--point")
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--klo", type=int, default=1)
    sp.add_argument("--khi", type=int, default=4)
    sp.set_defaults(fn=cmd_render)

    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Exit status 0: done; 1: a certificate failed;
    2: bad arguments (argparse); 3: a typed error refused the input, or a
    file could not be read or written, printed as one line on stderr."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NumericsError, OSError) as exc:
        print(f"juliadim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
