import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from juliadim.cli import _parser, main, parse_point
from juliadim.config import Config
from juliadim.numerics import DomainError
from juliadim.params import CertificateReport, build_params

VERIFY_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                    / "verify_N5_kmax12_khi6_s4096.json")


def run(args):
    return main(args)


def test_parse_point_big_exponent():
    z = parse_point("23008,-1.32,0.25")
    assert z.rho_int() == 23008 - 2
    assert z.theta.to_float() == 0.25


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("N=7\nkmax=9\n# comment\nCprime=0.5\n")
    cfg = Config.from_file(str(p))
    assert cfg.N == 7 and cfg.kmax == 9 and cfg.Cprime == 0.5
    d = cfg.to_dict()
    assert "lambda" in d and "lam" not in d
    assert (d["delta"], d["lambda"], d["output_dir"]) == (0.25, 0.05, ".")
    # the three report-only values are not settings
    for key in ("nope", "delta", "output_dir", "lambda"):
        with pytest.raises(DomainError, match=f"unknown config key '{key}'"):
            cfg.set_key(key, "1")


ANCHOR = "183764352,0.0,0.2"


@pytest.mark.parametrize("config,argv", [
    ("nope=1\n", ["dims"]),
    ("N 5\n", ["dims"]),
    ("N=five\n", ["dims"]),
    ("lambda=0.06\n", ["dims"]),
    (None, ["dims"]),
    ("Pp=0\n", ["dims"]),
    ("", ["eval", "--point", "1,2"]),
    ("", ["orbit", "--point", "1,2,x"]),
    ("", ["backward", "--itinerary", "V(1)", "--anchor", "1,2"]),
    ("", ["backward", "--itinerary", "", "--anchor", ANCHOR]),
    ("", ["backward", "--itinerary", "X", "--anchor", ANCHOR]),
    ("", ["backward", "--itinerary", "V(1", "--anchor", ANCHOR]),
    ("", ["backward", "--itinerary", "V(1):x", "--anchor", ANCHOR]),
    ("", ["dims", "--sweep", "abc"]),
    ("guard=0\n", ["verify"]),
    ("P_sig=300\n", ["verify"]),
    ("P_sig=8\n", ["verify"]),
    ("P_sig=63\nguard=63\n", ["verify"]),
    ("", ["dims", "--t", "nan"]),
    ("", ["dims", "--t", "inf"]),
    ("", ["dims", "--sweep", "0.1,nan"]),
    ("", ["verify", "--khi", "6", "--Cprime", "nan"]),
    ("", ["trace", "--depth", "3", "--model", "synthetic", "--Cprime", "-1"]),
    ("p=nan\n", ["params"]),
    ("p=0\n", ["params"]),
    ("", ["render", "--klo", "4", "--khi", "1"]),
    ("", ["render", "--klo", "0"]),
    ("", ["dims", "--t", "1e-13"]),
])
def test_malformed_input_ends_in_one_line(config, argv, tmp_path, monkeypatch, capsys):
    # a config file (None: missing), a point, an itinerary or a sweep list
    # that does not parse is refused like any other typed error; so are a
    # guard below P_sig and a P_sig below 64, which gave wrong numbers with
    # exit 0 or 1 (guard=0 moved both poly_crit_values rows of verify, and
    # P_sig=8 failed a row that passes at the default).  These ended in a
    # traceback: a non-finite dimension exponent t, and render levels with
    # klo > khi.  These exited 0: verify with Cprime nan wrote "Cprime": NaN,
    # which is not JSON; trace certified a field of negative amplitude; and
    # render drew a band for an annulus A_0 the model does not have.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg"
    if config is not None:
        cfg.write_text(config)
    assert run(argv + ["--N", "5", "--kmax", "12", "--config", str(cfg)]) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1
    assert re.match(r"juliadim: (Domain|Itinerary)Error: ", cap.err), cap.err
    assert sorted(tmp_path.iterdir()) == ([cfg] if config is not None else [])


def _refused_with(capsys, prefix):
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1
    assert cap.err.startswith(prefix), cap.err


@pytest.mark.parametrize("itinerary,error,entry", [
    ("D", "ItineraryError", "entry 0: only V/P tags at level >= 1 are realizable, got D"),
    ("V(1);D", "ItineraryError", "entry 1: only V/P tags at level >= 1 are realizable, got D"),
    ("A(1)", "ItineraryError", "entry 0: only V/P tags at level >= 1 are realizable, got A(1)"),
    ("V(0)", "ItineraryError", "entry 0: only V/P tags at level >= 1 are realizable, got V(0)"),
    ("P(2,0)", "ItineraryError", "entry 0: petal index of P(2,0) outside 1..n_2 = 2**6"),
    ("V(1);P(2,65)", "ItineraryError", "entry 1: petal index of P(2,65) outside 1..n_2 = 2**6"),
    ("P(2,64)", "ExponentBudgetError",
     "entry 0: P(2,64): lp_perturb of |u| < 2**-1446673, past the exponent budget"),
], ids=["D", "V(1);D", "A(1)", "V(0)", "P(2,0)", "V(1);P(2,65)", "P(2,64)"])
def test_backward_refuses_what_it_cannot_invert(itinerary, error, entry, capsys):
    # a D tag ended in a TypeError from sizing the itinerary before the tag
    # checks, and the pair check named the entry before the bad tag; P(2,0)
    # was inverted into petal 1 and only the re-verification noticed; a
    # step's own error did not say which tag it came from
    argv = ["backward", "--N", "5", "--kmax", "25", "--itinerary", itinerary,
            "--anchor", "752,0,0.3"]
    assert run(argv) == 3
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", f"juliadim: {error}: {entry}\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--N", "5", "--kmax", "12", "--input", "nope.csv"],
    ["orbit", "--N", "5", "--kmax", "12", "--input", "nope.csv"],
])
def test_missing_input_file_ends_in_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    _refused_with(capsys, "juliadim: FileNotFoundError: ")


@pytest.mark.parametrize("argv", [
    ["params", "--N", "5", "--kmax", "6"],
    ["eval", "--N", "5", "--kmax", "12", "--point", "760,0.5,0.25"],
    ["trace", "--N", "5", "--kmax", "12", "--depth", "1"],
    ["render", "--N", "5", "--kmax", "12"],
])
def test_unwritable_output_ends_in_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", "nodir/x"]) == 3
    _refused_with(capsys, "juliadim: FileNotFoundError: ")
    assert list(tmp_path.iterdir()) == []


def test_lowest_accepted_settings_build():
    m = Config(N=5, kmax=12, P_sig=64, guard=64).build_model()
    assert (m.prec, m.guard) == (64, 64)


def test_trace_refuses_a_negative_level(tmp_path, capsys):
    # n = 4 at k = -3 is ring j = 2, which the model never uses
    argv = ["trace", "--N", "5", "--kmax", "12", "--k", "-3", "--depth", "1",
            "--out", str(tmp_path / "t.csv")]
    assert run(argv) == 3
    assert capsys.readouterr().err == "juliadim: DomainError: trace level k = -3 must be >= 0\n"


def test_params_subcommand(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = run(["params", "--N", "5", "--kmax", "6", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    rows = {r["j"]: r for r in doc["table"]}
    assert rows[4] == {"j": 4, "M": 16, "c": "2^-128", "r": "2^56"}
    assert rows[1]["r"] == "2^4" and rows[2]["r"] == "2^6" and rows[3]["r"] == "2^12"


def test_params_deep_table_raises_typed_error(tmp_path, capsys):
    # exponents of rows j >= 170 at N = 5 pass Python's 4300-digit decimal
    # conversion limit: a typed error names the largest --jhi that renders
    from juliadim.numerics import DomainError

    with pytest.raises(DomainError, match=r"row j=170: .* jhi <= 169 renders"):
        build_params(5, 200).table_rows()
    assert run(["params", "--N", "5", "--kmax", "200"]) == 3
    assert re.fullmatch(r"juliadim: DomainError: row j=170: .* jhi <= 169 renders\n",
                        capsys.readouterr().err)
    out = tmp_path / "p.json"
    assert run(["params", "--N", "5", "--kmax", "200", "--jhi", "169", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["table"]
    assert [r["j"] for r in rows] == list(range(170))


@pytest.mark.parametrize("argv,row", [
    (["params", "--N", "5", "--kmax", "200"], "row j=170"),
    (["verify", "--N", "5", "--kmax", "200", "--khi", "1"], "row coef_power_lower[169]"),
])
def test_typed_errors_end_in_one_line(argv, row, capsys):
    # a refused input exits 3, apart from a failed certificate (1) and bad
    # arguments (2), with one line on stderr and nothing on stdout
    assert run(argv) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and "Traceback" not in cap.err
    assert cap.err.count("\n") == 1
    assert cap.err.startswith(f"juliadim: DomainError: {row}")
    assert "4300-digit limit of decimal conversion" in cap.err


def test_certificate_row_refuses_exponents_past_the_decimal_limit():
    from juliadim.numerics import DomainError

    rep = CertificateReport("demo")
    rep.add("fits", 1, True, 1 << 14000, Fraction(1, 3))
    with pytest.raises(DomainError, match=r"row deep\[7\] of 'demo': a 14365-bit"):
        rep.add("deep", 7, True, 0, -(1 << 14364))
    with pytest.raises(DomainError, match=r"row deep\[None\]"):
        rep.add("deep", None, True, Fraction(1, 1 << 14364), 0)
    assert len(rep) == 1


def test_verify_subcommand_exit_zero(tmp_path):
    out = tmp_path / "v.json"
    rc = run(["verify", "--N", "5", "--kmax", "8", "--khi", "1",
              "--samples", "4096", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["N"] == 5
    assert any(c["name"] == "inner_circle_max_below_quarter_next"
               for c in doc["certificates"])


def test_verify_report_matches_reference_bytes(tmp_path):
    # the stored report of the benchmark's inclusions workload: exact
    # extrema must not move a single byte of the certificate output
    out = tmp_path / "v.json"
    rc = run(["verify", "--N", "5", "--kmax", "12", "--khi", "6",
              "--samples", "4096", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == VERIFY_REFERENCE.read_bytes()


# sha256 of the stdout of `juliadim verify --N <N> --kmax 12 --khi 6`, beside
# the N = 5 reference above
VERIFY_DIGESTS = {
    6: "ea825f1494e169e20e141fdc3323367f91b310744590b72e645e0e44d44dedf8",
    8: "265480cddaa25cc8758199b09f287f034187fe43479e4498a068e594f2aafa97",
    10: "e9e124f8e7b005c1f1449c34072917a665867049a854e439ae52487866ba1eb8",
    14: "5f87e0f4e6307169c5edbfd5c6ad66fc459756394c32b8e896ea87c27e17aced",
}


@pytest.mark.parametrize("N", sorted(VERIFY_DIGESTS))
def test_verify_stdout_is_pinned(N, capsys):
    assert run(["verify", "--N", str(N), "--kmax", "12", "--khi", "6"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_DIGESTS[N]


def test_verify_reaches_deep_petal_levels(tmp_path):
    # the petal boundary's reach no longer grows with n_k = 2**(N + k - 1):
    # level 21 has n_k = 2**25
    out = tmp_path / "v.json"
    assert run(["verify", "--N", "5", "--kmax", "27", "--khi", "21", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [c["index"] for c in doc["certificates"]
            if c["name"] == "petal_boundary_min_above_4Rk1"] == list(range(1, 22))


def test_verify_past_the_float_range_ends_in_a_typed_error(capsys):
    # R_exp(42) > 2**1024: the level-40 rows cannot render as 6-decimal floats
    assert run(["verify", "--N", "5", "--kmax", "80", "--khi", "40"]) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and "Traceback" not in cap.err
    assert cap.err.count("\n") == 1
    assert cap.err.startswith("juliadim: DomainError: row outer_circle_max_below_eighth_Rk2[40] "
                              "of 'mapping inclusions k=40'")


def test_parser_built_once_and_report_alias_gone():
    assert _parser() is _parser()
    with pytest.raises(SystemExit):
        run(["report", "--N", "5"])


def test_eval_and_orbit_subcommands(tmp_path):
    out = tmp_path / "e.csv"
    rc = run(["eval", "--N", "5", "--kmax", "8",
              "--point", "23008,0.0,0.125", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rho_int,")
    assert "power(6)" in lines[1]

    out2 = tmp_path / "o.jsonl"
    rc = run(["orbit", "--N", "5", "--kmax", "8",
              "--point", "23011,0.0,0.125", "--nmax", "4", "--out", str(out2)])
    assert rc == 0
    rec = json.loads(out2.read_text().splitlines()[0])
    assert rec["classification"] == "FatouEscape(2)"


def _orbit_classes(tmp_path, point):
    out = []
    for flags in ([], ["--phi-budget"]):
        path = tmp_path / "o.jsonl"
        assert run(["orbit", "--N", "5", "--kmax", "12", "--point", point, "--nmax", "6",
                    "--out", str(path), *flags]) == 0
        out.append(json.loads(path.read_text())["classification"])
    return out


def test_orbit_phi_budget_classifies_an_A_start(tmp_path):
    # 1.5 bits inside A(1): the start point takes the distortion term alone,
    # not the 2-bit seam margin, so the budgeted orbit is the plain one
    assert _orbit_classes(tmp_path, "752,0.5,0.1") == ["FatouEscape(2)", "FatouEscape(2)"]


def test_orbit_phi_budget_flags_an_edge_after_a_seam_step(tmp_path):
    # a P(1,1) start next to the first zero of ring 5, itself 1.96 bits below
    # the top of A(1); its seam step lands 0.73 bits below the top of A(2),
    # within the seam margin, so the budgeted orbit stops there
    assert _orbit_classes(tmp_path, "752,0.03540906360802495,0.0156250000005800013") == [
        "FatouEscape(3)", "Truncated(boundary at step 1)"]



def _rho_theta(z):
    return z.rho, z.theta.turns


def test_printed_start_points_read_back_unchanged(tmp_path):
    # orbit's "start" and eval's first three columns, fed to parse_point,
    # give the point that was read; at 53 bits the first point's theta read
    # back 2**-59.4 turns away.  An eval output point reads back as the
    # point with denominators at most 2**64 nearest to it.
    rng = random.Random(2302)
    points = ["752,0.03540906360802495,0.0156250000005800013", "23011,0.0,0.125",
              "760,-1.32,0.9999999999999999999", "752,0.5,0.1"]
    points += [f"{rng.randrange(752, 760)},{rng.randrange(1 << 64)}/{1 << 64},"
               f"{rng.randrange(1, 1 << 63)}/{rng.randrange(1 << 63, 1 << 64)}" for _ in range(6)]
    for point in points:
        z = parse_point(point)
        orbit, ev = tmp_path / "o.jsonl", tmp_path / "e.csv"
        assert run(["orbit", "--N", "5", "--kmax", "12", "--point", point, "--nmax", "1",
                    "--out", str(orbit)]) == 0
        start = json.loads(orbit.read_text())["start"]
        printed = parse_point(",".join(start[key] for key in ("rho_int", "rho_frac", "theta")))
        assert _rho_theta(printed) == _rho_theta(z), point
        assert run(["eval", "--N", "5", "--kmax", "12", "--point", point, "--out", str(ev)]) == 0
        row = ev.read_text().splitlines()[1].split(",")
        assert _rho_theta(parse_point(",".join(row[:3]))) == _rho_theta(z), point
        w, _ = Config(N=5, kmax=12).build_model().eval(z)
        back = parse_point(",".join(row[3:6]))
        assert back.rho - w.rho_int() == (w.rho - w.rho_int()).limit_denominator(1 << 64)
        assert back.theta.turns == w.theta.turns.limit_denominator(1 << 64)
    # each fraction prints as its nearest decimal with the fewest digits that
    # reads back: a float's repr where that does, 20 digits for 2/3 (19 read
    # as another fraction), ending in 7, not in the 6 of a truncation
    for point, want in (("752,0.5,0.1", ["752", "0.5", "0.1"]),
                        ("760,2/3,0.9999999999999999999",
                         ["760", "0.66666666666666666667", "0.9999999999999999999"])):
        assert run(["orbit", "--N", "5", "--kmax", "12", "--point", point, "--nmax", "1",
                    "--out", str(orbit)]) == 0
        start = json.loads(orbit.read_text())["start"]
        assert [start[key] for key in ("rho_int", "rho_frac", "theta")] == want


def test_backward_subcommand(tmp_path):
    out = tmp_path / "b.json"
    rc = run(["backward", "--N", "5", "--kmax", "12",
              "--itinerary", "V(1);V(2);V(3)",
              "--anchor", "183764352,0.0,0.2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["regions"] == ["V(1)", "V(2)", "V(3)"]


def test_backward_prints_the_orbit_it_verified(tmp_path):
    # a backwards move needs 22683 bits for its first step only; the printed
    # orbit is re-iterated at the construction's per-step precision, not at
    # the configured 128 bits, where it ran off into B(13) after V(13)
    from juliadim.params import build_params

    cfg = tmp_path / "cfg"
    cfg.write_text("P_ang=65536\n")
    itin = ["P(1,3)"] + [f"V({k})" for k in range(1, 20)]
    out = tmp_path / "b.json"
    rc = run(["backward", "--config", str(cfg), "--N", "5", "--kmax", "25",
              "--itinerary", ";".join(itin),
              "--anchor", f"{build_params(5, 25).R_exp(20)},0.5,0.2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["regions"] == itin
    assert doc["classification"] == "YLike(1)"


def test_backward_past_the_angle_budget_exits_3(tmp_path, capsys):
    # the backwards move at the default P_ang = 4096: its 22683 working bits
    # are past the budget, a typed error with exit status 3 and one line
    from juliadim.numerics import ANG_BITS
    from juliadim.params import build_params

    itin = ["P(1,3)"] + [f"V({k})" for k in range(1, 20)]
    out = tmp_path / "b.json"
    rc = run(["backward", "--N", "5", "--kmax", "25", "--itinerary", ";".join(itin),
              "--anchor", f"{build_params(5, 25).R_exp(20)},0.5,0.2", "--out", str(out)])
    cap = capsys.readouterr()
    assert rc == 3 and not out.exists() and cap.out == ""
    assert cap.err == (f"juliadim: DomainError: itinerary needs about 22683 working bits, "
                       f"budget is {ANG_BITS}; deep or backwards petal visits are out of "
                       f"the configured resolution\n")


def test_backward_evaluates_once_above_1024_bits(tmp_path, monkeypatch):
    # the backwards move of test_backward_prints_the_orbit_it_verified: the
    # Newton polish of its petal step is the one evaluation at 22683 bits,
    # and the verification's step 0 reuses that image
    from juliadim.modelmap import ModelMap
    from juliadim.params import build_params

    wide, real = [], ModelMap.eval

    def eval_(self, z):
        if self.prec > 1024:
            wide.append(self.prec)
        return real(self, z)

    monkeypatch.setattr(ModelMap, "eval", eval_)
    cfg = tmp_path / "cfg"
    cfg.write_text("P_ang=65536\n")
    itin = ["P(1,3)"] + [f"V({k})" for k in range(1, 20)]
    out = tmp_path / "b.json"
    rc = run(["backward", "--config", str(cfg), "--N", "5", "--kmax", "25",
              "--itinerary", ";".join(itin),
              "--anchor", f"{build_params(5, 25).R_exp(20)},0.5,0.2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["regions"] == itin
    assert wide == [22683]


def test_backward_iterates_the_orbit_once(tmp_path, monkeypatch):
    # the construction's verification is the printed orbit: one forward
    # iteration per run
    import juliadim.dynamics as dyn

    calls = []
    real = dyn.iterate_orbit

    def iterate(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dyn, "iterate_orbit", iterate)
    out = tmp_path / "b.json"
    rc = run(["backward", "--N", "5", "--kmax", "12",
              "--itinerary", "V(1);V(2);V(3)",
              "--anchor", "183764352,0.0,0.2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["regions"] == ["V(1)", "V(2)", "V(3)"]
    assert len(calls) == 1


# sha256 of the stdout of `juliadim dims`: the report (with layer_checks and
# singleton_t_sweep) and the sweep CSV
DIMS_DIGESTS = {
    ("dims", "--N", "5", "--t", "0.1"):
        "de098e068a23cc8796f389c7aca4cd6b3d8d12bc3934d7246c830dceb38c8092",
    ("dims", "--sweep", "1.0,0.1,0.01", "--sweep-Nmax", "6"):
        "997b4da84cda227fd7da6a6b2577a8a2d6d6c392fe2c36337db2a39c5c389db7",
}


@pytest.mark.parametrize("argv", sorted(DIMS_DIGESTS))
def test_dims_stdout_is_pinned(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIMS_DIGESTS[argv]


def test_csv_stdout_matches_file(tmp_path, capsys):
    for argv in (["eval", "--N", "5", "--kmax", "6", "--point", "23008,0.0,0.125"],
                 ["dims", "--sweep", "0.5", "--sweep-Nmax", "5"]):
        out = tmp_path / "o.csv"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text()


def test_dims_subcommand_and_sweep(tmp_path):
    out = tmp_path / "d.json"
    rc = run(["dims", "--N", "10", "--kmax", "12", "--t", "0.1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["reports"]["origin"]["verdict"] == "converges"
    assert doc["reports"]["min_N"] == 5
    sw = tmp_path / "sweep.csv"
    rc = run(["dims", "--sweep", "0.5,0.05", "--sweep-Nmax", "6",
              "--out", str(sw)])
    assert rc == 0
    lines = sw.read_text().splitlines()
    assert lines[0] == "N,t,origin,backwards,layers,singleton"
    assert len(lines) == 5


def test_trace_and_render_subcommands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(["trace", "--N", "5", "--kmax", "10", "--k", "1", "--depth", "2",
              "--grid", "256", "--out", "t.csv"])
    assert rc == 0
    assert capsys.readouterr().out == (
        '{"csv": "t.csv", "depth": 2, "grid": 256, "k": 1, '
        '"width_bound": "1x2^22998", '
        '"width_measured": "1.086667020426856490470171x2^22994", '
        '"width_ok": true}\n')
    lines = Path("t.csv").read_text().splitlines()
    assert lines[0] == "theta,inner_rho,outer_rho"
    assert len(lines) == 257

    rc = run(["render", "--N", "5", "--kmax", "10", "--what", "annuli",
              "--khi", "3", "--out", "a.svg"])
    assert rc == 0
    svg = Path("a.svg").read_text()
    assert 'id="Ak-2"' in svg and 'id="petal-1-1"' in svg


def _polyline(svg, gid):
    pts = re.search(rf'<polyline id="{gid}" points="([^"]*)"', svg).group(1).split()
    return [tuple(map(float, p.split(","))) for p in pts]


def test_render_orbit_draws_the_orbit_in_the_window(tmp_path, monkeypatch, capsys):
    # V(1) -> A(2) -> B(3): three points, moving right through the levels
    monkeypatch.chdir(tmp_path)
    rc = run(["render", "--N", "5", "--kmax", "10", "--what", "orbit",
              "--point", "751,0.0,0.3", "--nmax", "6", "--khi", "3"])
    assert rc == 0 and capsys.readouterr().out == "atlas_orbit.svg\n"
    pts = _polyline(Path("atlas_orbit.svg").read_text(), "orbit-0")
    xs = [x for x, _ in pts]
    assert len(pts) == 3 and xs == sorted(set(xs)) and 40 <= xs[0] and xs[-1] <= 860


def test_render_trace_draws_both_radii_on_one_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(["render", "--N", "5", "--kmax", "10", "--what", "trace",
              "--k", "1", "--depth", "2", "--khi", "3", "--out", "t.svg"])
    assert rc == 0 and capsys.readouterr().out == "t.svg\n"
    svg = Path("t.svg").read_text()
    inner, outer = _polyline(svg, "trace-inner"), _polyline(svg, "trace-outer")
    assert len(inner) == len(outer) == 256
    for (xi, yi), (xo, yo) in zip(inner, outer):
        assert yi == yo and 40 <= xi <= xo <= 860


# commands whose every verdict and exact value must not move when P_sig,
# guard and P_ang are doubled; only the config block of a report differs
PRECISION_GATE = {
    "verify-N5": ["verify", "--N", "5", "--kmax", "12", "--khi", "6"],
    "verify-N8": ["verify", "--N", "8", "--kmax", "12", "--khi", "2"],
    "dims": ["dims", "--N", "5", "--kmax", "12", "--t", "0.1"],
    "trace-identity": ["trace", "--N", "5", "--kmax", "10", "--depth", "2"],
    "trace-synthetic": ["trace", "--N", "5", "--kmax", "10", "--depth", "2",
                        "--model", "synthetic"],
    "backward": ["backward", "--N", "5", "--kmax", "12", "--itinerary", "V(1);P(2,5);V(3)",
                 "--anchor", ANCHOR],
}


@pytest.mark.parametrize("name", sorted(PRECISION_GATE))
def test_doubled_precision_moves_no_verdict_or_value(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("wide.cfg").write_text("P_sig=256\nguard=512\nP_ang=8192\n")
    runs = []
    for extra in ([], ["--config", "wide.cfg"]):
        rc = run(PRECISION_GATE[name] + extra + ["--out", "o"])
        text = Path("o").read_text()
        doc = json.loads(text) if text.startswith("{") else {"csv": text}
        config = doc.pop("config", None)
        runs.append((rc, capsys.readouterr().out, doc))
        if config:
            assert (config["P_sig"], config["guard"], config["P_ang"]) == (
                (128, 256, 4096) if not extra else (256, 512, 8192))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(["verify", "--N", "5", "--kmax", "8", "--khi", "1",
             "--samples", "4096", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_orbit_batch_input(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("rho_int,rho_frac,theta\n23011,0.0,0.125\n23010,0.5,0.25\n")
    out = tmp_path / "o.jsonl"
    rc = run(["orbit", "--N", "5", "--kmax", "8", "--input", str(src),
              "--nmax", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert all('"classification"' in ln for ln in lines)
