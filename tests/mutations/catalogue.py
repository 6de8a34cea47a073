"""Source mutations the tier-1 suite kills, one entry each.

An entry is (file, old, new, killed_by): `old` occurs exactly once in `file`
(relative to the repository root), `new` replaces it, and every test named
in `killed_by` ("tests/<file>.py::<name>", with a parameter id if any) is
expected to run, and at least one of them to fail, on the mutated copy.
``python tests/mutations/run.py`` applies each to a temporary copy and runs
its tests; ``test_catalogue.py`` checks in tier-1 that every entry still
applies and names tests that exist.  A mutation that survives stays here
and is reported as surviving, never dropped.
"""

from typing import NamedTuple, Tuple


class Mutation(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killed_by: Tuple[str, ...]


DYN = "tests/test_dynamics.py::"
CURVES = "tests/test_curves.py::"

MUTATIONS = (
    # the closed form of an anchored origin point, q(w (1 + u)) = -r_N w g(u)
    Mutation("closed form without its half turn", "src/juliadim/modelmap.py",
             "w.theta.turns + HALF\n", "w.theta.turns\n",
             (DYN + "test_closed_form_equals_the_absolute_route",
              DYN + "test_inverse_round_trips[origin]")),
    Mutation("g without its -u term", "src/juliadim/modelmap.py",
             "pair_of_int(coef[1] - 1)", "pair_of_int(coef[1])",
             (DYN + "test_closed_form_equals_the_absolute_route",
              DYN + "test_origin_solve_meets_g_within_its_stop_rule[128]")),
    Mutation("closed form drops the scale of g", "src/juliadim/modelmap.py",
             "LogPolar(base + e + v.rho", "LogPolar(base + v.rho",
             (DYN + "test_inverse_round_trips[origin]",)),
    Mutation("closed form without the zero check", "src/juliadim/modelmap.py",
             "if D * w.rho != top or", "if False and",
             (DYN + "test_closed_form_equals_the_absolute_route",)),
    Mutation("region from w.rho without the |u| enclosure", "src/juliadim/modelmap.py",
             "return d > 0 and frac_ilog2(d) >= self.reach()", "return d > 0",
             (DYN + "test_anchored_enclosure_decides_the_region_exactly",)),
    Mutation("classify without the margin on an anchored point", "src/juliadim/geometry.py",
             'z.below(d_top - (mfr or 0))', "z.below(d_top)",
             (DYN + "test_anchored_enclosure_decides_the_region_exactly",)),
    Mutation("anchored target refused without naming the step", "src/juliadim/dynamics.py",
             'raise ExponentBudgetError(f"{branch}: anchored target: {e}") from None', "raise",
             (DYN + "test_anchored_targets_end_in_typed_errors_past_the_budget",)),
    Mutation("anchored point admits |u| up to 1/2", "src/juliadim/modelmap.py",
             "mpc_mag(self.u) > -2", "mpc_mag(self.u) > -1",
             (DYN + "test_anchored_enclosure_decides_the_region_exactly",)),
    # the origin step's residual decision |g(u) - tau| <= 2**-b |tau|, b <= prec + 15
    Mutation("origin residual never decided", "src/juliadim/dynamics.py",
             "if not residual_below(u, tau_c, _tol_bits(tol), m.prec + 15, wp, coef, res):",
             "if False:",
             (DYN + "test_origin_residual_decision_is_sound[128]",
              DYN + "test_origin_residual_decision_is_sound[400]")),
    Mutation("tau rounding allowance dropped", "src/juliadim/dynamics.py",
             "m.prec + 15, wp, coef, res)", "10 ** 9, wp, coef, res)",
             (DYN + "test_origin_residual_decision_is_sound[128]",
              DYN + "test_origin_residual_decision_is_sound[400]")),
    # the petal step's |s (1 + s) - q/4| <= 2**-b |q/4|, b <= prec + 15 - a
    Mutation("petal residual never decided", "src/juliadim/dynamics.py",
             "if not residual_below(s, cpair_shift(q_c, -2), _tol_bits(tol), m.prec + 15 - a, "
             "m.prec + 32):",
             "if False:",
             (DYN + "test_petal_residual_decision_is_sound[128]",
              DYN + "test_petal_residual_decision_is_sound[400]")),
    # a covers the reading of q and lp_perturb's rounding of log(1 + s)
    Mutation("petal lp_perturb allowance dropped", "src/juliadim/dynamics.py",
             "a = max(5, m.prec.bit_length() - 15)", "a = 0",
             (DYN + "test_petal_residual_decision_is_sound[128]",
              DYN + "test_petal_residual_decision_is_sound[400]")),
    Mutation("branch 0 keeps tau0 without deciding sigma", "src/juliadim/dynamics.py",
             "        if ceil <= -b:\n            return", "        if True:\n            return",
             (DYN + "test_origin_branch_0_round_trips[5]",
              DYN + "test_origin_branch_0_round_trips[8]",
              DYN + "test_origin_branch_0_round_trips[10]")),
    # a proven margin of the precision-doubling gate: petal_membership's
    # escalation band |rho_p - rad_rel| <= 2 E
    Mutation("petal_membership escalation band halved", "src/juliadim/geometry.py",
             "if abs(delta.rho - rad_rel) <= 2 * err:", "if abs(delta.rho - rad_rel) <= err:",
             ("tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[verify-N5]",
              "tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[verify-N8]",
              "tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[backward]",
              "tests/test_geometry.py::test_petal_membership_escalates_only_in_its_tie_band")),
    # the Cauchy row |p_b - p_a| <= |p_a| (exp(S) - 1), S over indices a + 1..b
    Mutation("Cauchy slice back to [a:b+1]", "src/juliadim/curves.py",
             "self.pair_log_budget[a + 1:b + 1]", "self.pair_log_budget[a:b + 1]",
             (CURVES + "test_cauchy_check_rounds_outward_without_headroom",)),
    Mutation("Cauchy bound without |p_a|", "src/juliadim/curves.py",
             "bound = max(pa, 0.0) * budget", "bound = budget",
             (CURVES + "test_cauchy_check_rounds_outward_without_headroom",)),
    Mutation("|p_a| rounded up", "src/juliadim/curves.py",
             "abs(self.partials[a]) * (1.0 - 2.0 ** -50) - 2.0 ** -1074",
             "abs(self.partials[a]) * (1.0 + 2.0 ** -50)",
             (CURVES + "test_cauchy_check_rounds_outward_without_headroom",)),
    Mutation("subnormal Cauchy bound kept whole", "src/juliadim/curves.py",
             "bound -= 2.0 ** -1074", "bound -= 0.0",
             (CURVES + "test_cauchy_check_rounds_outward_without_headroom",)),
    # verify's seam-zero rows on real values and its certificate row writer
    Mutation("petal minimum taken at +eps", "src/juliadim/dynamics.py",
             "for x in (mpf_neg(eps), eps))", "for x in (eps, eps))",
             (DYN + "test_petal_boundary_extrema_equal_the_half_grid",)),
    Mutation("seam mismatch keeps only the psi = 0 sum", "src/juliadim/modelmap.py",
             "for s in (mpf_add(fone, x, wp, RND), mpf_sub(fone, x, wp, RND)))",
             "for s in (mpf_add(fone, x, wp, RND),))",
             ("tests/test_modelmap.py::test_seam_mismatch_equals_the_psi_grid",)),
    Mutation("row writer passes every row", "src/juliadim/report.py",
             '{"true" if c.passed else "false"}', "true",
             ("tests/test_cli.py::test_verify_report_matches_reference_bytes",)),
    Mutation("petal reach back to 3 * 2**-n_k", "src/juliadim/dynamics.py",
             "reach = Fraction(3, 1 << min(nk, j + 64))", "reach = Fraction(3, 1 << nk)",
             (DYN + "test_petal_reach_keeps_its_denominator_short",)),
    # petal steps in their ring zero's chart, z = w (1 + s)**(1/M_j)
    Mutation("chart eval without the (1 + s) factor", "src/juliadim/modelmap.py",
             "n = cpair_mul(u, cpair_add_real(u, (1, 0), wp), wp)", "n = u",
             (DYN + "test_petal_chart_eval_equals_the_absolute_route",
              DYN + "test_inverse_round_trips[petal]")),
    Mutation("chart enclosure 2**(mag(s) + 1 - j) loosened to 2**(mag(s) - j)",
             "src/juliadim/modelmap.py",
             "return mpc_mag(self.u) + 1 - self.ring", "return mpc_mag(self.u) - self.ring",
             (DYN + "test_petal_chart_is_placed_as_its_absolute_point",
              DYN + "test_anchored_enclosure_decides_the_region_exactly")),
    # the origin solve stops on its residual, |F~(u)| <= 2**-(prec + 16) |scale|
    Mutation("residual stop at 2**-prec", "src/juliadim/dynamics.py",
             "if _below(res, scale, prec + 16, wp):", "if _below(res, scale, prec, wp):",
             (DYN + "test_origin_newton_stops_at_its_first_step_below_the_threshold[160]",
              DYN + "test_origin_newton_stops_at_its_first_step_below_the_threshold[192]")),
    # the same margin as "petal_membership escalation band halved", shrunk
    # further and held against the precision-doubling gate alone.  It
    # survives and no gate command can kill it: the gate compares verdicts,
    # and rho at p = 192 bits is within 2**-64 E of rho at 256 (600 seeded
    # points at a petal's radius, k = 1..3), so a point the E / 4 band leaves
    # unescalated is decided as at full precision
    Mutation("petal_membership escalation band shrunk to E / 4, precision gate only",
             "src/juliadim/geometry.py",
             "if abs(delta.rho - rad_rel) <= 2 * err:", "if abs(delta.rho - rad_rel) <= err / 4:",
             ("tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[verify-N5]",
              "tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[verify-N8]",
              "tests/test_cli.py::test_doubled_precision_moves_no_verdict_or_value[backward]")),
    # table constants of the inverse steps, and polar_pair's read of 2**d e**(2 pi i t)
    Mutation("petal constants keyed on k alone, shared across tables", "src/juliadim/dynamics.py",
             'table_consts(t, ("petal", k),', 'table_consts(_petal_consts, ("petal", k),',
             (DYN + "test_step_constants_are_kept_per_table",)),
    Mutation("2**x with ln 2 at p instead of p + 10", "src/juliadim/numerics.py",
             "ln2_rounded(p + 10)\n        x, e, wp = m * l2, e + sh - p - 30,",
             "ln2_rounded(p)\n        x, e, wp = m * l2, e + sh - p - 20,",
             tuple(f"tests/test_numerics.py::test_polar_pair_takes_2_to_the_d_as_mpf_pow[{p}]"
                   for p in (64, 128, 2400))),
    Mutation("cos/sin precision from bit_length, not libmp.bitcount", "src/juliadim/numerics.py",
             "wp = p + 10 - libmp.bitcount(x) - e", "wp = p + 10 - x.bit_length() - e",
             ("tests/test_numerics.py::test_polar_pair_equals_the_libmp_read[64]",)),
    Mutation("turns at a multiple of 1/2 without their exact case", "src/juliadim/numerics.py",
             "    if e >= -1:     # 0 and the multiples of 1/2", "    if False:",
             tuple(f"tests/test_numerics.py::test_polar_pair_equals_the_libmp_read[{p}]"
                   for p in (64, 128, 144, 400, 2048))),
    Mutation("non-dyadic d rounded before its odd factor is divided out",
             "src/juliadim/numerics.py",
             "    if o > 1 and (g := math.gcd(n, o)) > 1:\n        n, d, o = n // g, d // g, o // g\n",
             "",
             tuple(f"tests/test_numerics.py::test_polar_pair_equals_the_libmp_read[{p}]"
                   for p in (64, 128, 144, 400, 2048))),
    # the batch kernel of log2|1 + eps| and the curve leaves that feed it
    Mutation("log table keyed on n without wp1", "src/juliadim/numerics.py",
             "key = n, wp1\n", "key = n\n",
             # alone: once a point of a wider wp1 is kept, the mutated series
             # may never end
             ("tests/test_numerics.py::test_log_table_is_kept_per_working_precision",)),
    Mutation("log series without v**2 in its odd sum", "src/juliadim/numerics.py",
             "m + ((s0 + ((s1 * v2) >> wp1)) << 1)", "m + ((s0 + s1) << 1)",
             ("tests/test_numerics.py::test_batch_kernel_on_every_leaf_of_the_reference_traces",
              "tests/test_numerics.py::test_kernel_branches_match_mpmath[128-a zero part]")),
    Mutation("leaf eps taken from the neighbouring parent", "src/juliadim/curves.py",
             "kids.setdefault(a * n % grid, []).append(a)",
             "kids.setdefault((a + 1) * n % grid, []).append(a)",
             (CURVES + "test_trace_digests_match_reference",)),
    # sums of two dyadic Fractions, reduced by trailing zeros
    Mutation("dyadic sum strips past its denominator", "src/juliadim/numerics.py",
             "    if z > -e:\n        z = -e\n", "",
             ("tests/test_numerics.py::test_angle_and_logpolar_glue_equals_plain_fractions",)),
    Mutation("dyadic difference drops b's sign", "src/juliadim/numerics.py",
             "sign * b.numerator", "b.numerator",
             ("tests/test_numerics.py::test_angle_and_logpolar_glue_equals_plain_fractions",)),
    # the integer-pair kernel, held tuple for tuple to libmp's round_nearest
    Mutation("pair sum skips mpf_add's far-operand shortcut", "src/juliadim/numerics.py",
             "    if d > 100 and (", "    if False and (",
             tuple(f"tests/test_numerics.py::test_integer_pairs_equal_libmp_tuple_for_tuple[{wp}]"
                   for wp in (53, 160, 22715))),
    Mutation("pair rounding breaks ties away from zero", "src/juliadim/numerics.py",
             "a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)) else t >> 1",
             "a = (t >> 1) + 1 if t & 1 else t >> 1",
             tuple(f"tests/test_numerics.py::test_integer_pairs_equal_libmp_tuple_for_tuple[{wp}]"
                   for wp in (53, 160, 22715))),
    Mutation("pair quotient drops its sticky bit", "src/juliadim/numerics.py",
             "    if r:\n        q, extra = (q << 1) + 1, extra + 1\n", "",
             tuple(f"tests/test_numerics.py::test_integer_pairs_equal_libmp_tuple_for_tuple[{wp}]"
                   for wp in (53, 160, 22715))),
    # recorded in earlier changes and still applicable
    Mutation("leaf field summed without 0 +", "src/juliadim/curves.py",
             "u = 0 + u\n", "u = u\n",
             (CURVES + "test_leaf_field_and_its_parts_equal_the_reference_forms",)),
    Mutation("dyadic_parts without the +1 of mag", "src/juliadim/numerics.py",
             "mag = 1 + (mr if mr > mi else mi)", "mag = (mr if mr > mi else mi)",
             (CURVES + "test_leaf_field_and_its_parts_equal_the_reference_forms",)),
)
