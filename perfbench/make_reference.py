"""Regenerate the stored reference outputs from the current sources.

    python3 perfbench/make_reference.py

Writes perfbench/reference/verify_N5_kmax12_khi6_s4096.json (the verify
report) and perfbench/reference/curves.json (digests of every curve trace
the curves workload can draw, the inequality counts and the dimension
certificates over its t grid).  The stored files come from the sources the
benchmark was introduced with; a change that must keep outputs
byte-identical may not regenerate them.
"""

import json
from pathlib import Path

from workloads import REFERENCE, VERIFY_ARGS, Curves, Inclusions, import_program

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    import_program(root)
    from juliadim import cli

    verify = REFERENCE / Inclusions.REFERENCE_NAME
    if cli.main(VERIFY_ARGS + ["--out", str(verify)]) != 0:
        raise SystemExit("verify failed")

    w = Curves(seed=0, out_dir=root)
    w.setup()
    traces = {}
    models = [w.cv.Identity()] + [w.synthetic(s) for s in w.PHASE_SEEDS]
    for phi in models:
        for k in (1, 2):
            for depth in w.DEPTHS:
                traces[w.trace_key(phi, k, depth)] = w.trace_digest(*w.trace(phi, k, depth))
    ref = {
        "traces": traces,
        "inequalities": {str(N): len(w.verify_inequalities(w.build_params(N, 64)))
                         for N in w.INEQ_N},
        "dimension": {repr(x): w.dims(x) for x in w.T_GRID},
        "t_star": w.dims(1.0)["origin"]["detail"]["critical_exponent"],
    }
    (REFERENCE / Curves.REFERENCE_NAME).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
