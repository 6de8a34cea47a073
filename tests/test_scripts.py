"""Smoke tests of the command-line scripts under scripts/: each one runs to
exit 0 in a scratch directory, and trace_curves.py prints the stored widths."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TRACE_CURVES_WIDTHS = [
    "identity depth 1: width 1.084351556354280454643607x2^23001 <= 1x2^23002 (True); "
    "oscillation log2 0",
    "identity depth 2: width 1.086667020426856490470171x2^22994 <= 1x2^22998 (True); "
    "oscillation log2 0",
    "identity depth 4: width 1.086685740245551742085179x2^22977 <= 1x2^22987 (True); "
    "oscillation log2 0",
    "synthetic depth 1: width 1.096054099580784703740765x2^23001 <= 1x2^23002 (True); "
    "oscillation log2 0.00922",
    "synthetic depth 2: width 1.099423514459201741571593x2^22994 <= 1x2^22998 (True); "
    "oscillation log2 0.00933",
    "synthetic depth 4: width 1.098618850644786571662051x2^22977 <= 1x2^22987 (True); "
    "oscillation log2 0.00933",
]


def _run(script: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scripts_run_with_default_arguments(tmp_path):
    out = _run("trace_curves.py", tmp_path)
    assert [ln for ln in out.splitlines() if " width " in ln] == TRACE_CURVES_WIDTHS
    assert (tmp_path / "curve_atlas.svg").is_file()
    _run("dim_sweep.py", tmp_path)
    assert (tmp_path / "dim_sweep.csv").is_file()
    _run("run_verify.py", tmp_path)
    assert (tmp_path / "verify_report.json").is_file()
