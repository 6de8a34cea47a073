#!/usr/bin/env python3
"""Apply each catalogued mutation to a temporary copy of the repository and
run only the tests that should kill it, at most nproc copies at a time.

    python tests/mutations/run.py [-j JOBS] [NAME_SUBSTRING ...]

Prints one line per mutation (killed, TIMEOUT, SURVIVED or ERROR) and exits
non-zero unless every selected mutation is killed.  A mutation whose tests are
still running after TIMEOUT_S seconds is stopped and printed as TIMEOUT: it
made a loop endless, and it counts as killed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
from catalogue import MUTATIONS  # noqa: E402

TIMEOUT_S = 300     # the slowest catalogued tests take well under a minute
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     "out", "*.pyc")


def run_one(mut) -> tuple:
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        path = copy / mut.file
        text = path.read_text()
        if text.count(mut.old) != 1:
            return mut, "ERROR", f"old text occurs {text.count(mut.old)} times in {mut.file}"
        path.write_text(text.replace(mut.old, mut.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                   *mut.killed_by], cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return mut, "TIMEOUT", f"tests still running after {TIMEOUT_S} s, stopped"
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()[-200:]]
    # pytest: 0 all passed, 1 some failed; anything else is a usage or collection error
    status = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
    return mut, status, tail[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("names", nargs="*", help="run only mutations whose name contains one of these")
    args = ap.parse_args()
    chosen = [m for m in MUTATIONS if not args.names or any(s in m.name for s in args.names)]
    jobs = max(1, min(args.jobs, os.cpu_count() or 1, len(chosen) or 1))
    bad = 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for mut, status, tail in pool.map(run_one, chosen):
            bad += status not in ("killed", "TIMEOUT")
            print(f"{status:8s} {mut.name}: {tail}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
