"""juliadim benchmark: one client, one process, one thread, closed loop.

    python3 perfbench/run.py --workload inclusions|inverse|curves \
        --seed 1 --seconds 30 --trace 0|1

Run from the root of a source checkout; juliadim is imported from ./src.
The run sets up the workload, then runs whole fixed batches of operations
until the next batch would end past --seconds (always at least one).  Every
output is checked; a raised error or a wrong output is a failed operation.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json; their
times are wall times corrected for the host's speed (speed.py).
--trace 1 runs untraced for half the time, then the same batches traced,
and reports the per-layer metrics (per batch) and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it stamp the run (source digest, Python, mpmath
and its backend, cores, load average) and summarise it; the same record
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11

from speed import SpeedClock, WallClock, time_setup  # noqa: E402  (sibling modules)
from workloads import WORKLOADS, import_program  # noqa: E402


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def stamp() -> dict:
    import mpmath
    import mpmath.libmp
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "juliadim").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    try:   # only when ROOT itself is a git work tree, not some enclosing one
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        sha = head if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def measure_setup(workload: str, seed: int) -> list:
    """Set-up time in fresh interpreters, one per sample: import, models,
    warm-up evaluation (setup_probe.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Phase:
    """Whole batches run until the next one would end past the deadline.
    Operation and batch times are taken on `clock` and corrected by it once
    the phase is over (speed.py)."""

    def __init__(self, clock=None):
        self.clock = clock or WallClock()
        self.op_spans: list = []      # (start, end, sampler seconds) per operation
        self.batch_spans: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def run(self, workload, seconds: float, batches: int = 0, tracer=None) -> None:
        """Run batches 0, 1, ... for `seconds`, or exactly `batches` of them."""
        clock = self.clock
        deadline = time.perf_counter() + seconds
        b = 0
        while True:
            ops = workload.batch(b)
            batch_mark = clock.mark()
            for op in ops:
                if tracer is not None:
                    tracer.current_op = self.attempted
                self.attempted += 1
                mark = clock.mark()
                try:
                    result = op.run()
                except Exception as exc:  # every error is a failed operation
                    self.op_spans.append(clock.interval_since(mark))
                    self.failed += 1
                    self.errors[f"{op.kind}:{type(exc).__name__}"] += 1
                    continue
                self.op_spans.append(clock.interval_since(mark))
                if not op.check(result):
                    self.failed += 1
                    self.errors[f"{op.kind}:wrong output"] += 1
            span = clock.interval_since(batch_mark)
            self.batch_spans.append(span)
            b += 1
            start, end, _ = span
            if b == batches or (not batches and 2 * end - start > deadline):
                return

    @property
    def latencies(self) -> list:
        return [self.clock.correct(s) for s in self.op_spans]

    @property
    def batch_s(self) -> list:
        return [self.clock.correct(s) for s in self.batch_spans]

    @property
    def batch_wall_s(self) -> list:
        return [end - start for start, end, _ in self.batch_spans]

    @property
    def solve_s(self) -> float:
        return statistics.median(self.batch_s)


def end_to_end(phase: Phase, setup_samples: list) -> dict:
    lat = sorted(x * 1e3 for x in phase.latencies)
    return {"setup_s": statistics.median(setup_samples),
            "solve_s": phase.solve_s,
            "op_ms.p50": nearest_rank(lat, 0.5),
            "op_ms.p90": nearest_rank(lat, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, traced: Phase, plain: Phase, probe: dict) -> dict:
    """Per-batch span counts and self times, the counters the spans carry,
    and the ratios listed in BENCHMARK.json."""
    from tracing import BRANCH_KIND, ERROR_TYPES, PIECE_KINDS, span_names
    origin = "dynamics.inverse_step.origin"
    under = f"calls_under:{origin}"
    spans = tracer.summary(within=origin)
    empty = {"calls": 0, "self_s": 0.0, under: 0}
    batches = len(traced.batch_spans)
    out = {}
    for name in span_names():
        s = spans.get(name, empty)
        out[f"{name}.calls"] = s["calls"] / batches
        out[f"{name}.self_s"] = s["self_s"] / batches
    for flag in ("negligible", "cancelled"):
        out[f"numerics.lp_add.{flag}"] = tracer.counts[f"numerics.lp_add.{flag}"] / batches
    for name in [f"dynamics.inverse_step.{k}" for k in BRANCH_KIND.values()] + [
            "dynamics.backward_construct"]:
        for err in ERROR_TYPES:
            out[f"{name}.failed.{err}"] = tracer.counts[f"{name}.failed.{err}"] / batches

    def ratio(a, b):
        return a / b if b else 0.0

    evals = [spans.get(f"modelmap.eval.{k}", empty) for k in PIECE_KINDS]
    steps = spans.get(origin, empty)["calls"]
    out["modelmap.eval.power_frac"] = ratio(spans.get("modelmap.eval.power", empty)["calls"],
                                            sum(e["calls"] for e in evals))
    out["dynamics.inverse_step.origin.evals_per_call"] = ratio(sum(e[under] for e in evals), steps)
    out["dynamics.qN_landmarks_per_origin_step"] = ratio(
        spans.get("modelmap.qN_landmarks", empty)[under], steps)
    out["failed_frac"] = (traced.failed + plain.failed) / (traced.attempted + plain.attempted)
    out["trace_overhead_frac"] = traced.solve_s / plain.solve_s - 1.0
    out["n8_origin_probe.attempted"] = probe.get("attempted", 0)
    out["n8_origin_probe.failed_frac"] = ratio(probe.get("failed", 0), probe.get("attempted", 0))
    out["n8_origin_probe.failed.ExponentBudgetError"] = probe.get("failed.ExponentBudgetError", 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    import_program(ROOT)
    info["stamp"] = stamp()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)

    workload = WORKLOADS[args.workload](args.seed, OUT)
    setup_samples.append(time_setup(workload.setup))

    probe = {}
    if args.trace:
        from tracing import Tracer
        plain = Phase()
        plain.run(workload, args.seconds / 2)
        traced = Phase()
        tracer = Tracer()
        with tracer:   # the same batches again, so the overhead compares like with like
            traced.run(workload, 0, len(plain.batch_spans), tracer)
        if hasattr(workload, "probe"):
            probe = workload.probe()
        metrics = per_layer(tracer, traced, plain, probe)
        tracer.write(OUT / f"{args.workload}.spans")
        phases = (plain, traced)
    else:
        with SpeedClock() as clock:
            plain = Phase(clock)
            plain.run(workload, args.seconds)
        if hasattr(workload, "probe"):
            probe = workload.probe()
        metrics = end_to_end(plain, setup_samples)
        phases = (plain,)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = sum((p.errors for p in phases), Counter())
    lat_n = sum(len(p.op_spans) for p in phases)
    info.update({
        "batches": [len(p.batch_spans) for p in phases],
        "batch_s": [p.batch_s for p in phases],
        "batch_wall_s": [p.batch_wall_s for p in phases],
        "speed_samples": len(getattr(phases[0].clock, "speeds", ())),
        "setup_samples_s": setup_samples,
        "ops": lat_n, "ops_beyond_p90": lat_n - math.ceil(lat_n * 0.9),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": dict(errors), "n8_origin_probe": probe, "metrics": metrics,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True))
    print(json.dumps({"stamp": info["stamp"]}, sort_keys=True))
    print(json.dumps({k: info[k] for k in ("workload", "seed", "batches", "ops",
                                           "ops_beyond_p90", "failed_frac", "errors",
                                           "n8_origin_probe")}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
