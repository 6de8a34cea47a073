"""Tests of the benchmark itself (not of juliadim).

    python3 -m pytest perfbench/tests -q

Each workload runs a minimal pass (--seconds 1: one batch) in a subprocess.
The inclusions passes run the full verify command, about 20 s each.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from speed import SpeedClock  # noqa: E402
from workloads import Inclusions, Inverse, import_program  # noqa: E402


def run_bench(root: Path, workload: str, trace: int = 0, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def copy_checkout(dst: Path) -> Path:
    shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, dst / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    return dst


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_pass_prints_every_end_to_end_metric(workload):
    result = last_json(run_bench(ROOT, workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["inverse", "curves"])
def test_traced_pass_prints_every_per_layer_metric(workload):
    result = last_json(run_bench(ROOT, workload, trace=1))
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["failed_frac"] == 0.0
    evals = [f"modelmap.eval.{k}.calls" for k in ("origin", "bump", "power", "seam")]
    if workload == "curves":
        assert all(metrics[name] == 0 for name in evals)
        assert metrics["curves.trace_gamma.calls"] == 12
    else:
        assert 0.9 <= metrics["dynamics.qN_landmarks_per_origin_step"] <= 1.0
        assert metrics["dynamics.inverse_step.origin.calls"] == Inverse.SHARES[2][1]
        assert metrics["n8_origin_probe.failed_frac"] == 1.0


def test_corrupted_reference_fails_every_inclusions_operation(tmp_path):
    root = copy_checkout(tmp_path)
    ref = root / "perfbench" / "reference" / Inclusions.REFERENCE_NAME
    data = bytearray(ref.read_bytes())
    data[len(data) // 2] ^= 0x01
    ref.write_bytes(bytes(data))
    result = last_json(run_bench(root, "inclusions"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    root = copy_checkout(tmp_path)
    shutil.rmtree(root / "src")
    proc = run_bench(root, "inverse")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    import_program(ROOT)
    a, b = Inverse(7, tmp_path), Inverse(7, tmp_path)
    a.setup()
    b.setup()
    for op_a, op_b in list(zip(a.batch(2), b.batch(2)))[:20]:
        assert op_a.kind == op_b.kind
        if op_a.kind != "backward":
            assert op_a.run() == op_b.run()


def test_speed_correction_scales_wall_time_by_mean_nearby_speed():
    clock = SpeedClock()
    clock.times = [0.0, 0.5, 0.91, 5.0]
    clock.speeds = [2.0, 1.0, 3.0, 100.0]
    # samples within 20 ms of [0.2, 0.9] are at 0.5 and 0.91; 0.1 s was sampler time
    assert clock.correct((0.2, 0.9, 0.1)) == pytest.approx(0.6 * 2.0)
    # no sample near: the nearest one on each side
    assert clock.correct((3.0, 3.5, 0.0)) == pytest.approx(0.5 * (3.0 + 100.0) / 2)


def test_sampler_runs_while_entered_and_stops_after():
    with SpeedClock(0.005) as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(clock.speeds) >= 10 and clock.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
