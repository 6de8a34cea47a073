"""The benchmark's workloads: seeded operations and their output checks.

A workload builds its models in `setup()` and then hands out batches of
operations.  `batch(b)` is the b-th fixed batch of the run; its inputs come
from a `random.Random` seeded with the workload name, the run seed and b, so
the same seed always gives the same inputs.  Each `Op` has a `run` callable
(the timed call into juliadim) and a `check` callable that receives run's
result and says whether the output is correct.

juliadim is imported inside `setup()`, so `setup()` covers the import cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable, List

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
VERIFY_ARGS = ["verify", "--N", "5", "--kmax", "12", "--khi", "6", "--samples", "4096"]
ROUND_TRIP_TOL = Fraction(1, 1 << 64)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def import_program(root: Path) -> None:
    """Import juliadim from `root`/src and nowhere else: without those sources
    the benchmark must fail rather than measure another copy."""
    src = (root / "src").resolve()
    if not (src / "juliadim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no juliadim sources under {src}")
    sys.path.insert(0, str(src))
    import juliadim
    if Path(juliadim.__file__).resolve().parent != src / "juliadim":
        raise SystemExit(f"perfbench: imported juliadim from {juliadim.__file__}, not {src}")


def warm_up(m) -> None:
    """One evaluation above r_N, which fills the lazy piece-cut cache."""
    from juliadim.numerics import LogPolar
    m.eval(LogPolar(Fraction(m.table.R_exp(2)), Fraction(1, 5)))


def digest(values) -> str:
    """A short digest of exact numbers through Python's numeric hash, which is
    defined for Fraction and int and costs no decimal conversion of huge
    integers."""
    h = hashlib.sha256()
    for v in values:
        h.update(hash(v).to_bytes(8, "little", signed=True))
    return h.hexdigest()[:24]


def load_json_reference(path: Path) -> dict:
    """A reference that does not parse checks as empty, so every operation
    that needs it fails instead of the benchmark crashing."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# inclusions: `juliadim verify` in process against the stored report
# ---------------------------------------------------------------------------

class Inclusions:
    """The certificate command researchers run; deterministic, seed unused."""

    name = "inclusions"
    REFERENCE_NAME = "verify_N5_kmax12_khi6_s4096.json"

    def __init__(self, seed: int, out_dir: Path):
        self.reference = (REFERENCE / self.REFERENCE_NAME).read_bytes()
        self.out_path = out_dir / f"verify-{os.getpid()}.json"

    def setup(self) -> None:
        from juliadim import cli
        from juliadim.modelmap import ModelMap
        from juliadim.params import build_params
        warm_up(ModelMap(table=build_params(5, 12)))
        self.cli = cli

    def _run(self):
        rc = self.cli.main(VERIFY_ARGS + ["--out", str(self.out_path)])
        try:
            return rc, self.out_path.read_bytes()
        finally:
            self.out_path.unlink()

    def _check(self, result) -> bool:
        rc, text = result
        return rc == 0 and text == self.reference

    def batch(self, b: int) -> List[Op]:
        return [Op("verify", self._run, self._check)]


# ---------------------------------------------------------------------------
# inverse: inverse branches and backward construction at N=5
# ---------------------------------------------------------------------------

class Inverse:
    """Seeded inverse steps (1/2 VkRoot, 3/10 PetalInverse, 1/5 OriginBranch)
    plus one backward construction of each itinerary shape per batch."""

    name = "inverse"
    SHARES = (("vk", 50), ("petal", 30), ("origin", 20))
    PROBE_N = 8          # OriginBranch at this N is probed outside the timed mix
    PROBES = 4

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        from juliadim import dynamics
        from juliadim.modelmap import ModelMap
        from juliadim.numerics import LogPolar
        from juliadim.params import build_params
        self.dyn, self.LogPolar = dynamics, LogPolar
        self.m = ModelMap(table=build_params(5, 25))
        warm_up(self.m)

    def _target(self, rng: Random, t, k: int):
        rho = Fraction(t.R_exp(k)) + Fraction(rng.randrange(-(1 << 20), 1 << 20), 1 << 20)
        return self.LogPolar(rho, Fraction(rng.randrange(1 << 30), 1 << 30))

    def _step_op(self, kind: str, rng: Random) -> Op:
        d, m, t = self.dyn, self.m, self.m.table
        if kind == "vk":
            k = rng.randrange(1, 5)
            spec, target = d.VkRoot(k, rng.randrange(t.n(k))), self._target(rng, t, k + 1)
        elif kind == "petal":
            k = rng.randrange(1, 4)
            spec = d.PetalInverse(k, rng.randrange(1, t.n(k) + 1))
            target = self._target(rng, t, k + 1)
        else:
            spec, target = d.OriginBranch(rng.randrange(1 << t.N)), self._target(rng, t, 1)

        def check(z) -> bool:
            got, _ = m.eval(z)
            return (not got.is_zero
                    and abs(got.rho - target.rho) < ROUND_TRIP_TOL
                    and got.theta.dist(target.theta) < ROUND_TRIP_TOL)

        return Op(kind, lambda: d.inverse_step(m, target, spec, float(ROUND_TRIP_TOL)), check)

    def _itineraries(self, rng: Random) -> List[List[str]]:
        t = self.m.table
        climb = [f"V({k}):{rng.randrange(t.n(k))}" for k in range(1, 21)]
        forward = (["V(1)", f"P(2,{rng.randrange(1, t.n(2) + 1)})", "V(3)",
                    f"P(4,{rng.randrange(1, t.n(4) + 1)})"]
                   + [f"V({k})" for k in range(5, 21)])
        backwards = [f"P(1,{rng.randrange(1, t.n(1) + 1)})"] + [f"V({k})" for k in range(1, 20)]
        return [climb, forward, backwards]

    def _construct_op(self, itin: List[str], rng: Random) -> Op:
        d, m, t = self.dyn, self.m, self.m.table
        top = int(itin[-1][2:].split(")")[0].split(",")[0]) + 1
        anchor = self.LogPolar(Fraction(t.R_exp(top)),
                               Fraction(rng.randrange(1, 1 << 30), 1 << 30))

        def run():
            return d.backward_construct(m, itin, anchor, tol=float(ROUND_TRIP_TOL),
                                        verify=True, budget_bits=1 << 16)

        def check(z) -> bool:
            # the construction re-verifies the whole orbit itself; the first
            # tag is checked here again from the returned point
            first = itin[0].split(":")[0]
            return str(d.classify(t, z, model=m)) == first

        return Op("backward", run, check)

    def batch(self, b: int) -> List[Op]:
        rng = Random(f"inverse:{self.seed}:{b}")
        ops = [self._step_op(kind, rng) for kind, count in self.SHARES for _ in range(count)]
        ops += [self._construct_op(itin, rng) for itin in self._itineraries(rng)]
        rng.shuffle(ops)
        return ops

    def probe(self) -> dict:
        """OriginBranch steps at N=8, run untimed: they end in typed errors
        today, and a fix shows here as fewer failures."""
        from juliadim.modelmap import ModelMap
        from juliadim.params import build_params
        from tracing import error_type
        m8 = ModelMap(table=build_params(self.PROBE_N, 12))
        rng = Random(f"inverse-probe:{self.seed}")
        out = {"attempted": 0, "failed": 0}
        for _ in range(self.PROBES):
            target = self._target(rng, m8.table, 1)
            spec = self.dyn.OriginBranch(rng.randrange(1, 1 << self.PROBE_N))
            out["attempted"] += 1
            try:
                self.dyn.inverse_step(m8, target, spec, float(ROUND_TRIP_TOL))
            except Exception as exc:
                out["failed"] += 1
                key = f"failed.{error_type(exc)}"
                out[key] = out.get(key, 0) + 1
        return out


# ---------------------------------------------------------------------------
# curves: curve traces, tangent/angle checks and exact-integer certificates
# ---------------------------------------------------------------------------

class Curves:
    """Seeded curve traces under Identity and SyntheticOmega, tangent and
    angle checks, growth inequalities and dimension certificates."""

    name = "curves"
    REFERENCE_NAME = "curves.json"
    DEPTHS = range(1, 7)
    PHASE_SEEDS = range(1, 9)          # synthetic fields with stored traces
    T_GRID = [i / 64 for i in range(1, 65)]
    DIMS_PER_BATCH = 24
    INEQ_N = (5, 10, 14)
    TANGENT_DEPTH = 12

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.reference = load_json_reference(REFERENCE / self.REFERENCE_NAME)

    def setup(self) -> None:
        from juliadim import curves, dimension
        from juliadim.modelmap import ModelMap
        from juliadim.numerics import Angle
        from juliadim.params import SQRT8, build_params, verify_inequalities
        self.cv, self.dim, self.Angle = curves, dimension, Angle
        self.build_params, self.verify_inequalities, self.SQRT8 = (
            build_params, verify_inequalities, SQRT8)
        self.m = ModelMap(table=build_params(5, 16))
        warm_up(self.m)
        self.t5, self.t10 = build_params(5, 12), build_params(10, 12)

    # -- outputs, shared with make_reference.py ----------------------------------

    def synthetic(self, phase_seed: int):
        return self.cv.SyntheticOmega(Cprime=1.0, p=self.SQRT8, phase_seed=phase_seed)

    def trace(self, phi, k: int, depth: int):
        tr = self.cv.trace_gamma(self.m, phi, k, depth, grid=256)
        return tr, self.cv.width_check(self.m, tr)

    @staticmethod
    def trace_key(phi, k: int, depth: int) -> str:
        phase = getattr(phi, "phase_seed", 0)
        return f"{phi.kind}:{phase}:{k}:{depth}"

    @staticmethod
    def trace_digest(tr, wc) -> str:
        return digest(list(tr.inner_radii) + list(tr.outer_radii)
                      + [wc.measured_log2, wc.bound_log2])

    def dims(self, tdim: float) -> dict:
        d = self.dim
        return json.loads(json.dumps({
            "min_N": d.min_N_for_dimension(tdim),
            "origin": d.origin_dim_bound(self.t5, tdim).to_json_obj(),
            "backwards": d.holesum_eval(self.t10, tdim).to_json_obj(),
            "singleton": d.z2_tail(self.t10, 1, tdim).to_json_obj(),
        }))

    # -- operations ------------------------------------------------------------------

    def _trace_op(self, phi, k: int, depth: int) -> Op:
        key = self.trace_key(phi, k, depth)
        ref = self.reference.get("traces", {})
        circle_tol = 2.0 ** (-self.m.prec + 8)

        def check(result) -> bool:
            tr, wc = result
            if not wc.ok or ref.get(key) != self.trace_digest(tr, wc):
                return False
            return phi.kind != "identity" or max(tr.oscillation_log2()) <= circle_tol

        return Op(f"trace.{phi.kind}", lambda: self.trace(phi, k, depth), check)

    def _tangent_op(self, phi, theta0) -> Op:
        N = self.m.table.N

        def check(rep) -> bool:
            return (rep.cauchy_diff_ok()
                    and rep.limit_modulus() >= rep.limit_lower_bound(N) > 0.0)

        return Op("tangent", lambda: self.cv.tangent_products(
            self.m, phi, theta0, self.TANGENT_DEPTH), check)

    def _angle_op(self, phi) -> Op:
        return Op("angle", lambda: self.cv.angle_check(self.m, phi, 1, 0, 3, samples=32),
                  lambda wb: wb[0] <= wb[1])

    def _ineq_op(self, N: int) -> Op:
        want = self.reference.get("inequalities", {}).get(str(N))
        return Op("inequalities",
                  lambda: self.verify_inequalities(self.build_params(N, 64)),
                  lambda rep: rep.all_pass and len(rep) == want)

    def _dims_op(self, tdim: float) -> Op:
        ref = self.reference.get("dimension", {}).get(repr(tdim))
        t_star = self.reference.get("t_star")

        def check(got) -> bool:
            crit = got["origin"].get("detail", {}).get("critical_exponent")
            return got == ref and crit == t_star == "5/752"

        return Op("dims", lambda: self.dims(tdim), check)

    def batch(self, b: int) -> List[Op]:
        rng = Random(f"curves:{self.seed}:{b}")
        syn = self.synthetic(rng.choice(self.PHASE_SEEDS))
        ops = [self._trace_op(phi, rng.choice((1, 2)), depth)
               for depth in self.DEPTHS for phi in (self.cv.Identity(), syn)]
        ops.append(self._tangent_op(syn, self.Angle(Fraction(rng.randrange(1, 1 << 16), 1 << 16))))
        ops.append(self._angle_op(syn))
        ops += [self._ineq_op(N) for N in self.INEQ_N]
        ops += [self._dims_op(x) for x in rng.sample(self.T_GRID, self.DIMS_PER_BATCH)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Inclusions, Inverse, Curves)}
