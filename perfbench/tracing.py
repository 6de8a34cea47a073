"""Span tracing of juliadim's layers from outside the package.

`Tracer.install()` replaces the traced functions of each juliadim module with
wrappers that record one span per call: name, start, end, parent span and the
id of the benchmark operation that caused it.  Names that other modules
imported (``dynamics.qN_landmarks``, ``cli.make_report``, ...) and class
attributes (``ModelMap.eval``) are patched too; `uninstall()` restores every
original.  Spans stay in flat arrays until `summary()` folds them into
per-name call counts and self times.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

# module -> traced attributes ("Class.method" patches the class attribute)
TRACED = {
    "numerics": ["lp_add", "lp_perturb", "expm1_lp", "LogPolar.root"],
    "modelmap": ["ModelMap.eval", "ModelMap.deriv", "qN_landmarks"],
    "geometry": ["classify", "petal_membership"],
    "dynamics": ["inverse_step", "backward_construct", "iterate_orbit",
                 "verify_inclusions", "check_singular_values"],
    "curves": ["trace_gamma", "width_check", "tangent_products", "angle_check"],
    "params": ["build_params", "verify_inequalities"],
    "dimension": ["min_N_for_dimension", "holesum_eval", "z2_tail"],
    "report": ["make_report"],
    "cli": ["main"],
}

# typed errors counted under `<span>.failed.<type>`, most specific first
ERROR_TYPES = ("ExponentBudgetError", "BranchError", "ItineraryError", "DomainError")

BRANCH_KIND = {"VkRoot": "vk", "PetalInverse": "petal", "OriginBranch": "origin"}
PIECE_KINDS = ("origin", "bump", "power", "seam")


def error_type(exc: BaseException) -> str:
    names = {c.__name__ for c in type(exc).__mro__}
    return next((n for n in ERROR_TYPES if n in names), "other")


# span names that depend on the call: name from the arguments, or a hook that
# sees the result (renaming the span or counting flags)

def _inverse_step_name(args, kwargs) -> str:
    branch = args[2] if len(args) > 2 else kwargs["branch"]
    return f"dynamics.inverse_step.{BRANCH_KIND.get(type(branch).__name__, 'other')}"


def _eval_result(tracer: "Tracer", idx: int, out) -> None:
    tracer.name[idx] = tracer.name_id(f"modelmap.eval.{out[1].kind}")


def _lp_add_result(tracer: "Tracer", idx: int, out) -> None:
    if out.negligible:
        tracer.counts["numerics.lp_add.negligible"] += 1
    if out.cancelled:
        tracer.counts["numerics.lp_add.cancelled"] += 1


NAME_FROM_ARGS = {"dynamics.inverse_step": _inverse_step_name}
ON_RESULT = {"modelmap.ModelMap.eval": _eval_result,
             "numerics.lp_add": _lp_add_result}
SPAN_NAME = {"modelmap.ModelMap.eval": "modelmap.eval",
             "modelmap.ModelMap.deriv": "modelmap.deriv"}
# spans renamed per call: modelmap.eval.<piece kind>, dynamics.inverse_step.<kind>
SPLIT = {"modelmap.eval": [f"modelmap.eval.{k}" for k in PIECE_KINDS],
         "dynamics.inverse_step": [f"dynamics.inverse_step.{k}" for k in BRANCH_KIND.values()]}


def span_names() -> list:
    """Every span name a traced run can record."""
    out = []
    for mod, attrs in TRACED.items():
        for attr in attrs:
            key = f"{mod}.{attr}"
            name = SPAN_NAME.get(key, key)
            out += SPLIT.get(name, [name])
    return out


class Tracer:
    def __init__(self):
        self.names: list = []                # span-name id -> name
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_op = -1                 # set by the runner per operation
        self.counts: Counter = Counter()
        self._patches: list = []             # (owner, attribute, original)

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, key: str):
        tracer, stack = self, self.stack
        fixed = self.name_id(SPAN_NAME.get(key, key))
        from_args = NAME_FROM_ARGS.get(key)
        on_result = ON_RESULT.get(key)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(tracer.name_id(from_args(args, kwargs)) if from_args else fixed)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                tracer.counts[f"{tracer.names[names[idx]]}.failed.{error_type(exc)}"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(tracer, idx, out)
            return out

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"juliadim.{m}") for m in TRACED}
        for mod_name, attrs in TRACED.items():
            mod = mods[mod_name]
            for attr in attrs:
                key = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, orig, self._wrap(orig, key))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(orig, key)
                for other in mods.values():
                    if other.__dict__.get(attr) is orig:
                        self._set(other, attr, orig, wrapper)

    def _set(self, owner, attr, orig, new) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self, within: str) -> dict:
        """Per span name: calls, self time, and calls made underneath a span
        named `within`.  Self time is the span's duration minus the time its
        child spans cover."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        target = self.name_id(within)
        child = array("d", bytes(8 * n))
        under = bytearray(n)
        for i in range(n):                   # parents precede their children
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                under[i] = under[p] or name[p] == target
        calls = [0] * len(self.names)
        calls_under = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            calls_under[k] += under[i]
            self_s[k] += end[i] - start[i] - child[i]
        return {nm: {"calls": calls[k], "self_s": self_s[k],
                     f"calls_under:{within}": calls_under[k]}
                for k, nm in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as native arrays (name, parent, op, start, end) after a
        one-line JSON header that names the span ids."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "spans": len(self.start),
                    "arrays": ["name:i", "parent:q", "op:q", "start:d", "end:d"]}
            fh.write((json.dumps(head) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
