"""Every function, class and method of src/juliadim must feed something that
non-test code runs: the package itself, `scripts/` or `perfbench/`.

The scan parses each file with `ast` and follows uses from the roots: all
of `scripts/` and `perfbench/`, and the module-level code of src.  A use is
an identifier as a name, an attribute or a part of a dotted string constant
(the form `perfbench/tracing.TRACED` uses).  A function or class is reached
when a reached body uses its bare name in any of these forms; a method only
through an attribute (`x.name`) or a dotted string, since a local variable
of the same name does not call it.  The scan errs towards keeping a name.
Dunder methods are not checked: Python calls them, and they run with their
class.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names that only tests reach, kept because an acceptance criterion rests on
# them: name -> the test in tests/test_acceptance.py that reaches it
ACCEPTANCE_NAMED = {
    "dilatation_integral": "test_criterion_7_dilatation",
    "DilatationIntegral": "test_criterion_7_dilatation",
    "dilatation_onset": "test_criterion_7_dilatation",
    "below_one": "test_criterion_7_dilatation",
    "ratio": "test_criterion_7_dilatation",
    "crit_point": "test_criterion_4_polynomial_landmarks",
    "crit_value": "test_criterion_4_polynomial_landmarks",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node, skip=()):
    """Identifiers used under node, not descending into the nodes in skip,
    as a set of (identifier, how): "name" for a bare name, "attr" for an
    attribute or a part of a dotted string constant."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add((n.id, "name"))
        elif isinstance(n, ast.Attribute):
            out.add((n.attr, "attr"))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update((part, "attr") for part in n.value.split(".") if part.isidentifier())
        stack.extend(c for c in ast.iter_child_nodes(n) if c not in skip)
    return out


def _definitions(tree):
    """(qualified name, identifiers its body uses) of each top-level function
    or class and each non-dunder method of a top-level class.  A class's own
    uses include those of its dunder methods, which run with it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, _names(node)
        elif isinstance(node, ast.ClassDef):
            methods = [m for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not _is_dunder(m.name)]
            yield node.name, _names(node, skip=methods)
            for m in methods:
                yield f"{node.name}.{m.name}", _names(m)


@functools.lru_cache(maxsize=None)
def _scan(root: Path):
    """(definitions as (module.qualname, bare name, whether it is a method,
    uses), the uses of the roots: `scripts/`, `perfbench/` and the
    module-level code of src)."""
    src = sorted((root / "src" / "juliadim").glob("*.py"))
    others = sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    defs, seen = [], set()
    for p in src + others:
        tree = ast.parse(p.read_text(), str(p))
        if p in others:
            seen |= _names(tree)
            continue
        tops = [n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        seen |= _names(tree, skip=tops)
        defs += [(f"{p.stem}.{q}", q.rsplit(".", 1)[-1], "." in q, uses)
                 for q, uses in _definitions(tree)]
    return defs, frozenset(seen)


def unreached(root: Path = ROOT, extra=frozenset()) -> list:
    """Qualified names of the src definitions that the roots do not reach,
    with the uses in extra counted as roots too."""
    defs, seen = _scan(root)
    seen = set(seen | extra)
    live = set()
    grown = True
    while grown:
        grown = False
        for qual, name, method, uses in defs:
            if qual not in live and ((name, "attr") in seen
                                     or not method and (name, "name") in seen):
                live.add(qual)
                seen |= uses
                grown = True
    return [qual for qual, *_ in defs if qual not in live]


def _bare(quals) -> set:
    return {q.rsplit(".", 1)[-1] for q in quals}


def test_every_src_name_is_reached_outside_tests():
    extra = [q for q in unreached() if q.rsplit(".", 1)[-1] not in ACCEPTANCE_NAMED]
    assert not extra, f"reached only from tests: {extra}"


def test_allowlist_names_only_what_its_acceptance_test_reaches():
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tests = {n.name: frozenset(_names(n)) for n in acceptance.body
             if isinstance(n, ast.FunctionDef)}
    stale = set(ACCEPTANCE_NAMED) - _bare(unreached())
    assert not stale, f"reached outside tests, drop from the allowlist: {stale}"
    for name, test in ACCEPTANCE_NAMED.items():
        assert name not in _bare(unreached(extra=tests[test])), f"{test} does not reach {name}"
