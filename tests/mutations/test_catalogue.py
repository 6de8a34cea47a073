"""Every catalogued mutation still applies and names tests that exist."""

import ast
import re
from pathlib import Path

from catalogue import MUTATIONS

ROOT = Path(__file__).resolve().parents[2]


def _test_names(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("test_")}


def test_every_mutation_applies_and_names_existing_tests():
    names = {}
    assert len({m.name for m in MUTATIONS}) == len(MUTATIONS)
    for m in MUTATIONS:
        text = (ROOT / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.killed_by, m.name
        for test in m.killed_by:
            file, _, func = test.partition("::")
            func = re.sub(r"\[.*\]$", "", func)
            if file not in names:
                names[file] = _test_names(ROOT / file)
            assert func in names[file], (m.name, test)
