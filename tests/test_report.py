import json

from hypothesis import given, settings, strategies as st

from juliadim.report import to_json

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(st.characters(), max_size=8)
           | st.sampled_from(['"', "\\", "\n", 'a "q" b', "x\ny", "é", "☃", "\U0001d11e"]))
KEYS = st.text(st.characters(), max_size=6) | st.sampled_from(['"k"', "a\nb", "ü"])

DOCS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(KEYS, inner, max_size=5)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_to_json_equals_json_dumps(doc):
    assert to_json(doc) == json.dumps(doc, sort_keys=True, indent=1)


def test_to_json_rows_and_empty_containers():
    rows = [{"name": "a", "index": None, "pass": True, "lhs": "1", "rhs": "2"},
            {"name": "b\n\"c\"", "index": 3, "pass": False, "lhs": "-7", "rhs": "1/2",
             "note": "ünï"}]
    docs = [{"rows": rows, "empty": [{}, [], [[]], {"x": {}}],
             "table": [[1, 2.5, -0.0], []], "t": (1, "2")},
            {1: {"a": [1]}, 2: [], 3: "x"}, {}, [], {"a": 1}, [None], 5, "s\n", 1e300]
    for doc in docs:
        assert to_json(doc) == json.dumps(doc, sort_keys=True, indent=1)
