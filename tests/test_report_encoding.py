"""Oracle for the JSON report writer of the CLI.

`cli._dump_json` must write exactly `json.dumps(obj, indent=2, sort_keys=True)`,
or raise the same error, while it encodes each container of scalars, and
each list of non-empty flat dicts, in one call to the C encoder.  The
objects drawn here nest dicts, lists and tuples; hold empty containers and
empty-dict records; use int keys; and carry NaN, infinities, ints past the
decimal-digit limit, and strings with quotes, newlines, non-ASCII text and
the very text that separates two indented records.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity.cli import _dump_json
from oracles import outcome

PROPERTY = settings(max_examples=400, deadline=None)


def indented(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


TRICKY = ["},\n  {", "},\n    {", '"', "\\", "é", "日本", "\x00", "\n", "{}", "[]", "a\"b", ""]
TEXT = st.text(max_size=6) | st.sampled_from(TRICKY)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 4000, -(2 ** 9000)])
)
KEYS = TEXT | st.sampled_from(["n", "hit", "f", "detail", "name", "pass", "{", "}"])
RECORDS = st.dictionaries(KEYS, SCALARS, max_size=4)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
        | st.lists(RECORDS, max_size=4)
    )


REPORTS = st.recursive(SCALARS | RECORDS, containers, max_leaves=24)


@PROPERTY
@given(obj=REPORTS)
@example(obj={"rows": [{"n": 0, "f": "},\n    {"}, {"n": 1}], "checks": []})
@example(obj=[{}, {"a": 1}])
@example(obj={"table": [1, 2, 3], "empty": {}, "none": [None], "t": (1, (2,))})
@example(obj={1: [1, 2], 2: {"a": [3]}})
@example(obj={"big": [1, 10 ** 5000]})
@example(obj={"a": [{"x": 1}, {"y": [2]}]})
def test_dump_json_matches_indented_dumps(obj):
    assert outcome(_dump_json, obj) == outcome(indented, obj)
