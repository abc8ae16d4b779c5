"""Oracles for the JSON and CSV report writers of the CLI.

`cli._dump_json` must write exactly `json.dumps(obj, indent=2, sort_keys=True)`,
or raise the same error, while it encodes each container of scalars, and
each list of non-empty flat dicts, in one call to the C encoder.  The
objects drawn here nest dicts, lists and tuples; hold empty containers and
empty-dict records; use int keys; and carry NaN, infinities, ints past the
decimal-digit limit, and strings with quotes, newlines, non-ASCII text and
the very text that separates two indented records.

`cli._emit_csv` must write exactly the rows of `oracles.walk_csv`, the
recursive walk that visits one leaf at a time, while it writes each list
or tuple of exact `str` and `int` items in bulk.  The reports drawn for
it nest dicts, lists and tuples, hold empty lists, and mix ints, bools,
`None`, floats and strings with commas, quotes, newlines and bare
carriage returns, which every Python must quote alike; their keys hold
commas, quotes and newlines too.  Its quoting rule is pinned on its own,
for every code point of the Basic Multilingual Plane, against `csv.writer`
itself.
"""

import csv
import json
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity.cli import _dump_json, _emit_csv
from oracles import outcome, walk_csv

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


CSV_TEXT = st.text(max_size=6) | st.sampled_from(
    [",", '"', "\n", "x,y,z", 'a "b", c', "\r\n", "", "\r", "a\rb", "\ra\r\n"]
)
CSV_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | CSV_TEXT
CSV_KEYS = st.text('abxyz09._,"\n', max_size=4)
# Lists of only str and int, the bulk path's kind, are drawn on their own too.
CSV_LEAVES = CSV_SCALARS | st.lists(st.integers() | CSV_TEXT, max_size=6)
CSV_REPORTS = st.dictionaries(CSV_KEYS, st.recursive(
    CSV_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(CSV_KEYS, children, max_size=4)
    ),
    max_leaves=24,
), max_size=5)


@PROPERTY
@given(report=CSV_REPORTS)
@example(report={"results": {"triples": ["0,0,1", "1,1,1"], "count": 2}, "checks": []})
@example(report={"a": [1, True], "b": [None, "x"], "c": [1.5, 2], "d": ("q", 3), "e": []})
@example(report={"a": ['say "hi"', "x\ny"], "b": [[1, 2], ["3"]], "c": [{"k": 1}]})
@example(report={"big": [1, 10 ** 5000]})
@example(report={"set": "list:1\r", "values": ["a\rb", "x\r\ny", 3], "n": None})
# The bulk path's branches: every item quoted, none, some, and items that
# need more than a comma test.
@example(report={"triples": ["0,0,1", "1,1,1", "x,y,z"]})
@example(report={"plain": ["a", 1, "", "b c"]})
@example(report={"mixed": ["x,y", "z", 4, ",", ""]})
@example(report={"q": ['a"b', "x,y", 1], "r": ["c\rd", "e"], "n": ["f\ng", 2], "rn": ["h\r\ni", "j,k"]})
# Keys that need quoting, over a scalar and over a flat list.
@example(report={"a,b": 1, 'c"d': [1, "x,y"], "e": {"f,g": ["h"], 'i"': "j", "k\n": [2]}})
# 3.10's csv refuses a NUL; the writer, like 3.11 to 3.13, leaves it unquoted.
@example(report={"a\x00b": "a\x00b", "l": ["a\x00b", "c,d\x00"]})
def test_emit_csv_matches_the_recursive_walk(report):
    assert outcome(_emit_csv, report) == outcome(walk_csv, report)


def test_every_code_point_is_quoted_as_csv_writer_quotes_it():
    # Each of U+0000 to U+FFFF, alone as the key and as the value of a
    # one-row report, against the row of csv.writer with a CRLF terminator,
    # cut to a newline.  Before 3.11, csv refuses a NUL instead.
    written = []
    writer = csv.writer(SimpleNamespace(write=written.append), lineterminator="\r\n")
    mismatches = []
    for char in map(chr, range(0x10000)):
        for key, value in ((char, "v"), ("k", char)):
            got = _emit_csv({key: value})
            if char == "\x00" and sys.version_info < (3, 11):
                with pytest.raises(csv.Error):
                    writer.writerow((key, value))
                expected = f"{key},{value}\n"
            else:
                writer.writerow((key, value))
                expected = written[-1].removesuffix("\r\n") + "\n"
            if got != "key,value\n" + expected:
                mismatches.append((key, value, got))
    assert mismatches == []
