"""Oracles for the bulk readers of integer data files and for the sorted view
of step-witness tables.

`codes._int_fields` reads a file object's whole text: a text of digits,
commas and newlines alone, with width - 1 commas a line, is one JSON array.
Any other text is split at newlines and runs a caller's per-line reader,
which names the first bad line or reads the `int()` literals JSON lacks.
Pinned files at each width take each side of that choice.  The per-line
loops it replaced are kept here verbatim apart from their names: the table
reader of `WeakRepTable.from_lines` (three fields a line), the `j,value`
reader of `samplers.load_table_csv` (two) and the values-file reader of
`cli._read_values` (one).  On every input the library readers must give the
same result, or a `ValueError` with the same text.

`codes._data_lines` drops blank lines in one C-level pass and tests each
line for a leading `#` only when the text holds one; the per-line generator
it replaced is kept here too.

`WeakRepTable.sorted_triples` is seeded by the constructors from the order
the rows arrive in; it must equal `sorted(table.triples)` however the table
was made.
"""

import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity import WeakRepTable, parse_manifest, table_of_program
from intdensity.cli import _read_values
from intdensity.codes import _data_lines, _int_field
from intdensity.samplers import load_table_csv
from oracles import outcome

PROPERTY = settings(max_examples=300, deadline=None)


def line_table(lines, horizon=None) -> WeakRepTable:
    triples = []
    for line in _data_lines(lines):
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"table line {line!r} must be `x,y,z`")
        triples.append(tuple(_int_field(f, line, "line") for f in fields))
    if horizon is None:
        horizon = max((z for _, _, z in triples), default=0)
    return WeakRepTable.from_triples(triples, horizon)


def line_table_csv(path) -> list[int]:
    values = []
    with open(path) as fh:
        for line in _data_lines(fh):
            row, j = line.split(","), len(values)
            if len(row) != 2 or _int_field(row[0], line, "line") != j:
                raise ValueError(f"{path}: row {j} must be `{j},<value>`")
            values.append(_int_field(row[1], line, "line"))
    return values


def line_values(path) -> list[int]:
    with open(path) as fh:
        return [_int_field(line, line, "line") for line in _data_lines(fh)]


def generator_data_lines(lines):
    return (line for line in map(str.strip, lines) if line and not line.startswith("#"))


NOISE = ["", "   ", "\t", "# note", "  # 1,2,3", "#"]
ODD_TOKENS = [
    " 4 ", "+7", "1_000", "007", "-0", "-3", "\t2", "x", "", "1.5", "1 2", "_1", "1__0",
    "0x1", "٣",
    # JSON tokens that are not int() literals: a file holding one is not read as JSON.
    "1e3", "1E-2", "2.0", "true", "false", "null", "NaN", "Infinity", "-Infinity", '"7"',
    "[]", "[1]", "[1,2]", "{}", '{"a":1}', "[", "]", "[[", "]]", "-", "\x0c5",
]
# Mostly naturals, so that whole files often parse.
TOKENS = st.one_of(
    st.integers(0, 1200).map(str), st.integers(0, 9).map(str), st.sampled_from(ODD_TOKENS)
)


@st.composite
def data_files(draw, width):
    """Data files of about `width` fields a line among blank and `#` lines.

    Wrong field counts and bad tokens are drawn at random; at width 2 most
    rows carry their own index as the key, some another one.
    """
    lines, rows = [], 0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(NOISE)))
            continue
        count = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        fields = draw(st.lists(TOKENS, min_size=count, max_size=count))
        if width == 2 and fields and draw(st.integers(0, 3)):
            fields[0] = str(rows)
        rows += 1
        lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("data") / "data.txt"


@PROPERTY
@given(text=data_files(3), horizon=st.none() | st.integers(-1, 6))
@example(text="", horizon=None)
@example(text="# only a comment\n\n", horizon=3)
@example(text="0, 1 ,+7\n1_000,0,7\n0,1,7\n", horizon=None)
@example(text="0,1,2\n0,-1,2\n", horizon=None)
@example(text="0,1,2\n0,1\n0,x,2\n", horizon=None)
@example(text="0,1,x\n0,1\n", horizon=None)
@example(text="0,1,2\n", horizon=-1)
def test_table_lines_match_the_per_line_reader(text, horizon):
    expected = outcome(line_table, io.StringIO(text), horizon, catch=ValueError)
    table = outcome(WeakRepTable.from_lines, io.StringIO(text), horizon, catch=ValueError)
    assert table == expected
    if isinstance(table, WeakRepTable):
        assert table.horizon == expected.horizon
        assert table.sorted_triples == tuple(sorted(expected.triples))


@PROPERTY
@given(text=data_files(2))
@example(text="")
@example(text="0,5\n\n# next\n1, 7\n")
@example(text="0,5\n2,7\n")
@example(text="1,x\n")
@example(text="0,1\n1\n")
@example(text="0,-4\n1,+7\n2,1_000\n")
def test_table_csv_matches_the_per_line_reader(text, data_path):
    data_path.write_text(text)
    expected = outcome(line_table_csv, data_path, catch=ValueError)
    assert outcome(load_table_csv, data_path, catch=ValueError) == expected


@PROPERTY
@given(text=data_files(1))
@example(text="")
@example(text=" 3 \n# c\n\n+7\n1_000\n-2\n")
@example(text="1,2\n")
@example(text="1\nz\n")
@example(text="1\n" + "[" * 100_000 + "\n")
@example(text="[1\n2]\n")
@example(text="1]\n[2\n")
def test_values_file_matches_the_per_line_reader(text, data_path):
    data_path.write_text(text)
    expected = outcome(line_values, data_path, catch=ValueError)
    assert outcome(_read_values, None, data_path, catch=ValueError) == expected


# Pinned files, read through real files at each width.  `ROW[width](j, last)`
# is line j of such a file, with `last` as its last field.
ROW = {
    1: lambda j, last: last,
    2: lambda j, last: f"{j},{last}",
    3: lambda j, last: f"{j},4,{last}",
}
PINNED = {
    "no final newline": lambda row: row(0, "5") + "\n" + row(1, "6"),
    "empty file": lambda row: "",
    "lone newline": lambda row: "\n",
    "crlf line ends": lambda row: row(0, "5") + "\r\n" + row(1, "6") + "\r\n",
    "form feed": lambda row: row(0, "\x0c5") + "\n",
    "leading zeros": lambda row: row(0, "007") + "\n",
    "plus sign": lambda row: row(0, "+7") + "\n",
    "underscore": lambda row: row(0, "1_000") + "\n",
    "negative": lambda row: row(0, "-1") + "\n",
    "empty field": lambda row: "0,,1\n",
    "blank line": lambda row: row(0, "5") + "\n\n" + row(1, "6") + "\n",
    "comment line": lambda row: row(0, "5") + "\n# note\n" + row(1, "6") + "\n",
    "one comma too many": lambda row: row(0, "5") + "\n" + row(1, "6") + ",7\n",
}


def opened(read):
    def read_path(path):
        with open(path) as fh:
            return read(fh)
    return read_path


READERS = {  # width -> (library reader, per-line oracle), each of a path
    1: (lambda path: _read_values(None, path), line_values),
    2: (load_table_csv, line_table_csv),
    3: (opened(WeakRepTable.from_lines), opened(line_table)),
}


@pytest.mark.parametrize("width", sorted(READERS))
@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_files_match_the_per_line_reader(case, width, tmp_path):
    text = PINNED[case](ROW[width])
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode())
    read, oracle = READERS[width]
    expected = outcome(oracle, path, catch=ValueError)
    assert outcome(read, path, catch=ValueError) == expected
    if width == 3:  # and from a text, or a file object that keeps "\r"
        assert outcome(WeakRepTable.from_lines, text, catch=ValueError) == expected
        in_memory = outcome(line_table, io.StringIO(text), catch=ValueError)
        assert outcome(WeakRepTable.from_lines, io.StringIO(text), catch=ValueError) == in_memory


# Blank lines, `#` lines, indented `#` lines and a `#` in mid-line.
LINE_PIECES = ["", "   ", "\t", "#", "# note", "  # 1,2,3", "\t#x", "0,1,2", "0,1 # 2", "a#b", " 7 "]


@PROPERTY
@given(
    lines=st.lists(st.sampled_from(LINE_PIECES) | st.text(" \t\r#,01x", max_size=6), max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
)
@example(lines=["0,1", "2"], newline="\n", last=True)
@example(lines=["  # c", "", "0 # 1"], newline="\n", last=False)
def test_data_lines_match_the_per_line_generator(lines, newline, last):
    text = newline.join(lines) + (newline if last else "")
    expected = list(generator_data_lines(io.StringIO(text)))
    assert _data_lines(io.StringIO(text)) == expected
    assert _data_lines(lines) == list(generator_data_lines(lines))


# -- the sorted view ---------------------------------------------------------


@PROPERTY
@given(
    triples=st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=30),
    horizon=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
def test_sorted_view_of_every_constructor(triples, horizon, seed):
    rng = random.Random(seed)
    shuffled = rng.sample(triples, len(triples))
    repeated = shuffled + rng.choices(triples, k=len(triples) // 2)
    rng.shuffle(repeated)

    def lines(rows):
        return [f"{x},{y},{z}\n" for x, y, z in rows]

    bare = WeakRepTable(frozenset(triples), horizon)
    tables = [
        WeakRepTable.from_lines(lines(sorted(triples)), horizon),
        WeakRepTable.from_lines(lines(shuffled), horizon),
        WeakRepTable.from_lines(lines(repeated), horizon),
        WeakRepTable.from_triples(repeated, horizon),
        bare,
    ]
    for table in tables:
        assert table == bare and hash(table) == hash(bare)
        assert table.sorted_triples == tuple(sorted(table.triples))
        assert table.to_lines() == "".join(lines(sorted(set(triples))))


@pytest.mark.parametrize("spec", ["identity", "double", "ramp", "slowid:3", "zeroonly", "diverge"])
@pytest.mark.parametrize("horizon", [0, 1, 5])
def test_sorted_view_of_program_tables(spec, horizon):
    table = table_of_program(parse_manifest([spec], 4), 0, horizon)
    assert table.sorted_triples == tuple(sorted(table.triples))
    assert table == WeakRepTable.from_triples(table.triples, horizon)
