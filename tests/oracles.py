"""Definition-level oracles and Hypothesis strategies that several test modules share.

Each fast path has one oracle, computed from the definition: one evaluation,
one string or one bit at a time.  An oracle or strategy that one module uses
lives in that module; the ones here serve more than one.  `outcome` turns a
call into its result or its error, so that a fast path and its oracle are
compared with one `==`, errors included.
"""

import csv
import io
import sys
from itertools import compress, count, islice
from math import factorial

from hypothesis import strategies as st

from intdensity import Sampler, cantor_pair, eval_sampler, string_code, string_decode


def outcome(fn, *args, catch=Exception):
    """`fn(*args)`, or the type, text and attributes of the error it raises.

    Only errors of the `catch` types are turned into values; any other error
    propagates and fails the test.  The attributes carry witnesses such as a
    `PrefixInconsistencyError`'s position and codes.
    """
    try:
        return fn(*args)
    except catch as exc:
        return type(exc), str(exc), vars(exc)


# -- oracles -------------------------------------------------------------------


def scan_levels(sampler, q, full_height, depth):
    """The tree's levels by rescanning every decoded string for every child."""
    levels = [("",)]
    for height in range(1, min(full_height, depth) + 1):
        levels.append(tuple(s + b for s in levels[-1] for b in "01"))
    decoded = []
    for height in range(full_height + 1, depth + 1):
        while len(decoded) < 2 * q * height:
            decoded.append(string_decode(eval_sampler(sampler, len(decoded))))
        kept = []
        for parent in levels[height - 1]:
            for child in (parent + "0", parent + "1"):
                if sum(1 for tau in decoded if tau.startswith(child)) >= height:
                    kept.append(child)
        levels.append(tuple(kept))
    return tuple(levels)


def loop_adversary_rows(f_values, sampler, q, nmax):
    """`adversary_rows` by its definition, one evaluation at a time."""
    if nmax >= 0 and q < 1:
        raise ValueError("q must be >= 1")
    first = {}
    top, rows, evaluated = -1, [], 0
    for n in range(nmax + 1):
        stop = (n + 1) * q
        while evaluated <= stop:
            value = eval_sampler(sampler, evaluated)
            first.setdefault(value, evaluated)
            top, evaluated = max(top, value), evaluated + 1
        rows.append((1 + top, first.get(f_values[n], stop) < stop))
    return rows


def loop_wct_blocks(masks):
    """The wct injection's values on each block, one input at a time.

    `masks[n - 1]` is the guess for block n as 0/1 bytes.  Input j of block
    n takes the position of the guess's j-th one (j global, 0-indexed) if
    that one exists and its position is not taken yet, and the least value
    not taken yet otherwise.
    """
    assigned = bytearray(max([factorial(len(masks))] + [len(mask) for mask in masks]))
    blocks, next_free = [], 0
    for n, mask in enumerate(masks, 1):
        low, high = factorial(n - 1) if n > 1 else 0, factorial(n)
        preferred = list(islice(compress(count(), mask), low, high))
        values = []
        for value in preferred + [None] * (high - low - len(preferred)):
            if value is None or assigned[value]:
                value = next_free = assigned.index(0, next_free)
            assigned[value] = 1
            values.append(value)
        blocks.append(values)
    return blocks


def walk_csv(report) -> str:
    """`cli._emit_csv` by its definition: one `key,value` row per leaf, walked one item at a time.

    Each row is written by `csv.writer` with a CRLF terminator, so that
    every Python quotes a field holding a carriage return, and the
    terminator is then cut to a newline.  Before 3.11, `csv` refuses to
    write a NUL unescaped, so there a row holding one is written with a
    stand-in character absent from the row, mapped back afterwards.
    """
    rows = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{path}.{key}" if path else str(key))
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}.{i}")
        else:
            rows.append((path, "" if obj is None else str(obj)))

    walk(report, "")
    lines = []
    for row in [("key", "value"), *rows]:
        text = "".join(row)
        nul = sys.version_info < (3, 11) and "\x00" in text
        if nul:
            stand_in = next(c for c in map(chr, count(0xE000)) if c not in text)
            row = [field.replace("\x00", stand_in) for field in row]
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        line = out.getvalue().removesuffix("\r\n")
        lines.append((line.replace(stand_in, "\x00") if nul else line) + "\n")
    return "".join(lines)


# -- strategies ----------------------------------------------------------------


@st.composite
def table_samplers(draw):
    """(sampler, q, full_height, depth) for a table of distinct codes.

    The codes mix random naturals with codes of the prefixes of one random
    string and of their one-bit flips, so that deep levels survive too.
    """
    q = draw(st.integers(1, 3))
    full_height = draw(st.integers(0, 4))
    depth = draw(st.integers(0, 12))
    need = 2 * q * depth
    base = draw(st.text("01", min_size=depth, max_size=depth))
    near = [string_code(base[:k]) for k in range(depth + 1)]
    near += [string_code(base[: k - 1] + "10"[int(base[k - 1])]) for k in range(1, depth + 1)]
    codes = draw(
        st.lists(
            st.one_of(st.sampled_from(near), st.integers(0, 4 * need + (2 << depth))),
            min_size=need,
            max_size=need,
            unique=True,
        )
    )
    return Sampler.from_table(codes, "injection"), q, full_height, depth


@st.composite
def adversary_samplers(draw):
    """A tree-test table, a table of pair codes <a, b> with small a and b, or a builtin."""
    kind = draw(st.sampled_from(["tree-table", "pair-table", "builtin"]))
    if kind == "tree-table":
        return draw(table_samplers())[0]
    if kind == "pair-table":  # <a, b> near input a, so that many inputs are hits
        seconds = st.lists(st.lists(st.integers(0, 3), max_size=3, unique=True), max_size=14)
        codes = [cantor_pair(a, b) for a, bs in enumerate(draw(seconds)) for b in bs]
        return Sampler.from_table(codes, "injection")
    k = draw(st.integers(0, 5))
    return draw(st.sampled_from(
        [Sampler.identity(), Sampler.double(), Sampler.shift(k), Sampler.swapblocks(k + 1)]
    ))


@st.composite
def pair_values(draw, min_size=0):
    """Distinct naturals from 2 on, with a bad value at a drawn position half the time."""
    values = draw(st.lists(st.integers(2, 300), min_size=min_size, max_size=30, unique=True))
    if values and draw(st.booleans()):
        bad = st.sampled_from([-1, -40, True, False, 0.0, 2.5])
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    return values
