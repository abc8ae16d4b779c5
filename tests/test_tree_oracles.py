"""Oracles for the fast paths of tree decoding and stream rendering.

Each fast path is compared with the definition-level version it replaced,
kept here: the per-child `startswith` scan of `build_prefix_tree`, the
tuple-membership closure check of `PrefixTree`, the per-bit join of
`SetStream.prefix`, the zero-padded `string_decode` and the per-character
bit-string check.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity import (
    PrefixTree,
    Sampler,
    SetStream,
    build_prefix_tree,
    prefix_code_sampler,
    string_code,
    string_decode,
)
from intdensity.codes import _check_bits
from intdensity.samplers import eval_sampler
from intdensity.streams import _Buffered

PROPERTY = settings(max_examples=80, deadline=None)


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


# -- build_prefix_tree ------------------------------------------------------


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


@PROPERTY
@given(case=table_samplers())
def test_tree_matches_scan_on_tables(case):
    sampler, q, full_height, depth = case
    tree = build_prefix_tree(sampler, q, full_height, depth)
    assert tree.levels == scan_levels(sampler, q, full_height, depth)


@PROPERTY
@given(
    seed=st.integers(0, 2**64 - 1),
    num=st.integers(0, 4),
    q=st.integers(1, 3),
    full_height=st.integers(0, 4),
    depth=st.integers(0, 12),
)
def test_tree_matches_scan_on_prefix_codes(seed, num, q, full_height, depth):
    stream = SetStream.from_spec(f"seed:{seed}:p={num}/4", 2 * q * depth)
    sampler = prefix_code_sampler(stream, 2 * q * depth)
    tree = build_prefix_tree(sampler, q, full_height, depth)
    assert tree.levels == scan_levels(sampler, q, full_height, depth)


@st.composite
def tree_levels(draw):
    """Levels of the right widths whose strings may or may not be prefix-closed."""
    q = draw(st.integers(1, 2))
    full_height = draw(st.integers(0, 2))
    depth = draw(st.integers(0, 6))
    levels = [("",)]
    for height in range(1, depth + 1):
        if height <= full_height:
            levels.append(tuple(s + b for s in levels[-1] for b in "01"))
        else:
            strings = st.text("01", min_size=height, max_size=height)
            levels.append(tuple(draw(st.lists(strings, max_size=2 * q, unique=True))))
    return q, full_height, depth, tuple(levels)


@PROPERTY
@given(case=tree_levels())
def test_tree_closure_check_matches_tuple_membership(case):
    q, full_height, depth, levels = case
    closed = all(
        s[:-1] in levels[height - 1] for height in range(1, depth + 1) for s in levels[height]
    )
    if closed:
        PrefixTree(q, full_height, depth, levels)
    else:
        with pytest.raises(ValueError, match="not prefix-closed"):
            PrefixTree(q, full_height, depth, levels)


# -- SetStream.prefix ---------------------------------------------------------

HORIZON = 3000


def per_bit_prefix(stream, n):
    return "".join("1" if stream.bit(i) else "0" for i in range(n))


def _file_spec(tmp_path):
    rng = random.Random(17)
    bits = "".join(rng.choice("01") for _ in range(HORIZON))
    lines = "\n".join(bits[i : i + 70] + " " * (i % 3) for i in range(0, HORIZON, 70))
    path = tmp_path / "bits.txt"
    path.write_text(lines + "\n")
    return f"file:{path}"


STREAMS = {
    "seed": lambda tmp: SetStream.from_spec("seed:3:p=2/7", HORIZON),
    "seed-half": lambda tmp: SetStream.from_spec("seed:8", HORIZON),
    "file": lambda tmp: SetStream.from_spec(_file_spec(tmp)),
    "list": lambda tmp: SetStream.from_spec("list:0,5,6,1023,1024,2999,4000", HORIZON),
    "members": lambda tmp: SetStream.from_members(range(0, 5000, 7), HORIZON),
    "evens": lambda tmp: SetStream.from_spec("evens", HORIZON),
    "odds": lambda tmp: SetStream.from_spec("odds", HORIZON),
    "full": lambda tmp: SetStream.from_spec("full", HORIZON),
    "empty": lambda tmp: SetStream.from_spec("empty", HORIZON),
    "complement": lambda tmp: SetStream.from_spec("seed:5:p=1/3", HORIZON).complement(),
    "function": lambda tmp: SetStream.from_function(lambda i: i % 3 == 1 or i % 11 == 0, HORIZON, "f"),
}

LENGTHS = [0, 1, 7, 1023, 1024, 1025, 2048, 2500, HORIZON]


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_prefix_matches_per_bit_join(kind, tmp_path):
    fast, slow = STREAMS[kind](tmp_path), STREAMS[kind](tmp_path)
    assert fast.horizon == HORIZON
    for n in LENGTHS:
        assert fast.prefix(n) == per_bit_prefix(slow, n)
    # a fresh stream rendered once past the first fill
    assert STREAMS[kind](tmp_path).prefix(1500) == per_bit_prefix(slow, 1500)


def test_bulk_rendering_makes_no_per_bit_calls(monkeypatch):
    calls = [0]
    per_bit = _Buffered.bit

    def counted(self, index):
        calls[0] += 1
        return per_bit(self, index)

    monkeypatch.setattr(_Buffered, "bit", counted)
    stream = SetStream.from_spec("seed:9", 10_000)
    bits = stream.prefix(10_000)
    assert calls[0] == 0
    assert bits == per_bit_prefix(SetStream.from_spec("seed:9", 10_000), 10_000)


# -- string_decode and _check_bits ---------------------------------------------


@PROPERTY
@given(code=st.integers(0, 2**300) | st.integers(0, 70))
def test_string_decode_matches_zero_padded_value(code):
    length = (code + 1).bit_length() - 1
    value = code + 1 - (1 << length)
    assert string_decode(code) == (format(value, "b").zfill(length) if length else "")


@PROPERTY
@given(bits=st.text(alphabet=st.sampled_from("01 \t\n2_٠١０１x")) | st.text())
@example(bits="")
@example(bits=" ")
@example(bits="0 1")
@example(bits="2")
@example(bits="１")
@example(bits="01١")
@example(bits="\n01")
def test_check_bits_matches_per_character_rule(bits):
    if all(c in "01" for c in bits):
        assert _check_bits(bits) == bits
    else:
        with pytest.raises(ValueError) as err:
            _check_bits(bits)
        assert str(err.value) == f"bits must be a string over {{0,1}}, got {bits!r}"


@pytest.mark.parametrize("value", [None, b"01", 1, ["0", "1"]])
def test_check_bits_rejects_non_strings(value):
    with pytest.raises(ValueError):
        _check_bits(value)
