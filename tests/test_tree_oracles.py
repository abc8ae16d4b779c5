"""Oracles for the fast paths of tree decoding and of the stream backends.

Each fast path is compared with its definition-level version: the per-child
`startswith` scan for `build_prefix_tree` (`scan_levels`, shared through
`oracles.py`, which also checks the first level past a tall full tree), the
tuple-membership closure check of `PrefixTree`, the per-bit join of
`SetStream.prefix`, the per-bit `gather`, `count_below`, `prefix` and
`members_below` loops of the stream backends (each query is derived from one
bulk `gather`), a select from bit 0 for every `kth_one`, the zero-padded
`string_decode`, the per-character bit-string check, the membership closures
of `graph_set` and `image_set`, the per-character membership rule of
`prefix_set`, the per-index `splitmix64` definition of seeded bits and the
strided one-byte-per-lane readout of `_pack`,
per-checkpoint `preimage_partial_density` for `preimage_hits`, the `dom`
report built from the adversary rows one evaluation at a time, and
per-element `cantor_pair` calls for `graph_members`.
"""

import random
from argparse import Namespace
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import compress, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from intdensity import (
    DomainError,
    HorizonError,
    InsufficientElementsError,
    PrefixTree,
    Sampler,
    SetStream,
    build_prefix_tree,
    cantor_pair,
    cantor_unpair,
    density_profile,
    graph_members,
    graph_set,
    hit_indices,
    image_set,
    prefix_code_sampler,
    preimage_hits,
    preimage_partial_density,
    prefix_set,
    principal_function,
    splitmix64,
    string_code,
    string_decode,
)
from intdensity import cli, streams
from intdensity.codes import _check_bits
from intdensity.samplers import eval_sampler
from intdensity.streams import _CHUNK, _Buffered, _Members, _Periodic, _SeededBits
from oracles import (
    adversary_samplers,
    loop_adversary_rows,
    outcome,
    pair_values,
    scan_levels,
    table_samplers,
)

PROPERTY = settings(max_examples=80, deadline=None)


# -- build_prefix_tree ------------------------------------------------------


@PROPERTY
@given(case=table_samplers())
def test_tree_matches_scan_on_tables(case):
    sampler, q, full_height, depth = case
    tree = build_prefix_tree(sampler, q, full_height, depth)
    assert tree.levels == scan_levels(sampler, q, full_height, depth)


@st.composite
def tall_tree_samplers(draw):
    """(sampler, q, full_height, depth): full height 8 to 10, depth 1 to 3 past it,
    and fewer codes than the full level has strings.

    The codes mix random naturals with codes of strings that share a long
    prefix with one of a few random stems, so that some parents keep children.
    """
    q = draw(st.integers(1, 3))
    full_height = draw(st.integers(8, 10))
    depth = full_height + draw(st.integers(1, 3))
    stems = draw(st.lists(st.text("01", min_size=depth, max_size=depth), min_size=1, max_size=3))
    near = st.builds(lambda stem, cut, tail: string_code(stem[:cut] + tail),
                     st.sampled_from(stems), st.integers(full_height + 1, depth),
                     st.text("01", max_size=4))
    codes = st.one_of(near, near, near, st.integers(0, 4 << depth))
    need = 2 * q * depth
    return (Sampler.from_table(draw(st.lists(codes, min_size=need, max_size=need, unique=True)),
                               "injection"), q, full_height, depth)


@settings(max_examples=20, deadline=None)
@given(case=tall_tree_samplers())
def test_tree_past_a_tall_full_tree_matches_scan(case):
    sampler, q, full_height, depth = case
    assert 2 * q * depth < 1 << full_height
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


# -- prefix_code_sampler ------------------------------------------------------

# The sampler cuts each code from one rendering, which doubles when an input
# reaches past it; every input must still give the code of its own prefix, and
# an input past the horizon the stream's own error.
PREFIX_CODE_SPECS = ["seed:4", "seed:6:p=1/5", "evens", "list:0,3,4,9,64,200", "empty"]


@pytest.mark.parametrize("spec", PREFIX_CODE_SPECS)
@settings(max_examples=25, deadline=None)
@given(horizon=st.integers(0, 300), data=st.data())
def test_prefix_codes_in_any_order_match_their_prefixes(spec, horizon, data):
    fresh = SetStream.from_spec(spec, horizon)
    inputs = data.draw(st.lists(st.integers(0, horizon), max_size=30))
    for order in (inputs, sorted(inputs, reverse=True), inputs + inputs):
        sampler = prefix_code_sampler(SetStream.from_spec(spec, horizon), horizon + 1)
        codes = [eval_sampler(sampler, k) for k in order]
        assert codes == [string_code(fresh.prefix(k)) for k in order]


@pytest.mark.parametrize("spec", PREFIX_CODE_SPECS)
def test_prefix_codes_at_the_ends_and_past_the_horizon(spec):
    horizon = _CHUNK + 3
    fresh = SetStream.from_spec(spec, horizon)
    for order in ([0, 1, horizon, horizon + 1], [horizon + 1, horizon, 1, 0], [1, horizon + 1]):
        sampler = prefix_code_sampler(SetStream.from_spec(spec, horizon), horizon + 2)
        for k in order:
            expected = outcome(lambda: string_code(fresh.prefix(k)))
            assert outcome(eval_sampler, sampler, k) == expected, (order, k)
    assert expected == (HorizonError, f"prefix length {horizon + 1} outside [0, {horizon}]", {})


def test_prefix_codes_render_only_what_the_inputs_reach(monkeypatch):
    lengths = []
    prefix = SetStream.prefix

    def recorded(self, n):
        lengths.append(n)
        return prefix(self, n)

    monkeypatch.setattr(SetStream, "prefix", recorded)
    sampler = prefix_code_sampler(SetStream.from_spec("seed:3", 10**12), 10**12)
    eval_sampler(sampler, 10)
    assert sum(lengths) <= 64
    # Inputs read in order are served by renderings that double.
    sampler.prefix(5000)
    assert sum(lengths) < 4 * 5000

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


def closure_graph_set(values, horizon, stream_horizon=None):
    """The graph as a membership rule: decode a code and compare with the table."""
    if horizon < 0 or horizon > len(values):
        raise ValueError("function table does not cover [0, horizon)")
    table = tuple(values[:horizon])
    if stream_horizon is None:
        stream_horizon = 1 + max(
            (cantor_pair(n, table[n]) for n in range(horizon)), default=0
        )

    def member(code):
        m, y = cantor_unpair(code)
        return int(m < horizon and table[m] == y)

    return SetStream.from_function(member, stream_horizon, f"graph[{horizon}]")


def closure_image_set(f_values):
    """The image of an increasing table as a membership rule by binary search."""
    values = list(f_values)

    def member(n):
        pos = bisect_left(values, n)
        return int(pos < len(values) and values[pos] == n)

    return SetStream.from_function(member, values[-1] + 1, f"image[{len(values)}]")


def select_from_bit_zero(buf, k, bound):
    """Position of the k-th one below bound by one select over [0, bound)."""
    return next(islice(compress(range(bound), buf), k, None), None)


def per_character_prefix_member(stream, code):
    """Whether the decoded code agrees with the stream bit by bit."""
    sigma = string_decode(code)
    return int(all(stream.bit(i) == int(c) for i, c in enumerate(sigma)))


GRAPH_VALUES = [(7 * n) % 13 for n in range(70)]  # the last codes lie past HORIZON
IMAGE_VALUES = [n * n for n in range(54)] + [HORIZON - 1]

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
    "graph": lambda tmp: graph_set(GRAPH_VALUES, len(GRAPH_VALUES), stream_horizon=HORIZON),
    "image": lambda tmp: image_set(IMAGE_VALUES),
}

# Definition-level versions of the streams that have one; every other kind
# is its own per-bit reference.
REFERENCES = {
    "graph": lambda tmp: closure_graph_set(GRAPH_VALUES, len(GRAPH_VALUES), HORIZON),
    "image": lambda tmp: closure_image_set(IMAGE_VALUES),
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


BULK_RENDERED = [
    (_Buffered, lambda: SetStream.from_spec("seed:9", 10_000)),
    (_Members, lambda: SetStream.from_spec("list:1,5,77,2000,9999", 10_000)),
    (_Members, lambda: SetStream.from_members(range(3, 10_000, 4), 10_000)),
    (_Periodic, lambda: SetStream.from_spec("evens", 10_000)),
    (_Periodic, lambda: SetStream.from_spec("odds", 10_000)),
    (_Periodic, lambda: SetStream.from_spec("full", 10_000)),
]


def test_bulk_rendering_makes_no_per_bit_calls(monkeypatch):
    for backend, make in BULK_RENDERED:
        calls = [0]
        per_bit = backend.bit

        def counted(self, index, per_bit=per_bit):
            calls[0] += 1
            return per_bit(self, index)

        monkeypatch.setattr(backend, "bit", counted)
        bits = make().prefix(10_000)
        monkeypatch.undo()
        assert calls[0] == 0, backend
        assert bits == per_bit_prefix(make(), 10_000)


# -- bulk queries of every backend ---------------------------------------------


# The per-bit loops that every backend ran before its queries were derived
# from one bulk `gather`; its `prefix` loop is `per_bit_prefix` above, and a
# k-th one is `select_from_bit_zero` over the per-bit gather.


def per_bit_gather(backend, indices, bound):
    return bytes(map(backend.bit, indices))


def per_bit_count_below(backend, n):
    return sum(backend.bit(i) for i in range(n))


def per_bit_members_below(backend, n):
    return [i for i in range(n) if backend.bit(i)]


PERIODIC = {"evens", "odds", "full"}
FAR = 10**12


@pytest.mark.parametrize("kind", sorted(STREAMS))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, HORIZON), k=st.integers(0, HORIZON), data=st.data())
def test_backend_queries_match_the_per_bit_loops(kind, stream_dir, n, k, data):
    fast, slow = STREAMS[kind](stream_dir)._backend, STREAMS[kind](stream_dir)._backend
    assert fast.count_below(n) == per_bit_count_below(slow, n)
    assert fast.prefix(n) == per_bit_prefix(slow, n)
    assert fast.members_below(n) == per_bit_members_below(slow, n)
    assert fast.kth_one(k, n) == select_from_bit_zero(per_bit_gather(slow, range(n), n), k, n)
    # A window [start, stop), read whole, by a step, and at listed indices;
    # periodic streams are read far out, where a per-bit loop from 0 cannot go.
    start = data.draw(st.integers(0, FAR if kind in PERIODIC else HORIZON))
    stop = data.draw(st.integers(start, start + 3 * _CHUNK if kind in PERIODIC else HORIZON))
    for step in (1, data.draw(st.integers(2, 5))):
        window = range(start, stop, step)
        assert fast.gather(window, stop) == per_bit_gather(slow, window, stop)
    listed = data.draw(st.lists(st.integers(start, stop - 1), max_size=30)) if stop > start else []
    bound = max(listed, default=0) + 1
    assert fast.gather(listed, bound) == per_bit_gather(slow, listed, bound)
    # Counts and selections inside the window, against the per-bit window.
    bits = per_bit_gather(slow, range(start, stop), stop)
    before = fast.count_below(start)
    assert fast.count_below(stop) - before == bits.count(1)
    j = data.draw(st.integers(0, len(bits)))
    expected = select_from_bit_zero(bits, j, len(bits))
    assert fast.kth_one(before + j, stop) == (None if expected is None else start + expected)


def assert_same_queries(fast, slow, n, k):
    """Compare every query of two streams, with the slow one read bit by bit."""
    assert (fast.horizon, fast.label) == (slow.horizon, slow.label)
    bits = [slow.bit(i) for i in range(slow.horizon)]
    members = [i for i, b in enumerate(bits) if b]
    below = [i for i in members if i < n]
    assert [fast.bit(i) for i in range(fast.horizon)] == bits
    assert fast.members_below(n) == below
    assert fast.count_below(n) == len(below)
    assert fast.prefix(n) == per_bit_prefix(slow, n)
    if k < len(members):
        assert principal_function(fast, k) == members[k]
    else:
        with pytest.raises(InsufficientElementsError):
            principal_function(fast, k)


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("streams")


@pytest.mark.parametrize("kind", sorted(STREAMS))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, HORIZON), k=st.integers(0, HORIZON))
def test_bulk_queries_match_the_reference(kind, stream_dir, n, k):
    reference = REFERENCES.get(kind, STREAMS[kind])
    assert_same_queries(STREAMS[kind](stream_dir), reference(stream_dir), n, k)


@st.composite
def graph_tables(draw):
    """(values, horizon, stream_horizon or None) for a small function table."""
    values = draw(st.lists(st.integers(0, 20), max_size=15))
    horizon = draw(st.integers(0, len(values)))
    stream_horizon = draw(st.none() | st.integers(0, 600))
    return values, horizon, stream_horizon


@PROPERTY
@given(case=graph_tables(), data=st.data())
def test_graph_set_matches_the_closure(case, data):
    fast, slow = graph_set(*case), closure_graph_set(*case)
    n = data.draw(st.integers(0, slow.horizon))
    assert_same_queries(fast, slow, n, data.draw(st.integers(0, len(case[0]) + 1)))


@PROPERTY
@given(values=st.sets(st.integers(0, 500), min_size=1), data=st.data())
def test_image_set_matches_the_closure(values, data):
    ordered = sorted(values)
    fast, slow = image_set(ordered), closure_image_set(ordered)
    n = data.draw(st.integers(0, slow.horizon))
    assert_same_queries(fast, slow, n, data.draw(st.integers(0, len(values) + 1)))


def test_graph_set_refuses_a_short_table():
    with pytest.raises(ValueError, match="does not cover"):
        graph_set([1, 2], 3)


@PROPERTY
@given(bits=st.lists(st.integers(0, 1), max_size=400), data=st.data())
def test_buffered_kth_one_matches_the_select(bits, data):
    buf = bytearray(bits)
    bound = data.draw(st.integers(0, len(bits)))
    k = data.draw(st.integers(0, bound + 1))
    assert _Buffered(buf).kth_one(k, bound) == select_from_bit_zero(buf, k, bound)


@pytest.fixture(scope="module")
def bits_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bits") / "bits.txt"


@pytest.mark.parametrize("length", [_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 37, 3 * _CHUNK - 5])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), run=st.integers(0, 2 * _CHUNK), data=st.data())
def test_file_kth_one_at_the_last_one_and_past_it(bits_path, length, seed, run, data):
    # Random bits after a zero run that may cover whole chunks.
    rng = random.Random(seed)
    bits = [0] * min(run, length) + [rng.getrandbits(1) for _ in range(length - run)]
    bits_path.write_text("".join(map(str, bits)))
    stream = SetStream.from_spec(f"file:{bits_path}")
    buf, ones = bytearray(bits), sum(bits)
    for k in [ones - 1, data.draw(st.integers(0, ones - 1))] if ones else []:
        assert principal_function(stream, k) == select_from_bit_zero(buf, k, length)
    with pytest.raises(InsufficientElementsError):
        principal_function(stream, ones)


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), num=st.integers(0, 4), data=st.data())
def test_seeded_kth_one_matches_the_select(seed, num, data):
    horizon = data.draw(st.integers(0, 3000))
    stream = SetStream.from_spec(f"seed:{seed}:p={num}/4", horizon)
    k = data.draw(st.integers(0, horizon))
    expected = select_from_bit_zero(bytearray(map(int, stream.prefix(horizon))), k, horizon)
    if expected is None:
        with pytest.raises(InsufficientElementsError):
            principal_function(stream, k)
    else:
        assert principal_function(stream, k) == expected


@PROPERTY
@given(
    members=st.sets(st.integers(0, 12)),
    horizon=st.integers(0, 9),
    spec=st.sampled_from([None, "evens", "full", "empty", "seed:7:p=1/3"]),
)
def test_prefix_set_matches_per_character_membership(members, horizon, spec):
    if spec is None:
        source = SetStream.from_members(members, horizon)
    else:
        source = SetStream.from_spec(spec, horizon)
    fast = prefix_set(source)
    assert fast.horizon == (1 << (horizon + 1)) - 1
    expected = [c for c in range(fast.horizon) if per_character_prefix_member(source, c)]
    assert fast.members_below(fast.horizon) == expected
    assert expected == [string_code(source.prefix(k)) for k in range(horizon + 1)]


# -- seeded bits in bulk -------------------------------------------------------

# The last three guard the clamped carries, which read every denominator
# above 2^63, 2^64 among them: at 2^70 and 2^100 every input lies below
# the denominator, and a numerator above 2^64 must be clamped to 2^64, or
# its sum would carry past bit 64 of its lane.
PROBABILITIES = [
    (0, 1), (1, 1), (0, 2), (2, 2), (1, 2), (3, 4), (1, 5), (2, 5), (3, 7),
    (5, 2**20), (1, 2**64), (3, 2**70), (2**64 + 1, 2**100),
]
EDGES = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


def per_index_bits(seed, num, den, n):
    return bytes(splitmix64(seed, i) % den < num for i in range(n))


@pytest.mark.parametrize("num, den", PROBABILITIES)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.sampled_from([0, 42, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    start=st.sampled_from(EDGES) | st.integers(0, 2 * _CHUNK),
    length=st.sampled_from(EDGES) | st.integers(0, 2 * _CHUNK),
)
@example(seed=0, start=0, length=2 * _CHUNK + 1)
@example(seed=42, start=_CHUNK - 1, length=_CHUNK + 2)
@example(seed=2**64 - 1, start=1, length=3 * _CHUNK)
def test_bulk_fill_matches_splitmix64(num, den, seed, start, length):
    backend = _SeededBits(seed, num, den)
    for upto in (start, start + length):
        backend._fill(upto)
        filled = len(backend._buf)
        assert upto <= filled < upto + _CHUNK
        assert bytes(backend._buf) == per_index_bits(seed, num, den, filled)


# Each den's readout leaves the byte of a lane that holds its bit in byte 0.  At a
# power of two 2^L up to 2^7 (F = L < 8) that byte is x = v mod 2^L itself, read as
# x < num: 2^1 to 2^7, with 2^7 the last.  Every other den up to 2^63 shifts the byte of
# x + 2^F - t that holds its carry bit F to byte 0, then masks off the next lane's low
# bits: bit 0 of byte 1 at 2^8, the first; bit 0 of byte 7 at 2^56, bit 1 of byte 7 at
# 2^57 and bit 7 of byte 7 at 2^63; and, with F = 64 + (den - 1).bit_length(), bit 0 of
# byte 15 at 2^55 + 1 and 2^56 - 1 (F = 120), bit 1 of byte 15 at 2^56 + 1 (F = 121)
# and bit 7 of byte 15 at 2^63 - 1 (F = 127).  The powers of two cut the mixer's
# multipliers to min(64, L + 58) and min(64, L + 31) bits: the first is 59 to 64 bits
# wide at 2^1 to 2^6, the second 2 and 3 CPython digits at 2^29 and 2^30, and 63 and 64
# bits at 2^32 and 2^33.  Then dens on both sides of 2^63 and 2^64, where the clamped
# carries into bit 64 take over, shifted down to bit 0; at every num where the carries
# change, for requests that end mid-step, each filled to the end of its step.
GRID_DENS = [
    1, 2, 3, 5, 6, 7, 10, 2**7, 2**8, 1000003, 2**32 - 1, 2**32 + 1, 2**55 + 1,
    2**56 - 1, 2**56, 2**56 + 1, 2**57, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1,
    2**64 - 1, 2**64, 2**64 + 1, 2**65, 3**50,
    4, 8, 16, 32, 64, 2**29, 2**30, 2**32, 2**33,
]
GRID_LENGTHS = [1, 1023, 4097, 3 * _CHUNK + 5]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("den", GRID_DENS)
def test_fill_matches_splitmix64_on_the_grid(seed, den):
    words = [splitmix64(seed, i) for i in range(4 * _CHUNK)]
    for num in sorted({0, 1, den // 2, den - 1, den}):
        expected = bytes(w % den < num for w in words)
        grown = _SeededBits(seed, num, den)
        for length in GRID_LENGTHS:
            for backend in (_SeededBits(seed, num, den), grown):
                backend._fill(length)
                filled = len(backend._buf)
                assert length <= filled < length + _CHUNK, (num, length)
                assert backend._buf == expected[:filled], (num, length)


@pytest.mark.parametrize("upto", [1, 1023, 1024, 1025, 5000, _CHUNK * 3 + 1])
def test_fills_stop_within_a_step_of_the_request(upto):
    stream = SetStream.from_spec("seed:4", 10**12)
    stream.count_below(upto)
    assert upto <= len(stream._backend._buf) < upto + _CHUNK


def test_prefixes_one_bit_longer_grow_the_buffer_by_whole_steps():
    # Every prefix from 0 to 3 steps + 5 bits: the buffer grows only where a
    # prefix first reaches into a new step, and then by exactly one step.
    stream = SetStream.from_spec("seed:9", 10**12)
    sizes = [0]
    for k in range(3 * _CHUNK + 6):
        prefix = stream.prefix(k)
        if len(stream._backend._buf) != sizes[-1]:
            sizes.append(len(stream._backend._buf))
    assert sizes == [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK, 4 * _CHUNK]
    assert stream._backend._buf == per_index_bits(9, 1, 2, 4 * _CHUNK)
    assert prefix == "".join(map(str, per_index_bits(9, 1, 2, 3 * _CHUNK + 5)))


@pytest.mark.parametrize("spec", ["seed:42", "seed:7:p=1/5"])
def test_principal_function_fills_only_to_the_kth_one(spec):
    stream = SetStream.from_spec(spec, 10**12)
    k = 100_000
    pos = principal_function(stream, k)
    buf = stream._backend._buf
    assert pos < len(buf) <= pos + _CHUNK
    assert pos == select_from_bit_zero(buf, k, len(buf))


# Requests that end mid-step, on a step boundary and one bit past it, some
# inside a step already filled and some several steps on, so one fill
# appends no step, one step or a run of steps: each step's inputs are the
# last step's moved on by one stride.
MIXED_ENSURES = [1, 1023, 4096, 4097, 3 * 1024 + 4096, 4 * 4096 + 2 * 1024,
                 6 * 4096 + 2 * 1024, 7 * 4096 + 2 * 1024, 8 * 4096 + 2 * 1024,
                 8 * 4096 + 3 * 1024, 9 * 4096, 10 * 4096, 13 * 4096 + 1]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_fill_through_mixed_requests_matches_splitmix64(seed):
    assert _CHUNK == 4096
    words = [splitmix64(seed, i) for i in range(14 * _CHUNK)]
    for den in [2, 4, 2**63, 2**64, 5, 7, 2**62 + 1, 3**50,
                8, 16, 32, 64, 2**29, 2**30, 2**32, 2**33, 128, 256]:
        for num in sorted({1, den // 3, den - 1}):
            backend = _SeededBits(seed, num, den)
            for upto in MIXED_ENSURES:
                backend._ensure(upto)
                filled = len(backend._buf)
                assert upto <= filled < upto + _CHUNK, (den, num, upto)
                expected = bytes(w % den < num for w in words[:filled])
                assert backend._buf == expected, (den, num, upto)


# A fill multiplies by the mixer's constants cut to the bits that the bits
# it reads depend on: at a power of two 2^L below 2^33, to min(64, L + 58)
# and min(64, L + 31) bits.  Whole constants give the same bits, so only
# this test and the bench tell them apart.
@pytest.mark.parametrize("num, den, muls, widths", [
    (1, 2, (0x758476D1CE4E5B9, 0x133111EB), (59, 29)),
    (3, 4, (0xF58476D1CE4E5B9, 0x1133111EB), (60, 33)),
    (1, 5, (streams._MIX_MUL_1, streams._MIX_MUL_2), (64, 64)),
    (1, 2**40, (streams._MIX_MUL_1, streams._MIX_MUL_2), (64, 64)),
    (1, 2**63 + 1, (streams._MIX_MUL_1, streams._MIX_MUL_2), (64, 64)),
])
def test_fill_multipliers_are_cut_to_the_bits_read(num, den, muls, widths):
    backend = _SeededBits(7, num, den)
    assert backend._muls == muls
    assert tuple(mul.bit_length() for mul in backend._muls) == widths


def rev4(r):
    return int(f"{r:04b}"[::-1], 2)


def strided_readout(lanes):
    """Byte 0 of each 128-bit lane by one 64 KB serialisation and a stride, reordered
    to bit order: bit 16k + rev4(m) is lane k + 256m."""
    in_lane_order = lanes.to_bytes(16 * _CHUNK, "little")[::16]
    return bytes(in_lane_order[j // 16 + 256 * rev4(j % 16)] for j in range(_CHUNK))


def one_byte_lanes(lane_bytes):
    return int.from_bytes(b"".join(bytes((b,)) + bytes(15) for b in lane_bytes), "little")


# One byte in every lane: random bytes from a drawn seed, some lanes then set to drawn
# bytes, or 0xFF in every lane; and 0xFF in one lane alone: the first and last lane,
# each side of the last fold's halves (255, 256) and of the first's (2047, 2048).
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       overrides=st.dictionaries(st.integers(0, _CHUNK - 1), st.integers(0, 255)))
@example(seed=0, overrides=dict.fromkeys(range(_CHUNK), 0xFF))
def test_pack_matches_the_strided_readout(seed, overrides):
    assert _CHUNK == 4096
    lane_bytes = bytearray(random.Random(seed).randbytes(_CHUNK))
    for lane, byte in overrides.items():
        lane_bytes[lane] = byte
    lanes = one_byte_lanes(lane_bytes)
    assert streams._pack(lanes) == strided_readout(lanes)


@pytest.mark.parametrize("lane", [0, 255, 256, 2047, 2048, 4095])
def test_pack_moves_one_lane_to_its_bit(lane):
    lanes = 0xFF << (128 * lane)
    packed = streams._pack(lanes)
    assert packed == strided_readout(lanes)
    assert packed.index(0xFF) == 16 * (lane % 256) + rev4(lane // 256)


def test_lanes_hold_the_inputs_of_the_bits_pack_puts_there():
    steps, ones, low, stride = streams._lanes()
    gamma = streams.SPLITMIX_GAMMA
    lanes = [steps >> (128 * lane) & ((1 << 128) - 1) for lane in range(_CHUNK)]
    assert lanes == [(16 * k + rev4(m) + 1) * gamma % 2**64
                     for m in range(16) for k in range(256)]
    assert (ones, low, stride) == (one_byte_lanes([1] * _CHUNK), ones * (2**64 - 1),
                                   ones * (_CHUNK * gamma % 2**64))


# Counts and selects read whole chunks, so they are checked one bit below,
# at and one bit past a chunk boundary, each in a fresh stream and all in
# one stream that the earlier queries filled.
COUNT_EDGES = [4095, 4096, 4097, 3 * _CHUNK]
COUNT_SPECS = ["seed:3:p=0/1", "seed:3:p=1/1", "seed:3:p=1/2", "seed:3:p=1/5", "file:{path}"]


@pytest.mark.parametrize("spec", COUNT_SPECS)
def test_chunk_counts_and_selects_match_per_bit_loops(spec, bits_path):
    bits_path.write_text("".join(random.Random(5).choice("01") for _ in range(3 * _CHUNK)))
    spec = spec.format(path=bits_path)
    horizon = 3 * _CHUNK
    per_bit = SetStream.from_spec(spec, horizon)
    bits = [per_bit.bit(i) for i in range(horizon)]
    reused = SetStream.from_spec(spec, horizon)
    for n in COUNT_EDGES:
        count = sum(bits[:n])
        for stream in (SetStream.from_spec(spec, horizon), reused):
            assert stream.count_below(n) == count
        for k in COUNT_EDGES:
            expected = select_from_bit_zero(bits, k, n)
            for stream in (SetStream.from_spec(spec, horizon), reused):
                assert stream._backend.kth_one(k, n) == expected, (n, k)



# -- the rank directory of buffered streams ----------------------------------

# A buffer's counts and selections read a directory of the ones below each whole
# chunk, grown as queries reach further.  One backend answers queries in any
# order, each compared with the per-bit loop on a second, fresh backend; bounds
# fall on chunk edges, and a selection may ask for a one past the last.
DIRECTORY_LENGTH = 2 * _CHUNK + 5  # the bits of the file and of the mask: not whole chunks
DIRECTORY_BOUNDS = st.sampled_from(
    [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK, DIRECTORY_LENGTH]
) | st.integers(0, DIRECTORY_LENGTH)


def directory_bits():
    rng = random.Random(8)
    return bytearray(rng.random() < 0.3 for _ in range(DIRECTORY_LENGTH))


DIRECTORY_BACKENDS = {
    "seed-half": lambda path: SetStream.from_spec("seed:21", DIRECTORY_LENGTH)._backend,
    "seed-fifth": lambda path: SetStream.from_spec("seed:21:p=1/5", DIRECTORY_LENGTH)._backend,
    "file": lambda path: SetStream.from_spec(f"file:{path}")._backend,
    "mask": lambda path: _Buffered(directory_bits()),
}


class DirectoryQueries(RuleBasedStateMachine):
    def __init__(self, make):
        super().__init__()
        self.backend, self.fresh = make(), make()

    @rule(n=DIRECTORY_BOUNDS)
    def count_below(self, n):
        assert self.backend.count_below(n) == per_bit_count_below(self.fresh, n)

    @rule(n=DIRECTORY_BOUNDS)
    def prefix(self, n):
        assert self.backend.prefix(n) == per_bit_prefix(self.fresh, n)

    @rule(bound=DIRECTORY_BOUNDS, k=st.integers(0, DIRECTORY_LENGTH))
    def kth_one(self, bound, k):
        self.select(k, bound)

    @rule(bound=DIRECTORY_BOUNDS, past=st.integers(-1, 1))
    def kth_one_at_the_last_one_and_past_it(self, bound, past):
        self.select(max(0, per_bit_count_below(self.fresh, bound) + past), bound)

    def select(self, k, bound):
        expected = select_from_bit_zero(per_bit_gather(self.fresh, range(bound), bound), k, bound)
        assert self.backend.kth_one(k, bound) == expected, (k, bound)


@pytest.mark.parametrize("kind", sorted(DIRECTORY_BACKENDS))
def test_rank_directory_answers_queries_in_any_order(kind, tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("".join(map(str, directory_bits())))
    make = partial(DIRECTORY_BACKENDS[kind], path)
    run_state_machine_as_test(lambda: DirectoryQueries(make), settings=settings(
        max_examples=25, stateful_step_count=15, deadline=None))


def test_density_profile_popcounts_each_chunk_once(monkeypatch):
    # K checkpoints up to N: every whole chunk once, and one partial chunk per checkpoint.
    n, k = 300 * _CHUNK + 17, 100
    checkpoints = [n * (i + 1) // k for i in range(k)]
    calls = []
    count_ones = streams._count_ones

    def counted(bits):
        calls.append(len(bits))
        return count_ones(bits)

    monkeypatch.setattr(streams, "_count_ones", counted)
    values = density_profile(SetStream.from_spec("seed:1", n), checkpoints).values
    assert len(calls) <= -(-n // _CHUNK) + k
    monkeypatch.undo()
    bits = SetStream.from_spec("seed:1", n).prefix(n)
    assert values == tuple(Fraction(bits.count("1", 0, c), c) for c in checkpoints)

# -- preimage_hits --------------------------------------------------------------

HIT_STREAMS = ["seed:7:p=2/5", "seed:3", "list:0,3,4,9,100,250,399,600", "evens", "full"]
HIT_SAMPLERS = {
    "identity": Sampler.identity,
    "double": Sampler.double,
    "table": lambda: Sampler.from_table(random.Random(5).sample(range(700), 300)),
}


@pytest.mark.parametrize("spec", HIT_STREAMS)
@pytest.mark.parametrize("name", sorted(HIT_SAMPLERS))
@settings(max_examples=12, deadline=None)
@given(
    horizon=st.integers(1, 800),
    checkpoints=st.lists(st.integers(0, 300), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_preimage_hits_match_per_checkpoint_densities(spec, name, horizon, checkpoints):
    sampler = HIT_SAMPLERS[name]()
    values = tuple(eval_sampler(sampler, j) for j in range(checkpoints[-1]))
    slow = SetStream.from_spec(spec, horizon)
    expected = outcome(lambda: [preimage_partial_density(slow, sampler, n) * n for n in checkpoints],
                       catch=HorizonError)
    fast = SetStream.from_spec(spec, horizon)
    assert outcome(preimage_hits, fast, values, checkpoints, catch=HorizonError) == expected


def test_preimage_hits_refuses_bad_arguments():
    stream = SetStream.from_spec("evens", 10)
    with pytest.raises(ValueError, match="strictly increasing"):
        preimage_hits(stream, [0, 1, 2], [3, 2])
    with pytest.raises(ValueError, match="need the 3 values below the last checkpoint, got 2"):
        preimage_hits(stream, [0, 1], [1, 3])
    assert preimage_hits(stream, [0, 1, 2, 4], [1, 4]) == [1, 3]


@pytest.mark.parametrize("spec", ["seed:3", "seed:7:p=2/5", "list:1,4"])
def test_preimage_hits_on_no_one_and_two_values(spec):
    # The bulk gather reads two or more values at once; fewer take their own path.
    bits = [int(b) for b in SetStream.from_spec(spec, 8).prefix(8)]
    assert preimage_hits(SetStream.from_spec(spec, 8), [], []) == []
    for v in range(8):
        assert preimage_hits(SetStream.from_spec(spec, 8), [v], [1]) == [bits[v]]
        pair = [v, 7 - v]
        assert preimage_hits(SetStream.from_spec(spec, 8), pair, [1, 2]) == [
            bits[v], bits[v] + bits[7 - v]
        ]
    with pytest.raises(HorizonError, match=r"^index 8 outside"):
        preimage_hits(SetStream.from_spec(spec, 8), [8], [1])


# -- the adversary commands: dom and hit_indices -------------------------------


# The errors that these commands refuse their inputs with; any other fails the test.
CAUGHT = (ValueError, DomainError)


def loop_dom(sampler, f_values, q, nmax):
    """The `dom` results and checks, from the adversary rows one evaluation at a time."""
    if nmax >= len(f_values):
        raise ValueError("--nmax needs f values up to that index")
    rows = []
    checks = []
    for n, (bound, hit) in enumerate(loop_adversary_rows(f_values, sampler, q, nmax)):
        rows.append({"n": n, "adversary": bound, "f": f_values[n], "hit": hit})
        if hit:
            checks.append(
                cli._check(f"dominates_{n}", bound > f_values[n], f"{bound} > {f_values[n]}")
            )
    return {"rows": rows}, {}, checks


@st.composite
def dom_cases(draw):
    """(sampler, f_values, q, nmax), q >= 1 and 0 <= nmax < len(f_values)."""
    f_values = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    nmax = draw(st.integers(0, len(f_values) - 1))
    return draw(adversary_samplers()), f_values, draw(st.integers(1, 3)), nmax


@PROPERTY
@given(case=dom_cases())
@example(case=(Sampler.from_table([2, 0, 1]), [2, 1, 0], 1, 2))
@example(case=(Sampler.identity(), [2, 1, 0], 1, 3))
@example(case=(Sampler.identity(), [2, 1, 0], 0, 3))
@example(case=(Sampler.identity(), [2, 1, 0], 0, 1))
@example(case=(Sampler.identity(), [2, 1, 0], -1, 0))
@example(case=(Sampler.from_table([]), [5], 0, -1))
@example(case=(Sampler.from_table([]), [5], -3, -2))
def test_dom_rows_match_per_row_adversaries(case):
    sampler, f_values, q, nmax = case
    args = Namespace(sampler="", values=",".join(map(str, f_values)), values_file=None,
                     q=q, nmax=nmax)
    with mock.patch.object(cli, "parse_sampler", lambda spec: sampler):
        expected = outcome(loop_dom, sampler, f_values, q, nmax, catch=CAUGHT)
        assert outcome(cli._run_dom, args, catch=CAUGHT) == expected


def per_element_graph_members(values, horizon):
    if horizon < 0 or horizon > len(values):
        raise ValueError("function table does not cover [0, horizon)")
    return frozenset(cantor_pair(n, values[n]) for n in range(horizon))


@PROPERTY
@given(values=pair_values(), data=st.data())
def test_graph_members_match_per_element_pairs(values, data):
    horizon = data.draw(st.integers(-1, len(values) + 1))
    expected = outcome(per_element_graph_members, values, horizon, catch=CAUGHT)
    assert outcome(graph_members, values, horizon, catch=CAUGHT) == expected


def test_hit_indices_checks_q_before_the_horizon():
    with pytest.raises(ValueError, match="q must be >= 1"):
        hit_indices(Sampler.identity(), [], 0, 5)


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
