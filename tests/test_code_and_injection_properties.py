"""Properties of the codes, of introreduction and of the guess-driven injection.

The codes are bijections that round-trip and keep their documented order;
`introreduce` recovers the longest prefix from any consistent batch of
prefix codes; `build_wct_injection` meets the 1 - 1/n bound at n! whenever
the guess for block n is true, whatever the other blocks guess (that it is
total and injective for any guesses is checked in
`test_injectivity_properties.py`), and its table equals the one built
input by input with a set of assigned values, also for guesses that run
over several of the 4,096-bit chunks in which it looks for a block's first
preferred value.  The `wct` command's blocks hold the values of the
per-value loop, and their hit counts equal `preimage_hits` at the whole
table, errors included.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity import (
    HorizonError,
    SetStream,
    build_wct_injection,
    cantor_pair,
    cantor_unpair,
    finite_set_code,
    finite_set_decode,
    fixed_width_code,
    fixed_width_decode,
    introreduce,
    preimage_partial_density,
    prefix_free_code,
    prefix_free_decode,
    preimage_hits,
    string_code,
    string_decode,
    triple_code,
    triple_decode,
    wct_target,
)
from intdensity.constructions import _guess_masks, _wct_blocks, _wct_hits, _wct_table
from intdensity.streams import _CHUNK
from oracles import loop_wct_blocks, outcome

PROPERTY = settings(max_examples=200, deadline=None)

BITS = st.text("01", max_size=80)


@PROPERTY
@given(x=st.integers(0, 2**100), y=st.integers(0, 2**100), z=st.integers(0, 2**40))
def test_pair_and_triple_codes_round_trip(x, y, z):
    assert cantor_unpair(cantor_pair(x, y)) == (x, y)
    assert triple_decode(triple_code(x, y, z)) == (x, y, z)


@PROPERTY
@given(code=st.integers(0, 2**200))
def test_pair_decoding_round_trips(code):
    assert cantor_pair(*cantor_unpair(code)) == code


@PROPERTY
@given(bits=BITS, code=st.integers(0, 2**200))
def test_string_code_round_trips(bits, code):
    assert string_decode(string_code(bits)) == bits
    assert string_code(string_decode(code)) == code


@PROPERTY
@given(a=BITS, b=BITS)
def test_string_codes_follow_length_lex_order(a, b):
    assert (string_code(a) < string_code(b)) == ((len(a), a) < (len(b), b))


@PROPERTY
@given(members=st.sets(st.integers(0, 300)), code=st.integers(0, 2**300))
def test_finite_set_code_round_trips(members, code):
    assert finite_set_decode(finite_set_code(members)) == members
    assert finite_set_code(finite_set_decode(code)) == code


@PROPERTY
@given(n=st.integers(1, 2**64), suffix=BITS)
def test_prefix_free_code_round_trips_before_any_suffix(n, suffix):
    word = prefix_free_code(n)
    assert prefix_free_decode(word + suffix) == (n, len(word))


@PROPERTY
@given(n=st.integers(2, 2**40), data=st.data())
def test_fixed_width_code_round_trips(n, data):
    x = data.draw(st.integers(0, n * n - 1))
    assert fixed_width_decode(n, fixed_width_code(n, x)) == x


@PROPERTY
@given(source=BITS, data=st.data())
def test_introreduce_recovers_the_longest_prefix_of_any_consistent_batch(source, data):
    lengths = data.draw(st.lists(st.integers(0, len(source)), min_size=1))
    codes = [string_code(source[:k]) for k in lengths]
    assert introreduce(codes) == source[: max(lengths)]


@st.composite
def guess_maps(draw):
    """(max_n, guesses) with arbitrary bit strings for blocks 1..max_n."""
    max_n = draw(st.integers(1, 5))
    guesses = {
        n: draw(st.text("01", max_size=3 * factorial(n)), label=f"guess {n}")
        for n in range(1, max_n + 1)
    }
    return max_n, guesses


@PROPERTY
@given(case=guess_maps(), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_wct_injection_meets_the_bound_wherever_a_guess_is_true(case, seed, data):
    max_n, guesses = case
    stream = SetStream.from_spec(f"seed:{seed}", 4 * factorial(max_n) + 400)
    true_blocks = data.draw(st.sets(st.integers(1, max_n), min_size=1))
    for n in true_blocks:
        guesses[n] = wct_target(stream, n)
    sampler = build_wct_injection(guesses, max_n).as_sampler()
    for n in true_blocks:
        density = preimage_partial_density(stream, sampler, factorial(n))
        assert density >= 1 - Fraction(1, n)


def set_built_wct_table(guesses, max_n):
    """The injection's table, built input by input with a set of assigned values."""
    table, assigned, next_free = [], set(), 0
    for n in range(1, max_n + 1):
        ones = [i for i, c in enumerate(guesses[n]) if c == "1"]
        for j in range(factorial(n - 1) if n > 1 else 0, factorial(n)):
            if j < len(ones) and ones[j] not in assigned:
                value = ones[j]
            else:
                while next_free in assigned:
                    next_free += 1
                value = next_free
            assigned.add(value)
            table.append(value)
    return tuple(table)


@PROPERTY
@given(case=guess_maps(), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_wct_table_matches_the_set_built_table(case, seed, data):
    max_n, guesses = case
    # True guesses and prefixes of one source let whole blocks take their
    # preferred values; random guesses collide with earlier blocks.
    stream = SetStream.from_spec(f"seed:{seed}", 4 * factorial(max_n) + 400)
    source = data.draw(st.text("01", max_size=4 * factorial(max_n)), label="source")
    for n in data.draw(st.sets(st.integers(1, max_n)), label="true blocks"):
        guesses[n] = wct_target(stream, n)
    for n in data.draw(st.sets(st.integers(1, max_n)), label="source blocks"):
        guesses[n] = source[: data.draw(st.integers(0, len(source)))]
    injection = build_wct_injection(guesses, max_n)
    assert type(injection.table) is tuple
    assert injection.table == set_built_wct_table(guesses, max_n)


@st.composite
def long_guess_maps(draw):
    """(max_n, guesses) at max_n 6 or 7, from runs of zeros and of random bits.

    Zero runs of up to three chunks move some block's low-th one past the
    first chunk, and a guess can run past two chunks.  Some blocks take a
    prefix of one shared source, so that whole blocks keep their preferred
    values, and the others collide with them.
    """
    max_n = draw(st.integers(6, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def runs():
        parts = []
        for _ in range(draw(st.integers(1, 4))):
            parts.append("0" * draw(st.integers(0, 3 * _CHUNK)))
            parts.append(format(rng.getrandbits(4 * _CHUNK), "b")[: draw(st.integers(0, 3 * _CHUNK))])
        return "".join(parts)

    source = runs()
    guesses = {}
    for n in range(1, max_n + 1):
        if draw(st.booleans(), label=f"block {n} shares the source"):
            guesses[n] = source[: draw(st.integers(0, len(source)))]
        else:
            guesses[n] = runs()
    return max_n, guesses


@settings(max_examples=60, deadline=None)
@given(case=long_guess_maps())
@example(case=(6, {n: "01" * (3 * _CHUNK) if n % 2 else "0" * _CHUNK + "1" * 800 for n in range(1, 7)}))
def test_wct_table_matches_the_set_built_table_across_chunks(case):
    max_n, guesses = case
    injection = build_wct_injection(guesses, max_n)
    assert type(injection.table) is tuple
    assert injection.table == set_built_wct_table(guesses, max_n)


def test_a_block_can_prefer_values_past_the_first_chunk():
    guess = "0" * 5000 + "1" * 6000  # block 7 prefers its ones 720..5039
    assert guess.index("1") + factorial(6) > _CHUNK and len(guess) > 2 * _CHUNK
    guesses = {n: guess for n in range(1, 8)}
    assert build_wct_injection(guesses, 7).table == set_built_wct_table(guesses, 7)


# Sets with at least 5! + 1 members below 1,000, so every block up to 5 has
# a true guess: seeded ones at p = 1/2 and 1/5, closed forms, a member list
# and a bit file.
HIT_RNG = random.Random(11)
HIT_MEMBERS = ",".join(map(str, sorted(HIT_RNG.sample(range(1000), 400))))
HIT_FILE_BITS = "".join(HIT_RNG.choice("0011101") for _ in range(1000))


@pytest.fixture(scope="module")
def hit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("hits") / "bits.txt"
    path.write_text(HIT_FILE_BITS)
    return path


@pytest.mark.parametrize(
    "spec",
    ["seed:5", "seed:6:p=1/5", "evens", "full", "odds", f"list:{HIT_MEMBERS}", "file:{path}"],
)
@settings(max_examples=40, deadline=None)
@given(max_n=st.integers(1, 5), horizon=st.integers(1, 1000), data=st.data())
def test_block_hits_match_preimage_hits_at_the_table(spec, hit_file, max_n, horizon, data):
    spec = spec.format(path=hit_file)
    source = SetStream.from_spec(spec, 1000)
    guesses = {}
    for n in range(1, max_n + 1):
        truth = wct_target(source, n)
        kind = data.draw(st.sampled_from(["true", "truncated", "flipped", "empty", "long"]))
        if kind == "truncated":
            truth = truth[: data.draw(st.integers(0, len(truth)))]
        elif kind == "flipped":
            bits = list(truth)
            for i in data.draw(st.lists(st.integers(0, len(bits) - 1), max_size=4)):
                bits[i] = "1" if bits[i] == "0" else "0"
            truth = "".join(bits)
        elif kind == "empty":
            truth = ""
        elif kind == "long":  # ones shifted out, some past the horizon
            truth = "0" * data.draw(st.integers(0, 1500)) + truth
        guesses[n] = truth
    table = build_wct_injection(guesses, max_n).table
    checkpoints = [factorial(n) for n in range(1, max_n + 1)]
    blocks = _wct_blocks(_guess_masks(guesses, max_n))
    expected = outcome(preimage_hits, SetStream.from_spec(spec, horizon), table, checkpoints,
                       catch=HorizonError)
    got = outcome(_wct_hits, SetStream.from_spec(spec, horizon), blocks, catch=HorizonError)
    assert got == expected


@pytest.mark.parametrize(
    "spec", ["seed:5", "file:{path}", "evens", "full", pytest.param(f"list:{HIT_MEMBERS}", id="list")]
)
def test_block_hits_make_no_per_bit_calls(spec, hit_file, monkeypatch):
    source = SetStream.from_spec(spec.format(path=hit_file), 1000)
    backend = type(source._backend)
    guesses = {n: wct_target(source, n) for n in range(1, 6)}
    guesses[3] = ""  # a block that lists its values, all in its tail
    blocks = _wct_blocks(_guess_masks(guesses, 5))
    assert {bool(tail) for *_, tail in blocks} == {True, False}
    table = build_wct_injection(guesses, 5).table
    expected = preimage_hits(source, table, [factorial(n) for n in range(1, 6)])
    calls = [0]
    per_bit = backend.bit

    def counted(self, index):
        calls[0] += 1
        return per_bit(self, index)

    monkeypatch.setattr(backend, "bit", counted)
    assert _wct_hits(source, blocks) == expected
    assert calls[0] == 0


# Guesses for blocks 1..4.  Block 2 takes 9, its one after a run of zeros.
# Block 3 prefers 2, 8, 9 and 12: it clashes at 9, takes 1 instead, and 12
# in its tail.  Block 4, all ones, prefers 6..23: it clashes at 8 and 9, and
# at 12, which block 3's tail took.
CLASH_GUESSES = {1: "1", 2: "0" * 6 + "1001", 3: "111" + "0" * 5 + "11" + "0" * 2 + "11",
                 4: "1" * 30}


@pytest.mark.parametrize(
    "spec", ["seed:7:p=2/5", "evens", pytest.param(f"list:{HIT_MEMBERS}", id="list")]
)
@settings(max_examples=60, deadline=None)
@given(max_n=st.integers(1, 5), horizon=st.integers(1, 1000), data=st.data())
@example(max_n=4, horizon=1000, data=None)
def test_wct_blocks_match_the_per_value_loop(spec, max_n, horizon, data):
    source = SetStream.from_spec(spec, 1000)
    guesses = {}
    for n in range(1, max_n + 1):
        guess = wct_target(source, n)
        kind = "clash" if data is None else data.draw(
            st.sampled_from(["true", "truncated", "flipped", "empty", "long"]))
        if kind == "clash":
            guess = CLASH_GUESSES[n]
        elif kind == "truncated":
            guess = guess[: data.draw(st.integers(0, len(guess)))]
        elif kind == "flipped":
            bits = list(guess)
            for i in data.draw(st.lists(st.integers(0, len(bits) - 1), max_size=4)):
                bits[i] = "10"[int(bits[i])]
            guess = "".join(bits)
        elif kind == "empty":
            guess = ""
        elif kind == "long":  # ones shifted out, some past the horizon
            guess = "0" * data.draw(st.integers(0, 1500)) + guess
        guesses[n] = guess
    masks = _guess_masks(guesses, max_n)
    blocks = _wct_blocks(masks)
    expected = loop_wct_blocks(masks)
    assert [list(_wct_table([block])) for block in blocks] == expected
    table = [value for values in expected for value in values]
    checkpoints = [factorial(n) for n in range(1, max_n + 1)]
    stream = SetStream.from_spec(spec, horizon)
    assert outcome(_wct_hits, stream, blocks, catch=HorizonError) == outcome(
        preimage_hits, stream, table, checkpoints, catch=HorizonError)


# Block 3 of (a) keeps value 4, the one of a guess that then runs on in zeros
# past the horizon 6, and takes 1, 3 and 5 in its tail: no value is past the
# horizon.  Block 3 of (b) keeps 10 and 11 and takes 2 and 3 in its tail, all
# past the horizon 2: the error names 10, the first in input order.
@pytest.mark.parametrize("spec", ["evens", "file:{path}"])
@pytest.mark.parametrize("guesses, horizon", [
    ({1: "10", 2: "1010", 3: "101010" + "0" * 4}, 6),
    ({1: "1", 2: "01", 3: "11" + "0" * 8 + "11"}, 2),
])
def test_block_hits_at_a_horizon_inside_a_block(spec, guesses, horizon, hit_file):
    masks = _guess_masks(guesses, 3)
    table = [value for values in loop_wct_blocks(masks) for value in values]
    stream = SetStream.from_spec(spec.format(path=hit_file), horizon)
    assert outcome(_wct_hits, stream, _wct_blocks(masks), catch=HorizonError) == outcome(
        preimage_hits, stream, table, [1, 2, 6], catch=HorizonError)
