"""Properties of the codes, of introreduction and of the guess-driven injection.

The codes are bijections that round-trip and keep their documented order;
`introreduce` recovers the longest prefix from any consistent batch of
prefix codes; `build_wct_injection` meets the 1 - 1/n bound at n! whenever
the guess for block n is true, whatever the other blocks guess (that it is
total and injective for any guesses is checked in
`test_injectivity_properties.py`), and its table equals the one built
input by input with a set of assigned values.
"""

from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from intdensity import (
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
    string_code,
    string_decode,
    triple_code,
    triple_decode,
    wct_target,
)

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
