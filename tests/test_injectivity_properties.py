"""Property oracle: samplers built without the per-evaluation log are injective.

Each sampler is read back through `Sampler.from_function`, which logs
every value and raises InjectivityError on a repeat, and the image of a
random domain prefix must have exactly as many elements as the prefix.

`Sampler.from_table` checks every table with the set of its values; that
check is also written out here, and both must accept and refuse the same
tables alike, with the same errors.
"""

import random
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdensity import (
    InjectivityError,
    Sampler,
    SetStream,
    WctInjection,
    build_wct_injection,
    image_interval,
    prefix_code_sampler,
)
from oracles import outcome

PROPERTY = settings(max_examples=60, deadline=None)


def assert_injective_on_prefix(sampler, n):
    logged = Sampler.from_function(sampler, sampler.kind, sampler.domain_bound, sampler.label)
    assert len(image_interval(logged, n)) == n


@PROPERTY
@given(
    builtin=st.sampled_from(["identity", "double", "shift", "swapblocks"]),
    k=st.integers(0, 50),
    n=st.integers(0, 300),
)
def test_builtins_are_injective(builtin, k, n):
    sampler = {
        "identity": Sampler.identity,
        "double": Sampler.double,
        "shift": lambda: Sampler.shift(k),
        "swapblocks": lambda: Sampler.swapblocks(k + 1),
    }[builtin]()
    assert_injective_on_prefix(sampler, n)


@PROPERTY
@given(st.permutations(range(12)), st.integers(0, 40), st.data())
def test_identity_extended_permutation_tables_are_injective(table, extra, data):
    sampler = Sampler.from_table(table, domain_bound=len(table) + extra)
    assert sampler.kind == "permutation"
    n = data.draw(st.integers(0, sampler.domain_bound))
    assert_injective_on_prefix(sampler, n)
    assert_injective_on_prefix(sampler.inverse(), n)


@PROPERTY
@given(st.integers(0, 10**6), st.integers(0, 200), st.data())
def test_prefix_code_samplers_are_injective(seed, horizon, data):
    stream = SetStream.from_spec(f"seed:{seed}", horizon)
    sampler = prefix_code_sampler(stream, horizon + 1)
    assert_injective_on_prefix(sampler, data.draw(st.integers(0, horizon + 1)))


@PROPERTY
@given(st.integers(1, 5), st.data())
def test_wct_injection_is_injective_for_any_guesses(max_n, data):
    guesses = {
        n: data.draw(st.text("01", max_size=2 * factorial(n)), label=f"guess {n}")
        for n in range(1, max_n + 1)
    }
    injection = build_wct_injection(guesses, max_n)
    assert len(injection.table) == factorial(max_n) and min(injection.table) >= 0
    assert_injective_on_prefix(injection.as_sampler(), factorial(max_n))


@PROPERTY
@given(st.integers(2, 4), st.data())
def test_hand_built_wct_injection_with_a_repeat_is_rejected(max_n, data):
    size = factorial(max_n)
    table = data.draw(st.lists(st.integers(0, 3 * size), min_size=size, max_size=size))
    i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    table[j] = table[i]
    injection = WctInjection(max_n, tuple(table), {})
    with pytest.raises(InjectivityError, match=r"^table repeats value \d+$"):
        injection.as_sampler()


def set_checked_table(values):
    """(kind, is_perm) of a table by the set-based check of `from_table`, with its
    natural-number check per value."""
    table = tuple(values)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in table):
        raise ValueError("table values must be naturals")
    if len(set(table)) < len(table):
        seen: set[int] = set()
        for v in table:
            if v in seen:
                raise InjectivityError(f"table repeats value {v}")
            seen.add(v)
    # n distinct naturals whose maximum is n - 1 are exactly 0..n-1.
    is_perm = max(table, default=-1) == len(table) - 1
    return "permutation" if is_perm else "injection", is_perm


def library_checked_table(table):
    kind = Sampler.from_table(table).kind
    try:
        Sampler.from_table(table, domain_bound=len(table) + 1)  # needs a permutation
    except ValueError:
        return kind, False
    return kind, True


@st.composite
def checked_tables(draw):
    """Increasing, shuffled, near-sorted with one repeat, negative or empty tables."""
    values = sorted(draw(st.sets(st.integers(-3, 60), max_size=40)))
    shape = draw(st.sampled_from(["increasing", "shuffled", "repeat", "permutation"]))
    if shape == "permutation":
        values = list(range(len(values)))
    if shape == "shuffled":
        random.Random(draw(st.integers(0, 2**32))).shuffle(values)
    if shape == "repeat" and values:
        i = draw(st.integers(0, len(values) - 1))
        values.insert(draw(st.integers(i + 1, len(values))), values[i])
    return values


@settings(max_examples=300, deadline=None)
@given(table=checked_tables())
@example(table=[])
@example(table=[0, 1, 2])
@example(table=[-1, 0, 4])
@example(table=[0, 5, 5, 9])
@example(table=[3, 1, 2, 2, 1])
@example(table=[4, -1, 4])
@example(table=[True, 0])
@example(table=[2.5, 1])
@example(table=[0, 1.0, 1])
def test_from_table_checks_match_the_set_based_check(table):
    caught = (ValueError, InjectivityError)
    expected = outcome(set_checked_table, table, catch=caught)
    assert outcome(library_checked_table, table, catch=caught) == expected
