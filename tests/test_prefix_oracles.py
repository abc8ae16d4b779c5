"""Oracles for `Sampler.prefix` and the readers of a sampler's values on [0, n).

`Sampler.prefix(n)` reads [0, n) at once: a range for identity, `double` and
`shift`, three ranges for `swapblocks`, a slice plus the identity extension
for tables, and `eval_sampler` one input at a time for any other sampler.  It
must equal `[eval_sampler(s, j) for j in range(n)]` and raise what that loop
raises, at the same first input.

Every reader of a prefix is checked against its definition, one evaluation
at a time (some shared through `oracles.py`): the same result, or the same
first error in type and text.  The samplers include programs wrapped by
`Sampler.from_function` that fail at a chosen input, repeat a value, or
return negative values, so that a reader's own errors and the sampler's
interleave as they do in a per-input loop; readers of pair codes also see
pair-code tables and values that are not naturals.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import intdensity.samplers as samplers
from intdensity import (
    DomainError,
    HorizonError,
    Sampler,
    SetStream,
    adversary_rows,
    build_prefix_tree,
    density_profile,
    dominating_adversary,
    eval_sampler,
    hit_indices,
    image_interval,
    image_stream,
    preimage_partial_density,
    trace_from_sampler,
)
from intdensity.codes import cantor_pair, cantor_unpair, string_code
from intdensity.constructions import _traces
from oracles import adversary_samplers, loop_adversary_rows, outcome, pair_values, scan_levels

PROPERTY = settings(max_examples=150, deadline=None)


# -- the per-input readers ----------------------------------------------------


def loop_image_interval(sampler, n):
    if sampler.domain_bound is not None and n > sampler.domain_bound:
        raise DomainError(
            f"interval length {n} exceeds domain bound {sampler.domain_bound}"
        )
    return {eval_sampler(sampler, j) for j in range(n)}


def loop_trace_from_sampler(sampler, q, n):
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 0:
        raise ValueError("n must be a natural number")
    return {cantor_unpair(v)[1] for v in loop_image_interval(sampler, (n + 1) * q)}


def loop_hit_indices(sampler, values, q, horizon):
    if q < 1:
        raise ValueError("q must be >= 1")
    if horizon > len(values):
        raise ValueError("function table does not cover [0, horizon)")
    image = set()
    evaluated = 0
    hits = set()
    for m in range(horizon):
        while evaluated < (m + 1) * q:
            image.add(eval_sampler(sampler, evaluated))
            evaluated += 1
        if cantor_pair(m, values[m]) in image:
            hits.add(m)
    return hits


def loop_dominating_adversary(f_values, sampler, q, n):
    if q < 1:
        raise ValueError("q must be >= 1")
    return 1 + max(eval_sampler(sampler, j) for j in range((n + 1) * q + 1))


def loop_preimage_partial_density(stream, sampler, n):
    if n < 1:
        raise HorizonError("preimage density needs a checkpoint n >= 1")
    if sampler.domain_bound is not None and n > sampler.domain_bound:
        raise DomainError(
            f"checkpoint {n} exceeds domain bound {sampler.domain_bound}"
        )
    hits = sum(stream.bit(eval_sampler(sampler, j)) for j in range(n))
    return Fraction(hits, n)


def loop_image_count(stream, permutation, n):
    """`image_stream(stream, permutation).count_below(n)`, one bit at a time."""
    inv = permutation.inverse()
    return sum(stream.bit(eval_sampler(inv, i)) for i in range(n))


def loop_density_values(stream, checkpoints):
    """`density_profile(stream, checkpoints).values`, one checkpoint at a time, each
    counted one bit at a time."""
    values = []
    for n in checkpoints:
        if n < 1 or n > stream.horizon:
            raise HorizonError(f"density checkpoint {n} outside [1, {stream.horizon}]")
        values.append(Fraction(sum(map(stream.bit, range(n))), n))
    return tuple(values)


# -- samplers -----------------------------------------------------------------


class ProgramFailure(Exception):
    pass


@st.composite
def programs(draw):
    """A fresh-sampler factory over a program that may fail, repeat or go negative.

    Each call makes a new `from_function` sampler, so the oracle and the
    reader under test never share an evaluation log.
    """
    outs = draw(st.lists(
        st.integers(-3, 40) | st.just("fail"), max_size=30,
    ))
    bound = draw(st.none() | st.integers(0, 40))

    def fn(x):
        out = outs[x] if x < len(outs) else 1000 + x
        if out == "fail":
            raise ProgramFailure(f"program fails at {x}")
        return out

    return lambda: Sampler.from_function(fn, "injection", bound, "program")


@st.composite
def tables(draw):
    size = draw(st.integers(0, 24))
    if draw(st.booleans()):
        values = draw(st.permutations(range(size)))
        bound = size + draw(st.integers(0, 12))
    else:
        values = draw(st.lists(st.integers(0, 80), min_size=size, max_size=size, unique=True))
        bound = None
    return lambda: Sampler.from_table(values, domain_bound=bound)


@st.composite
def code_tables(draw):
    """A table of distinct naturals below 2^12: the codes of strings of at most a
    drawn length up to 11, which extend a prefix of one drawn string by a drawn
    tail, among codes drawn at random.  Their lengths are mixed and they are not
    prefixes of one string, but many share prefixes, so a tree can grow past its
    first levels; depths past the longest length occur too."""
    top = draw(st.integers(0, 11))
    base = draw(st.text("01", min_size=top, max_size=top))
    near = st.builds(lambda k, tail: string_code((base[:k] + tail)[:top]),
                     st.integers(0, top), st.text("01", max_size=top))
    codes = near | st.integers(0, (2 << top) - 2)
    values = draw(st.lists(codes, unique=True, min_size=min(12, (2 << top) - 1), max_size=80))
    return lambda: Sampler.from_table(values)


BUILTINS = st.sampled_from([Sampler.identity, Sampler.double]) | st.builds(
    lambda make, k: (lambda: make(k)),
    st.sampled_from([Sampler.shift, Sampler.swapblocks]), st.integers(1, 9),
)
BULK = BUILTINS | tables()
SAMPLERS = BULK | programs()
# Tables of pair codes and the other samplers of the `dom` tests, as factories.
ADVERSARY = adversary_samplers().map(lambda sampler: lambda: sampler)
# Function tables of small values or of pair values, and a horizon from -2 up to two
# past the end.
HIT_TABLES = (st.lists(st.integers(-1, 6), max_size=16) | pair_values()).flatmap(
    lambda values: st.tuples(st.just(values), st.integers(-2, len(values) + 2))
)


@st.composite
def pair_programs(draw):
    """A program that returns drawn pair values, naturals and a few that are not,
    and steps up to one past its domain."""
    table = draw(pair_values(min_size=1))
    steps = sorted(draw(st.sets(st.integers(0, len(table)), max_size=5)))
    return (lambda: Sampler.from_function(table.__getitem__, "injection", len(table))), steps


TRACE_CASES = st.tuples(
    SAMPLERS, st.lists(st.integers(0, 14), max_size=6, unique=True).map(sorted)
) | pair_programs()


# -- Sampler.prefix -----------------------------------------------------------


@PROPERTY
@given(make=SAMPLERS, n=st.integers(-2, 60))
@example(make=lambda: Sampler.from_table([2, 0, 1]), n=5)
@example(make=lambda: Sampler.swapblocks(3), n=4)
def test_prefix_is_the_loop_over_eval_sampler(make, n):
    def loop():
        sampler = make()
        return [eval_sampler(sampler, j) for j in range(n)]

    expected = outcome(loop)
    got = outcome(lambda: list(make().prefix(n)))
    assert got == expected


@PROPERTY
@given(make=BULK, n=st.integers(0, 60))
def test_builtins_and_tables_read_in_bulk(make, n):
    calls = []

    def counted(sampler, x):
        calls.append(x)
        return eval_sampler(sampler, x)

    sampler = make()
    samplers.eval_sampler = counted
    try:
        outcome(sampler.prefix, n)
    finally:
        samplers.eval_sampler = eval_sampler
    assert calls == []


def test_prefix_past_the_domain_raises_the_first_missing_input():
    table = Sampler.from_table([1, 0], domain_bound=4)
    assert list(table.prefix(4)) == [1, 0, 2, 3]
    with pytest.raises(DomainError, match=r"^input 4 outside sampler domain \[0, 4\)$"):
        table.prefix(5)


# -- the readers --------------------------------------------------------------


@PROPERTY
@given(make=SAMPLERS, n=st.integers(-1, 50))
def test_image_interval(make, n):
    assert outcome(image_interval, make(), n) == outcome(loop_image_interval, make(), n)


@PROPERTY
@given(make=SAMPLERS, q=st.integers(0, 4), n=st.integers(-1, 12))
def test_trace_from_sampler(make, q, n):
    expected = outcome(loop_trace_from_sampler, make(), q, n)
    assert outcome(trace_from_sampler, make(), q, n) == expected


@PROPERTY
@given(case=TRACE_CASES, q=st.integers(1, 4))
@example(case=(lambda: Sampler.from_function([2, True].__getitem__, "injection", 2), [1]), q=1)
# The image set {3, -1, -3} iterates -3 before -1: the error names -3.
@example(case=(lambda: Sampler.from_function([3, -1, -3].__getitem__, "injection", 3), [0, 2]),
         q=1)
def test_traces_grow_one_set_through_the_steps(case, q):
    make, steps = case

    def each():
        return [loop_trace_from_sampler(make(), q, n) for n in steps]

    def running():
        return [set(trace) for trace in _traces(make(), q, steps)]

    traces = outcome(running)
    assert traces == outcome(each)
    if isinstance(traces, list):  # a trace is read off (n+1)q values
        assert all(len(trace) <= (n + 1) * q for n, trace in zip(steps, traces))


@PROPERTY
@given(make=SAMPLERS | ADVERSARY, q=st.integers(0, 3), table=HIT_TABLES)
@example(make=lambda: Sampler.from_table([cantor_pair(j, 0) for j in range(6)]),
         q=1, table=([0] * 6, 6))
@example(make=Sampler.identity, q=1, table=([2, True], 2))
@example(make=Sampler.identity, q=1, table=([2, -1], 2))
@example(make=Sampler.identity, q=1, table=([0, 1, 2], -1))
def test_hit_indices(make, q, table):
    values, cut = table
    expected = outcome(loop_hit_indices, make(), values, q, cut)
    assert outcome(hit_indices, make(), values, q, cut) == expected


@PROPERTY
@given(make=SAMPLERS, q=st.integers(-1, 3),
       f_values=st.lists(st.integers(0, 60), max_size=12), nmax=st.integers(-2, 12))
def test_adversary_rows(make, q, f_values, nmax):
    expected = outcome(loop_adversary_rows, f_values, make(), q, nmax)
    assert outcome(adversary_rows, f_values, make(), q, nmax) == expected


@PROPERTY
@given(make=SAMPLERS, q=st.integers(0, 3), n=st.integers(-3, 12))
def test_dominating_adversary(make, q, n):
    expected = outcome(loop_dominating_adversary, [], make(), q, n)
    assert outcome(dominating_adversary, [], make(), q, n) == expected


@PROPERTY
@given(make=SAMPLERS, n=st.integers(0, 40), horizon=st.integers(0, 60))
def test_preimage_partial_density(make, n, horizon):
    stream = SetStream.from_spec("seed:3", horizon)
    expected = outcome(loop_preimage_partial_density, stream, make(), n)
    assert outcome(preimage_partial_density, stream, make(), n) == expected


@PROPERTY
@given(make=BULK, n=st.integers(0, 50), horizon=st.integers(0, 50))
def test_image_stream_counts(make, n, horizon):
    permutation = make()
    assume(permutation.kind == "permutation")
    stream = SetStream.from_spec("seed:5", horizon)
    backend = image_stream(stream, permutation)._backend  # past the horizon too
    assert outcome(backend.count_below, n) == outcome(loop_image_count, stream, permutation, n)


def failing_involution(fail_at):
    """The swap of 0 and 1, as a program that fails at every input from fail_at on."""

    def raw(x):
        if x >= fail_at:
            raise ProgramFailure(f"program fails at {x}")
        return 1 - x if x < 2 else x

    return Sampler(raw, "permutation", f"fails-from:{fail_at}", involution=True)


# An image stream counts through its inverse's prefix, which may fail at an early
# input while a later checkpoint lies past the horizon: the first checkpoint's
# error is raised, as by the loop over checkpoints.
@PROPERTY
@given(make=BULK | st.integers(0, 30).map(lambda m: lambda: failing_involution(m)),
       horizon=st.integers(0, 40),
       checkpoints=st.lists(st.integers(1, 45), min_size=1, max_size=6, unique=True).map(sorted))
@example(make=lambda: failing_involution(3), horizon=20, checkpoints=[2, 7, 30])
@example(make=lambda: Sampler.from_table([1, 0, 2], domain_bound=3), horizon=20,
         checkpoints=[2, 7, 30])
def test_image_density_profile_fails_as_the_checkpoint_loop(make, horizon, checkpoints):
    assume(make().kind == "permutation")
    image = image_stream(SetStream.from_spec("seed:5", horizon), make())
    expected = outcome(loop_density_values, image_stream(SetStream.from_spec("seed:5", horizon),
                                                         make()), checkpoints)
    assert outcome(lambda: density_profile(image, checkpoints).values) == expected


@PROPERTY
@given(make=SAMPLERS | code_tables(), q=st.integers(1, 3), full_height=st.integers(0, 3),
       depth=st.integers(0, 12))
# Input 1's code is not a natural; the domain ends at input 2, before the 2q * depth
# inputs are read: the code's error comes first, as in a loop over the inputs.
@example(make=lambda: Sampler.from_function([5, True].__getitem__, "injection", 2),
         q=1, full_height=0, depth=2)
# A sampler built directly is not checked for repeats: code 2, the string "1", on
# every input is two extensions of "1", but none of "11" at height 2, past the longest.
@example(make=lambda: Sampler(lambda x: 2, "injection", "ones"), q=1, full_height=0, depth=3)
def test_build_prefix_tree(make, q, full_height, depth):
    expected = outcome(scan_levels, make(), q, full_height, depth)
    got = outcome(lambda: build_prefix_tree(make(), q, full_height, depth).levels)
    assert got == expected
