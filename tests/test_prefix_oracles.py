"""Oracles for `Sampler.prefix` and the readers of a sampler's values on [0, n).

`Sampler.prefix(n)` reads [0, n) at once: a range for identity, `double` and
`shift`, three ranges for `swapblocks`, a slice plus the identity extension
for tables, and `eval_sampler` one input at a time for any other sampler.  It
must equal `[eval_sampler(s, j) for j in range(n)]` and raise what that loop
raises, at the same first input.

Every reader that now reads a prefix is checked against the per-input
version it replaced, kept here verbatim apart from its name: the same result,
or the same first error in type and text.  The samplers include programs
wrapped by `Sampler.from_function` that fail at a chosen input, repeat a
value, or return negative values, so that a reader's own errors and the
sampler's interleave as they do in a per-input loop.
"""

from bisect import bisect_left, insort
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
    dominating_adversary,
    eval_sampler,
    hit_indices,
    image_interval,
    image_stream,
    preimage_partial_density,
    trace_from_sampler,
)
from intdensity.codes import cantor_pair, cantor_unpair, string_decode
from intdensity.constructions import _traces

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


def loop_adversary_rows(f_values, sampler, q, nmax):
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


def loop_tree_levels(sampler, q, full_height, depth):
    """The levels `build_prefix_tree` grows, one evaluation at a time."""
    levels = [[""]]
    for height in range(1, min(full_height, depth) + 1):
        levels.append([s + b for s in levels[-1] for b in "01"])
    decoded = []
    for height in range(full_height + 1, depth + 1):
        while len(decoded) < 2 * q * height:
            insort(decoded, string_decode(eval_sampler(sampler, len(decoded))))
        kept = []
        for parent in levels[height - 1]:
            for child in (parent + "0", parent + "1"):
                extensions = bisect_left(decoded, child + "2") - bisect_left(decoded, child)
                if extensions >= height:
                    kept.append(child)
        levels.append(kept)
    return tuple(tuple(level) for level in levels)


def outcome(fn, *args):
    """The result, or the type and text of the exception."""
    try:
        return fn(*args)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)


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


BUILTINS = st.sampled_from([Sampler.identity, Sampler.double]) | st.builds(
    lambda make, k: (lambda: make(k)),
    st.sampled_from([Sampler.shift, Sampler.swapblocks]), st.integers(1, 9),
)
BULK = BUILTINS | tables()
SAMPLERS = BULK | programs()


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
@given(make=SAMPLERS, q=st.integers(1, 4),
       steps=st.lists(st.integers(0, 14), max_size=6, unique=True).map(sorted))
def test_traces_grow_one_set_through_the_steps(make, q, steps):
    def each():
        return [loop_trace_from_sampler(make(), q, n) for n in steps]

    def running():
        return [set(trace) for trace in _traces(make(), q, steps)]

    assert outcome(running) == outcome(each)


@PROPERTY
@given(make=SAMPLERS, q=st.integers(0, 3),
       values=st.lists(st.integers(-1, 6), max_size=16), cut=st.integers(0, 18))
@example(make=lambda: Sampler.from_table([cantor_pair(j, 0) for j in range(6)]),
         q=1, values=[0] * 6, cut=6)
def test_hit_indices(make, q, values, cut):
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


@PROPERTY
@given(make=SAMPLERS, q=st.integers(1, 3), full_height=st.integers(0, 3),
       depth=st.integers(0, 6))
def test_build_prefix_tree(make, q, full_height, depth):
    expected = outcome(loop_tree_levels, make(), q, full_height, depth)
    got = outcome(lambda: build_prefix_tree(make(), q, full_height, depth).levels)
    assert got == expected
