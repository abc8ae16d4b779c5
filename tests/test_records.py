"""The nine immutable records against frozen-dataclass twins, and the CLI's start-up imports.

Each record is a plain class on `intdensity._record._Record`.  Its twin,
declared here under the same name as a frozen dataclass with the same
fields, defaults and checks, defines what the record keeps of a frozen
dataclass: the constructor's signature, `repr`, `==` (same class only),
`hash` or its `TypeError`, `__match_args__`, refused assignment and
deletion, and the `ValueError` texts of the three records that check their
fields.  The one difference is the error type of a refused assignment: a
twin raises `dataclasses.FrozenInstanceError`, a record its base class
`AttributeError`, with the same text.

`PrefixTree`'s twin checks its levels by definition: a full level is
compared with every string of its length, and a deeper level with the
children of the level above.
"""

import inspect
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdensity import constructions, streams, weakrep
from oracles import outcome

PROPERTY = settings(max_examples=150, deadline=None)


# -- the twins -----------------------------------------------------------------


@dataclass(frozen=True)
class DensityProfile:
    checkpoints: Any
    values: Any
    observed_sup: Any
    observed_inf: Any

    def __post_init__(self):
        if len(self.checkpoints) != len(self.values) or not self.checkpoints:
            raise ValueError("profile needs one value per checkpoint, at least one")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        for n, v in zip(self.checkpoints, self.values):
            if not 0 <= v <= 1 or (v * n).denominator != 1:
                raise ValueError(f"value {v} at checkpoint {n} is not a valid density")
        if self.observed_inf > self.observed_sup:
            raise ValueError("observed_inf exceeds observed_sup")
        if self.observed_sup not in self.values or self.observed_inf not in self.values:
            raise ValueError("observed sup/inf must be attained by listed values")


@dataclass(frozen=True)
class PrefixTree:
    q: Any
    full_height: Any
    depth: Any
    levels: Any

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.full_height < 0 or self.depth < 0:
            raise ValueError("heights must be naturals")
        if len(self.levels) != self.depth + 1:
            raise ValueError("need one level per height 0..depth")
        for height, level in enumerate(self.levels):
            if height <= self.full_height:
                if sorted(level) != ["".join(bits) for bits in product("01", repeat=height)]:
                    raise ValueError(f"level {height} must be the full tree")
            elif len(level) > 2 * self.q:
                raise ValueError(f"level {height} wider than {2 * self.q}")
            elif len(set(level)) != len(level):
                raise ValueError(f"level {height} repeats a string")
            elif any(s not in {p + b for p in self.levels[height - 1] for b in "01"}
                     for s in level):
                raise ValueError(f"level {height} is not prefix-closed")


@dataclass(frozen=True)
class WctInjection:
    max_n: Any
    table: Any
    guesses: Any

    def __post_init__(self):
        if len(self.table) != factorial(self.max_n):
            raise ValueError("table must cover [0, max_n!)")


@dataclass(frozen=True)
class WeakRepTable:
    triples: Any
    horizon: Any


@dataclass(frozen=True)
class BulletCheck:
    name: Any
    passed: Any
    witness: Any
    detail: Any


@dataclass(frozen=True)
class WeakRepReport:
    bullets: Any


@dataclass(frozen=True)
class Program:
    name: Any
    fn: Any


@dataclass(frozen=True)
class FamilyRegistry:
    programs: Any
    budget: Any


@dataclass(frozen=True)
class SigmaMap:
    entries: Any
    default: Optional[int] = None


TWINS = {
    DensityProfile: streams.DensityProfile,
    PrefixTree: constructions.PrefixTree,
    WctInjection: constructions.WctInjection,
    WeakRepTable: weakrep.WeakRepTable,
    BulletCheck: weakrep.BulletCheck,
    WeakRepReport: weakrep.WeakRepReport,
    Program: weakrep.Program,
    FamilyRegistry: weakrep.FamilyRegistry,
    SigmaMap: weakrep.SigmaMap,
}


# -- field values ----------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-2, 6), st.integers(1, 4))
TEXT = st.text("ab,\n'\"é", max_size=4)


@st.composite
def mutated(draw, valid_fields, noises):
    """The fields of a valid record, with one field (or none) replaced by noise."""
    fields = list(draw(valid_fields))
    which = draw(st.integers(0, len(fields)))
    if which < len(fields):
        fields[which] = draw(noises[which])
    return tuple(fields)


@st.composite
def profiles(draw):
    checkpoints = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    values = tuple(Fraction(draw(st.integers(0, n)), n) for n in checkpoints)
    return tuple(checkpoints), values, max(values), min(values)


@st.composite
def trees(draw):
    q, full_height, depth = draw(st.integers(1, 2)), draw(st.integers(-1, 2)), draw(st.integers(0, 4))
    levels = [("",)]
    for height in range(1, depth + 1):
        children = [s + b for s in levels[-1] for b in "01"]
        if height > full_height:
            children = draw(st.lists(st.sampled_from(children), unique=True, max_size=2 * q)
                            if children else st.just([]))
        levels.append(tuple(children))
    return q, full_height, depth, tuple(levels)


LEVEL = st.lists(st.text("01x", max_size=3), max_size=5).map(tuple)


@st.composite
def tree_levels(draw):
    """A valid tree's fields with one level kept, repeated twice over, or drawn
    from the children of the level above, their one-letter misspellings and
    short strings."""
    q, full_height, depth, levels = draw(trees())
    height = draw(st.integers(min(1, depth), depth))
    near = ["", "0", "1", "x", *(s + b for s in levels[height - 1] for b in "01x")]
    drawn = st.lists(st.sampled_from(near), max_size=2 * q + 1).map(tuple)
    level = draw(st.sampled_from([levels[height], levels[height] * 2]) | drawn | LEVEL)
    return q, full_height, depth, levels[:height] + (level,) + levels[height + 1:]


@st.composite
def injections(draw):
    max_n = draw(st.integers(0, 3))
    table = tuple(draw(st.permutations(range(factorial(max_n)))))
    return max_n, table, draw(st.dictionaries(st.integers(1, 3), st.text("01", max_size=3)))


BULLETS = st.builds(weakrep.BulletCheck, TEXT, st.booleans(),
                    st.none() | st.tuples(st.integers(0, 3)), TEXT)
PROGRAMS = st.builds(weakrep.Program, TEXT, st.sampled_from([abs, str, lambda x: (x, 1)]))
TRIPLES = st.frozensets(st.tuples(*[st.integers(0, 3)] * 3), max_size=4)

FIELDS = {
    DensityProfile: mutated(profiles(), [
        st.lists(st.integers(-1, 8), max_size=4).map(tuple),
        st.lists(FRACTIONS, max_size=4).map(tuple),
        FRACTIONS,
        FRACTIONS,
    ]),
    PrefixTree: tree_levels() | mutated(tree_levels(), [
        st.integers(0, 2),
        st.integers(-1, 3),
        st.integers(-1, 4),
        st.lists(LEVEL, max_size=5).map(tuple),
    ]),
    WctInjection: mutated(injections(), [
        st.integers(0, 3),
        st.lists(st.integers(0, 6), max_size=7).map(tuple),
        st.just({}),
    ]),
    WeakRepTable: st.tuples(TRIPLES, st.integers(0, 4)),
    BulletCheck: st.tuples(TEXT, st.booleans(), st.none() | st.tuples(st.integers(0, 3)), TEXT),
    WeakRepReport: st.tuples(st.lists(BULLETS, max_size=2).map(tuple)),
    Program: st.tuples(TEXT, st.sampled_from([abs, str])),
    FamilyRegistry: st.tuples(st.lists(PROGRAMS, max_size=2).map(tuple), st.integers(1, 3)),
    SigmaMap: st.tuples(st.dictionaries(st.text("01", max_size=2), st.integers(0, 2), max_size=2))
    | st.tuples(st.dictionaries(st.text("01", max_size=2), st.integers(0, 2), max_size=2),
                st.none() | st.integers(0, 2)),
}


# -- the comparison ----------------------------------------------------------------


def refusal(fn, *args):
    """The text of the AttributeError that `fn(*args)` raises."""
    with pytest.raises(AttributeError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_record_has_its_twins_signature_and_match_args(twin):
    def shape(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    record = TWINS[twin]
    assert shape(record) == shape(twin)
    assert record.__match_args__ == twin.__match_args__


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
@PROPERTY
@given(data=st.data())
def test_record_behaves_as_its_frozen_dataclass_twin(twin, data):
    record = TWINS[twin]
    fields, others = data.draw(FIELDS[twin]), data.draw(FIELDS[twin])
    made = outcome(record, *fields, catch=ValueError)
    keywords = dict(zip(twin.__match_args__, fields))
    assert made == outcome(lambda: record(**keywords), catch=ValueError)
    expected = outcome(twin, *fields, catch=ValueError)
    if isinstance(expected, tuple):
        assert made == expected
        return
    assert repr(made) == repr(expected)
    assert made == record(*fields) and made != expected
    assert outcome(hash, made, catch=TypeError) == outcome(hash, expected, catch=TypeError)
    other, other_twin = (outcome(cls, *others, catch=ValueError) for cls in (record, twin))
    if not isinstance(other_twin, tuple):
        assert (made == other) == (expected == other_twin)
    for name in (*twin.__match_args__, "extra"):
        with pytest.raises(FrozenInstanceError) as err:
            setattr(expected, name, 1)
        assert refusal(setattr, made, name, 1) == str(err.value)
        with pytest.raises(FrozenInstanceError) as err:
            delattr(expected, name)
        assert refusal(delattr, made, name) == str(err.value)
    assert repr(made) == repr(expected)


def test_the_cli_imports_neither_dataclasses_nor_inspect_nor_typing():
    # -S keeps site-packages' start-up hooks out, so only the package's imports count.
    # The CSV writer quotes by its own rule, so `csv` is not loaded either.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import intdensity.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'csv', '_csv'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
