"""Property oracles for the step-witness validator and the query-string bound.

`oracle_validate_weakrep`, `scan_eval_step` and `oracle_p_bound` are the
definition-level versions, kept verbatim apart from their names and the
cache: the validator scans the horizon after every triple and builds the
full range of inputs, `eval_step` scans every triple, and the bound looks
up every string of length below 5*log2(n).  The library versions must
agree with them on every report bullet, every value, and every
exception's type and message.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from intdensity import (
    FamilyRegistry,
    HorizonError,
    InvalidTableError,
    SigmaMap,
    WeakRepTable,
    cantor_pair,
    eval_step,
    p_bound,
    parse_manifest,
    validate_weakrep,
)
from intdensity.weakrep import BulletCheck, WeakRepReport, _diag_value, _passed
from oracles import outcome

PROPERTY = settings(max_examples=300, deadline=None)


def oracle_validate_weakrep(table: WeakRepTable) -> WeakRepReport:
    """Check the four invariants, with a witnessing triple for each failure."""
    triples = sorted(table.triples)
    horizon = table.horizon

    representation = _passed("representation")
    for t in triples:
        if t[2] > horizon:
            representation = BulletCheck(
                "representation", False, t,
                f"witness step {t[2]} exceeds horizon {horizon}",
            )
            break

    by_input: dict[int, list[tuple[int, int, int]]] = {}
    for t in triples:
        by_input.setdefault(t[0], []).append(t)

    consistency = _passed("consistency")
    for x, group in sorted(by_input.items()):
        values = sorted({y for _, y, _ in group})
        if len(values) > 1:
            first = next(t for t in group if t[1] == values[0])
            second = next(t for t in group if t[1] == values[1])
            consistency = BulletCheck(
                "consistency", False, (first, second),
                f"input {x} is witnessed with values {values[0]} and {values[1]}",
            )
            break

    monotonicity = _passed("monotonicity")
    present = table.triples
    for t in triples:
        x, y, z = t
        missing = next(
            (z2 for z2 in range(z + 1, horizon + 1) if (x, y, z2) not in present),
            None,
        )
        if missing is not None:
            monotonicity = BulletCheck(
                "monotonicity", False, t,
                f"witness persists to step {missing - 1} but not {missing}",
            )
            break

    downward = _passed("downward_closure")
    witnessed = sorted(by_input)
    if witnessed:
        expected = set(range(witnessed[-1] + 1))
        gaps = sorted(expected - set(witnessed))
        if gaps:
            above = next(x for x in witnessed if x > gaps[0])
            downward = BulletCheck(
                "downward_closure", False, by_input[above][0],
                f"input {above} is witnessed but {gaps[0]} is not",
            )

    return WeakRepReport((representation, consistency, monotonicity, downward))


def scan_eval_step(table: WeakRepTable, x: int, z: int):
    """The value to which x converges by step z, or None if it has not yet."""
    if z > table.horizon:
        raise HorizonError(f"step {z} exceeds table horizon {table.horizon}")
    report = validate_weakrep(table)
    if not report.ok:
        failed = next(b for b in report.bullets if not b.passed)
        raise InvalidTableError(f"{failed.name} fails: {failed.detail}")
    for tx, ty, tz in table.triples:
        if tx == x and tz == z and ty < z:
            return ty
    return None


def oracle_p_bound(registry: FamilyRegistry, sigma_map: SigmaMap, values, n: int) -> int:
    """1 + the largest pair code <index(sigma), values[index(sigma)]> over
    all binary strings sigma with 2^|sigma| < n^5.

    The length threshold is the exact power comparison realizing
    |sigma| < 5*log2(n); no floating point is involved.
    """
    if n < 2:
        raise ValueError("p_bound needs n >= 2")
    limit = n**5
    best = 0
    length = 0
    while (1 << length) < limit:
        for value in range(1 << length):
            sigma = format(value, "b").zfill(length) if length else ""
            e = sigma_map.lookup(sigma)
            if not 0 <= e < len(registry):
                raise ValueError(f"sigma map routes {sigma!r} to unknown program {e}")
            best = max(best, cantor_pair(e, _diag_value(values, e)))
        length += 1
    return 1 + best


# -- step-witness tables -----------------------------------------------------


@st.composite
def random_tables(draw):
    """Small tables of arbitrary triples, steps reaching past the horizon."""
    horizon = draw(st.integers(0, 6))
    triples = draw(st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, horizon + 2)),
        max_size=24,
    ))
    return WeakRepTable(triples, horizon)


@st.composite
def valid_tables(draw):
    """Tables meeting all four invariants: inputs 0..k-1, one run each up to the horizon."""
    horizon = draw(st.integers(0, 8))
    runs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, horizon)), max_size=5))
    triples = {(x, y, z) for x, (y, start) in enumerate(runs) for z in range(start, horizon + 1)}
    return WeakRepTable(frozenset(triples), horizon)


@st.composite
def mutants(draw):
    """A valid table with one invariant broken (or left intact if it cannot be)."""
    table = draw(valid_tables())
    triples, horizon = set(table.triples), table.horizon
    inputs = sorted({x for x, _, _ in triples})
    kind = draw(st.sampled_from(["representation", "consistency", "monotonicity", "downward"]))
    if kind == "representation":
        x = draw(st.sampled_from(inputs)) if inputs else 0
        y = next((y for tx, y, _ in triples if tx == x), 0)
        triples.add((x, y, horizon + draw(st.integers(1, 3))))
    elif kind == "consistency" and inputs:
        x = draw(st.sampled_from(inputs))
        y = next(y for tx, y, _ in triples if tx == x)
        other = draw(st.integers(0, 6).filter(lambda v: v != y))
        triples |= {(x, other, z) for z in range(draw(st.integers(0, horizon)), horizon + 1)}
    elif kind == "monotonicity":
        inner = [t for t in triples if (t[0], t[1], t[2] - 1) in triples]
        if inner:
            triples.discard(draw(st.sampled_from(sorted(inner))))
    elif kind == "downward" and inputs:
        if draw(st.booleans()):
            x = draw(st.sampled_from(inputs))
            triples = {t for t in triples if t[0] != x}
        else:
            x = len(inputs) + draw(st.integers(1, 3))
            triples.add((x, 0, horizon))
    return WeakRepTable(frozenset(triples), horizon)


@PROPERTY
@given(table=st.one_of(random_tables(), valid_tables(), mutants()))
def test_validator_matches_oracle(table):
    assert validate_weakrep(table).bullets == oracle_validate_weakrep(table).bullets


@PROPERTY
@given(table=st.one_of(random_tables(), valid_tables(), mutants()), data=st.data())
def test_eval_step_matches_scan(table, data):
    for _ in range(4):
        x = data.draw(st.integers(0, 6))
        z = data.draw(st.integers(0, table.horizon + 2))
        caught = (HorizonError, InvalidTableError)
        expected = outcome(scan_eval_step, table, x, z, catch=caught)
        assert outcome(eval_step, table, x, z, catch=caught) == expected


# -- query-string bounds -----------------------------------------------------


@st.composite
def sigma_cases(draw):
    """A bound at n in {2, 3} from a random sigma map.

    Routes reach one past the registry on both sides, the diagonal table
    may stop short of a routed index, entries lie on both sides of the
    length boundary L (5 at n = 2, 8 at n = 3), the default may be
    missing, and some maps cover every string below L.
    """
    n = draw(st.sampled_from([2, 3]))
    limit = (n**5 - 1).bit_length()
    size = draw(st.integers(1, 3))
    routes = st.integers(-1, size)
    keys = st.one_of(st.text("01", max_size=limit + 1), st.sampled_from(["2", "a1", " 0"]))
    entries = {}
    if draw(st.booleans()):
        cover = draw(st.lists(routes, min_size=1, max_size=4))
        strings = ("".join(bits) for length in range(limit) for bits in product("01", repeat=length))
        entries = {s: cover[i % len(cover)] for i, s in enumerate(strings)}
    entries.update(draw(st.dictionaries(keys, routes, max_size=10)))
    default = draw(st.none() | routes)
    values = draw(st.lists(st.integers(0, 20), max_size=size + 1))
    registry = parse_manifest(["identity"] * size, 16)
    return registry, SigmaMap(entries, default), values, n


@PROPERTY
@given(case=sigma_cases())
def test_p_bound_matches_oracle(case):
    expected = outcome(oracle_p_bound, *case, catch=(ValueError, LookupError))
    assert outcome(p_bound, *case, catch=(ValueError, LookupError)) == expected
