"""Step-witness tables, program registries, and the query-string codings.

A WeakRepTable represents a partial function by triples (x, y, z): the
value y is witnessed for input x with step component z.  Four invariants
make such a table a faithful finite representation:

* representation: every witness step z lies within the declared horizon;
* consistency: no input is witnessed with two different values;
* monotonicity: a witness at step z persists at every later step up to
  the horizon;
* downward closure: whenever some input has a witness, so does every
  smaller input.

A FamilyRegistry is an indexed catalog of budgeted programs serving as a
concrete function family together with its universal evaluator.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable, Mapping, Sequence
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter

from ._record import _Record
from .codes import (
    _data_lines, _int_field, _int_fields, _is_bits, _naturals, cantor_pair, cantor_unpair,
    string_code, string_decode, triple_code,
)
from .constructions import graph_set
from .errors import HorizonError, InvalidTableError
# eval_sampler is no longer called here; perfbench's tracer test checks the binding.
from .samplers import Sampler, eval_sampler  # noqa: F401
from .streams import SetStream


class WeakRepTable(_Record):
    """A finite set of (x, y, z) witness triples with an explicit horizon."""

    def __init__(self, triples: frozenset[tuple[int, int, int]], horizon: int):
        self._freeze(triples, horizon)

    @cached_property
    def sorted_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The triples in increasing order, sorted once per table."""
        return tuple(sorted(self.triples))

    @classmethod
    def _of_rows(cls, rows: list, horizon: int) -> "WeakRepTable":
        """The table of a list of triples of naturals, which it sorts in place
        to seed the sorted view: rows that arrive sorted cost one linear pass.
        """
        if horizon < 0:
            raise ValueError("horizon must be a natural number")
        table = cls(frozenset(rows), horizon)
        rows.sort()
        if len(rows) != len(table.triples):
            rows = [row for row, _ in groupby(rows)]
        object.__setattr__(table, "sorted_triples", tuple(rows))
        return table

    @classmethod
    def from_triples(cls, triples, horizon: int) -> "WeakRepTable":
        rows = [(x, y, z) for x, y, z in triples]
        _check_components(list(chain.from_iterable(rows)))
        return cls._of_rows(rows, horizon)

    def codes(self) -> list[int]:
        """The triples as pair codes <x,<y,z>>, sorted."""
        return sorted(triple_code(x, y, z) for x, y, z in self.sorted_triples)

    def to_lines(self) -> str:
        return "".join(f"{x},{y},{z}\n" for x, y, z in self.sorted_triples)

    @classmethod
    def from_lines(cls, lines, horizon: int = None) -> "WeakRepTable":
        """The table of a file of `x,y,z` lines in any order; a repeated line counts once.

        The horizon defaults to the largest step.  A file object or a text is
        read whole (see `codes._int_fields`).
        """
        fields = _int_fields(lines, 3, _table_line)
        _check_components([min(fields, default=0)])  # every field is an int, none a bool
        if horizon is None:
            horizon = max(fields[2::3], default=0)
        it = iter(fields)
        return cls._of_rows(list(zip(it, it, it)), horizon)


def _check_components(parts: list) -> None:
    if not _naturals(parts):
        raise ValueError("triple components must be naturals")


def _table_line(index: int, line: str) -> tuple[int, int, int]:
    """One `x,y,z` line of a table file."""
    fields = line.split(",")
    if len(fields) != 3:
        raise ValueError(f"table line {line!r} must be `x,y,z`")
    return tuple(_int_field(f, line, "line") for f in fields)


class BulletCheck(_Record):
    def __init__(self, name: str, passed: bool, witness: tuple | None, detail: str):
        self._freeze(name, passed, witness, detail)


class WeakRepReport(_Record):
    def __init__(self, bullets: tuple[BulletCheck, ...]):
        self._freeze(bullets)

    @property
    def ok(self) -> bool:
        return all(b.passed for b in self.bullets)

    def bullet(self, name: str) -> BulletCheck:
        for b in self.bullets:
            if b.name == name:
                return b
        raise KeyError(name)


def _passed(name: str) -> BulletCheck:
    return BulletCheck(name, True, None, "ok")


def validate_weakrep(table: WeakRepTable) -> WeakRepReport:
    """Check the four invariants, with a witnessing triple for each failure.

    Every check reads the (x, y) runs of ascending steps, in (x, y) order.
    A run is a range of indices into the sorted triples; one longer than a
    triple ends where bisection finds the next key.  Checks read a run's
    ends, and scan its slice only for a gap or for a step past the horizon.
    """
    horizon = table.horizon
    rows = table.sorted_triples
    runs, e, n = [], 0, len(rows)
    while e < n:
        s, (x, y, _) = e, rows[e]
        e += 1
        if e < n and rows[e][1] == y and rows[e][0] == x:
            e = bisect_left(rows, (x, y + 1), e)  # every (x, y, z) sorts below (x, y + 1)
        runs.append((s, e))
    heads = [rows[s] for s, _ in runs]

    representation = _passed("representation")
    late = next((t for s, e in runs if rows[e - 1][2] > horizon
                 for t in rows[s:e] if t[2] > horizon), None)
    if late is not None:
        representation = BulletCheck(
            "representation", False, late, f"witness step {late[2]} exceeds horizon {horizon}"
        )

    consistency = _passed("consistency")
    clash = next(((a, b) for a, b in zip(heads, heads[1:]) if a[0] == b[0]), None)
    if clash is not None:
        consistency = BulletCheck(
            "consistency", False, clash,
            f"input {clash[0][0]} is witnessed with values {clash[0][1]} and {clash[1][1]}",
        )

    # Only a run's first triple can fail first: its steps must count up to the horizon.
    # Distinct ascending steps count up with no gap exactly when the ends are len - 1 apart.
    monotonicity = _passed("monotonicity")
    for s, e in runs:
        start, last = rows[s][2], rows[e - 1][2]
        if e - s - 1 == last - start:
            missing = last + 1
        else:
            missing = next(z for z, t in enumerate(rows[s:e], start) if t[2] != z)
        if missing <= horizon:
            monotonicity = BulletCheck(
                "monotonicity", False, rows[s],
                f"witness persists to step {missing - 1} but not {missing}",
            )
            break

    # Each input's first triple; the first input unequal to its index lies above the least gap.
    downward = _passed("downward_closure")
    firsts = [next(group) for _, group in groupby(heads, itemgetter(0))]
    gap = next((i for i, t in enumerate(firsts) if t[0] != i), None)
    if gap is not None:
        downward = BulletCheck(
            "downward_closure", False, firsts[gap],
            f"input {firsts[gap][0]} is witnessed but {gap} is not",
        )

    return WeakRepReport((representation, consistency, monotonicity, downward))


def eval_step(table: WeakRepTable, x: int, z: int) -> int | None:
    """The value to which x converges by step z, or None if it has not yet.

    Convergence by step z needs a triple (x, y, z) with y < z, which keeps
    the question decidable from the table alone.  Every call validates the
    table first.
    """
    if z > table.horizon:
        raise HorizonError(f"step {z} exceeds table horizon {table.horizon}")
    report = validate_weakrep(table)
    if not report.ok:
        failed = next(b for b in report.bullets if not b.passed)
        raise InvalidTableError(f"{failed.name} fails: {failed.detail}")
    # A valid table witnesses x with one value y at most: its first row for x has it.
    rows = table.sorted_triples
    i = bisect_left(rows, (x,))
    if i < len(rows) and rows[i][0] == x:
        y = rows[i][1]
        if y < z and (x, y, z) in table.triples:
            return y
    return None


# -- program registries ------------------------------------------------------


class Program(_Record):
    """A budgeted evaluator: fn(x) returns (value, steps) or None to diverge."""

    def __init__(self, name: str, fn: Callable[[int], tuple[int, int] | None]):
        self._freeze(name, fn)


def builtin_program(spec: str) -> Program:
    """Named builtins: identity | const:<v> | double | succ | ramp |
    slowid:<k> | zeroonly | diverge."""
    if spec == "identity":
        return Program(spec, lambda x: (x, 1))
    if spec == "double":
        return Program(spec, lambda x: (2 * x, 1))
    if spec == "succ":
        return Program(spec, lambda x: (x + 1, 1))
    if spec == "ramp":
        return Program(spec, lambda x: (x, x + 1))
    if spec == "diverge":
        return Program(spec, lambda x: None)
    if spec == "zeroonly":
        return Program(spec, lambda x: (0, 1) if x == 0 else None)
    if spec.startswith("const:"):
        v = _int_field(spec[6:], spec)
        if v < 0:
            raise ValueError("constant must be a natural number")
        return Program(spec, lambda x: (v, 1))
    if spec.startswith("slowid:"):
        k = _int_field(spec[7:], spec)
        if k < 1:
            raise ValueError("slowid step count must be >= 1")
        return Program(spec, lambda x: (x, k))
    raise ValueError(f"unknown program spec {spec!r}")


class FamilyRegistry(_Record):
    """An indexed, immutable family of budgeted programs."""

    def __init__(self, programs: tuple[Program, ...], budget: int):
        self._freeze(programs, budget)

    def __len__(self):
        return len(self.programs)

    def _run(self, index: int, x: int) -> tuple[int, int] | None:
        """(value, steps) at x, or None on divergence or budget overrun."""
        if not 0 <= index < len(self):
            raise ValueError(f"program index {index} outside the registry [0, {len(self)})")
        result = self.programs[index].fn(x)
        if result is None or result[1] > self.budget:
            return None
        return result

    def eval(self, index: int, x: int) -> int | None:
        """The program's value at x, or None on divergence or budget overrun."""
        result = self._run(index, x)
        return None if result is None else result[0]


def parse_manifest(lines, budget: int) -> FamilyRegistry:
    """Registry from a manifest: one builtin program spec per line."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    programs = tuple(builtin_program(line) for line in _data_lines(lines))
    return FamilyRegistry(programs, budget)


def table_of_program(registry: FamilyRegistry, index: int, horizon: int) -> WeakRepTable:
    """The step-witness table of one registry program up to a horizon.

    A triple (x, y, z) is emitted exactly when the program halts on every
    input up to x within z steps and returns y at x; the output satisfies
    all four table invariants by construction.
    """
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    triples, values = [], []
    slowest = 0
    for x in range(horizon + 1):
        result = registry._run(index, x)
        if result is None:
            break
        value, steps = result
        slowest = max(slowest, steps)
        if slowest > horizon:
            break
        values.append(value)
        triples.extend(zip(repeat(x), repeat(value), range(slowest, horizon + 1)))
    _check_components(values)  # inputs and steps are ints made here, in order
    return WeakRepTable._of_rows(triples, horizon)


def interleave_family(registry: FamilyRegistry) -> FamilyRegistry:
    """Duplicate the family onto even/odd indices.

    Derived program 2e evaluates the e-th program at n div 2 (so its values
    at 2n and 2n+1 agree with the original at n); derived program 2e+1 is
    the e-th program unchanged.
    """
    programs = []
    for e, prog in enumerate(registry.programs):
        programs.append(
            Program(f"pairup({prog.name})", lambda n, fn=prog.fn: fn(n // 2))
        )
        programs.append(prog)
    return FamilyRegistry(tuple(programs), registry.budget)


def diagonal_avoid(values, e: int) -> int:
    """Read the diagonal-avoiding value for index e out of a table: values[2e]."""
    return _diag_value(values, 2 * e)


# -- dominating branch -------------------------------------------------------


def image_set(f_values: Sequence[int]) -> SetStream:
    """The image of a strictly increasing function table, as a stream.

    The stream is the member list of the values; its horizon is one past
    the largest of them.
    """
    values = list(f_values)
    if not values:
        raise ValueError("function table must be nonempty")
    if not _naturals(values) or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("function table must be strictly increasing over naturals")
    return SetStream.from_members(values, values[-1] + 1, f"image[{len(values)}]")


def dominating_adversary(f_values: Sequence[int], sampler: Sampler, q: int, n: int) -> int:
    """1 + the sampler's maximum over [0, (n+1)q], inclusive.

    Guarantee: whenever f_values[n] appears in the sampler's image of
    [0, (n+1)q), the returned bound strictly exceeds it — which is what
    makes this the counter to any claimed dominating table f_values.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return 1 + max(sampler.prefix((n + 1) * q + 1))


def adversary_rows(
    f_values: Sequence[int], sampler: Sampler, q: int, nmax: int
) -> list[tuple[int, bool]]:
    """For n = 0..nmax: dominating_adversary(f_values, sampler, q, n), and
    whether f_values[n] is in the sampler's image of [0, (n+1)q).

    One prefix of [0, (nmax+1)q] serves every row, and the rows before a
    failing input are made first, so the first error is the per-row one.
    """
    if nmax < 0:
        return []
    if q < 1:
        raise ValueError("q must be >= 1")
    values, error = sampler._read((nmax + 1) * q + 1)
    first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))  # the least input
    tops = list(accumulate(values, max, initial=-1))  # tops[j]: the maximum on [0, j)
    rows = [
        (1 + tops[(n + 1) * q + 1], first.get(f_values[n], (n + 1) * q) < (n + 1) * q)
        for n in range(min(nmax + 1, (len(values) - 1) // q))
    ]
    if error is not None:
        raise error
    return rows


# -- query-string codings ----------------------------------------------------


def psi_eval(pair_codes, x: int, budget: int) -> int | None:
    """Least y < budget with <x, y> in the code set, if every smaller input
    also has such a witness; None (divergence) otherwise."""
    if x < 0 or budget < 0:
        raise ValueError("x and budget must be naturals")
    best: dict[int, int] = {}
    for code in pair_codes:
        a, b = cantor_unpair(code)
        if b < budget and (a not in best or b < best[a]):
            best[a] = b
    if any(t not in best for t in range(x + 1)):
        return None
    return best[x]


class SigmaMap(_Record):
    """Maps binary strings to program indices, with an optional default
    routing unmapped strings to a designated always-diverging program."""

    def __init__(self, entries: Mapping[str, int], default: int | None = None):
        self._freeze(entries, default)

    def lookup(self, sigma: str) -> int:
        index = self.entries.get(sigma, self.default)
        if index is None:
            raise LookupError(
                f"no program index for string {sigma!r} and no default set"
            )
        return index

    @classmethod
    def parse(cls, lines) -> "SigmaMap":
        """Parse `sigma:index` lines, one per sigma; one `default:<index>` line
        sets the default."""
        entries: dict[str, int] = {}
        default = None
        for line in _data_lines(lines):
            left, _, right = line.partition(":")
            if left == "default" and default is None:
                default = _int_field(right, line, "line")
            elif _is_bits(left) and left not in entries:
                entries[left] = _int_field(right, line, "line")
            else:
                raise ValueError(f"bad sigma map line {line!r}")
        return cls(entries=entries, default=default)

    def format_lines(self) -> str:
        out = [f"{s}:{i}\n" for s, i in sorted(self.entries.items())]
        if self.default is not None:
            out.append(f"default:{self.default}\n")
        return "".join(out)


def _diag_value(values, e: int):
    if e >= 0:
        with suppress(IndexError, KeyError):
            return values[e]
    raise ValueError(f"diagonal table has no value at index {e}")


def p_bound(registry: FamilyRegistry, sigma_map: SigmaMap, values, n: int) -> int:
    """1 + the largest pair code <index(sigma), values[index(sigma)]> over
    all binary strings sigma with 2^|sigma| < n^5.

    The length threshold is the exact power comparison realizing
    |sigma| < 5*log2(n); no floating point is involved.  Those strings have
    codes below 2^L - 1, L = bit_length(n^5 - 1), and all unmapped ones route
    alike: the first stands for them all, checked in code order with the rest.
    """
    if n < 2:
        raise ValueError("p_bound needs n >= 2")
    end = (1 << (n**5 - 1).bit_length()) - 1
    codes = sorted(c for c in map(string_code, filter(_is_bits, sigma_map.entries)) if c < end)
    unmapped = next((i for i, c in enumerate(codes) if c != i), len(codes))
    if unmapped < end:
        insort(codes, unmapped)
    best = 0
    for code in codes:
        sigma = string_decode(code)
        e = sigma_map.lookup(sigma)
        if not 0 <= e < len(registry):
            raise ValueError(f"sigma map routes {sigma!r} to unknown program {e}")
        best = max(best, cantor_pair(e, _diag_value(values, e)))
    return 1 + best


def build_pset(
    values: Sequence[int],
    registry: FamilyRegistry,
    sigma_map: SigmaMap,
    checkpoints: Sequence[int],
) -> set[int]:
    """Codes of the graph stream's prefixes at the p_bound of each checkpoint.

    The underlying set is the graph of the diagonal table; its prefix at
    p_bound(n) is coded for every checkpoint n, with duplicates collapsing.
    """
    return _prefix_codes(values, [p_bound(registry, sigma_map, values, n) for n in checkpoints])


def _prefix_codes(values: Sequence[int], bounds: Sequence[int]) -> set[int]:
    """Codes of the graph stream's prefixes at the given bounds."""
    if not bounds:
        return set()
    stream = graph_set(values, len(values), stream_horizon=max(bounds))
    return {string_code(stream.prefix(p)) for p in bounds}
