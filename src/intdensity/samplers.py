"""Total injections and permutations as evaluable programs.

A Sampler evaluates a total function on [0, domain_bound) (or on all of
the naturals when unbounded).  Injectivity is settled where a sampler is
built: tables are checked when they are built, and the builtins, the
prefix-code samplers and the guess-driven injection are injective by
construction.  Only `Sampler.from_function`, whose injectivity is
unknown, logs every evaluation; a repeated value there is a hard error
because it proves the program is not a valid sampler.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial
from itertools import repeat

from .codes import _int_field, _int_fields, _naturals
from .errors import DomainError, HorizonError, InjectivityError
from .streams import SetStream, preimage_hits


class Sampler:
    """A total injection or permutation, injective by how it was built."""

    __slots__ = ("kind", "label", "domain_bound", "_raw", "_table", "_involution", "_bulk")

    def __init__(
        self,
        raw: Callable[[int], int],
        kind: str,
        label: str,
        domain_bound: int | None = None,
        table: tuple[int, ...] | None = None,
        involution: bool = False,
        bulk: Callable[[int], Sequence[int]] | None = None,
    ):
        if kind not in ("injection", "permutation"):
            raise ValueError(f"kind must be injection or permutation, got {kind!r}")
        self.kind = kind
        self.label = label
        self.domain_bound = domain_bound
        self._raw = raw
        self._table = table
        self._involution = involution
        self._bulk = bulk  # a builtin's values on [0, n) inside the domain, at once

    def __repr__(self):
        bound = "unbounded" if self.domain_bound is None else self.domain_bound
        return f"Sampler({self.label!r}, {self.kind}, domain={bound})"

    def __call__(self, x: int) -> int:
        return eval_sampler(self, x)

    def prefix(self, n: int) -> Sequence[int]:
        """`[eval_sampler(self, j) for j in range(n)]`, with its first error: a range
        or slice for builtins and tables, that loop for other samplers."""
        values, error = self._read(n)
        if error is not None:
            raise error
        return values

    def _read(self, n: int) -> tuple[Sequence[int], Exception | None]:
        """The prefix up to the first input that fails, and its error or None: a reader
        checks those values, then raises it, as a loop over the inputs would."""
        bound, table = self.domain_bound, self._table
        stop = max(0, n if bound is None else min(n, bound))
        values, error = [], None
        if self._bulk is not None:
            values = self._bulk(stop)
        elif table is not None:  # the table, then its identity extension
            values = table[:stop] + tuple(range(len(table), stop))
        else:
            # A program may raise anything; its error is returned, not dropped, and
            # list.extend keeps the values made before it.
            try:
                values.extend(map(eval_sampler, repeat(self), range(stop)))
            except Exception as exc:
                error = exc
        if error is None and stop < n:
            error = DomainError(f"input {bound} outside sampler domain [0, {bound})")
        return values, error

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "Sampler":
        return cls(lambda x: x, "permutation", "identity", involution=True, bulk=range)

    @classmethod
    def double(cls) -> "Sampler":
        return cls(lambda x: 2 * x, "injection", "double", bulk=lambda n: range(0, 2 * n, 2))

    @classmethod
    def shift(cls, k: int) -> "Sampler":
        if k < 0:
            raise ValueError("shift amount must be a natural number")
        return cls(lambda x: x + k, "injection", f"shift:{k}", bulk=lambda n: range(k, n + k))

    @classmethod
    def swapblocks(cls, k: int) -> "Sampler":
        """Swap [0, k) with [k, 2k), identity elsewhere."""
        if k < 1:
            raise ValueError("block size must be >= 1")

        def raw(x: int) -> int:
            if x < k:
                return x + k
            if x < 2 * k:
                return x - k
            return x

        def bulk(n: int) -> list[int]:
            return [*range(k, k + min(n, k)), *range(min(n, 2 * k) - k), *range(2 * k, n)]

        return cls(raw, "permutation", f"swapblocks:{k}", involution=True, bulk=bulk)

    @classmethod
    def from_table(
        cls,
        values: Sequence[int],
        kind: str = None,
        domain_bound: int = None,
        label: str = None,
    ) -> "Sampler":
        """Finite-table sampler; tables are validated eagerly.

        With domain_bound beyond the table length the sampler continues as
        the identity, which requires the table to map [0, len) onto itself.
        """
        table = tuple(values)
        if not _naturals(table):
            raise ValueError("table values must be naturals")
        if len(set(table)) < len(table):
            seen: set[int] = set()
            for v in table:
                if v in seen:
                    raise InjectivityError(f"table repeats value {v}")
                seen.add(v)
        # n distinct naturals whose maximum is n - 1 are exactly 0..n-1.
        is_perm = max(table, default=-1) == len(table) - 1
        if kind is None:
            kind = "permutation" if is_perm else "injection"
        if kind == "permutation" and not is_perm:
            raise ValueError("table is not a bijection of [0, len(table))")
        if domain_bound is None:
            domain_bound = len(table)
        if domain_bound < len(table):
            raise ValueError("domain_bound smaller than the table")
        if domain_bound > len(table) and not is_perm:
            raise ValueError("identity extension needs a permutation of [0, len(table))")

        def raw(x: int) -> int:
            return table[x] if x < len(table) else x

        if label is None:
            label = f"table[{len(table)}]"
        return cls(raw, kind, label, domain_bound, table)

    @classmethod
    def from_function(
        cls,
        fn: Callable[[int], int],
        kind: str,
        domain_bound: int = None,
        label: str = "custom",
    ) -> "Sampler":
        """Sampler of unknown injectivity: every value is logged, a repeat raises
        (single-threaded: the log is not synchronized)."""
        seen: dict[int, int] = {}

        def checked(x: int) -> int:
            value = fn(x)
            prev = seen.setdefault(value, x)
            if prev != x:
                raise InjectivityError(f"{label} maps both {prev} and {x} to {value}")
            return value

        return cls(checked, kind, label, domain_bound)

    # -- permutation inversion ----------------------------------------

    def inverse(self) -> "Sampler":
        """The inverse permutation; only permutations are invertible."""
        if self.kind != "permutation":
            raise ValueError(f"{self.label} is not a permutation")
        if self._table is not None:
            inv = [0] * len(self._table)
            for i, v in enumerate(self._table):
                inv[v] = i
            return Sampler.from_table(
                inv, "permutation", self.domain_bound, f"inv({self.label})"
            )
        if self._involution:
            return self
        raise ValueError(f"no inverse available for {self.label}")


def parse_sampler(spec: str) -> Sampler:
    """Build a sampler from the mini-DSL.

    Grammar: identity | double | shift:<k> | table:<csv-path> | swapblocks:<k>.
    Table files hold one `j,value` row per input, with j ascending from 0.
    """
    if spec == "identity":
        return Sampler.identity()
    if spec == "double":
        return Sampler.double()
    if spec.startswith("shift:"):
        return Sampler.shift(_int_field(spec[6:], spec))
    if spec.startswith("swapblocks:"):
        return Sampler.swapblocks(_int_field(spec[11:], spec))
    if spec.startswith("table:"):
        path = spec[6:]
        values = load_table_csv(path)
        return Sampler.from_table(values, label=spec)
    raise ValueError(f"unknown sampler spec {spec!r}")


def load_table_csv(path) -> list[int]:
    """Read `j,value` data lines (no header); rows must cover 0..len-1 in order."""

    def bad_row(j: int) -> ValueError:
        return ValueError(f"{path}: row {j} must be `{j},<value>`")

    def read_line(j: int, line: str) -> tuple[int, int]:
        row = line.split(",")
        if len(row) != 2 or _int_field(row[0], line, "line") != j:
            raise bad_row(j)
        return j, _int_field(row[1], line, "line")

    with open(path) as fh:
        fields = _int_fields(fh, 2, read_line)
    keys, values = fields[0::2], fields[1::2]
    if keys != list(range(len(keys))):
        raise bad_row(next(j for j, key in enumerate(keys) if key != j))
    return values


def eval_sampler(sampler: Sampler, x: int) -> int:
    """Evaluate the sampler at a natural number inside its domain."""
    if x < 0:
        raise DomainError(f"sampler input {x} is not a natural number")
    bound = sampler.domain_bound
    if bound is not None and x >= bound:
        raise DomainError(f"input {x} outside sampler domain [0, {bound})")
    return sampler._raw(x)


def image_interval(sampler: Sampler, n: int) -> set[int]:
    """The image of [0, n); always has exactly n elements for a valid sampler."""
    _check_interval(sampler, n)
    return set(sampler.prefix(n))


def _check_interval(sampler: Sampler, n: int) -> None:
    if sampler.domain_bound is not None and n > sampler.domain_bound:
        raise DomainError(
            f"interval length {n} exceeds domain bound {sampler.domain_bound}"
        )


def preimage_partial_density(stream: SetStream, sampler: Sampler, n: int) -> Fraction:
    """|{j < n : sampler(j) in S}| / n, exactly."""
    if n < 1:
        raise HorizonError("preimage density needs a checkpoint n >= 1")
    if sampler.domain_bound is not None and n > sampler.domain_bound:
        raise DomainError(
            f"checkpoint {n} exceeds domain bound {sampler.domain_bound}"
        )
    return Fraction(_preimage_count(stream, sampler, n), n)


def _preimage_count(stream: SetStream, sampler: Sampler, n: int) -> int:
    """|{j < n : sampler(j) in S}|, failing where a loop over the inputs would."""
    values, error = sampler._read(n)
    hits = preimage_hits(stream, values, [len(values)] if values else [])
    if error is not None:
        raise error
    return hits[0] if hits else 0


def image_stream(stream: SetStream, permutation: Sampler) -> SetStream:
    """The image of the set under a permutation, as a stream.

    Membership of i is decided through the inverse permutation, so i is
    evaluable whenever the inverse value lies below the source horizon.
    Counts gather the source bits at the inverse's prefix in one call.
    """
    inv = permutation.inverse()
    return SetStream.from_function(
        lambda i: stream.bit(eval_sampler(inv, i)),
        stream.horizon,
        f"{permutation.label}({stream.label})",
        count=partial(_preimage_count, stream, inv),
    )
