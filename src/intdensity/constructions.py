"""The three headline constructions.

* prefix sets: the set of codes of a stream's finite prefixes, which is
  recoverable from any consistent batch of its members (introreduction)
  and decodable from a dense sampling through a bounded-width tree;
* the guess-driven injection: a total injection assembled block by block
  from guessed prefix strings, which samples the target set with density
  at least 1 - 1/n at checkpoint n! whenever the guess for block n is true;
* graph sets and trace extraction: the graph of a function as a set of
  pair codes, plus the adversary that reads a sampler's image back into
  small candidate sets for the function's values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, compress, count, islice, pairwise
from math import factorial, isqrt
from operator import add, itemgetter

from ._record import _Record
from .codes import (
    _data_lines, _int_field, _is_bits, _naturals, cantor_pair, cantor_unpair, prefix_code,
    string_decode, string_parts,
)
# string_code is no longer called here; perfbench's tracer test checks the binding.
from .codes import string_code  # noqa: F401
from .errors import InjectivityError, InsufficientElementsError, PrefixInconsistencyError
# eval_sampler is no longer called here; perfbench's tracer test checks the binding.
from .samplers import Sampler, _check_interval, eval_sampler  # noqa: F401
from .streams import (
    _BIT_CHARS, _CHAR_BITS, _FLIP, SetStream, _Buffered, _count_ones, _horizon_error,
    principal_function,
)

# A full tree of height h holds 2^(h+1) - 1 strings, and time and memory
# double with every level: height 20 takes about 1.5 s and 290 MB
# (CPython 3.11, one core), so taller full trees are refused up front.
_MAX_FULL_HEIGHT = 20


def prefix_set(stream: SetStream) -> SetStream:
    """The set of length-lex codes of the stream's prefixes, as a stream.

    Membership of a code decodes it to a string and compares it with the
    source prefix of the same length.  The horizon 2^(h+1) - 1 stops just
    past the codes of length-h strings, so no decoded string is longer than
    the source horizon h.
    """

    def member(code: int) -> bool:
        sigma = string_decode(code)
        return stream.prefix(len(sigma)) == sigma

    horizon = (1 << (stream.horizon + 1)) - 1
    return SetStream.from_function(member, horizon, f"prefixes({stream.label})")


def prefix_code_sampler(stream: SetStream, domain_bound: int) -> Sampler:
    """The injection k -> code of the stream's length-k prefix."""
    # Codes of length-k strings fill [2^k - 1, 2^(k+1) - 1), so distinct k never collide.
    # The prefix rendered so far at least doubles, up to the horizon, when an input reaches
    # past it, and is parsed once then: each code is read off that integer's top k bits.
    length = value = 0

    def code(k: int) -> int:
        nonlocal length, value
        if k > length:
            rendered = stream.prefix(max(k, min(2 * length, stream.horizon)))
            length, value = len(rendered), int(rendered, 2)
        return prefix_code(value, length, k)

    return Sampler(
        code,
        "injection",
        f"prefix-codes({stream.label})",
        domain_bound,
    )


def introreduce(codes) -> str:
    """Merge a batch of prefix codes back into the bits they constrain.

    Every code is decoded to a string; position i of the result is defined
    iff some decoded string is longer than i, and all strings must agree
    wherever they overlap.  For members of one set's prefix set the result
    is that set's prefix of the maximal decoded length.
    """
    ordered = sorted(set(codes))
    if not ordered:
        raise ValueError("need at least one code")
    bits = ""
    for code in ordered:
        # Length-lex codes grow with length, so sigma is at least as long as bits.
        sigma = string_decode(code)
        if not sigma.startswith(bits):
            # The first differing position is the highest set bit of the XOR.  The
            # first code to reach it is the least code of a longer string: those
            # start at 2^(i+1) - 1.
            i = len(bits) - (int(bits, 2) ^ int(sigma[: len(bits)], 2)).bit_length()
            raise PrefixInconsistencyError(i, ordered[bisect_left(ordered, (2 << i) - 1)], code)
        bits = sigma
    return bits


class PrefixTree(_Record):
    """Levels of candidate prefixes kept by the dense-sampling decoder.

    Levels 0..full_height form the full binary tree, level 0 being the
    empty string alone.  Every deeper level holds at most 2q distinct
    strings and is prefix-closed against its parent: each string is a
    string of the level above plus "0" or "1".
    """

    def __init__(self, q: int, full_height: int, depth: int,
                 levels: tuple[tuple[str, ...], ...]):
        _check_tree_shape(q, full_height, depth)
        if len(levels) != depth + 1:
            raise ValueError("need one level per height 0..depth")
        parents: set[str] = set()
        for height, level in enumerate(levels):
            kept = set(level)
            if height <= full_height:
                # 2^height distinct 0/1 strings of length height are the whole level.
                if (len(level) != 1 << height or len(kept) != len(level)
                        or set(map(len, level)) != {height} or not _is_bits("".join(level))):
                    raise ValueError(f"level {height} must be the full tree")
            elif len(level) > 2 * q:
                raise ValueError(f"level {height} wider than {2 * q}")
            elif len(kept) != len(level):
                raise ValueError(f"level {height} repeats a string")
            elif not (set(map(itemgetter(slice(None, -1)), level)) <= parents
                      and set(map(itemgetter(slice(-1, None)), level)) <= {"0", "1"}):
                raise ValueError(f"level {height} is not prefix-closed")
            parents = kept
        self._freeze(q, full_height, depth, levels)

    def widths(self) -> list[int]:
        return [len(level) for level in self.levels]


def _check_tree_shape(q: int, full_height: int, depth: int) -> None:
    if q < 1:
        raise ValueError("q must be >= 1")
    if full_height < 0 or depth < 0:
        raise ValueError("heights must be naturals")


def build_prefix_tree(sampler: Sampler, q: int, full_height: int, depth: int) -> PrefixTree:
    """Grow the candidate tree from a sampler's image.

    The tree is full up to full_height.  A string of length n above that
    survives iff its parent survived and the image of [0, 2qn) contains at
    least n codes of strings extending it (a string extends itself).

    No code is decoded to a string: each is read as its (length L, value v),
    and with M the longest length and b = M.bit_length(), the integer keys
    ((v << (M - L)) << b) | L are kept sorted.  A string extends the child of
    value cv at height h iff its key lies in [((cv << (M - h)) << b) | h,
    ((cv + 1) << (M - h)) << b), so two bisections count the extensions, and
    a height past M keeps no child.
    """
    _check_tree_shape(q, full_height, depth)
    if min(full_height, depth) > _MAX_FULL_HEIGHT:
        raise ValueError(f"full tree above height {_MAX_FULL_HEIGHT} is not materializable")
    levels = [[""]]
    for height in range(1, min(full_height, depth) + 1):
        levels.append([s + b for s in levels[-1] for b in "01"])

    codes, error = sampler._read(2 * q * depth if depth > full_height else 0)
    parts = list(map(string_parts, codes))
    del codes  # freed before the keys are made, which lowers the peak
    if error is not None:
        raise error
    longest = max((length for length, _ in parts), default=0)
    b = longest.bit_length()
    keys = [value << (longest - length + b) | length for length, value in parts]
    # A full level: only parents of strings long enough for the next one count.
    parents = sorted({value >> (length - full_height) for length, value
                      in parts[: 2 * q * (full_height + 1)] if length > full_height})
    decoded: list[int] = []  # sorted keys
    for height in range(full_height + 1, depth + 1):
        for key in keys[len(decoded) : 2 * q * height]:
            insort(decoded, key)
        kept = []
        if height <= longest:
            shift = longest - height + b
            for parent in parents:
                for child in (2 * parent, 2 * parent + 1):
                    extensions = (bisect_left(decoded, child + 1 << shift)
                                  - bisect_left(decoded, child << shift | height))
                    if extensions >= height:
                        kept.append(child)
        levels.append([format(child, f"0{height}b") for child in kept])
        parents = kept

    return PrefixTree(
        q=q,
        full_height=full_height,
        depth=depth,
        levels=tuple(tuple(level) for level in levels),
    )


def extract_candidates(tree: PrefixTree) -> list[str]:
    """The strings surviving at full depth; empty when the tree dies early.

    When the sampler's partial densities on the prefix set strictly exceed
    1/q at every checkpoint past full_height (up to 2q*depth), the sampled
    set's depth-long prefix is among the candidates, and there are at most
    2q of them.
    """
    return list(tree.levels[tree.depth])


# -- guess-driven injection -----------------------------------------------


def block_of(j: int) -> int:
    """The block index n with j in I_n, where I_1 = [0,1) and I_n = [(n-1)!, n!)."""
    if j < 0:
        raise ValueError("j must be a natural number")
    n = 1
    while j >= factorial(n):
        n += 1
    return n


def wct_target(stream: SetStream, n: int) -> str:
    """The true guess for block n: the stream's bits below its n!-th element.

    The returned string contains exactly n! ones, the positions of the
    set's first n! members.
    """
    return _wct_truth(stream, n).translate(_BIT_CHARS).decode("ascii")


def _wct_truth(stream: SetStream, n: int) -> bytes:
    """`wct_target` as 0/1 bytes, read in one bulk gather."""
    if n < 1:
        raise ValueError("block index must be >= 1")
    try:
        cutoff = principal_function(stream, factorial(n))
    except InsufficientElementsError:
        raise InsufficientElementsError(
            f"{stream.label} holds fewer than {factorial(n)} + 1 elements below "
            f"{stream.horizon}"
        ) from None
    return stream._backend.gather(range(cutoff), cutoff)


class WctInjection(_Record):
    """A total injection on [0, max_n!) assembled from per-block guesses."""

    def __init__(self, max_n: int, table: tuple[int, ...], guesses: Mapping[int, str]):
        if len(table) != factorial(max_n):
            raise ValueError("table must cover [0, max_n!)")
        self._freeze(max_n, table, guesses)

    def as_sampler(self) -> Sampler:
        return Sampler.from_table(
            self.table, "injection", label=f"wct-injection[{self.max_n}]"
        )

    def to_csv_text(self) -> str:
        return "".join(f"{j},{value}\n" for j, value in enumerate(self.table))


def build_wct_injection(guesses: Mapping[int, str], max_n: int) -> WctInjection:
    """Assemble the injection from guesses for blocks 1..max_n.

    Inputs are processed in increasing order.  For j in block n, the
    preferred value is the position of the j-th one (0-indexed, j global)
    in the guess for block n; when that one does not exist or its position
    was already used, the least value not yet assigned is taken instead,
    so the result is total and injective regardless of the guesses.
    """
    table = _wct_table(_wct_blocks(_guess_masks(guesses, max_n)))
    return WctInjection(max_n=max_n, table=table, guesses=dict(guesses))


def _free(assigned: bytearray, first: int, last: int) -> bool:
    """Whether no value in [first, last) is assigned yet."""
    return assigned.find(1, first, last) < 0


# The values of the wct injection on one block of inputs, in input order: the
# ones of the 0/1 bytes `mask` in [first, last), then the list of values `tail`.
_WctBlock = namedtuple("_WctBlock", ["mask", "first", "last", "tail"])


def _guess_masks(guesses: Mapping[int, str], max_n: int) -> list[bytes]:
    """The guesses for blocks 1..max_n, in order, as 0/1 bytes."""
    masks = []
    for n in range(1, max_n + 1):
        if not _is_bits(guesses[n]):
            raise ValueError(f"guess for block {n} is not a bit string")
        masks.append(guesses[n].encode("ascii").translate(_CHAR_BITS))
    return masks


def _wct_blocks(masks: Sequence[bytes]) -> list[_WctBlock]:
    """The injection of `build_wct_injection`, block by block, proved injective.

    `masks[n - 1]` is the guess for block n as 0/1 bytes, and block n
    covers inputs [(n-1)!, n!).  Its range runs over the guess's ones from
    its (n-1)!-th one on, up to its (n!-1)-th one or its first one that an
    earlier input took; past a clash its preferred values are taken one at a
    time, and the values it lacks are the least ones not yet taken.
    """
    max_n = len(masks)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")

    # A value is a ones position or the least unassigned value, which is
    # below max_n! because fewer than max_n! values are ever assigned.
    size = max([factorial(max_n)] + [len(mask) for mask in masks])
    assigned = bytearray(size)
    blocks = []
    next_free = 0  # every value below it is taken
    for n, mask in enumerate(masks, 1):
        low, high = factorial(n - 1) if n > 1 else 0, factorial(n)
        # The block's first and last preferred values, by chunk-local selects.
        ones = _Buffered(mask)
        first = ones.kth_one(low, len(mask))
        end = None if first is None else ones.kth_one(high - 1, len(mask))
        if first is None:
            first = last = 0
        else:  # past the block's preferred values
            last = len(mask) if end is None else end + 1
        if _free(assigned, first, last):
            assigned[first:last] = mask[first:last]
            stop = last
        else:  # the range runs up to the first preferred value taken, marked by one OR
            clash = _int(assigned, first, last) & _int(mask, first, last)
            stop = first + ((clash & -clash).bit_length() - 1) // 8 if clash else last
            span = _int(assigned, first, stop) | _int(mask, first, stop)
            assigned[first:stop] = span.to_bytes(stop - first, "little")
        tail = []
        for value in compress(range(stop, last), memoryview(mask)[stop:last]):
            if assigned[value]:
                value = next_free = assigned.index(0, next_free)
            assigned[value] = 1
            tail.append(value)
        # The range and the loop took every preferred value; a short guess lacks some.
        missing = 0 if end is not None else high - low - _count_ones(mask[first:last])
        if missing:  # the first zeros from next_free on
            zeros = compress(count(next_free), assigned[next_free:].translate(_FLIP))
            tail += islice(zeros, missing)
            assigned[next_free : tail[-1] + 1] = b"\x01" * (tail[-1] + 1 - next_free)
            next_free = tail[-1] + 1
        # A nonempty range ends at a one, so a range past the horizon has a one there.
        blocks.append(_WctBlock(mask, first, max(first, mask.rfind(1, first, stop) + 1), tail))

    # Each value was unassigned when it was taken, so the values are distinct
    # exactly when max_n! of them are marked.
    distinct = _count_ones(assigned)
    if distinct != factorial(max_n):
        raise InjectivityError(
            f"the wct injection takes {distinct} distinct values on {factorial(max_n)} inputs"
        )
    return blocks


def _int(bits, first: int, last: int) -> int:
    """The 0/1 bytes bits[first:last] as an int with byte i at bit 8i."""
    return int.from_bytes(bits[first:last], "little")


def _wct_table(blocks: Sequence[_WctBlock]) -> tuple[int, ...]:
    """The values of the injection on [0, max_n!), in input order."""
    return tuple(chain.from_iterable(
        chain(compress(range(first, last), memoryview(mask)[first:last]), tail)
        for mask, first, last, tail in blocks
    ))


def _wct_hits(stream: SetStream, blocks: Sequence[_WctBlock]) -> list[int]:
    """For each block n, the number of j < n! whose value is in the set.

    Equal to `preimage_hits(stream, _wct_table(blocks), checkpoints)` at the
    checkpoints 1!, ..., max_n!, with the same HorizonError for the first
    value in input order outside the horizon.  A block's range is counted
    without listing its values: with one byte per bit, the AND of the
    guess's and the stream's slices, read as ints, has one set bit per hit.
    """
    horizon = stream.horizon
    for mask, first, last, tail in blocks:
        if first < last and last > horizon:
            raise _horizon_error(mask.find(1, max(first, horizon), last), horizon)
        if tail and max(tail) >= horizon:
            raise _horizon_error(next(v for v in tail if v >= horizon), horizon)
    backend = stream._backend
    counts, hits = [], 0
    for mask, first, last, tail in blocks:
        if first < last:
            bits = backend.gather(range(first, last), last)
            hits += (_int(mask, first, last) & int.from_bytes(bits, "little")).bit_count()
        if tail:
            hits += _count_ones(backend.gather(tail, max(tail) + 1))
        counts.append(hits)
    return counts


def load_guess_lines(lines) -> dict[int, str]:
    """Parse a guess map from `n:<bitstring>` lines, one per block (blank and `#`
    lines ignored)."""
    guesses: dict[int, str] = {}
    for line in _data_lines(lines):
        left, colon, right = line.partition(":")
        n = _int_field(left, line, "line")
        if n < 1 or not colon or not _is_bits(right) or n in guesses:
            raise ValueError(f"bad guess line {line!r}")
        guesses[n] = right
    return guesses


def format_guess_lines(guesses: Mapping[int, str]) -> str:
    return "".join(f"{n}:{guesses[n]}\n" for n in sorted(guesses))


# -- graph sets and the trace adversary ------------------------------------


def graph_members(values: Sequence[int], horizon: int) -> frozenset[int]:
    """The pair codes of the function's graph on [0, horizon)."""
    if horizon < 0 or horizon > len(values):
        raise ValueError("function table does not cover [0, horizon)")
    return frozenset(_graph_codes(values, horizon))


def _graph_codes(values: Sequence[int], n: int) -> list[int]:
    """`cantor_pair(m, values[m])` for m < n, with one check of the values."""
    head = values[:n]
    if not _naturals(head):  # raises at the first bad value
        return [cantor_pair(m, y) for m, y in enumerate(head)]
    return [s * (s + 1) // 2 + y for s, y in zip(map(add, count(), head), head)]


def graph_set(
    values: Sequence[int], horizon: int, stream_horizon: int = None
) -> SetStream:
    """The graph of the table on [0, horizon) as a member-list stream.

    The stream horizon defaults to just past the largest member; pass
    stream_horizon to make longer prefixes evaluable.
    """
    members = graph_members(values, horizon)
    if stream_horizon is None:
        stream_horizon = 1 + max(members, default=0)
    return SetStream.from_members(members, stream_horizon, f"graph[{horizon}]")


def trace_from_sampler(sampler: Sampler, q: int, n: int) -> set[int]:
    """Candidate values for step n: second components of the image of [0, (n+1)q)."""
    return next(_traces(sampler, q, [n]))


def _traces(sampler: Sampler, q: int, steps: Sequence[int]) -> Iterator[set[int]]:
    """`trace_from_sampler` at each of the increasing steps, off one prefix: the
    same set each time, grown in place, so a caller reads it before the next."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if steps and steps[0] < 0:
        raise ValueError("n must be a natural number")
    values, error = sampler._read((steps[-1] + 1) * q if steps else 0)
    good = len(values) if _naturals(values) else [_naturals((v,)) for v in values].index(False)
    # cantor_unpair(z)[1] of every value before the first non-natural, in one pass
    roots = [(isqrt(8 * z + 1) - 1) // 2 for z in islice(values, good)]
    seconds = [z - w * (w + 1) // 2 for z, w in zip(values, roots)]
    trace: set[int] = set()
    for start, stop in pairwise([0] + [(n + 1) * q for n in steps]):
        _check_interval(sampler, stop)
        if stop > len(values):
            raise error
        if stop > good:  # raise for the bad value that comes first in the step's image set
            [cantor_unpair(v) for v in set(values[:stop])]
        trace.update(seconds[start:stop])
        yield trace


def hit_indices(sampler: Sampler, values: Sequence[int], q: int, horizon: int) -> set[int]:
    """The inputs m < horizon whose graph point appears in the image of [0, (m+1)q).

    Rows are checked from one prefix, and those before a failing input first.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if horizon > len(values):
        raise ValueError("function table does not cover [0, horizon)")
    image, error = sampler._read(horizon * q)
    first = dict(zip(reversed(image), range(len(image) - 1, -1, -1)))
    codes = _graph_codes(values, max(0, min(horizon, len(image) // q)))
    hits = {m for m, code in enumerate(codes) if first.get(code, horizon * q) < (m + 1) * q}
    if error is not None:
        raise error
    return hits
