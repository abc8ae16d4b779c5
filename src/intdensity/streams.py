"""Integer sets as deterministic bit streams with exact partial densities.

A SetStream is a total 0/1 characteristic function on an initial segment
[0, horizon) of the naturals.  Densities are exact fractions; indices are
arbitrary-precision, so factorial and power-sized horizons are fine.

Each kind of set has one backend:

* member lists hold a finite set as its sorted members: `list:` and
  `empty` specs, `SetStream.from_members`, and the graph and image sets
  built by `constructions.graph_set` and `weakrep.image_set`;
* bit buffers hold 0/1 bytes: `file:` streams are a fixed buffer, and
  `seed:` streams fill theirs on demand by whole steps of 4,096 bits, to
  the end of the step a query reaches.  Each step's inputs are the last
  step's plus one stride (see `_SeededBits`), and every bit equals its
  per-index definition `splitmix64`;
* periodic patterns repeat one period: `full`, `evens` and `odds`;
* rules call a membership function per bit: `SetStream.from_function`
  (`prefix_set`, `image_stream`); a complement is a rule that reads its
  inner stream's bulk `gather` with 0 and 1 swapped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from operator import itemgetter

from ._record import _Record
from .codes import _is_bits, _int_field, _naturals
from .errors import HorizonError, InsufficientElementsError

# Seeded streams draw from a splitmix-style 64-bit mixer: output i is
# mix(seed + (i+1)*GAMMA), so any index is evaluable in O(1) and outputs
# are reproducible bit-for-bit across platforms.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

# A seeded buffer grows by whole steps, to the end of the step that holds a
# request.  One step computes _CHUNK bits in _CHUNK 128-bit lanes of one
# 64 KB int; steps of 2^14 lanes were no faster and raised peak memory.
# Counts read _CHUNK-bit chunks, by popcount.
_CHUNK = 1 << 12

# Render a 0/1 byte buffer as the characters "0"/"1", and back.
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_BITS = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def splitmix64(seed: int, index: int) -> int:
    """The index-th 64-bit output of the documented splitmix-style mixer."""
    z = (seed + (index + 1) * SPLITMIX_GAMMA) & _U64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & _U64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & _U64
    return z ^ (z >> 31)


@cache
def _lanes() -> tuple[int, int, int, int]:
    """(steps, ones, low, stride) over _CHUNK 128-bit lanes, built once by doubling.

    Lane k of `steps` holds (k+1)*GAMMA mod 2^64, lane k of `ones` holds 1,
    lane k of `low` holds 2^64 - 1 and lane k of `stride` holds _CHUNK*GAMMA mod 2^64.
    """
    steps, ones, width = SPLITMIX_GAMMA, 1, 1
    while width < _CHUNK:
        # lane width + k is lane k plus width*GAMMA, mod 2^64
        stride = (width * SPLITMIX_GAMMA) & _U64
        steps |= ((steps + stride * ones) & (ones * _U64)) << (128 * width)
        ones |= ones << (128 * width)
        width *= 2
    return steps, ones, ones * _U64, ((_CHUNK * SPLITMIX_GAMMA) & _U64) * ones


def _count_ones(bits) -> int:
    """The 1s in 0/1 bytes: one popcount, with no branch to mispredict, unlike `bytes.count`."""
    return int.from_bytes(bits, "little").bit_count()


def _horizon_error(index: int, horizon: int) -> HorizonError:
    return HorizonError(f"index {index} outside evaluation horizon [0, {horizon})")


class _Backend:
    """Bit source that overrides `bit` or `gather`, each derived from the other: `bit`
    is a one-index gather.  Every other query is derived from `gather`, and a backend
    overrides one only where it has a closed form, or, for a buffer, a rank directory
    (see `_Buffered`).  The chunk loops here count from bit 0 on every call."""

    def bit(self, index: int) -> int:
        return self.gather((index,), index + 1)[0]

    def gather(self, indices: Sequence[int], bound: int) -> bytes:
        """The bits at the given in-horizon indices, all below bound, as 0/1 bytes."""
        return bytes(map(self.bit, indices))

    def prefix(self, n: int) -> str:
        return self.gather(range(n), n).translate(_BIT_CHARS).decode("ascii")

    def members_below(self, n: int) -> list[int]:
        return list(compress(range(n), self.gather(range(n), n)))

    def _chunks(self, bound: int):
        """(start, bits) for each _CHUNK-long piece [start, end) of [0, bound), in order."""
        for start in range(0, bound, _CHUNK):
            end = min(start + _CHUNK, bound)
            yield start, self.gather(range(start, end), end)

    def count_below(self, n: int) -> int:
        return sum(_count_ones(bits) for _, bits in self._chunks(n))

    def kth_one(self, k: int, bound: int) -> int | None:
        # Count whole chunks in C and select only inside the one that holds the k-th one.
        for start, bits in self._chunks(bound):
            ones = _count_ones(bits)
            if ones > k:
                return next(islice(compress(range(start, bound), bits), k, None))
            k -= ones
        return None


class _Members(_Backend):
    def __init__(self, members: Sequence[int]):
        self._members = members  # sorted, deduplicated

    def bit(self, index):
        pos = bisect_left(self._members, index)
        return 1 if pos < len(self._members) and self._members[pos] == index else 0

    def count_below(self, n):
        return bisect_left(self._members, n)

    def members_below(self, n):
        return self._members[: bisect_left(self._members, n)]

    def gather(self, indices, bound):
        if isinstance(indices, range) and indices.step == 1:  # members set in a zero buffer
            bits, start = bytearray(len(indices)), indices.start
            for member in self.members_below(indices.stop)[self.count_below(start) :]:
                bits[member - start] = 1
            return bits
        return bytes(map(set(self.members_below(bound)).__contains__, indices))

    def kth_one(self, k, bound):
        if k < len(self._members) and self._members[k] < bound:
            return self._members[k]
        return None


class _Buffered(_Backend):
    """Dense 0/1 byte buffer; subclasses that can fill it do so on demand
    (single-threaded: a fill is not synchronized).

    Counts and selections read a rank directory (Jacobson, "Space-efficient static
    trees and graphs", FOCS 1989): `_ranks[c]` is the number of ones below bit
    c * _CHUNK.  It grows chunk by chunk as queries reach further, so each whole
    chunk of the buffer is popcounted once; the buffer must not change below it.
    """

    def __init__(self, initial: bytearray = None):
        self._buf = initial if initial is not None else bytearray()
        self._ranks = [0]

    def _fill(self, upto: int) -> None:
        raise HorizonError(f"only {len(self._buf)} bits available")

    def _ensure(self, upto: int) -> None:
        if len(self._buf) < upto:
            self._fill(upto)

    def _extend_ranks(self) -> None:
        """Count the next whole chunk into the directory."""
        start = (len(self._ranks) - 1) * _CHUNK
        self._ensure(start + _CHUNK)
        self._ranks.append(self._ranks[-1] + _count_ones(self._buf[start : start + _CHUNK]))

    def count_below(self, n):
        whole = n // _CHUNK
        while len(self._ranks) <= whole:
            self._extend_ranks()
        self._ensure(n)
        return self._ranks[whole] + _count_ones(self._buf[whole * _CHUNK : n])

    def kth_one(self, k, bound):
        # Extend only up to the chunk that holds the k-th one, or to bound's chunk.
        ranks = self._ranks
        while ranks[-1] <= k and len(ranks) <= bound // _CHUNK:
            self._extend_ranks()
        chunk = bisect_right(ranks, k) - 1
        start = chunk * _CHUNK
        end = min(start + _CHUNK, bound)  # empty when fewer than k + 1 ones lie below bound
        self._ensure(end)
        ones = compress(range(start, end), self._buf[start:end])
        return next(islice(ones, k - ranks[chunk], None), None)

    def gather(self, indices, bound):
        self._ensure(bound)
        if isinstance(indices, range) and indices.step > 0:  # an ascending range: one slice
            return self._buf[indices.start : indices.stop : indices.step]
        if len(indices) < 2:  # itemgetter needs an index, and returns one bit bare
            return bytes(map(self._buf.__getitem__, indices))
        return bytes(itemgetter(*indices)(self._buf))


class _SeededBits(_Buffered):
    """Bits of `seed:` specs, computed _CHUNK at a time in 128-bit lanes.

    The buffer grows by whole steps.  Lane k of a step holds the mixer input of bit
    start + k, so each step's inputs are the last step's plus _CHUNK * GAMMA, the first
    step's included: it follows a step -1 made with the lane constants.  The finalizer
    runs on all lanes of one Python int at once, and every lane is masked to 64 bits
    before each multiply, so a lane's product fits in its 128 bits and no carry reaches
    the next lane.  Each bit equals `splitmix64(seed, i) % den < num`, read off carries
    without a division: for every den <= 2^63, powers of two included, by one direct
    remainder (Lemire, Kaser and Kurz, "Faster remainder by direct computation", SPE
    2019), and for den > 2^63 by three clamped carries.  At den = 2^L the remainder is
    the output's low L bits (F = L), so the mixer multiplies by its constants cut to the
    bits that those L bits depend on: 59 and 29 bits at p = 1/2, not 64 and 64.
    """

    def __init__(self, seed: int, num: int, den: int):
        super().__init__()
        # For den <= 2^63, with L = (den - 1).bit_length(), F = 64 + L and c = ceil(2^F / den),
        # x = c v mod 2^F has v mod den = floor(x den / 2^F), so v mod den < num iff
        # x < t = ceil(num 2^F / den), iff x + 2^F - t does not carry into bit F.  As
        # 2^64 <= c < 2^65, a lane holds x = ((v mod 2^L) 2^64 + v (c - 2^64)) mod 2^F.  At
        # den = 2^L, F = L and c = 1 serve as well: x = v mod 2^L, t = num and no multiply.
        # Only v mod 2^F is read then; as (a b) mod 2^W needs a and b mod 2^W only, and
        # z ^ (z >> s) mod 2^W needs z mod 2^(W+s) only, the mixer's multipliers are cut to
        # their low min(64, F + 58) and min(64, F + 31) bits: all 64 unless den = 2^L with
        # L < 33.  For den > 2^63, v < 2 den, so the bit is [v < num] + [v >= den] -
        # [v >= den + num], each a carry into bit 64, its addend clamped to [0, 2^64].
        steps, ones, self._low, self._stride = _lanes()
        self._muls = (_MIX_MUL_1, _MIX_MUL_2)
        if den > 1 << 63:  # the clamped addends and the carry bit 64
            self._extra = [min(num, 1 << 64) * ones, max(0, (1 << 64) - den) * ones,
                           max(0, (1 << 64) - den - num) * ones, ones << 64]
            self._readout = None
        else:
            bits = (den - 1).bit_length()  # L
            width = bits + (64 if den & (den - 1) else 0)  # F
            c, t = -(-(1 << width) // den), -(-(num << width) // den)
            self._muls = (_MIX_MUL_1 & ((1 << min(64, width + 58)) - 1),
                          _MIX_MUL_2 & ((1 << min(64, width + 31)) - 1))
            # 2^F - 1, 2^L - 1 and 2^F - t in each lane; then c - 2^(F-L) (0 at a power of
            # two), and the byte of a lane that holds bit F, the sum's top bit, read as 1
            # where bit F is clear
            self._extra = [((1 << width) - 1) * ones, ((1 << bits) - 1) * ones,
                           ((1 << width) - t) * ones]
            clear = bytes(1 - ((b >> (width % 8)) & 1) for b in range(256))
            self._readout = (c - (1 << (width - bits)), width // 8, clear)
        # the lane inputs of step -1, then of the last step filled
        self._inputs = (steps + ((seed - _CHUNK * SPLITMIX_GAMMA) & _U64) * ones) & self._low

    def _fill(self, upto):
        extra, readout, low, stride = self._extra, self._readout, self._low, self._stride
        mul_1, mul_2 = self._muls
        while len(self._buf) < upto:
            z = self._inputs = (self._inputs + stride) & low
            z = (((z ^ (z >> 30)) & low) * mul_1) & low
            z = (((z ^ (z >> 27)) & low) * mul_2) & low
            z ^= z >> 31  # only the low 64 bits of each lane are read below
            if readout is None:  # den > 2^63: the clamped carries
                nums, den_off, den_num_off, carry = extra
                z &= low
                bits = (((z ^ low) + nums) & carry) + ((z + den_off) & carry)
                bits -= (z + den_num_off) & carry
                self._buf += bits.to_bytes(16 * _CHUNK, "little")[8::16]
            else:
                top, low_bits, past = extra
                multiplier, at, clear = readout
                x = z & low_bits
                if multiplier:  # on z masked first: the finalizer left the next lane's low bits
                    # in bits 97-127
                    x = ((((z & low) * multiplier) & top) + (x << 64)) & top
                self._buf += (x + past).to_bytes(16 * _CHUNK, "little")[at::16].translate(clear)


class _Periodic(_Backend):
    """The set whose bits repeat `pattern`; counts and selections are arithmetic on its period."""

    def __init__(self, pattern: bytes):
        self._pattern = pattern
        self._ones = list(compress(range(len(pattern)), pattern))  # one period's members

    def gather(self, indices, bound):
        pattern, period = self._pattern, len(self._pattern)
        if isinstance(indices, range):  # the range's j-th index has bit cycle[j % period]
            cycle = bytes(pattern[i % period] for i in indices[:period])
            return cycle * (len(indices) // period) + cycle[: len(indices) % period]
        return bytes(map(pattern.__getitem__, map(period.__rmod__, indices)))

    def count_below(self, n):
        periods, rest = divmod(n, len(self._pattern))
        return periods * len(self._ones) + bisect_left(self._ones, rest)

    def kth_one(self, k, bound):
        periods, rest = divmod(k, len(self._ones))
        pos = periods * len(self._pattern) + self._ones[rest]
        return pos if pos < bound else None


class _Rule(_Backend):
    """Arbitrary deterministic membership rule, evaluated per bit, with an optional
    `count` and an optional bulk `gather`."""

    def __init__(self, fn: Callable[[int], int], count: Callable[[int], int] = None,
                 gather: Callable[[Sequence[int], int], bytes] = None):
        self._fn = fn
        self._count = count
        self._gather = gather

    def bit(self, index):
        return 1 if self._fn(index) else 0

    def gather(self, indices, bound):
        if self._gather is None:
            return super().gather(indices, bound)
        return self._gather(indices, bound)

    def count_below(self, n):
        return super().count_below(n) if self._count is None else self._count(n)


class SetStream:
    """A deterministic total characteristic function on [0, horizon).

    Repeated queries at the same index return the same bit; queries at or
    above the horizon raise HorizonError.
    """

    __slots__ = ("_backend", "_horizon", "_label")

    def __init__(self, backend: _Backend, horizon: int, label: str):
        if horizon < 0:
            raise ValueError("horizon must be a natural number")
        self._backend = backend
        self._horizon = horizon
        self._label = label

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self):
        return f"SetStream({self._label!r}, horizon={self._horizon})"

    def bit(self, index: int) -> int:
        if index < 0 or index >= self._horizon:
            raise _horizon_error(index, self._horizon)
        return self._backend.bit(index)

    def count_below(self, n: int) -> int:
        """Number of members strictly below n (n must be within horizon)."""
        if n < 0 or n > self._horizon:
            raise HorizonError(f"count bound {n} outside [0, {self._horizon}]")
        return self._backend.count_below(n)

    def prefix(self, n: int) -> str:
        """The first n bits as a binary string: the backend's gather of
        [0, n), translated in one call."""
        if n < 0 or n > self._horizon:
            raise HorizonError(f"prefix length {n} outside [0, {self._horizon}]")
        return self._backend.prefix(n)

    def members_below(self, n: int) -> list[int]:
        if n < 0 or n > self._horizon:
            raise HorizonError(f"bound {n} outside [0, {self._horizon}]")
        return self._backend.members_below(n)

    def complement(self) -> "SetStream":
        inner = self._backend
        rule = _Rule(lambda i: 1 - inner.bit(i), lambda n: n - inner.count_below(n),
                     lambda indices, bound: inner.gather(indices, bound).translate(_FLIP))
        return SetStream(rule, self._horizon, f"~({self._label})")

    @classmethod
    def from_function(
        cls, fn: Callable[[int], int], horizon: int, label: str, count: Callable[[int], int] = None
    ) -> "SetStream":
        """Stream backed by an arbitrary (deterministic) membership rule (see `_Rule`)."""
        return cls(_Rule(fn, count), horizon, label)

    @classmethod
    def from_members(
        cls, members: Iterable[int], horizon: int, label: str = None
    ) -> "SetStream":
        ordered = sorted(set(members))
        if not _naturals(ordered):
            raise ValueError("members must be naturals")
        if label is None:
            label = "list:" + ",".join(map(str, ordered))
        return cls(_Members(ordered), horizon, label)

    @classmethod
    def from_spec(cls, spec: str, horizon: int = None) -> "SetStream":
        """Build a stream from the specification mini-DSL.

        Grammar:
            empty | full | evens | odds
            seed:<u64>[:p=<num>/<den>]
            file:<path>
            list:<n1,n2,...>

        `file` streams default their horizon to the number of bits in the
        file (a hard cap); `list` streams default to max member + 1 but
        accept any horizon, being total.  All other forms require an
        explicit horizon.
        """
        if spec.startswith("list:"):
            members = [_int_field(tok, spec) for tok in spec[5:].split(",") if tok != ""]
            if horizon is None:
                horizon = max(members, default=0) + 1
            return cls.from_members(members, horizon, spec)
        backend, cap = _parse_spec(spec)
        if horizon is None:
            horizon = cap
        if horizon is None:
            raise ValueError(f"stream spec {spec!r} requires an explicit horizon")
        if cap is not None and horizon > cap:
            raise ValueError(
                f"horizon {horizon} exceeds the {cap} bits provided by {spec!r}"
            )
        return cls(backend, horizon, spec)


def _parse_spec(spec: str):
    """The backend of a spec other than `list:`, and its bit count if finite."""
    if spec == "empty":
        return _Members([]), None
    pattern = {"full": b"\x01", "evens": b"\x01\x00", "odds": b"\x00\x01"}.get(spec)
    if pattern is not None:
        return _Periodic(pattern), None
    if spec.startswith("seed:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad seed spec {spec!r}")
        seed = _int_field(parts[1], spec)
        if not 0 <= seed <= _U64:
            raise ValueError("seed must fit in 64 bits")
        num, den = 1, 2
        if len(parts) == 3:
            if not parts[2].startswith("p="):
                raise ValueError(f"bad probability clause in {spec!r}")
            try:
                num_s, den_s = parts[2][2:].split("/")
                num, den = int(num_s), int(den_s)
            except ValueError:
                raise ValueError(f"bad probability clause in {spec!r}") from None
            if den < 1 or not 0 <= num <= den:
                raise ValueError("probability must satisfy 0 <= num/den <= 1")
        if num in (0, den):  # no bit or every bit is set, whatever the seed
            return (_Periodic(b"\x01") if num else _Members([])), None
        return _SeededBits(seed, num, den), None
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path, "r", encoding="ascii") as fh:
            # str.split drops exactly the characters for which str.isspace holds.
            text = "".join(fh.read().split())
        if not _is_bits(text):
            raise ValueError(f"{path} must contain only 0/1 characters and whitespace")
        bits = bytearray(text, "ascii").translate(_CHAR_BITS)
        return _Buffered(bits), len(bits)
    raise ValueError(f"unknown stream spec {spec!r}")


class DensityProfile(_Record):
    """Exact partial densities at chosen checkpoints plus observed sup/inf."""

    def __init__(self, checkpoints: tuple[int, ...], values: tuple[Fraction, ...],
                 observed_sup: Fraction, observed_inf: Fraction):
        if len(checkpoints) != len(values) or not checkpoints:
            raise ValueError("profile needs one value per checkpoint, at least one")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        for n, v in zip(checkpoints, values):
            if not 0 <= v <= 1 or (v * n).denominator != 1:
                raise ValueError(f"value {v} at checkpoint {n} is not a valid density")
        if observed_inf > observed_sup:
            raise ValueError("observed_inf exceeds observed_sup")
        if observed_sup not in values or observed_inf not in values:
            raise ValueError("observed sup/inf must be attained by listed values")
        self._freeze(checkpoints, values, observed_sup, observed_inf)


def partial_density(stream: SetStream, n: int) -> Fraction:
    """|S restricted to [0, n)| / n as an exact fraction in lowest terms."""
    if n < 1 or n > stream.horizon:
        raise HorizonError(f"density checkpoint {n} outside [1, {stream.horizon}]")
    return Fraction(stream.count_below(n), n)


def density_profile(stream: SetStream, checkpoints: Sequence[int]) -> DensityProfile:
    """Partial densities at each checkpoint with their max and min."""
    if not checkpoints:
        raise ValueError("checkpoint list must be nonempty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    values = tuple(partial_density(stream, n) for n in checkpoints)
    return DensityProfile(
        checkpoints=tuple(checkpoints),
        values=values,
        observed_sup=max(values),
        observed_inf=min(values),
    )


def preimage_hits(
    stream: SetStream, values: Sequence[int], checkpoints: Sequence[int]
) -> list[int]:
    """For each checkpoint n, the number of j < n with values[j] in the set.

    `values` are a sampler's values on [0, max checkpoint), so the counts
    are n * preimage_partial_density(stream, sampler, n) at every
    checkpoint.  The stream's bits are read in one bulk gather, and a value
    outside the horizon raises the HorizonError that `SetStream.bit` would,
    for the first such value in input order.
    """
    if checkpoints and checkpoints[0] < 1:
        raise HorizonError("preimage density needs a checkpoint n >= 1")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    last = checkpoints[-1] if checkpoints else 0
    if len(values) != last:
        raise ValueError(f"need the {last} values below the last checkpoint, got {len(values)}")
    horizon = stream.horizon
    low, top = _bounds(values)
    if top >= horizon or low < 0:
        raise _horizon_error(next(v for v in values if not 0 <= v < horizon), horizon)
    bits = stream._backend.gather(values, top + 1)
    counts, hits, start = [], 0, 0
    for n in checkpoints:
        hits += bits.count(1, start, n)
        counts.append(hits)
        start = n
    return counts


def _bounds(values: Sequence[int]) -> tuple[int, int]:
    """The least and greatest value, or (0, -1); an ascending range has them at its ends."""
    if isinstance(values, range) and values.step > 0 and values:
        return values[0], values[-1]
    return min(values, default=0), max(values, default=-1)


def principal_function(stream: SetStream, k: int) -> int:
    """The k-th member of the set in increasing order, 0-indexed."""
    if k < 0:
        raise ValueError("element index must be a natural number")
    pos = stream._backend.kth_one(k, stream.horizon)
    if pos is None:
        raise InsufficientElementsError(
            f"{stream.label} holds fewer than {k + 1} elements below {stream.horizon}"
        )
    return pos
