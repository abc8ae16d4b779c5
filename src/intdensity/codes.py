"""Coding bijections: pairs, triples, binary strings, finite sets, and the
self-delimiting / fixed-width integer codes used by the query-string machinery.

All codes are exact over arbitrary-precision naturals; no floats anywhere.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from contextlib import suppress
from itertools import chain, count
from math import isqrt


def _check_natural(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a natural number, got {value!r}")
    return value


def _naturals(values) -> bool:
    """`_check_natural` in bulk: whether every value is an `int`, none a `bool`, and the
    least >= 0.  A bulk path that finds this false falls back per element only to raise."""
    kinds = set(map(type, values))
    return all(issubclass(k, int) and k is not bool for k in kinds) and min(values, default=0) >= 0


def _is_bits(text) -> bool:
    """Whether text is a string over {0,1}, checked in C.

    An ASCII string encodes byte for byte, and deleting the bytes of 0 and
    1 leaves exactly its other characters.
    """
    return isinstance(text, str) and text.isascii() and not text.encode().translate(None, b"01")


def _data_lines(lines) -> list[str]:
    """The stripped lines of a data file that are neither blank nor `#` comments.

    Blank lines are dropped in one C-level pass, and the per-line comment
    test runs only when some kept line holds a `#` at all.
    """
    kept = list(filter(None, map(str.strip, lines)))
    if "#" in "".join(kept):
        kept = [line for line in kept if not line.startswith("#")]
    return kept


def _int_field(text: str, source: str, kind: str = "spec") -> int:
    """An integer field of a spec, data line or value list; a malformed one names it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in {kind} {source!r}") from None


def _int_fields(lines, width: int, read_line) -> list[int]:
    """The integer fields of a data file of `width` comma-separated fields a line.

    A text, or a file object's whole text, of only digits, commas and
    newlines with width - 1 commas on every line is one JSON array of
    naturals once its newlines are commas.  Any other text is split at
    "\\n" alone, and read_line(index, line), the caller's per-line reader,
    runs on each of its data lines in turn: it raises at the first bad line,
    with that line's own message, or reads the `int()` literals that JSON
    lacks (`+7`, `007`, `1_000`).
    """
    text = lines if isinstance(lines, str) else lines.read() if hasattr(lines, "read") else None
    if text is not None:
        body = text.removesuffix("\n")
        shape = (b"," * (width - 1) + b"\n") * (body.count("\n") + 1)
        if text.isascii() and body.encode().translate(None, b"0123456789") + b"\n" == shape:
            with suppress(ValueError):  # an empty field or a leading zero
                return json.loads("[" + body.replace("\n", ",") + "]")
        lines = text.split("\n")
    return list(chain.from_iterable(map(read_line, count(), _data_lines(lines))))


def _check_bits(bits: str) -> str:
    if not _is_bits(bits):
        raise ValueError(f"bits must be a string over {{0,1}}, got {bits!r}")
    return bits


def cantor_pair(x: int, y: int) -> int:
    """Cantor pairing: (x+y)(x+y+1)/2 + y."""
    _check_natural(x, "x")
    _check_natural(y, "y")
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of cantor_pair."""
    _check_natural(z, "z")
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def triple_code(x: int, y: int, z: int) -> int:
    """Code a triple as pair(x, pair(y, z))."""
    return cantor_pair(x, cantor_pair(y, z))


def triple_decode(code: int) -> tuple[int, int, int]:
    x, rest = cantor_unpair(code)
    y, z = cantor_unpair(rest)
    return x, y, z


def string_code(bits: str) -> int:
    """Length-lexicographic code of a binary string: 2^len + value - 1.

    The empty string has value 0 and code 0; strings of length L occupy
    the code interval [2^L - 1, 2^(L+1) - 1), so shorter strings always
    get smaller codes.
    """
    _check_bits(bits)
    value = int(bits, 2) if bits else 0
    return (1 << len(bits)) + value - 1


def prefix_code(value: int, length: int, k: int) -> int:
    """string_code of the first k bits of the length-`length` string whose binary
    value is `value`, with no string built and every check O(1), by bit lengths."""
    _check_natural(value, "value")
    _check_natural(length, "length")
    _check_natural(k, "k")
    if k > length:
        raise ValueError(f"k must be at most length = {length}, got {k}")
    if value.bit_length() > length:
        raise ValueError(f"value must fit in length = {length} bits, got {value.bit_length()} bits")
    return (1 << k) + (value >> (length - k)) - 1


def string_decode(code: int) -> str:
    """Inverse of string_code."""
    _check_natural(code, "code")
    # code + 1 = 2^len + value: its binary digits after the leading 1.
    return bin(code + 1)[3:]


def string_parts(code: int) -> tuple[int, int]:
    """string_decode's (length, value), with no string built: code + 1 = 2^length + value."""
    _check_natural(code, "code")
    whole = code + 1
    length = whole.bit_length() - 1
    return length, whole ^ (1 << length)


def finite_set_code(members: Iterable[int]) -> int:
    """Canonical index of a finite set: sum of 2^x over its members."""
    code = 0
    for x in members:
        _check_natural(x, "member")
        code |= 1 << x
    return code


def finite_set_decode(code: int) -> frozenset[int]:
    """Inverse of finite_set_code: read the binary expansion, in linear time."""
    _check_natural(code, "code")
    return frozenset(i for i, bit in enumerate(bin(code)[:1:-1]) if bit == "1")


# The payload of a codeword: its doubled pairs, read up to the first 01.
_DOUBLED_PAIRS = re.compile("(?:00|11)*")


def prefix_free_code(n: int) -> str:
    """Self-delimiting binary code of n >= 1 in exactly 2*floor(log2 n) + 2 bits.

    Drop the leading 1 of n's binary expansion, double every remaining bit
    (0 -> 00, 1 -> 11), and append the end marker 01.  No codeword is a
    prefix of another because a decoder always stops at the first 01 pair.
    """
    _check_natural(n, "n")
    if n == 0:
        raise ValueError("n must be >= 1: 0 has no payload in this code")
    payload = format(n, "b")[1:]
    return "".join("11" if c == "1" else "00" for c in payload) + "01"


def prefix_free_decode(bits: str) -> tuple[int, int]:
    """Read one codeword from the front of bits; return (n, bits consumed)."""
    _check_bits(bits)
    pos = _DOUBLED_PAIRS.match(bits).end()
    group = bits[pos : pos + 2]
    if len(group) < 2:
        raise ValueError("truncated codeword: no end marker found")
    if group != "01":
        raise ValueError(f"invalid bit pair {group!r} at offset {pos}")
    return int("1" + bits[:pos:2], 2), pos + 2


def fixed_width_len(n: int) -> int:
    """Width of the fixed-width code for base n: least w with 2^w >= n^2."""
    _check_natural(n, "n")
    if n < 2:
        raise ValueError("fixed-width coding needs n >= 2")
    square = n * n
    w = (square - 1).bit_length()
    return w


def fixed_width_code(n: int, x: int) -> str:
    """Big-endian code of x < n^2, zero-padded to fixed_width_len(n) bits."""
    _check_natural(x, "x")
    w = fixed_width_len(n)
    if x >= n * n:
        raise ValueError(f"x must be below n^2 = {n * n}, got {x}")
    return format(x, "b").zfill(w)


def fixed_width_decode(n: int, bits: str) -> int:
    """Inverse of fixed_width_code for the same base n."""
    _check_bits(bits)
    w = fixed_width_len(n)
    if len(bits) != w:
        raise ValueError(f"expected {w} bits for base {n}, got {len(bits)}")
    x = int(bits, 2) if bits else 0
    if x >= n * n:
        raise ValueError(f"decoded value {x} is not below n^2 = {n * n}")
    return x
