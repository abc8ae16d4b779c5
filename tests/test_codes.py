"""Coding bijections: worked values, roundtrips, and enumeration oracles."""

import random
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intdensity import (
    cantor_pair,
    cantor_unpair,
    finite_set_code,
    finite_set_decode,
    fixed_width_code,
    fixed_width_decode,
    fixed_width_len,
    prefix_code,
    prefix_free_code,
    prefix_free_decode,
    string_code,
    string_decode,
    string_parts,
    triple_code,
    triple_decode,
)
from intdensity.codes import _check_bits, _check_natural, _naturals
from oracles import outcome


def shifted_set_decode(code):
    """finite_set_decode by one shift per bit: the definition, quadratic in the length."""
    _check_natural(code, "code")
    return frozenset(i for i in range(code.bit_length()) if code >> i & 1)


def paired_prefix_free_decode(bits: str) -> tuple[int, int]:
    """prefix_free_decode pair by pair: the definition, one loop step per pair."""
    _check_bits(bits)
    payload = []
    pos = 0
    while True:
        group = bits[pos : pos + 2]
        if len(group) < 2:
            raise ValueError("truncated codeword: no end marker found")
        pos += 2
        if group == "01":
            return int("1" + "".join(payload), 2), pos
        if group == "00":
            payload.append("0")
        elif group == "11":
            payload.append("1")
        else:
            raise ValueError(f"invalid bit pair {group!r} at offset {pos - 2}")


class Natural(int):
    """An `int` subclass, which `_check_natural` accepts like any `int`."""


SINGLE_VALUES = [0, 7, Natural(3), True, False, -1, 0.0, 2.5, "3", None]


@pytest.mark.parametrize(
    "values",
    [[]]
    + [[value] for value in SINGLE_VALUES]
    + [[0, 7, Natural(3)], [7, True], [False, 0], [0, -1], [Natural(3), 0.0], [2.5, 7],
       ["3", 0], [7, None], [-1, "3"], SINGLE_VALUES],
)
def test_naturals_is_check_natural_in_bulk(values):
    # _check_natural returns the value it accepts.
    accepted = [outcome(_check_natural, v, "v", catch=ValueError) is v for v in values]
    assert _naturals(values) == all(accepted)


@st.composite
def codeword_inputs(draw):
    """A codeword with junk after it, cut short, or with a 10 pair at a drawn offset."""
    word = prefix_free_code(draw(st.integers(1, 1 << 400)))
    junk = draw(st.text("01", max_size=9))
    kind = draw(st.sampled_from(["valid", "truncated", "bad pair"]))
    if kind == "truncated":
        return word[: draw(st.integers(0, len(word) - 1))]
    if kind == "bad pair":
        offset = 2 * draw(st.integers(0, len(word) // 2 - 1))
        return word[:offset] + "10" + word[offset + 2 :] + junk
    return word + junk


class TestCantorPair:
    def test_worked_values(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 0) == 1
        assert cantor_pair(0, 1) == 2
        assert cantor_pair(2, 2) == 12

    def test_diagonal_enumeration_oracle(self):
        # Walking the diagonals x+y = 0, 1, 2, ... with y ascending must
        # enumerate exactly the codes 0, 1, 2, ... in order.
        expected = 0
        for s in range(60):
            for y in range(s + 1):
                assert cantor_pair(s - y, y) == expected
                expected += 1

    def test_roundtrip_exhaustive(self):
        for z in range(20000):
            x, y = cantor_unpair(z)
            assert cantor_pair(x, y) == z

    def test_roundtrip_large(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = rng.randrange(10**18), rng.randrange(10**18)
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            cantor_pair(-1, 0)
        with pytest.raises(ValueError):
            cantor_unpair(-3)

    def test_triples(self):
        assert triple_code(0, 1, 2) == cantor_pair(0, cantor_pair(1, 2))
        for code in range(500):
            assert triple_code(*triple_decode(code)) == code


class TestStringCode:
    def test_worked_values(self):
        assert string_code("") == 0
        assert string_code("0") == 1
        assert string_code("1") == 2
        assert string_code("11") == 6
        assert string_decode(5) == "10"

    def test_length_lex_enumeration_oracle(self):
        # Enumerating all strings shortest-first, lexicographic within a
        # length, must yield exactly the codes 0, 1, 2, ... in order.
        expected = 0
        for length in range(10):
            for bits in product("01", repeat=length):
                assert string_code("".join(bits)) == expected
                expected += 1

    def test_roundtrip_all_short_strings(self):
        for code in range(2**12):
            assert string_code(string_decode(code)) == code

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            string_code("012")


class TestStringParts:
    @given(st.integers(0, 1 << 300) | st.integers(0, 300).map(lambda n: (1 << n) - 1)
           | st.integers(0, 1 << 70).map(Natural))
    @example(0)
    @example((1 << 70) - 2)
    def test_is_the_length_and_value_of_the_decoded_string(self, code):
        bits = string_decode(code)
        assert string_parts(code) == (len(bits), int(bits or "0", 2))

    @pytest.mark.parametrize("code", [-1, True, False, 2.5, "3", None, Natural(-2)])
    def test_refuses_what_string_decode_refuses(self, code):
        refused = outcome(string_parts, code)
        assert refused == outcome(string_decode, code)
        assert refused[:2] == (ValueError, f"code must be a natural number, got {code!r}")


class TestPrefixCode:
    @given(st.text("01", max_size=200))
    @example("")
    @example("0001")
    def test_equals_string_code_of_every_prefix(self, bits):
        value = int(bits, 2) if bits else 0
        for k in range(len(bits) + 1):
            assert prefix_code(value, len(bits), k) == string_code(bits[:k])

    @pytest.mark.parametrize(
        "args, message",
        [
            ((5, 3, -1), "k must be a natural number, got -1"),
            ((5, 3, 4), "k must be at most length = 3, got 4"),
            ((8, 3, 1), "value must fit in length = 3 bits, got 4 bits"),
            ((1, 0, 0), "value must fit in length = 0 bits, got 1 bits"),
            ((-1, 3, 1), "value must be a natural number, got -1"),
            ((1, True, 1), "length must be a natural number, got True"),
            ((1, 3, False), "k must be a natural number, got False"),
            ((1.0, 3, 1), "value must be a natural number, got 1.0"),
            ((1, 3.0, 1), "length must be a natural number, got 3.0"),
        ],
    )
    def test_refusals(self, args, message):
        with pytest.raises(ValueError) as refused:
            prefix_code(*args)
        assert str(refused.value) == message


class TestFiniteSetCode:
    def test_worked_values(self):
        assert finite_set_code(set()) == 0
        assert finite_set_code({0, 2}) == 5
        assert finite_set_code({1}) == 2

    def test_roundtrip_all_subsets_of_12(self):
        for code in range(1 << 12):
            members = finite_set_decode(code)
            assert finite_set_code(members) == code
            # independent reading of the binary expansion
            assert members == frozenset(
                i for i, c in enumerate(reversed(format(code, "b"))) if c == "1"
            )

    @given(st.integers(0, 1 << 3000))
    def test_decode_matches_the_shifted_reading(self, code):
        assert finite_set_decode(code) == shifted_set_decode(code)

    @pytest.mark.parametrize("code", [-1, -(1 << 70), True, False, 1.0, "5"])
    def test_decode_rejects_what_the_shifted_reading_rejects(self, code):
        with pytest.raises(ValueError) as expected:
            shifted_set_decode(code)
        with pytest.raises(ValueError) as got:
            finite_set_decode(code)
        assert str(got.value) == str(expected.value)

    def test_sum_of_powers_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            members = {rng.randrange(200) for _ in range(rng.randrange(8))}
            assert finite_set_code(members) == sum(2**x for x in members)


class TestPrefixFreeCode:
    def test_worked_values(self):
        assert prefix_free_code(1) == "01"
        assert prefix_free_code(2) == "0001"
        assert prefix_free_code(5) == "001101"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prefix_free_code(0)

    def test_length_formula(self):
        for n in range(1, 2048):
            assert len(prefix_free_code(n)) == 2 * (n.bit_length() - 1) + 2

    def test_pairwise_prefix_free_literal(self):
        codes = [prefix_free_code(n) for n in range(1, 513)]
        for i, a in enumerate(codes):
            for b in codes[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)

    def test_roundtrip_with_junk_suffix(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 1 << 20)
            word = prefix_free_code(n)
            suffix = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
            value, consumed = prefix_free_decode(word + suffix)
            assert value == n and consumed == len(word)

    @given(st.one_of(codeword_inputs(), st.text("01", max_size=40), st.text("012 ", max_size=6)))
    @example("")
    @example("01")
    @example("0011" * 5000 + "01")
    def test_decode_matches_the_pair_by_pair_reading(self, bits):
        expected = outcome(paired_prefix_free_decode, bits, catch=ValueError)
        assert outcome(prefix_free_decode, bits, catch=ValueError) == expected

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError):
            prefix_free_decode("10")  # reversed marker pair
        with pytest.raises(ValueError):
            prefix_free_decode("0000")  # no end marker
        with pytest.raises(ValueError):
            prefix_free_decode("000")  # truncated pair


class TestQueryStringAssembly:
    def test_assembled_length_identity(self):
        # A query string is sigma + k(n) + c_n(x).  Its length is exactly
        # |sigma| + 2*floor(log2 n) + 2 + fixed_width_len(n); whether that
        # simplifies to 4*log(n) + |sigma| + 2 depends on a smoothed log
        # convention, so only the exact integer identity is asserted.
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randrange(2, 5000)
            x = rng.randrange(n * n)
            sigma = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
            assembled = sigma + prefix_free_code(n) + fixed_width_code(n, x)
            expected = len(sigma) + 2 * (n.bit_length() - 1) + 2 + fixed_width_len(n)
            assert len(assembled) == expected


class TestFixedWidthCode:
    def test_worked_values(self):
        assert fixed_width_code(2, 3) == "11"
        assert fixed_width_code(4, 0) == "0000"
        assert fixed_width_code(5, 24) == "11000"

    def test_width_is_least_power_bound(self):
        for n in range(2, 200):
            w = fixed_width_len(n)
            assert 2**w >= n * n
            assert w == 0 or 2 ** (w - 1) < n * n

    def test_roundtrip_small_bases(self):
        for n in range(2, 20):
            for x in range(n * n):
                assert fixed_width_decode(n, fixed_width_code(n, x)) == x

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fixed_width_code(3, 9)
        with pytest.raises(ValueError):
            fixed_width_code(1, 0)
        with pytest.raises(ValueError):
            fixed_width_decode(2, "111")
