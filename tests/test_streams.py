"""Streams: DSL forms, exact densities vs brute force, principal function."""

import io
import random
import threading
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from intdensity import (
    DensityProfile,
    HorizonError,
    InsufficientElementsError,
    Sampler,
    SetStream,
    density_profile,
    image_stream,
    partial_density,
    preimage_hits,
    principal_function,
    splitmix64,
)
from intdensity.cli import main

FUZZ_SPECS = ["seed:1", "seed:2:p=1/3", "seed:99:p=3/4", "evens", "odds"]


class TestSpecDsl:
    def test_builtin_bits(self):
        evens = SetStream.from_spec("evens", 8)
        assert [evens.bit(i) for i in range(6)] == [1, 0, 1, 0, 1, 0]
        assert SetStream.from_spec("full", 4).prefix(4) == "1111"
        assert SetStream.from_spec("empty", 4).members_below(4) == []
        assert SetStream.from_spec("odds", 6).members_below(6) == [1, 3, 5]
        assert repr(SetStream.from_spec("evens", 4)) == "SetStream('evens', horizon=4)"

    def test_seed_matches_documented_mixer(self):
        # independent reimplementation of the documented constants
        def mixer(seed, i):
            mask = (1 << 64) - 1
            z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        stream = SetStream.from_spec("seed:42", 256)
        for i in range(256):
            assert stream.bit(i) == (1 if mixer(42, i) % 2 < 1 else 0)
        biased = SetStream.from_spec("seed:42:p=1/3", 256)
        for i in range(256):
            assert biased.bit(i) == (1 if mixer(42, i) % 3 < 1 else 0)

    def test_seed_reproducible(self):
        a = SetStream.from_spec("seed:7:p=2/5", 512)
        b = SetStream.from_spec("seed:7:p=2/5", 512)
        assert a.prefix(512) == b.prefix(512)

    def test_splitmix_helper_agrees_with_streams(self):
        stream = SetStream.from_spec("seed:5", 64)
        assert all(stream.bit(i) == (splitmix64(5, i) % 2 < 1) for i in range(64))

    def test_list_spec(self):
        s = SetStream.from_spec("list:5,1,1,3")
        assert s.label == "list:5,1,1,3"
        assert s.horizon == 6
        assert s.members_below(6) == [1, 3, 5]
        assert SetStream.from_spec("list:").horizon == 1
        with pytest.raises(ValueError):
            SetStream.from_spec("list:2,-1")
        # Floats and bools are refused too, also where they equal naturals.
        for members in [[2.5, 1], [1.0], [True, 0], [False], [3, 0.0]]:
            with pytest.raises(ValueError, match="^members must be naturals$"):
                SetStream.from_members(members, 4)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("1010\n01\n")
        s = SetStream.from_spec(f"file:{path}")
        assert s.horizon == 6
        assert s.prefix(6) == "101001"
        with pytest.raises(ValueError):
            SetStream.from_spec(f"file:{path}", 7)

    def test_file_spec_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10x1")
        with pytest.raises(ValueError):
            SetStream.from_spec(f"file:{path}")

    @pytest.mark.parametrize("code", range(128))
    def test_file_spec_matches_per_character_rule(self, tmp_path, code):
        """Every ASCII character is skipped, read as a bit or refused
        exactly as the per-character rule says (\x0b, \x0c and \x1c-\x1f
        count as whitespace for str.isspace but not all for bytes.split)."""
        text = f"01{chr(code)}1 0\x0b1\x0c0\x1c1\x1d0\x1e1\x1f0\t1\n"
        path = tmp_path / "bits.txt"
        path.write_bytes(text.encode("ascii"))
        chars = [c for c in text.replace("\r", "\n") if not c.isspace()]
        if all(c in "01" for c in chars):
            stream = SetStream.from_spec(f"file:{path}")
            assert stream.horizon == len(chars)
            assert stream.prefix(len(chars)) == "".join(chars)
        else:
            with pytest.raises(ValueError):
                SetStream.from_spec(f"file:{path}")

    def test_file_spec_matches_per_character_rule_on_random_files(self, tmp_path):
        rng = random.Random(17)
        alphabet = "0011 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
        path = tmp_path / "bits.txt"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(60)))
            path.write_bytes(text.encode("ascii"))
            # Text mode reads "\r\n" and "\r" as "\n"; both are whitespace.
            bits = "".join(c for c in text if not c.isspace())
            stream = SetStream.from_spec(f"file:{path}")
            assert stream.horizon == len(bits)
            assert stream.prefix(len(bits)) == bits

    def test_bad_specs(self):
        for spec, text in [
            ("nope", "unknown stream spec 'nope'"),
            ("seed:", "bad integer '' in spec 'seed:'"),
            ("seed:1:p=2", "bad probability clause in 'seed:1:p=2'"),
            ("seed:1:q=1/2", "bad probability clause in 'seed:1:q=1/2'"),
            ("seed:1:p=1/3:x", "bad seed spec 'seed:1:p=1/3:x'"),
            ("list:a,b", "bad integer 'a' in spec 'list:a,b'"),
            ("evens:", "unknown stream spec 'evens:'"),
            ("empty:", "unknown stream spec 'empty:'"),
            ("seed", "unknown stream spec 'seed'"),
            ("seed:1:", "bad probability clause in 'seed:1:'"),
            ("seed:1::", "bad seed spec 'seed:1::'"),
        ]:
            with pytest.raises(ValueError) as err:
                SetStream.from_spec(spec, 8)
            assert str(err.value) == text
        with pytest.raises(ValueError) as err:
            SetStream.from_spec("evens")  # horizon required
        assert str(err.value) == "stream spec 'evens' requires an explicit horizon"


class TestPartialDensity:
    def test_worked_values(self):
        assert partial_density(SetStream.from_spec("evens", 16), 10) == Fraction(1, 2)
        assert partial_density(SetStream.from_spec("empty", 8), 7) == 0
        assert partial_density(SetStream.from_spec("odds", 8), 5) == Fraction(2, 5)

    def test_horizon_errors(self):
        s = SetStream.from_spec("evens", 8)
        with pytest.raises(HorizonError):
            partial_density(s, 0)
        with pytest.raises(HorizonError):
            partial_density(s, 9)
        with pytest.raises(HorizonError):
            s.bit(8)
        s = SetStream.from_spec("evens", 4)
        with pytest.raises(HorizonError, match=r"^count bound 5 outside \[0, 4\]$"):
            s.count_below(5)
        with pytest.raises(HorizonError, match=r"^bound 5 outside \[0, 4\]$"):
            s.members_below(5)

    def test_agrees_with_brute_force_up_to_1e4(self):
        for spec in FUZZ_SPECS:
            stream = SetStream.from_spec(spec, 10**4)
            running = 0
            for n in range(1, 10**4 + 1):
                running += stream.bit(n - 1)
                assert partial_density(stream, n) == Fraction(running, n)

    def test_complement_sums_to_one(self):
        rng = random.Random(0)
        for spec in FUZZ_SPECS:
            stream = SetStream.from_spec(spec, 4096)
            co = stream.complement()
            for _ in range(25):
                n = rng.randrange(1, 4097)
                assert partial_density(stream, n) + partial_density(co, n) == 1

    def test_exact_rationals_in_lowest_terms(self):
        d = partial_density(SetStream.from_members([0, 1, 2], 12), 9)
        assert (d.numerator, d.denominator) == (1, 3)


class TestDensityProfile:
    def test_worked_values(self):
        prof = density_profile(SetStream.from_spec("evens", 16), [2, 4, 8])
        assert prof.values == (Fraction(1, 2),) * 3
        assert prof.observed_sup == prof.observed_inf == Fraction(1, 2)
        assert density_profile(SetStream.from_spec("empty", 4), [1, 2]).values == (0, 0)
        prof = density_profile(SetStream.from_members([0, 1, 2, 3], 8), [2, 8])
        assert prof.values == (1, Fraction(1, 2))
        assert prof.observed_sup == 1 and prof.observed_inf == Fraction(1, 2)

    def test_rejects_bad_checkpoints(self):
        s = SetStream.from_spec("evens", 8)
        with pytest.raises(ValueError):
            density_profile(s, [])
        with pytest.raises(ValueError):
            density_profile(s, [4, 2])
        with pytest.raises(HorizonError):
            density_profile(s, [2, 50])

    def test_profile_validates_itself(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="^profile needs one value per checkpoint, at least"):
            DensityProfile((), (), half, half)
        with pytest.raises(ValueError, match="^checkpoints must be strictly increasing$"):
            DensityProfile((4, 2), (half, half), half, half)
        with pytest.raises(ValueError, match="^observed_inf exceeds observed_sup$"):
            DensityProfile((2, 4), (half, Fraction(1, 4)), Fraction(1, 4), half)
        with pytest.raises(ValueError):
            DensityProfile((2,), (Fraction(1, 3),), Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(ValueError):
            DensityProfile((2,), (Fraction(1, 2),), Fraction(1, 2), Fraction(1, 4))


class TestPrincipalFunction:
    def test_worked_values(self):
        assert principal_function(SetStream.from_spec("evens", 16), 3) == 6
        assert principal_function(SetStream.from_spec("odds", 8), 0) == 1
        primes = SetStream.from_members([5, 7, 11, 13, 17], 20)
        assert principal_function(primes, 2) == 11

    def test_insufficient_elements(self):
        with pytest.raises(InsufficientElementsError):
            principal_function(SetStream.from_spec("empty", 64), 0)
        with pytest.raises(InsufficientElementsError):
            principal_function(SetStream.from_spec("evens", 10), 5)
        with pytest.raises(ValueError, match="^element index must be a natural number$"):
            principal_function(SetStream.from_spec("evens", 4), -1)

    def test_strictly_increasing_and_member(self):
        for spec in FUZZ_SPECS:
            stream = SetStream.from_spec(spec, 2048)
            total = stream.count_below(2048)
            previous = -1
            for j in range(min(total, 100)):
                pos = principal_function(stream, j)
                assert pos > previous
                assert stream.bit(pos) == 1
                previous = pos

    def test_matches_members_list(self):
        stream = SetStream.from_spec("seed:13:p=1/4", 512)
        members = stream.members_below(512)
        for j, pos in enumerate(members):
            assert principal_function(stream, j) == pos


FAR = 10**12


def traced_peak(call):
    """call()'s result and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestClosedFormsFarOut:
    """`full`, `evens` and `odds` answer in O(1) time and memory at any index."""

    @pytest.mark.parametrize(
        "spec, count, kth, hits",
        [
            ("full", FAR, 10**11, [5, 10]),
            ("evens", FAR // 2, 2 * 10**11, [3, 5]),
            ("odds", FAR // 2, 2 * 10**11 + 1, [2, 5]),
        ],
    )
    def test_counts_selections_and_hits(self, spec, count, kth, hits):
        def queries():
            stream = SetStream.from_spec(spec, 2 * FAR)
            return (stream.count_below(FAR), principal_function(stream, 10**11),
                    preimage_hits(stream, range(FAR, FAR + 10), [5, 10]))

        results, peak = traced_peak(queries)
        assert results == (count, kth, hits)
        assert peak < 1 << 20

    def test_density_of_a_far_shift(self):
        argv = ["density", "--set", "evens", "--sampler", f"shift:{FAR}",
                "--checkpoints", "10,1000", "--horizon", str(2 * FAR)]
        out = io.StringIO()
        with redirect_stdout(out):
            code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert '"values": [\n      "1/2",\n      "1/2"\n    ]' in out.getvalue()
        assert peak < 1 << 20


class TestPermutationStability:
    def test_finite_support_leaves_tail_densities_alone(self):
        # swapblocks:k is the identity outside [0, 2k), so every density
        # checkpoint at or beyond 2k is unchanged by taking the image.
        for spec in FUZZ_SPECS:
            stream = SetStream.from_spec(spec, 600)
            for k in (3, 10):
                swapped = image_stream(stream, Sampler.swapblocks(k))
                for n in range(2 * k, 600, 61):
                    assert partial_density(swapped, n) == partial_density(stream, n)

    def test_image_changes_head_densities(self):
        stream = SetStream.from_members([0, 1, 2], 12)
        swapped = image_stream(stream, Sampler.swapblocks(3))
        assert partial_density(swapped, 3) == 0
        assert partial_density(swapped, 6) == Fraction(1, 2)


class TestConcurrency:
    def test_memoized_stream_is_order_independent(self):
        calls = []

        def rule(i):
            calls.append(i)
            return (i * i + i) % 3 == 0

        stream = SetStream.from_function(rule, 2000, "fuzzy")
        baseline = [rule(i) for i in range(2000)]
        results = {}

        def reader(offset):
            local = [stream.bit((i * 7 + offset) % 2000) for i in range(2000)]
            results[offset] = local

        threads = [threading.Thread(target=reader, args=(o,)) for o in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for offset, local in results.items():
            for i, value in enumerate(local):
                assert value == int(baseline[(i * 7 + offset) % 2000])
