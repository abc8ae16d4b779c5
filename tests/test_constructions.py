"""Prefix sets, tree decoding, the guess-driven injection, graphs and traces."""

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intdensity import (
    HorizonError,
    InsufficientElementsError,
    PrefixInconsistencyError,
    PrefixTree,
    Sampler,
    SetStream,
    WctInjection,
    build_prefix_tree,
    build_wct_injection,
    block_of,
    extract_candidates,
    graph_members,
    graph_set,
    hit_indices,
    introreduce,
    parse_sampler,
    preimage_partial_density,
    prefix_code_sampler,
    prefix_set,
    principal_function,
    string_code,
    trace_from_sampler,
    wct_target,
)
from intdensity.cli import main
from intdensity.codes import string_decode
from intdensity.constructions import _guess_masks, format_guess_lines, load_guess_lines
from oracles import loop_wct_blocks, outcome


def merged_introreduce(codes) -> str:
    """introreduce one character at a time: the definition."""
    ordered = sorted(set(codes))
    if not ordered:
        raise ValueError("need at least one code")
    bits: list[str] = []
    sources: list[int] = []
    for code in ordered:
        sigma = string_decode(code)
        for i, c in enumerate(sigma):
            if i < len(bits):
                if bits[i] != c:
                    raise PrefixInconsistencyError(i, sources[i], code)
            else:
                bits.append(c)
                sources.append(code)
    return "".join(bits)


@st.composite
def prefix_code_batches(draw):
    """Codes of prefixes of one drawn string, with repeats and code 0, and
    sometimes one code of that string with one bit flipped."""
    source = draw(st.text("01", max_size=300))
    lengths = draw(st.lists(st.integers(0, len(source)), max_size=12))
    codes = [string_code(source[:k]) for k in lengths]
    if source and draw(st.booleans()):
        j = draw(st.integers(0, len(source) - 1))
        flipped = source[:j] + "10"[int(source[j])] + source[j + 1 :]
        code = string_code(flipped[: draw(st.integers(0, len(source)))])
        codes.insert(draw(st.integers(0, len(codes))), code)
    return codes


class TestPrefixSet:
    def test_members_begin_as_expected(self):
        ones = prefix_set(SetStream.from_spec("full", 16))
        assert [z for z in range(15) if ones.bit(z)] == [0, 2, 6, 14]
        evens = prefix_set(SetStream.from_spec("evens", 16))
        assert [z for z in range(13) if evens.bit(z)] == [0, 2, 5, 12]
        empty = prefix_set(SetStream.from_spec("empty", 16))
        assert [z for z in range(15) if empty.bit(z)] == [0, 1, 3, 7]

    def test_membership_decodes_and_compares(self):
        stream = SetStream.from_spec("seed:3", 32)
        members = prefix_set(stream)
        for n in range(10):
            assert members.bit(string_code(stream.prefix(n))) == 1
        flipped = "1" if stream.prefix(5)[4] == "0" else "0"
        assert members.bit(string_code(stream.prefix(4) + flipped)) == 0

    def test_horizon_exhaustion(self):
        members = prefix_set(SetStream.from_spec("evens", 4))
        assert members.horizon == 2**5 - 1
        with pytest.raises(HorizonError):
            members.bit(31)  # needs a length-5 prefix of a 4-bit stream


class TestIntroreduce:
    def test_worked_values(self):
        assert introreduce({2, 5}) == "10"
        assert introreduce({0}) == ""
        with pytest.raises(PrefixInconsistencyError):
            introreduce({1, 2})

    def test_conflict_witness_is_positioned(self):
        try:
            introreduce({1, 2})
        except PrefixInconsistencyError as exc:
            assert exc.position == 0
            assert {exc.first_code, exc.second_code} == {1, 2}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            introreduce(set())

    @given(prefix_code_batches())
    @example(codes=[])
    @example(codes=[0, 0])
    @example(codes=[5, 0, 2, 5, 1])
    def test_matches_the_character_by_character_merge(self, codes):
        caught = (PrefixInconsistencyError, ValueError)
        expected = outcome(merged_introreduce, codes, catch=caught)
        assert outcome(introreduce, codes, catch=caught) == expected

    def test_recovers_prefix_from_any_consistent_batch(self):
        rng = random.Random(17)
        for seed in range(8):
            stream = SetStream.from_spec(f"seed:{seed}", 64)
            lengths = sorted(rng.sample(range(64), rng.randrange(2, 12)) + [63])
            codes = {string_code(stream.prefix(n)) for n in lengths}
            assert introreduce(codes) == stream.prefix(63)


class TestPrefixTree:
    def test_dense_prefix_enumeration_keeps_only_true_prefixes(self):
        evens = SetStream.from_spec("evens", 64)
        sampler = prefix_code_sampler(evens, 2 * 2 * 4)
        tree = build_prefix_tree(sampler, q=2, full_height=1, depth=4)
        assert tree.levels[2] == ("10",)
        assert tree.levels[3] == ("101",)
        assert tree.levels[4] == ("1010",)
        assert extract_candidates(tree) == ["1010"]

    def test_sparse_image_truncates(self):
        tree = build_prefix_tree(Sampler.identity(), q=1, full_height=0, depth=3)
        assert tree.levels[1] == ("0",)
        assert tree.levels[2] == ()
        assert extract_candidates(tree) == []

    def test_depth_within_full_region(self):
        tree = build_prefix_tree(Sampler.identity(), q=1, full_height=3, depth=2)
        assert extract_candidates(tree) == ["00", "01", "10", "11"]

    def test_width_bound_and_soundness_under_noisy_enumeration(self):
        # Interleave true prefix codes with near-miss codes (last bit
        # flipped).  Preimage densities stay above 1/q for q = 3, so the
        # stream's prefix at full depth must survive to the last level.
        q, depth = 3, 10
        for seed in range(5):
            stream = SetStream.from_spec(f"seed:{seed}", 64)
            members = prefix_set(stream)

            def enumerate_codes(k, stream=stream):
                if k % 2 == 0:
                    return string_code(stream.prefix(k // 2))
                sigma = stream.prefix(k // 2 + 1)
                flipped = sigma[:-1] + ("1" if sigma[-1] == "0" else "0")
                return string_code(flipped)

            sampler = Sampler.from_function(
                enumerate_codes, "injection", 2 * q * depth, "noisy"
            )
            for n in range(1, 2 * q * depth + 1):
                assert preimage_partial_density(members, sampler, n) > Fraction(1, q)
            tree = build_prefix_tree(sampler, q=q, full_height=0, depth=depth)
            for height in range(1, depth + 1):
                assert len(tree.levels[height]) <= 2 * q
            assert stream.prefix(depth) in extract_candidates(tree)
            assert len(extract_candidates(tree)) <= 2 * q

    def test_tree_contract_is_validated(self):
        with pytest.raises(ValueError):
            PrefixTree(q=1, full_height=0, depth=1, levels=((), ("0",)))
        with pytest.raises(ValueError, match=r"^need one level per height 0\.\.depth$"):
            PrefixTree(1, 0, 1, (("",),))
        with pytest.raises(ValueError):
            PrefixTree(
                q=1, full_height=0, depth=1, levels=(("",), ("00", "01", "10"))
            )

    @pytest.mark.parametrize(
        "full_height, levels, message",
        [
            (1, (("",), ("0", "0")), "level 1 must be the full tree"),
            (2, (("",), ("0", "1"), ("00", "00", "01", "10")), "level 2 must be the full tree"),
            (1, (("x",), ("x0", "x1")), "level 0 must be the full tree"),
            (0, (("",), ("", "0")), "level 1 is not prefix-closed"),
            (1, (("",), ("", "0")), "level 1 must be the full tree"),
            (0, (("",), ("a", "b")), "level 1 is not prefix-closed"),
            (1, (("",), ("a", "b")), "level 1 must be the full tree"),
            (0, (("",), ("0", "0")), "level 1 repeats a string"),
            (1, (("",), ("0", "1"), ("10", "10")), "level 2 repeats a string"),
            # A full level of the right width is refused as a whole, not as unclosed.
            (2, (("",), ("0", "1"), ("00", "01", "20", "21")), "level 2 must be the full tree"),
            # Level 0 is the root, so a tree without one is refused as not full.
            (0, ((),), "level 0 must be the full tree"),
        ],
    )
    def test_levels_that_are_not_the_named_tree_are_refused(self, full_height, levels, message):
        depth = len(levels) - 1
        with pytest.raises(ValueError) as err:
            PrefixTree(q=1, full_height=full_height, depth=depth, levels=levels)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "q, full_height, depth, message",
        [
            (0, -1, 0, "q must be >= 1"),
            (0, 0, 0, "q must be >= 1"),
            (1, -1, 0, "heights must be naturals"),
            (1, 0, -1, "heights must be naturals"),
        ],
    )
    def test_scalar_fields_are_checked_before_the_levels(self, q, full_height, depth, message):
        with pytest.raises(ValueError) as err:
            PrefixTree(q=q, full_height=full_height, depth=depth, levels=(("",),))
        assert str(err.value) == message

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_prefix_tree(Sampler.identity(), q=0, full_height=0, depth=2)
        with pytest.raises(ValueError):
            build_prefix_tree(Sampler.identity(), q=1, full_height=30, depth=40)

    def test_full_height_cap_is_refused_up_front(self, capsys):
        # Height 21 would allocate ~600 MB; the refusal must come first.
        with pytest.raises(ValueError, match="above height 20"):
            build_prefix_tree(Sampler.identity(), q=1, full_height=21, depth=21)
        tracemalloc.start()
        try:
            code = main([
                "tree-decode", "--prefix-sampler-of", "seed:1",
                "--q", "2", "--full-height", "21", "--depth", "21",
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "above height 20" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_depth_2048_tree_is_built_on_keys_not_strings(self):
        # 12,288 prefix codes of up to 12,287 bits: decoded to strings they held
        # about 75 MB; as (length, value) pairs and sorted integer keys, about 35 MB.
        sampler = prefix_code_sampler(SetStream.from_spec("seed:7", 12288), 12288)
        tracemalloc.start()
        try:
            tree = build_prefix_tree(sampler, 3, 1, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.widths()[-1] == 1
        assert peak < 40 * 10**6


class TestWctTarget:
    def test_worked_values(self):
        evens = SetStream.from_spec("evens", 16)
        assert wct_target(evens, 1) == "10"
        assert wct_target(evens, 2) == "1010"
        assert wct_target(SetStream.from_spec("full", 8), 2) == "11"

    def test_counts_ones_exactly(self):
        stream = SetStream.from_spec("seed:9", 4096)
        for n in (1, 2, 3, 4):
            assert wct_target(stream, n).count("1") == factorial(n)

    def test_insufficient_elements(self):
        with pytest.raises(InsufficientElementsError):
            wct_target(SetStream.from_spec("evens", 6), 3)
        with pytest.raises(ValueError, match="^block index must be >= 1$"):
            wct_target(SetStream.from_spec("evens", 4), 0)


class TestWctInjection:
    def test_worked_values(self):
        assert build_wct_injection({1: "10", 2: "1010"}, 2).table == (0, 2)
        assert build_wct_injection({1: "10", 2: "0000"}, 2).table == (0, 1)
        full = SetStream.from_spec("full", 16)
        truth = {n: wct_target(full, n) for n in (1, 2, 3)}
        assert build_wct_injection(truth, 3).table == tuple(range(6))

    def test_blocks_partition_inputs(self):
        assert [block_of(j) for j in range(8)] == [1, 2, 3, 3, 3, 3, 4, 4]
        with pytest.raises(ValueError, match="^j must be a natural number$"):
            block_of(-1)

    def test_total_injective_for_arbitrary_guesses(self):
        rng = random.Random(23)
        for _ in range(25):
            guesses = {
                n: "".join(rng.choice("01") for _ in range(rng.randrange(0, 40)))
                for n in range(1, 5)
            }
            injection = build_wct_injection(guesses, 4)
            assert len(injection.table) == 24
            assert len(set(injection.table)) == 24
            expected = loop_wct_blocks(_guess_masks(guesses, 4))
            assert injection.table == tuple(value for values in expected for value in values)

    def test_density_bound_when_one_guess_is_true(self):
        # A correct guess for block n forces at least n! - (n-1)! members
        # of the target among the first n! values, whatever the other
        # blocks guess.
        rng = random.Random(31)
        for seed in range(6):
            stream = SetStream.from_spec(f"seed:{seed}", 2048)
            for true_n in (2, 3, 4):
                guesses = {
                    n: "".join(rng.choice("01") for _ in range(rng.randrange(0, 30)))
                    for n in range(1, 5)
                }
                guesses[true_n] = wct_target(stream, true_n)
                sampler = build_wct_injection(guesses, 4).as_sampler()
                checkpoint = factorial(true_n)
                density = preimage_partial_density(stream, sampler, checkpoint)
                assert density >= 1 - Fraction(1, true_n)
                count = sum(
                    stream.bit(v) for v in sampler._table[:checkpoint]
                )
                assert count >= factorial(true_n) - factorial(true_n - 1)

    def test_true_trace_reproduces_principal_function(self):
        stream = SetStream.from_spec("seed:44", 2048)
        truth = {n: wct_target(stream, n) for n in range(1, 5)}
        injection = build_wct_injection(truth, 4)
        for j in range(24):
            assert injection.table[j] == principal_function(stream, j)

    def test_guess_file_roundtrip(self):
        guesses = {1: "1", 2: "10", 5: ""}
        text = format_guess_lines(guesses)
        assert text == "1:1\n2:10\n5:\n"
        assert load_guess_lines(text.splitlines()) == guesses
        for line in ["2:10x", "2", "1:0", "1:1"]:  # one line per block
            with pytest.raises(ValueError) as err:
                load_guess_lines(["1:1", line, "3:"])
            assert str(err.value) == f"bad guess line {line!r}"
        with pytest.raises(ValueError, match="^guess for block 1 is not a bit string$"):
            build_wct_injection({1: "2"}, 1)
        with pytest.raises(ValueError, match=r"^table must cover \[0, max_n!\)$"):
            WctInjection(2, (0,), {})

    def test_csv_export(self):
        injection = build_wct_injection({1: "10", 2: "1010"}, 2)
        assert injection.to_csv_text() == "0,0\n1,2\n"

    def test_csv_export_reads_back_as_a_table_spec(self, tmp_path):
        # Block 2 takes value 2, which block 3 prefers first, so block 3 falls back to 1.
        injection = build_wct_injection({1: "10", 2: "0110", 3: "1111000011"}, 3)
        assert injection.table == (0, 2, 1, 3, 8, 9)
        path = tmp_path / "injection.csv"
        path.write_text(injection.to_csv_text())
        assert parse_sampler(f"table:{path}").prefix(6) == injection.table


class TestGraphSet:
    def test_worked_values(self):
        assert sorted(graph_members([0, 1, 2], 3)) == [0, 4, 12]
        assert sorted(graph_members([0, 0, 0], 3)) == [0, 1, 3]
        assert graph_members([], 0) == frozenset()

    def test_stream_membership(self):
        stream = graph_set([0, 1, 2], 3)
        assert stream.horizon == 13
        assert stream.members_below(13) == [0, 4, 12]
        with pytest.raises(HorizonError):
            stream.bit(13)

    def test_stream_horizon_override(self):
        stream = graph_set([0], 1, stream_horizon=100)
        assert stream.members_below(100) == [0]


class TestTraceAdversary:
    def test_trace_worked_values(self):
        assert trace_from_sampler(Sampler.identity(), 1, 1) == {0}
        assert trace_from_sampler(Sampler.identity(), 1, 2) == {0, 1}

    def test_hits_worked_values(self):
        assert hit_indices(Sampler.identity(), [0, 0, 0], 1, 3) == {0, 1}
        assert hit_indices(Sampler.identity(), [0, 1], 1, 2) == {0}
        assert hit_indices(Sampler.identity(), [], 1, 0) == set()

    def test_soundness_on_fuzzed_permutations(self):
        rng = random.Random(41)
        for _ in range(10):
            table = list(range(300))
            rng.shuffle(table)
            q = rng.choice([1, 2, 3])
            perm = Sampler.from_table(table, domain_bound=10**6)
            values = [rng.randrange(20) for _ in range(60)]
            hits = hit_indices(perm, values, q, 60)
            fresh = Sampler.from_table(table, domain_bound=10**6)
            for m in hits:
                trace = trace_from_sampler(fresh, q, m)
                assert values[m] in trace
                assert len(trace) <= (m + 1) * q

    def test_trace_budget_is_eventually_below_square(self):
        for q in range(1, 6):
            for m in range(q + 2, q + 40):
                assert (m + 1) * q <= m * m
