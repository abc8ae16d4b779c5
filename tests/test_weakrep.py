"""Step-witness tables, registries, interleaving, and DNR-branch codings."""

import gc
import json
import random
import time
import tracemalloc
import weakref
from itertools import product

import pytest

from intdensity import (
    FamilyRegistry,
    HorizonError,
    InvalidTableError,
    Sampler,
    SigmaMap,
    WeakRepTable,
    build_pset,
    builtin_program,
    cantor_pair,
    diagonal_avoid,
    dominating_adversary,
    eval_step,
    graph_members,
    graph_set,
    image_interval,
    image_set,
    interleave_family,
    p_bound,
    parse_manifest,
    psi_eval,
    string_code,
    table_of_program,
    validate_weakrep,
)
from intdensity.cli import main
from intdensity.weakrep import Program

BUILTINS = [
    "identity",
    "double",
    "succ",
    "ramp",
    "diverge",
    "zeroonly",
    "const:5",
    "slowid:3",
]


def fill(x, y, z_from, horizon):
    """Monotone witness triples for one input."""
    return [(x, y, z) for z in range(z_from, horizon + 1)]


def valid_table(rng, horizon=10):
    """Random table satisfying all four invariants by construction."""
    triples = []
    for x in range(rng.randrange(0, 6)):
        triples += fill(x, rng.randrange(12), rng.randrange(1, horizon + 1), horizon)
    return WeakRepTable.from_triples(triples, horizon)


class TestValidator:
    def test_consistency_failure_with_witness(self):
        table = WeakRepTable.from_triples(
            fill(0, 1, 2, 5) + fill(0, 2, 3, 5), 5
        )
        report = validate_weakrep(table)
        bullet = report.bullet("consistency")
        assert not bullet.passed
        first, second = bullet.witness
        assert first[0] == second[0] == 0 and {first[1], second[1]} == {1, 2}
        with pytest.raises(KeyError):
            report.bullet("nope")
        assert report.bullet("monotonicity").passed

    def test_downward_closure_failure(self):
        table = WeakRepTable.from_triples(fill(1, 0, 1, 4), 4)
        report = validate_weakrep(table)
        assert not report.bullet("downward_closure").passed
        assert report.bullet("consistency").passed
        assert report.bullet("monotonicity").passed
        assert report.bullet("representation").passed

    def test_all_pass_example(self):
        table = WeakRepTable.from_triples(fill(0, 2, 3, 6), 6)
        assert validate_weakrep(table).ok

    def test_monotonicity_failure(self):
        triples = [t for t in fill(0, 2, 3, 8) if t[2] != 5]
        report = validate_weakrep(WeakRepTable.from_triples(triples, 8))
        bullet = report.bullet("monotonicity")
        assert not bullet.passed and "not 5" in bullet.detail
        assert report.bullet("consistency").passed
        assert report.bullet("downward_closure").passed
        assert report.bullet("representation").passed

    def test_representation_failure(self):
        triples = fill(0, 2, 3, 6) + [(1, 0, 9)]
        report = validate_weakrep(WeakRepTable.from_triples(triples, 6))
        bullet = report.bullet("representation")
        assert not bullet.passed and bullet.witness == (1, 0, 9)
        assert report.bullet("consistency").passed
        assert report.bullet("monotonicity").passed
        assert report.bullet("downward_closure").passed

    def test_validated_table_is_not_kept_alive(self):
        table = WeakRepTable.from_triples(fill(0, 2, 3, 6), 6)
        report = validate_weakrep(table)
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None and report.ok

    def test_fuzzed_valid_tables_pass(self):
        rng = random.Random(6)
        for _ in range(100):
            assert validate_weakrep(valid_table(rng)).ok

    def test_lines_roundtrip(self):
        table = WeakRepTable.from_triples(fill(0, 2, 1, 3) + fill(1, 7, 2, 3), 3)
        text = table.to_lines()
        again = WeakRepTable.from_lines(text.splitlines(), 3)
        assert again == table
        assert WeakRepTable.from_lines(text.splitlines()).horizon == 3

    @pytest.mark.parametrize(
        "triples",
        [
            [(0, 1.5, 2.9)],
            [(0, "3", 2)],
            [(True, 0, 2)],
            [(0, 1, -1)],
            [(0, 1, 2), (0, 1.0, 2)],  # equal to an int triple, still refused
        ],
    )
    def test_from_triples_refuses_non_naturals(self, triples):
        with pytest.raises(ValueError, match="^triple components must be naturals$"):
            WeakRepTable.from_triples(triples, 3)

    def test_from_triples_keeps_int_subclasses(self):
        class Natural(int):
            pass

        table = WeakRepTable.from_triples([(Natural(0), 1, 2)], 3)
        assert table.triples == frozenset({(0, 1, 2)})
        assert WeakRepTable.from_triples([], 0).triples == frozenset()
        with pytest.raises(ValueError, match="not enough values to unpack"):
            WeakRepTable.from_triples([(0, 1)], 3)

    def test_codes_are_sorted_pair_codes(self):
        table = WeakRepTable.from_triples([(0, 1, 2), (1, 0, 2)], 2)
        codes = table.codes()
        assert codes == sorted(codes)
        assert len(codes) == 2


class TestEvalStep:
    def test_worked_values(self):
        table = WeakRepTable.from_triples(fill(0, 2, 3, 6), 6)
        assert eval_step(table, 0, 3) == 2
        assert eval_step(table, 0, 2) is None  # needs value < step
        empty = WeakRepTable.from_triples([], 6)
        assert eval_step(empty, 0, 6) is None

    def test_invalid_table_rejected(self):
        bad = WeakRepTable.from_triples(fill(0, 1, 2, 5) + fill(0, 2, 3, 5), 5)
        with pytest.raises(InvalidTableError):
            eval_step(bad, 0, 4)

    def test_step_beyond_horizon(self):
        table = WeakRepTable.from_triples(fill(0, 2, 3, 6), 6)
        with pytest.raises(HorizonError):
            eval_step(table, 0, 7)


class TestTableOfProgram:
    def test_identity_step_semantics(self):
        registry = parse_manifest(["identity"], 64)
        table = table_of_program(registry, 0, 6)
        for x in range(7):
            for z in range(1, 7):
                expected = x if (z > x and x < z) else None
                assert eval_step(table, x, z) == expected

    def test_one_program_run_per_input(self):
        calls = []

        def counting(x):
            calls.append(x)
            return (x, x + 1)

        registry = FamilyRegistry((Program("counting", counting),), 64)
        table_of_program(registry, 0, 6)
        # Inputs 0..6 are each run once; 7 steps at x = 6 pass the horizon and stop the scan.
        assert calls == list(range(7))

    @pytest.mark.parametrize("value", [-1, 1.5, True, "3"])
    def test_values_must_be_naturals(self, value):
        registry = FamilyRegistry((Program("odd", lambda x: (value, 1)),), 64)
        with pytest.raises(ValueError, match="^triple components must be naturals$"):
            table_of_program(registry, 0, 3)

    def test_divergent_program_gives_empty_table(self):
        registry = parse_manifest(["diverge"], 64)
        assert table_of_program(registry, 0, 8).triples == frozenset()

    def test_halting_only_at_zero(self):
        registry = parse_manifest(["zeroonly"], 64)
        table = table_of_program(registry, 0, 5)
        assert {x for x, _, _ in table.triples} == {0}

    def test_slow_programs_delay_witnesses(self):
        registry = parse_manifest(["slowid:3"], 64)
        table = table_of_program(registry, 0, 5)
        assert all(z >= 3 for _, _, z in table.triples)

    def test_budget_overrun_is_divergence(self):
        registry = parse_manifest(["slowid:5"], 3)
        assert table_of_program(registry, 0, 8).triples == frozenset()

    def test_ramp_reach_grows_with_input(self):
        registry = parse_manifest(["ramp"], 64)
        table = table_of_program(registry, 0, 6)
        # halting on every x' <= x needs z >= x + 1
        assert (2, 2, 3) in table.triples and (2, 2, 2) not in table.triples

    def test_outputs_always_validate(self):
        registry = parse_manifest(BUILTINS, 16)
        for index in range(len(registry)):
            for horizon in (0, 1, 5, 12):
                assert validate_weakrep(table_of_program(registry, index, horizon)).ok


class TestInterleave:
    def test_worked_values(self):
        registry = parse_manifest(["identity"], 8)
        derived = interleave_family(registry)
        assert [derived.eval(0, x) for x in range(4)] == [0, 0, 1, 1]
        assert all(derived.eval(1, x) == registry.eval(0, x) for x in range(6))
        assert len(interleave_family(FamilyRegistry((), 8))) == 0

    def test_pointwise_equalities_including_divergence(self):
        registry = parse_manifest(BUILTINS, 16)
        derived = interleave_family(registry)
        for e in range(len(registry)):
            for n in range(10):
                expected = registry.eval(e, n)
                assert derived.eval(2 * e, 2 * n) == expected
                assert derived.eval(2 * e, 2 * n + 1) == expected
                assert derived.eval(2 * e + 1, n) == expected

    def test_diagonal_avoid(self):
        assert diagonal_avoid(list(range(10)), 3) == 6
        assert diagonal_avoid([5] * 8, 2) == 5
        assert diagonal_avoid([7, 1, 9], 1) == 9
        with pytest.raises(ValueError):
            diagonal_avoid([7, 1, 9], 2)
        with pytest.raises(ValueError, match="^diagonal table has no value at index -2$"):
            diagonal_avoid([10, 11, 12, 13], -1)


class TestImageSet:
    def test_worked_values(self):
        powers = image_set([1, 2, 4, 8])
        assert powers.bit(8) == 1 and powers.bit(6) == 0 and powers.bit(1) == 1
        identity = image_set(list(range(10)))
        assert identity.count_below(10) == 10
        assert image_set([1, 2, 6, 24]).bit(24) == 1

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            image_set([3, 3, 4])
        with pytest.raises(ValueError):
            image_set([])
        # Floats and bools are refused too, also where they equal naturals.
        for values in [[False, 1], [True], [0, 2.5], [1.0, 2], [0, 1, 2.0]]:
            with pytest.raises(ValueError, match="^function table must be strictly increasing"):
                image_set(values)


class TestDominatingAdversary:
    def test_worked_values(self):
        assert dominating_adversary([0, 0, 0], Sampler.identity(), 1, 2) == 4
        assert dominating_adversary([1, 2], Sampler.double(), 1, 1) == 5
        swap = Sampler.swapblocks(1)
        assert dominating_adversary([9], swap, 1, 0) == 1 + max(swap(0), swap(1))

    def test_bound_exceeds_reached_values(self):
        rng = random.Random(8)
        f_values = [2**n for n in range(12)]
        for _ in range(10):
            table = list(range(64))
            rng.shuffle(table)
            perm = Sampler.from_table(table, domain_bound=10**4)
            for n in range(12):
                q = rng.choice([1, 2])
                bound = dominating_adversary(f_values, perm, q, n)
                fresh = Sampler.from_table(table, domain_bound=10**4)
                if f_values[n] in image_interval(fresh, (n + 1) * q):
                    assert bound > f_values[n]


class TestPsi:
    def test_worked_values(self):
        assert psi_eval({9}, 0, 10) == 3
        assert psi_eval({9}, 1, 10) is None
        assert psi_eval(graph_members([0, 1, 2], 3), 1, 5) == 1
        with pytest.raises(ValueError, match="^x and budget must be naturals$"):
            psi_eval([], -1, 0)

    def test_matches_naive_mu_search(self):
        def naive(codes, x, budget):
            for t in range(x + 1):
                if not any(cantor_pair(t, y) in codes for y in range(budget)):
                    return None
            for y in range(budget):
                if cantor_pair(x, y) in codes:
                    return y

        rng = random.Random(12)
        for _ in range(50):
            codes = {rng.randrange(200) for _ in range(rng.randrange(0, 30))}
            x, budget = rng.randrange(6), rng.randrange(1, 20)
            assert psi_eval(codes, x, budget) == naive(codes, x, budget)

    def test_recovers_function_from_graph(self):
        rng = random.Random(14)
        for _ in range(10):
            values = [rng.randrange(40) for _ in range(20)]
            codes = graph_members(values, 20)
            for x in range(20):
                assert psi_eval(codes, x, 41) == values[x]

    def test_divergence_under_small_budget(self):
        codes = graph_members([5, 30], 2)
        assert psi_eval(codes, 1, 6) is None  # witness for x=1 needs budget > 30


class TestSigmaMapAndPBound:
    def test_parse_and_format(self):
        parsed = SigmaMap.parse(["01:3", ":2", "default:0", "# comment", ""])
        assert parsed.lookup("01") == 3
        assert parsed.lookup("") == 2
        assert parsed.lookup("111") == 0
        assert parsed.format_lines() == ":2\n01:3\ndefault:0\n"
        with pytest.raises(ValueError):
            SigmaMap.parse(["abc:1"])
        for lines in (["01:3", "1:2", "01:3"], [":2", ":4"], ["default:0", "01:3", "default:1"]):
            with pytest.raises(ValueError) as err:  # one line per sigma, one default
                SigmaMap.parse(lines)
            assert str(err.value) == f"bad sigma map line {lines[-1]!r}"

    def test_unmapped_string_without_default(self):
        bare = SigmaMap(entries={"0": 1}, default=None)
        with pytest.raises(LookupError):
            bare.lookup("1")

    def test_worked_values(self):
        registry = parse_manifest(["identity", "diverge"], 16)
        assert p_bound(registry, SigmaMap({}, 0), [0], 2) == 1
        assert p_bound(registry, SigmaMap({"1": 1}, 0), [0, 3], 2) == 14

    def test_string_range_is_exact_power_comparison(self):
        # An entry of length L counts iff 2^L < n^5; 4^5 = 2^10 sits on the boundary.
        registry = parse_manifest(["identity", "identity"], 16)
        for n, lengths in ((2, (4, 5)), (3, (7, 8)), (4, (9, 10, 11))):
            for length in lengths:
                bound = p_bound(registry, SigmaMap({"1" * length: 1}, 0), [2, 7], n)
                counted = (1 << length) < n**5
                assert bound == 1 + (cantor_pair(1, 7) if counted else cantor_pair(0, 2))
        # At n = 2 the strings are exactly those shorter than 5.
        below_five = ["".join(bits) for L in range(5) for bits in product("01", repeat=L)]
        full = {sigma: 0 for sigma in below_five}
        assert p_bound(registry, SigmaMap(full, None), [3], 2) == 1 + cantor_pair(0, 3)
        del full["0110"]
        with pytest.raises(LookupError, match="'0110'"):
            p_bound(registry, SigmaMap(full, None), [3], 2)

    def test_errors(self):
        registry = parse_manifest(["identity"], 16)
        with pytest.raises(ValueError):
            p_bound(registry, SigmaMap({}, 0), [0], 1)
        with pytest.raises(LookupError):
            p_bound(registry, SigmaMap({}, None), [0], 2)
        with pytest.raises(ValueError):
            p_bound(registry, SigmaMap({}, 5), [0], 2)  # unknown program
        with pytest.raises(ValueError):
            p_bound(registry, SigmaMap({}, 0), [], 2)  # gap in the table


class TestWorkFollowsTheData:
    """Inputs whose size, not whose numbers, sets the cost of a check."""

    def test_far_input_is_a_downward_gap_in_little_memory(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("0,0,1\n1000000000,0,1\n")
        tracemalloc.start()
        try:
            code = main(["weakrep", "validate", "--table-file", str(table)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        downward = next(c for c in report["checks"] if c["name"] == "downward_closure")
        assert downward["detail"]["witness"] == [1000000000, 0, 1]
        assert peak < 2_000_000

    def test_long_run_validates_quickly(self):
        horizon = 19_999
        whole = WeakRepTable.from_triples(fill(0, 0, 0, horizon), horizon)
        short = WeakRepTable.from_triples(fill(0, 0, 0, horizon - 1), horizon)
        started = time.perf_counter()
        assert validate_weakrep(whole).ok
        bullet = validate_weakrep(short).bullet("monotonicity")
        assert time.perf_counter() - started < 1.0
        assert bullet.witness == (0, 0, 0) and bullet.detail.endswith(f"but not {horizon}")

    def test_p_bound_at_a_thousand(self):
        # 1000^5 = 10^15 lies between 2^49 and 2^50: strings up to length 49 count.
        registry = parse_manifest(["identity", "identity", "identity"], 16)
        entries = {"": 0, "1" * 49: 1, "0" * 50: 2}
        values = [3, 7, 100]
        expected = 1 + max(cantor_pair(0, 3), cantor_pair(1, 7))
        assert p_bound(registry, SigmaMap(entries, 0), values, 1000) == expected


class TestBuildPset:
    def test_composes_with_p_bound(self):
        registry = parse_manifest(["identity", "diverge"], 16)
        sigma = SigmaMap({}, 0)
        codes = build_pset([0], registry, sigma, [2])
        stream = graph_set([0], 1, stream_horizon=4)
        assert codes == {string_code(stream.prefix(1))} == {2}

    def test_empty_checkpoints(self):
        registry = parse_manifest(["identity"], 16)
        assert build_pset([0], registry, SigmaMap({}, 0), []) == set()

    def test_equal_bounds_collapse(self):
        registry = parse_manifest(["identity"], 16)
        sigma = SigmaMap({}, 0)
        codes = build_pset([0], registry, sigma, [2, 3])
        assert len(codes) == 1  # both checkpoints give p = 1


class TestManifest:
    def test_parse(self):
        registry = parse_manifest(["identity", "# note", "", "const:7"], 32)
        assert len(registry) == 2
        assert registry.eval(1, 99) == 7

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_the_registry_is_refused(self, index):
        registry = parse_manifest(["identity", "const:7"], 32)
        with pytest.raises(ValueError, match=rf"^program index {index} outside the registry \[0, 2\)$"):
            registry.eval(index, 0)

    def test_bad_programs(self):
        for spec, text in [
            ("nope", "unknown program spec 'nope'"),
            ("const:-1", "constant must be a natural number"),
            ("slowid:0", "slowid step count must be >= 1"),
            ("identity:", "unknown program spec 'identity:'"),
            ("const", "unknown program spec 'const'"),
            ("diverge:", "unknown program spec 'diverge:'"),
            ("const:", "bad integer '' in spec 'const:'"),
        ]:
            with pytest.raises(ValueError) as err:
                builtin_program(spec)
            assert str(err.value) == text
        with pytest.raises(ValueError) as err:
            parse_manifest(["identity"], 0)
        assert str(err.value) == "budget must be >= 1"
