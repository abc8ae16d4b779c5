"""Acceptance suite: one test per criterion, at its stated tolerance.

Checks are exact (rational comparisons, zero-tolerance set membership);
the stated runtime budgets are asserted with perf_counter.  Each criterion
prints one PASS/FAIL line.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from time import perf_counter

import pytest

from intdensity import (
    PrefixInconsistencyError,
    Sampler,
    SetStream,
    WeakRepTable,
    build_wct_injection,
    cantor_pair,
    cantor_unpair,
    fixed_width_code,
    fixed_width_decode,
    graph_members,
    hit_indices,
    introreduce,
    build_prefix_tree,
    extract_candidates,
    preimage_partial_density,
    prefix_code_sampler,
    prefix_free_code,
    psi_eval,
    string_code,
    string_decode,
    table_of_program,
    trace_from_sampler,
    validate_weakrep,
    wct_target,
    parse_manifest,
)
from intdensity.cli import main


@contextmanager
def criterion(name, budget_seconds=None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name} FAIL ({perf_counter() - start:.2f}s)")
        raise
    elapsed = perf_counter() - start
    assert budget_seconds is None or elapsed < budget_seconds, (
        f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"{name} PASS ({elapsed:.2f}s)")


def test_ac1_true_trace_injection_meets_density_bounds():
    """20 seeded sets, blocks up to 7: density at n! is at least 1 - 1/n."""
    with criterion("AC1 guess-driven injection density", budget_seconds=5.0):
        for seed in range(20):
            stream = SetStream.from_spec(f"seed:{seed}", 16384)
            truth = {n: wct_target(stream, n) for n in range(1, 8)}
            sampler = build_wct_injection(truth, 7).as_sampler()
            for n in range(1, 8):
                density = preimage_partial_density(stream, sampler, factorial(n))
                assert density >= 1 - Fraction(1, n), (seed, n, density)


def test_ac2_prefix_enumeration_tree_keeps_the_source_path():
    """10 seeded sets, q in {2, 3}: levels past the full region stay within
    width 2q and the depth-64 prefix survives."""
    with criterion("AC2 bounded-width tree decoding", budget_seconds=5.0):
        full_height = 1
        for seed in range(10):
            for q in (2, 3):
                stream = SetStream.from_spec(f"seed:{seed}", 2 * q * 64)
                sampler = prefix_code_sampler(stream, 2 * q * 64)
                tree = build_prefix_tree(sampler, q, full_height, 64)
                for height in range(full_height + 1, 65):
                    assert len(tree.levels[height]) <= 2 * q, (seed, q, height)
                assert stream.prefix(64) in extract_candidates(tree), (seed, q)


def test_ac3_every_hit_is_traced_within_budget():
    """10 seeded permutations of [0,1000) extended by the identity, q = 6:
    each hit's value appears in the trace, which stays within (m+1)q."""
    with criterion("AC3 trace adversary soundness"):
        q = 6
        rng = random.Random(2024)
        total_hits = 0
        for _ in range(10):
            table = list(range(1000))
            rng.shuffle(table)
            perm = Sampler.from_table(table, domain_bound=10**6)
            values = [rng.randrange(30) for _ in range(200)]
            hits = hit_indices(perm, values, q, 200)
            total_hits += len(hits)
            for m in hits:
                trace = trace_from_sampler(perm, q, m)
                assert values[m] in trace, m
                assert len(trace) <= (m + 1) * q, m
        assert total_hits > 0  # the implication is not vacuous


def test_ac4_coding_roundtrips_and_prefix_freeness():
    """Pairing codes below 1e5, string codes to length 16, the
    self-delimiting code pairwise over 1..4096, fixed-width to base 64."""
    with criterion("AC4 coding bijections", budget_seconds=10.0):
        for z in range(10**5):
            x, y = cantor_unpair(z)
            assert cantor_pair(x, y) == z
        for code in range((1 << 17) - 1):  # exactly the strings of length <= 16
            bits = string_decode(code)
            assert len(bits) <= 16
            assert string_code(bits) == code
        words = [prefix_free_code(n) for n in range(1, 4097)]
        for n, word in enumerate(words, start=1):
            assert len(word) == 2 * (n.bit_length() - 1) + 2, n
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a), (a, b)
        for n in range(2, 65):
            for x in range(n * n):
                assert fixed_width_decode(n, fixed_width_code(n, x)) == x


def test_ac5_psi_recovers_functions_from_their_graphs():
    """psi over the graph of f equals f pointwise for 100 random tables."""
    with criterion("AC5 graph/psi duality"):
        rng = random.Random(5)
        for _ in range(100):
            values = [rng.randrange(100) for _ in range(50)]
            codes = graph_members(values, 50)
            for x in range(50):
                assert psi_eval(codes, x, 100) == values[x], x


def test_ac6_validator_catches_each_mutant_and_passes_valid_tables():
    """One mutant per invariant, caught with a correct witness; 200 fuzzed
    valid tables and all program tables pass."""
    with criterion("AC6 table validator"):
        horizon = 8

        def fills(x, y, z_from, upto=horizon):
            return [(x, y, z) for z in range(z_from, upto + 1)]

        base = fills(0, 4, 2) + fills(1, 0, 3) + fills(2, 7, 5)
        assert validate_weakrep(WeakRepTable.from_triples(base, horizon)).ok

        # representation: a witness step beyond the declared horizon
        mutant = WeakRepTable.from_triples(base + [(3, 1, horizon + 4)], horizon)
        bullet = validate_weakrep(mutant).bullet("representation")
        assert not bullet.passed and bullet.witness == (3, 1, horizon + 4)

        # consistency: a second value witnessed for input 1
        mutant = WeakRepTable.from_triples(base + fills(1, 6, 7), horizon)
        bullet = validate_weakrep(mutant).bullet("consistency")
        assert not bullet.passed
        pair = {t[:2] for t in bullet.witness}
        assert pair == {(1, 0), (1, 6)}

        # monotonicity: one fill removed in the middle of input 2's run
        mutant = WeakRepTable.from_triples(
            [t for t in base if t != (2, 7, 6)], horizon
        )
        bullet = validate_weakrep(mutant).bullet("monotonicity")
        assert not bullet.passed and bullet.witness == (2, 7, 5)

        # downward closure: input 1 loses all witnesses, input 2 keeps them
        mutant = WeakRepTable.from_triples(
            [t for t in base if t[0] != 1], horizon
        )
        bullet = validate_weakrep(mutant).bullet("downward_closure")
        assert not bullet.passed and bullet.witness[0] == 2

        for name, table in [
            ("representation", WeakRepTable.from_triples(base + [(3, 1, 12)], horizon)),
            ("consistency", WeakRepTable.from_triples(base + fills(1, 6, 7), horizon)),
            ("monotonicity", WeakRepTable.from_triples([t for t in base if t != (2, 7, 6)], horizon)),
            ("downward_closure", WeakRepTable.from_triples([t for t in base if t[0] != 1], horizon)),
        ]:
            report = validate_weakrep(table)
            assert not report.bullet(name).passed
            others = [b for b in report.bullets if b.name != name]
            assert all(b.passed for b in others), name  # violations are independent

        rng = random.Random(66)
        for _ in range(200):
            triples = []
            for x in range(rng.randrange(0, 7)):
                triples += fills(x, rng.randrange(20), rng.randrange(1, horizon + 1))
            assert validate_weakrep(WeakRepTable.from_triples(triples, horizon)).ok

        registry = parse_manifest(
            ["identity", "double", "succ", "ramp", "diverge", "zeroonly",
             "const:9", "slowid:4"],
            budget=32,
        )
        for index in range(len(registry)):
            for table_horizon in (0, 3, 9, 20):
                table = table_of_program(registry, index, table_horizon)
                assert validate_weakrep(table).ok, (index, table_horizon)


def test_ac7_adversary_bound_beats_reached_dominating_values():
    """F(n) = 2^n against 10 seeded samplers: whenever F(n) lands in the
    image of [0, (n+1)q), the adversary bound exceeds it."""
    from intdensity import dominating_adversary, image_interval

    with criterion("AC7 dominating-branch adversary"):
        q = 2
        rng = random.Random(77)
        f_values = [2**n for n in range(31)]
        total_hits = 0
        for _ in range(10):
            table = list(range(1000))
            rng.shuffle(table)
            perm = Sampler.from_table(table, domain_bound=10**6)
            for n in range(31):
                bound = dominating_adversary(f_values, perm, q, n)
                if f_values[n] in image_interval(perm, (n + 1) * q):
                    total_hits += 1
                    assert bound > f_values[n], n
        assert total_hits > 0


def test_ac8_prefix_codes_introreduce_back_to_the_source():
    """One code per length 1..64 recovers the 64-bit prefix exactly;
    a planted conflict is rejected with its position."""
    with criterion("AC8 introreducibility"):
        for seed in range(5):
            stream = SetStream.from_spec(f"seed:{seed}", 64)
            codes = {string_code(stream.prefix(n)) for n in range(1, 65)}
            assert len(codes) == 64
            assert introreduce(codes) == stream.prefix(64)

            sigma = stream.prefix(32)
            flipped = sigma[:31] + ("1" if sigma[31] == "0" else "0")
            mutated = (codes - {string_code(sigma)}) | {string_code(flipped)}
            with pytest.raises(PrefixInconsistencyError) as exc:
                introreduce(mutated)
            assert exc.value.position == 31


def test_ac9_every_subcommand_is_deterministic(tmp_path, capsys):
    """Each subcommand twice with identical arguments: identical bytes."""
    table_csv = tmp_path / "perm.csv"
    table_csv.write_text("0,2\n1,0\n2,1\n")
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("1:10\n2:1010\n")
    weakrep_table = tmp_path / "table.txt"
    weakrep_table.write_text("0,2,3\n0,2,4\n0,2,5\n0,2,6\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("identity\ndiverge\nconst:3\n")
    sigma_file = tmp_path / "sigma.txt"
    sigma_file.write_text("1:1\ndefault:0\n")

    invocations = [
        ["density", "--set", "seed:9:p=1/3", "--checkpoints", "4,16,64"],
        ["density", "--set", "evens", "--checkpoints", "8,16", "--sampler", "double"],
        ["prefix-set", "--set", "seed:4", "--horizon", "32", "--count", "8"],
        ["tree-decode", "--prefix-sampler-of", "seed:4", "--q", "2",
         "--full-height", "1", "--depth", "16"],
        ["tree-decode", "--sampler", f"table:{table_csv}", "--q", "1",
         "--full-height", "0", "--depth", "1"],
        ["introreduce", "--codes", "2,5,12"],
        ["wct", "--set", "seed:11", "--horizon", "512", "--nmax", "4",
         "--oracle-trace", "--include-table"],
        ["wct", "--set", "evens", "--horizon", "64", "--nmax", "2",
         "--trace-file", str(trace_file)],
        ["graph", "--values", "3,1,4,1"],
        ["trace", "--sampler", "identity", "--q", "2", "--n", "3"],
        ["hits", "--sampler", "identity", "--values", "0,0,0,0", "--q", "1"],
        ["dom", "--sampler", "identity", "--f-values", "1,2,4,8", "--q", "2",
         "--nmax", "3"],
        ["codes", "k", "--n", "77"],
        ["codes", "c", "--n", "9", "--x", "80"],
        ["codes", "pair", "--x", "12", "--y", "34"],
        ["codes", "string", "--encode", "10110"],
        ["codes", "setcode", "--members", "0,3,5"],
        ["weakrep", "validate", "--table-file", str(weakrep_table)],
        ["weakrep", "of-program", "--manifest", str(manifest), "--index", "0",
         "--horizon", "4"],
        ["weakrep", "interleave", "--manifest", str(manifest), "--grid", "6"],
        ["pset", "--values", "0,2", "--manifest", str(manifest),
         "--sigma-file", str(sigma_file), "--checkpoints", "2"],
        ["--format", "csv", "density", "--set", "odds", "--checkpoints", "5,10"],
    ]
    with criterion("AC9 CLI determinism"):
        for argv in invocations:
            first_code = main(argv)
            first = capsys.readouterr().out
            second_code = main(argv)
            second = capsys.readouterr().out
            assert first_code == second_code, argv
            assert first.encode() == second.encode(), argv
            assert first_code == 0, (argv, first_code)
            if "csv" not in argv:
                json.loads(first)  # every report parses
