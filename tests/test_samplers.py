"""Samplers: evaluation, injectivity checks, images, preimage densities."""

import random
from fractions import Fraction
from time import perf_counter

import pytest

from intdensity import (
    DomainError,
    HorizonError,
    InjectivityError,
    Sampler,
    SetStream,
    eval_sampler,
    image_interval,
    image_stream,
    parse_sampler,
    partial_density,
    preimage_partial_density,
)


class TestEval:
    def test_worked_values(self):
        assert eval_sampler(Sampler.identity(), 7) == 7
        table = Sampler.from_table([2, 0, 1])
        assert table.kind == "permutation"
        assert eval_sampler(table, 0) == 2
        assert eval_sampler(Sampler.double(), 5) == 10

    def test_builtins(self):
        assert eval_sampler(Sampler.shift(4), 3) == 7
        swap = Sampler.swapblocks(2)
        assert [eval_sampler(swap, x) for x in range(6)] == [2, 3, 0, 1, 4, 5]

    def test_out_of_domain(self):
        table = Sampler.from_table([1, 0])
        with pytest.raises(DomainError):
            eval_sampler(table, 2)
        with pytest.raises(DomainError):
            eval_sampler(table, -1)

    def test_injectivity_violation_is_hard_error(self):
        broken = Sampler.from_function(lambda x: x // 2, "injection", 10, "collapse")
        eval_sampler(broken, 0)
        with pytest.raises(InjectivityError):
            eval_sampler(broken, 1)

    def test_duplicate_table_rejected_eagerly(self):
        with pytest.raises(InjectivityError):
            Sampler.from_table([1, 1, 0])

    def test_first_repeat_in_input_order_is_reported(self):
        # 1 is the first value that occurs twice, but 2 is repeated first.
        with pytest.raises(InjectivityError, match=r"^table repeats value 2$"):
            Sampler.from_table([3, 1, 2, 2, 1])

    def test_long_duplicate_table_rejected_in_linear_time(self):
        table = list(range(200_000))
        table[-1] = 0
        start = perf_counter()
        with pytest.raises(InjectivityError, match=r"^table repeats value 0$"):
            Sampler.from_table(table)
        assert perf_counter() - start < 2.0

    def test_callable_sugar(self):
        assert Sampler.identity()(9) == 9


class TestTables:
    def test_permutation_kind_requires_bijection(self):
        with pytest.raises(ValueError):
            Sampler.from_table([0, 5], kind="permutation")
        refusal = r"^kind must be injection or permutation, got 'bijection'$"
        with pytest.raises(ValueError, match=refusal):
            Sampler(lambda x: x, "bijection", "b")

    def test_identity_extension(self):
        s = Sampler.from_table([3, 0, 1, 2], domain_bound=100)
        assert eval_sampler(s, 0) == 3
        assert eval_sampler(s, 50) == 50

    def test_extension_needs_closed_table(self):
        with pytest.raises(ValueError):
            Sampler.from_table([5, 6], domain_bound=100)
        with pytest.raises(ValueError, match=r"^domain_bound smaller than the table$"):
            Sampler.from_table([0, 1], domain_bound=1)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "perm.csv"
        path.write_text("0,4\n1,1\n2,0\n3,3\n4,2\n")
        s = parse_sampler(f"table:{path}")
        assert s.kind == "permutation"
        assert image_interval(s, 4) == {4, 1, 0, 3}

    def test_csv_rejects_misnumbered_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,4\n2,1\n")
        with pytest.raises(ValueError):
            parse_sampler(f"table:{path}")

    def test_dsl_errors(self):
        for spec, text in [
            ("nope", "unknown sampler spec 'nope'"),
            ("shift:x", "bad integer 'x' in spec 'shift:x'"),
            ("swapblocks:z", "bad integer 'z' in spec 'swapblocks:z'"),
            ("identity:", "unknown sampler spec 'identity:'"),
            ("shift", "unknown sampler spec 'shift'"),
            ("double:x", "unknown sampler spec 'double:x'"),
            ("shift:", "bad integer '' in spec 'shift:'"),
        ]:
            with pytest.raises(ValueError) as err:
                parse_sampler(spec)
            assert str(err.value) == text


class TestImageInterval:
    def test_worked_values(self):
        assert image_interval(Sampler.identity(), 3) == {0, 1, 2}
        assert image_interval(Sampler.double(), 3) == {0, 2, 4}
        assert image_interval(Sampler.from_table([4, 1, 0, 3, 2]), 4) == {4, 1, 0, 3}

    def test_cardinality_witnesses_injectivity(self):
        rng = random.Random(5)
        for _ in range(20):
            table = list(range(50))
            rng.shuffle(table)
            assert len(image_interval(Sampler.from_table(table), 50)) == 50

    def test_domain_bound(self):
        with pytest.raises(DomainError):
            image_interval(Sampler.from_table([0, 1]), 3)


class TestPreimageDensity:
    def test_worked_values(self):
        evens = SetStream.from_spec("evens", 32)
        assert preimage_partial_density(evens, Sampler.identity(), 10) == Fraction(1, 2)
        assert preimage_partial_density(evens, Sampler.double(), 10) == 1
        odd_image = Sampler.from_function(lambda x: 2 * x + 1, "injection", None, "odd")
        assert preimage_partial_density(evens, odd_image, 8) == 0

    def test_identity_matches_partial_density(self):
        rng = random.Random(2)
        for seed in range(5):
            stream = SetStream.from_spec(f"seed:{seed}", 512)
            for _ in range(10):
                n = rng.randrange(1, 513)
                assert preimage_partial_density(
                    stream, Sampler.identity(), n
                ) == partial_density(stream, n)

    def test_errors(self):
        evens = SetStream.from_spec("evens", 8)
        with pytest.raises(HorizonError):
            preimage_partial_density(evens, Sampler.identity(), 0)
        with pytest.raises(HorizonError):
            preimage_partial_density(evens, Sampler.shift(5), 8)  # value 12 >= 8
        with pytest.raises(DomainError):
            preimage_partial_density(evens, Sampler.from_table([0, 1]), 5)


class TestInverse:
    def test_table_inverse(self):
        perm = Sampler.from_table([2, 0, 1])
        inv = perm.inverse()
        for x in range(3):
            assert eval_sampler(inv, eval_sampler(perm, x)) == x

    def test_builtin_inverses(self):
        assert Sampler.identity().inverse()(5) == 5
        swap = Sampler.swapblocks(4)
        for x in range(10):
            assert swap.inverse()(swap(x)) == x

    def test_injections_not_invertible(self):
        with pytest.raises(ValueError):
            Sampler.double().inverse()

    def test_label_does_not_make_an_inverse(self):
        rotate = lambda x: (x + 1) % 3 if x < 3 else x
        for label in ("swapblocks:9", "identity"):
            spoof = Sampler.from_function(rotate, "permutation", None, label)
            with pytest.raises(ValueError):
                spoof.inverse()

    def test_image_stream_permutes_members(self):
        stream = SetStream.from_members([0, 4], 8)
        image = image_stream(stream, Sampler.from_table([1, 0, 2, 3, 5, 4, 6, 7]))
        assert image.members_below(8) == [1, 5]
