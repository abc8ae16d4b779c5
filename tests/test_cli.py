"""CLI: payloads, exit codes, determinism, both output formats."""

import json
import re
import tracemalloc

import pytest

from intdensity import cli, constructions, samplers, weakrep
from intdensity.cli import main
from intdensity.samplers import eval_sampler


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestDensity:
    def test_plain(self, capsys):
        code, report = run_json(
            capsys, "density", "--set", "evens", "--checkpoints", "2,4,8"
        )
        assert code == 0
        assert report["results"]["values"] == ["1/2", "1/2", "1/2"]
        assert report["schema_version"] == 1

    def test_preimage(self, capsys):
        code, report = run_json(
            capsys,
            "density", "--set", "evens", "--checkpoints", "4,8",
            "--sampler", "double",
        )
        assert code == 0
        assert report["results"]["values"] == ["1", "1"]

    def test_image(self, capsys):
        code, report = run_json(
            capsys,
            "density", "--set", "list:0,1,2", "--checkpoints", "3,6",
            "--horizon", "6", "--sampler", "swapblocks:3", "--direction", "image",
        )
        assert code == 0
        assert report["results"]["values"] == ["0", "1/2"]

    def test_bad_spec_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "density", "--set", "wat", "--checkpoints", "2")
        assert code == 2

    @pytest.mark.parametrize("sampler", [[], ["--sampler", "double"],
                                         ["--sampler", "identity", "--direction", "image"]])
    def test_explicit_zero_horizon_is_kept(self, capsys, sampler):
        argv = ["density", "--set", "evens", "--checkpoints", "4", "--horizon", "0"]
        assert run_cli(capsys, *argv, *sampler)[0] == 2

    def test_explicit_zero_set_horizon_is_kept(self, capsys):
        code, _ = run_cli(
            capsys, "tree-decode", "--prefix-sampler-of", "evens", "--set-horizon", "0",
            "--q", "2", "--full-height", "1", "--depth", "4",
        )
        assert code == 2

    @pytest.mark.parametrize("sampler", [[], ["--sampler", "double"],
                                         ["--sampler", "identity", "--direction", "image"]])
    def test_checkpoints_must_increase_in_every_direction(self, capsys, sampler):
        assert main(["density", "--set", "evens", "--checkpoints", "8,4", *sampler]) == 2
        assert "checkpoints must be strictly increasing" in capsys.readouterr().err


class TestConstructionCommands:
    def test_prefix_set(self, capsys):
        code, report = run_json(
            capsys, "prefix-set", "--set", "evens", "--horizon", "8", "--count", "4"
        )
        assert code == 0
        assert report["results"]["codes"] == [0, 2, 5, 12]
        assert report["checks"][0]["pass"]

    def test_tree_decode(self, capsys):
        code, report = run_json(
            capsys,
            "tree-decode", "--prefix-sampler-of", "evens",
            "--q", "2", "--full-height", "1", "--depth", "4",
        )
        assert code == 0
        assert report["results"]["candidates"] == ["1010"]

    def test_introreduce_ok(self, capsys):
        code, report = run_json(capsys, "introreduce", "--codes", "2,5")
        assert code == 0
        assert report["results"]["bits"] == "10"

    def test_introreduce_conflict_fails(self, capsys):
        code, report = run_json(capsys, "introreduce", "--codes", "1,2")
        assert code == 1
        assert report["checks"][0]["detail"]["position"] == 0

    def test_wct_oracle(self, capsys):
        code, report = run_json(
            capsys,
            "wct", "--set", "seed:42", "--horizon", "512",
            "--nmax", "4", "--oracle-trace",
        )
        assert code == 0
        blocks = report["results"]["blocks"]
        assert len(blocks) == 4
        assert all(row["meets_bound"] for row in blocks)

    def test_wct_report_does_not_depend_on_the_horizon(self, capsys):
        reports = []
        for horizon in ("10000", "1000000000"):
            code, report = run_json(
                capsys, "wct", "--set", "seed:42", "--horizon", horizon,
                "--nmax", "6", "--oracle-trace",
            )
            assert code == 0
            reports.append((report["results"], report["checks"]))
        assert reports[0] == reports[1]

    def test_wct_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("1:0000\n2:0000\n3:0000\n")
        code, report = run_json(
            capsys,
            "wct", "--set", "seed:42", "--horizon", "512",
            "--nmax", "3", "--trace-file", str(trace),
        )
        assert code == 0  # no guess matches the truth, so no bound is owed
        assert report["checks"] == []

    def test_graph(self, capsys):
        code, report = run_json(capsys, "graph", "--values", "0,1,2")
        assert code == 0
        assert report["results"]["members"] == [0, 4, 12]

    def test_trace(self, capsys):
        code, report = run_json(
            capsys, "trace", "--sampler", "identity", "--q", "1", "--n", "2"
        )
        assert code == 0
        assert report["results"]["trace"] == [0, 1]

    def test_hits(self, capsys):
        code, report = run_json(
            capsys,
            "hits", "--sampler", "identity", "--values", "0,0,0", "--q", "1",
        )
        assert code == 0
        assert report["results"]["hits"] == [0, 1]
        assert all(c["pass"] for c in report["checks"])

    def test_dom(self, capsys):
        code, report = run_json(
            capsys,
            "dom", "--sampler", "identity", "--f-values", "1,2,4,8",
            "--q", "2", "--nmax", "3",
        )
        assert code == 0
        rows = report["results"]["rows"]
        assert rows[0]["adversary"] == 3  # 1 + max over [0, 2]


class TestAdversaryEvaluations:
    """`dom` and `hits` read the sampler's prefix once, not once per row or hit."""

    @staticmethod
    def count_reads(monkeypatch):
        """The length of every prefix read, and every single evaluation."""
        reads, evaluations = [], []
        read = samplers.Sampler._read

        def counted_read(sampler, n):
            reads.append(n)
            return read(sampler, n)

        def counted_eval(sampler, x):
            evaluations.append(x)
            return eval_sampler(sampler, x)

        monkeypatch.setattr(samplers.Sampler, "_read", counted_read)
        for module in (constructions, samplers, weakrep):
            monkeypatch.setattr(module, "eval_sampler", counted_eval)
        return reads, evaluations

    @pytest.mark.parametrize("sampler", ["identity", "double", "swapblocks:3"])
    @pytest.mark.parametrize("q, nmax", [(1, 0), (2, 3), (3, 40)])
    def test_dom_reads_the_prefix_once(self, capsys, monkeypatch, sampler, q, nmax):
        reads, evaluations = self.count_reads(monkeypatch)
        f_values = ",".join(str(2 * n) for n in range(nmax + 1))
        code, report = run_json(
            capsys, "dom", "--sampler", sampler, "--f-values", f_values,
            "--q", str(q), "--nmax", str(nmax),
        )
        assert code == 0 and len(report["results"]["rows"]) == nmax + 1
        assert reads == [(nmax + 1) * q + 1] and evaluations == []

    def test_hits_reads_one_prefix_for_the_hits_and_one_for_their_traces(
        self, capsys, monkeypatch, tmp_path
    ):
        table = tmp_path / "pairs.csv"
        table.write_text("".join(f"{j},{j * (j + 1) // 2}\n" for j in range(40)))
        reads, evaluations = self.count_reads(monkeypatch)
        code, report = run_json(
            capsys, "hits", "--sampler", f"table:{table}", "--values", ",".join(["0"] * 30),
            "--q", "1",
        )
        assert code == 0 and report["results"]["hits"] == list(range(30))
        assert len(report["checks"]) == 30 and all(c["pass"] for c in report["checks"])
        assert reads == [30, 30] and evaluations == []


class TestCodesCommands:
    def test_k(self, capsys):
        assert run_json(capsys, "codes", "k", "--n", "5")[1]["results"]["code"] == "001101"
        assert run_json(capsys, "codes", "k", "--decode", "001101")[1]["results"]["n"] == 5

    def test_c(self, capsys):
        _, report = run_json(capsys, "codes", "c", "--n", "5", "--x", "24")
        assert report["results"]["code"] == "11000"
        _, report = run_json(capsys, "codes", "c", "--n", "5", "--decode", "11000")
        assert report["results"]["x"] == 24

    def test_pair(self, capsys):
        _, report = run_json(capsys, "codes", "pair", "--x", "2", "--y", "2")
        assert report["results"]["code"] == 12
        _, report = run_json(capsys, "codes", "pair", "--decode", "12")
        assert report["results"] == {"x": 2, "y": 2}

    def test_string(self, capsys):
        _, report = run_json(capsys, "codes", "string", "--encode", "10")
        assert report["results"]["code"] == 5
        _, report = run_json(capsys, "codes", "string", "--decode", "5")
        assert report["results"]["bits"] == "10"

    def test_setcode(self, capsys):
        _, report = run_json(capsys, "codes", "setcode", "--members", "0,2")
        assert report["results"]["code"] == 5
        _, report = run_json(capsys, "codes", "setcode", "--decode", "5")
        assert report["results"]["members"] == [0, 2]

    def test_rejected_value_is_usage_error(self, capsys):
        assert run_cli(capsys, "codes", "k", "--n", "0")[0] == 2


class TestRefusedInputs:
    """Inputs that once ended in a traceback exit 2 with one `error:` line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["codes", "setcode"], "error: setcode needs --members or --decode"),
            (["trace", "--sampler", "double", "--q", "1", "--n", "-5"],
             "error: --n must be a natural number, got -5"),
            (["codes", "setcode", "--members", "20000"], "error: Exceeds the limit"),
            (["--format", "csv", "codes", "setcode", "--members", "20000"],
             "error: Exceeds the limit"),
            (["dom", "--sampler", "identity", "--f-values", "1,2", "--q", "0", "--nmax", "1"],
             "error: --q must be >= 1, got 0"),
            (["hits", "--sampler", "identity", "--values", "0,0", "--q", "0"],
             "error: --q must be >= 1, got 0"),
            (["prefix-set", "--set", "evens", "--horizon", "10", "--count", "-3"],
             "error: --count must be a natural number, got -3"),
            (["hits", "--sampler", "identity", "--values", "0,1", "--q", "1", "--horizon", "-1"],
             "error: --horizon must be a natural number, got -1"),
            (["codes", "k"], "error: k needs --n or --decode"),
            (["codes", "c", "--n", "5"], "error: c needs --x or --decode"),
            (["codes", "pair", "--x", "1"], "error: pair needs --x and --y or --decode"),
            (["codes", "pair", "--y", "1"], "error: pair needs --x and --y or --decode"),
            (["codes", "string"], "error: string needs --encode or --decode"),
            (["density", "--set", "seed:1", "--checkpoints", ","],
             "error: at least one checkpoint is required"),
            (["density", "--set", "evens", "--checkpoints", "4", "--horizon", "-1"],
             "error: --horizon must be a natural number, got -1"),
            (["density", "--set", "seed:18446744073709551616", "--checkpoints", "4"],
             "error: seed must fit in 64 bits"),
            (["density", "--set", "seed:1:p=3/2", "--checkpoints", "4"],
             "error: probability must satisfy 0 <= num/den <= 1"),
            (["dom", "--sampler", "shift:-1", "--f-values", "1", "--q", "1", "--nmax", "1"],
             "error: shift amount must be a natural number"),
            (["dom", "--sampler", "swapblocks:0", "--f-values", "1", "--q", "1", "--nmax", "1"],
             "error: block size must be >= 1"),
            (["prefix-set", "--set", "evens", "--horizon", "3", "--count", "9"],
             "error: --count needs prefixes up to length 8"),
            (["wct", "--set", "evens", "--horizon", "10", "--nmax", "0", "--oracle-trace"],
             "error: --nmax must be >= 1, got 0"),
            (["wct", "--set", "evens", "--horizon", "100", "--nmax", "3",
              "--trace-file", "trace.txt"],
             "error: trace file lacks guesses for blocks [2, 3]"),
            (["tree-decode", "--sampler", "identity", "--q", "1", "--depth", "-1"],
             "error: --depth must be a natural number, got -1"),
            (["weakrep", "of-program", "--manifest", "manifest.txt", "--index", "0",
              "--horizon", "-1"],
             "error: --horizon must be a natural number, got -1"),
            (["codes", "c", "--n", "3", "--decode", "1111"],
             "error: decoded value 15 is not below n^2 = 9"),
            (["tree-decode", "--prefix-sampler-of", "evens", "--q", "1", "--depth", "-2"],
             "error: --depth must be a natural number, got -2"),
            (["tree-decode", "--prefix-sampler-of", "evens", "--q", "-1", "--depth", "2"],
             "error: --q must be >= 1, got -1"),
            (["graph", "--values", "1,2", "--horizon", "-1"],
             "error: --horizon must be a natural number, got -1"),
            (["dom", "--sampler", "identity", "--f-values", "1,2", "--q", "1", "--nmax", "-1"],
             "error: --nmax must be a natural number, got -1"),
            # A size is checked before any file is opened.
            (["weakrep", "validate", "--table-file", "missing.txt", "--horizon", "-1"],
             "error: --horizon must be a natural number, got -1"),
            # A checkpoint below 1 is refused before any stream or sampler is built.
            (["density", "--set", "evens", "--checkpoints", "-5"],
             "error: --checkpoints must be >= 1, got -5"),
            (["density", "--set", "evens", "--checkpoints", "-5", "--direction", "image"],
             "error: --checkpoints must be >= 1, got -5"),
            (["density", "--set", "evens", "--checkpoints", "-5", "--sampler", "identity"],
             "error: --checkpoints must be >= 1, got -5"),
            (["density", "--set", "evens", "--checkpoints", "-5", "--horizon", "10"],
             "error: --checkpoints must be >= 1, got -5"),
            (["density", "--set", "evens", "--checkpoints", "0"],
             "error: --checkpoints must be >= 1, got 0"),
            # The prefix set's horizon is budgeted before any stream is built.
            (["prefix-set", "--set", "evens", "--horizon", "14284", "--count", "5"],
             "error: --horizon 14284 exceeds the budget of 14283"),
            (["--format", "csv", "prefix-set", "--set", "evens", "--horizon", "14284",
              "--count", "5"],
             "error: --horizon 14284 exceeds the budget of 14283"),
            (["prefix-set", "--set", "seed:1", "--horizon", "1000000", "--count", "5"],
             "error: --horizon 1000000 exceeds the budget of 14283"),
            (["--format", "csv", "prefix-set", "--set", "seed:1", "--horizon", "1000000",
              "--count", "5"],
             "error: --horizon 1000000 exceeds the budget of 14283"),
        ],
    )
    def test_exit_two_with_one_error_line(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trace.txt").write_text("1:1\n")
        (tmp_path / "manifest.txt").write_text("identity\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "shape",
        [["--q", "0", "--depth", "2"], ["--q", "-1", "--depth", "2"], ["--q", "1", "--depth", "-2"],
         ["--q", "1", "--depth", "2", "--full-height", "-1"],
         ["--q", "1", "--full-height", "21", "--depth", "21"]],
    )
    def test_tree_decode_refuses_a_shape_alike_on_both_sampler_paths(self, capsys, shape):
        errors = []
        for source in (["--sampler", "identity"], ["--prefix-sampler-of", "evens"]):
            assert main(["tree-decode", *source, *shape]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "density_profile", exhausted)
        assert main(["density", "--set", "seed:1", "--checkpoints", "100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_negative_interleave_grid(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\nconst:5\n")
        argv = ["weakrep", "interleave", "--manifest", str(manifest), "--grid", "-2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --grid must be a natural number, got -2\n"

    def test_dom_past_a_table_domain(self, capsys, tmp_path):
        table = tmp_path / "perm.csv"
        table.write_text("0,2\n1,0\n2,1\n")
        argv = ["dom", "--sampler", f"table:{table}", "--f-values", "2,1,0", "--q", "1"]
        assert main(argv + ["--nmax", "1"]) == 0  # reads [0, 2]
        capsys.readouterr()
        assert main(argv + ["--nmax", "2"]) == 2  # needs input 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input 3 outside sampler domain [0, 3)\n"

    def test_wct_past_the_table_budget_is_refused_before_allocating(self, capsys):
        argv = ["wct", "--set", "seed:42", "--horizon", "1000000000000", "--nmax", "11",
                "--oracle-trace"]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --nmax 11 exceeds the budget of 3628800 table entries (n! at --nmax 10)\n"
        )

    def test_wct_on_a_seeded_stream_without_ones_is_refused_before_filling(self, capsys):
        # p = 0 is a closed form with no members, so no bit of the 10^12 is made.
        argv = ["wct", "--set", "seed:42:p=0/1", "--horizon", "1000000000000", "--nmax", "2",
                "--oracle-trace"]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seed:42:p=0/1 holds fewer than 1 + 1 elements below 1000000000000\n"
        )

    def test_wct_guess_past_the_horizon_names_its_first_value(self, capsys, tmp_path):
        # Block 3 takes values 100..103 and block 4 values 70..87, both past
        # the horizon 64: the error names 100, the first in input order.
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "1:10\n2:1010\n3:11" + "0" * 98 + "1111\n4:" + "1" * 6 + "0" * 64 + "1" * 18 + "\n"
        )
        argv = ["wct", "--set", "evens", "--horizon", "64", "--nmax", "4",
                "--trace-file", str(trace)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: index 100 outside evaluation horizon [0, 64)\n"

    def test_wct_builder_that_reuses_a_value_is_refused(self, capsys, tmp_path, monkeypatch):
        # With the free-range test broken, block 3 takes its preferred range
        # [2, 7) over value 2 of block 2; the count of marked values sees it.
        trace = tmp_path / "trace.txt"
        trace.write_text("1:10\n2:1010\n3:111110101010\n")
        argv = ["wct", "--set", "evens", "--horizon", "64", "--nmax", "3",
                "--trace-file", str(trace)]
        assert main(argv) == 0
        monkeypatch.setattr(constructions, "_free", lambda *args: True)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the wct injection takes 5 distinct values on 6 inputs\n"

    def test_wct_budget_is_checked_before_the_stream_is_built(self, monkeypatch):
        # --nmax 10 passes the check and reaches the stream; --nmax 11 does not.
        def refuse(*args):
            raise LookupError("stream built")

        monkeypatch.setattr(cli.SetStream, "from_spec", refuse)
        for nmax, reached in [("10", True), ("11", False)]:
            argv = ["wct", "--set", "seed:42", "--nmax", nmax, "--oracle-trace"]
            args = cli._build_parser(argv).parse_args(argv)
            with pytest.raises((LookupError, ValueError)) as err:
                args.handler(args)
            assert (str(err.value) == "stream built") is reached

    def test_prefix_set_budget_is_checked_before_the_stream_is_built(self, monkeypatch):
        def refuse(*args):
            raise LookupError("stream built")

        monkeypatch.setattr(cli.SetStream, "from_spec", refuse)
        for horizon, reached in [("14283", True), ("14284", False)]:
            argv = ["prefix-set", "--set", "seed:42", "--horizon", horizon]
            args = cli._build_parser(argv).parse_args(argv)
            with pytest.raises((LookupError, ValueError)) as err:
                args.handler(args)
            assert (str(err.value) == "stream built") is reached

    def test_largest_budgeted_prefix_set_horizon_still_prints(self, capsys):
        code, report = run_json(capsys, "prefix-set", "--set", "evens", "--horizon", "14283",
                                "--count", "5")
        assert code == 0
        assert report["horizons"]["prefix_set"] == 2**14284 - 1

    @pytest.mark.parametrize(
        "spec, horizon", [("list:20000", 20001), ("list:100000000000", 100000000001)],
    )
    def test_prefix_set_budget_covers_a_horizon_taken_from_the_data(
        self, capsys, monkeypatch, spec, horizon
    ):
        # Without the check, list:100000000000 would compute 1 << (10^11 + 2).
        built = []
        monkeypatch.setattr(constructions, "prefix_set", built.append)
        assert main(["prefix-set", "--set", spec, "--count", "5"]) == 2
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --set {spec} has horizon {horizon}, over the budget of 14283"
            " (a prefix-set horizon 2^(h+1) - 1 of at most 4,300 digits)\n"
        )

    def test_largest_budgeted_data_horizon_still_prints(self, capsys):
        code, report = run_json(capsys, "prefix-set", "--set", "list:14282", "--count", "5")
        assert code == 0
        assert report["horizons"] == {"stream": 14283, "prefix_set": 2**14284 - 1}

    def test_largest_printable_set_code_still_prints(self, capsys):
        code, report = run_json(capsys, "codes", "setcode", "--members", "14000")
        assert code == 0
        assert report["results"]["code"] == 1 << 14000


def _declared(table, prefix=""):
    """(command, flag, options, least values) of every argument in a command table."""
    for name, (_, *command) in table.items():
        if len(command) == 1:
            yield from _declared(command[0], f"{prefix}{name} ")
            continue
        for argument in command[1]:
            for flag, options, *least in argument if isinstance(argument, list) else [argument]:
                yield prefix + name, flag, options, least


DECLARED = list(_declared(cli._COMMANDS))
SIZES = {(command, flag): least[0] for command, flag, _, least in DECLARED if least}

# The rest of a valid command line for each command or kind with a size
# option, run where table.txt, manifest.txt and sigma.txt are.
SIZE_BASES = {
    "density": ["--set", "evens", "--checkpoints", "2"],
    "prefix-set": ["--set", "evens", "--horizon", "16"],
    "tree-decode": ["--sampler", "identity", "--q", "1", "--depth", "1"],
    "wct": ["--set", "evens", "--horizon", "16", "--nmax", "1", "--oracle-trace"],
    "graph": ["--values", "1,2"],
    "trace": ["--sampler", "identity", "--q", "1", "--n", "1"],
    "hits": ["--sampler", "identity", "--values", "0,1", "--q", "1"],
    "dom": ["--sampler", "identity", "--f-values", "1,2", "--q", "1", "--nmax", "1"],
    "weakrep validate": ["--table-file", "table.txt"],
    "weakrep of-program": ["--manifest", "manifest.txt", "--index", "0", "--horizon", "2"],
    "weakrep interleave": ["--manifest", "manifest.txt"],
    "pset": ["--values", "0,2", "--manifest", "manifest.txt", "--sigma-file", "sigma.txt",
             "--checkpoints", "2"],
}


def run_sized(command, flag, value):
    return main([*command.split(), *SIZE_BASES[command], flag, str(value)])


class TestDeclaredSizes:
    """Every size option of `cli._COMMANDS` is refused below its least value, by name."""

    @pytest.fixture(autouse=True)
    def inputs(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.txt").write_text("0,2,3\n0,2,4\n0,2,5\n0,2,6\n")
        (tmp_path / "manifest.txt").write_text("identity\nconst:3\n")
        (tmp_path / "sigma.txt").write_text("1:1\ndefault:0\n")

    def test_the_declared_sizes(self):
        assert SIZES == {
            ("density", "--horizon"): 0, ("prefix-set", "--horizon"): 0,
            ("prefix-set", "--count"): 0, ("tree-decode", "--set-horizon"): 0,
            ("tree-decode", "--q"): 1, ("tree-decode", "--full-height"): 0,
            ("tree-decode", "--depth"): 0, ("wct", "--horizon"): 0, ("wct", "--nmax"): 1,
            ("graph", "--horizon"): 0, ("trace", "--q"): 1, ("trace", "--n"): 0,
            ("hits", "--q"): 1, ("hits", "--horizon"): 0, ("dom", "--q"): 1,
            ("dom", "--nmax"): 0, ("weakrep validate", "--horizon"): 0,
            ("weakrep of-program", "--budget"): 1, ("weakrep of-program", "--horizon"): 0,
            ("weakrep interleave", "--budget"): 1, ("weakrep interleave", "--grid"): 0,
            ("pset", "--budget"): 1,
        }

    def test_every_integer_option_but_codes_and_the_index_is_a_size(self):
        unsized = [(command, flag) for command, flag, options, least in DECLARED
                   if options.get("type") is int and not least]
        assert [c for c in unsized if not c[0].startswith("codes ")] == [
            ("weakrep of-program", "--index")]

    @pytest.mark.parametrize("size", SIZES, ids=" ".join)
    def test_below_the_least_value_exits_two_naming_the_flag(self, capsys, size):
        (command, flag), least = size, SIZES[size]
        assert run_sized(command, flag, least - 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        floor = "a natural number" if least == 0 else f">= {least}"
        assert captured.err == f"error: {flag} must be {floor}, got {least - 1}\n"

    @pytest.mark.parametrize("size", SIZES, ids=" ".join)
    def test_the_least_value_passes_the_check(self, capsys, size):
        # The run may still fail later (a horizon of 0 covers no checkpoint).
        command, flag = size
        run_sized(command, flag, SIZES[size])
        assert re.search(rf"{flag}\b", capsys.readouterr().err) is None


class TestWeakrepCommands:
    def test_validate_good(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("0,2,3\n0,2,4\n0,2,5\n0,2,6\n")
        code, report = run_json(
            capsys, "weakrep", "validate", "--table-file", str(table)
        )
        assert code == 0
        assert all(c["pass"] for c in report["checks"])

    def test_validate_bad_exits_one(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("0,1,2\n0,1,3\n0,2,3\n0,2,2\n")
        code, report = run_json(
            capsys, "weakrep", "validate", "--table-file", str(table), "--horizon", "3"
        )
        assert code == 1
        failing = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "consistency" in failing

    def test_of_program(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\ndiverge\n")
        code, report = run_json(
            capsys,
            "weakrep", "of-program", "--manifest", str(manifest),
            "--index", "0", "--horizon", "3",
        )
        assert code == 0
        assert "0,0,1" in report["results"]["triples"]

    @pytest.mark.parametrize("index", ["-1", "2"])
    def test_of_program_refuses_an_index_outside_the_registry(self, capsys, tmp_path, index):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\ndiverge\n")
        code = main([
            "weakrep", "of-program", "--manifest", str(manifest),
            "--index", index, "--horizon", "3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: program index {index} outside the registry [0, 2)\n"

    def test_interleave(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\nconst:5\n")
        code, report = run_json(
            capsys,
            "weakrep", "interleave", "--manifest", str(manifest), "--grid", "6",
        )
        assert code == 0
        assert report["results"]["evaluations"][0][:4] == [0, 0, 1, 1]
        assert all(c["pass"] for c in report["checks"])


class TestPset:
    def test_worked_example(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\ndiverge\n")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("default:0\n")
        code, report = run_json(
            capsys,
            "pset", "--values", "0", "--manifest", str(manifest),
            "--sigma-file", str(sigma), "--checkpoints", "2",
        )
        assert code == 0
        assert report["results"]["p_bounds"] == [1]
        assert report["results"]["codes"] == [2]

    def test_each_bound_is_computed_once(self, capsys, tmp_path, monkeypatch):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("identity\ndiverge\n")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("default:0\n")
        calls, p_bound = [], weakrep.p_bound

        def counted(registry, sigma_map, values, n):
            calls.append(n)
            return p_bound(registry, sigma_map, values, n)

        monkeypatch.setattr(weakrep, "p_bound", counted)
        code, report = run_json(
            capsys,
            "pset", "--values", "0", "--manifest", str(manifest),
            "--sigma-file", str(sigma), "--checkpoints", "2,3",
        )
        assert code == 0
        assert calls == [2, 3]
        assert len(report["results"]["p_bounds"]) == 2


class TestSpecIntegers:
    @pytest.mark.parametrize("argv, spec", [
        (["density", "--set", "seed:x", "--checkpoints", "4"], "seed:x"),
        (["density", "--set", "list:1,a", "--checkpoints", "4"], "list:1,a"),
        (["trace", "--sampler", "shift:x", "--q", "1", "--n", "1"], "shift:x"),
        (["trace", "--sampler", "swapblocks:x", "--q", "1", "--n", "1"], "swapblocks:x"),
        (["weakrep", "interleave", "--manifest", "{manifest}"], "const:x"),
        (["weakrep", "interleave", "--manifest", "{manifest}"], "slowid:x"),
    ])
    def test_malformed_integer_names_its_spec(self, capsys, tmp_path, argv, spec):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"identity\n{spec}\n")
        assert main([arg.format(manifest=manifest) for arg in argv]) == 2
        assert repr(spec) in capsys.readouterr().err


class TestDataLines:
    @pytest.mark.parametrize("argv, text, quoted", [
        (["wct", "--set", "seed:42", "--horizon", "512", "--nmax", "3", "--trace-file", "{data}"],
         "x:10\n", "'x:10'"),
        (["pset", "--values", "0", "--manifest", "{manifest}", "--sigma-file", "{data}",
          "--checkpoints", "2"], "1:x\n", "'1:x'"),
        (["weakrep", "validate", "--table-file", "{data}"], "0,1,x\n", "'0,1,x'"),
        (["weakrep", "validate", "--table-file", "{data}"], "0,0,1\n0,1\n", "'0,1'"),
        (["trace", "--sampler", "table:{data}", "--q", "1", "--n", "0"], "x,2\n", "'x,2'"),
        (["graph", "--values-file", "{data}"], "0\nz\n", "'z'"),
        (["graph", "--values", "1,a"], "", "'1,a'"),
        (["wct", "--set", "evens", "--horizon", "64", "--nmax", "3", "--trace-file", "{data}"],
         "1:1\n2\n3:\n", "bad guess line '2'"),
        (["wct", "--set", "evens", "--horizon", "64", "--nmax", "3", "--trace-file", "{data}"],
         "1:1\n2:10\n1:0\n3:\n", "bad guess line '1:0'"),
        (["pset", "--values", "0", "--manifest", "{manifest}", "--sigma-file", "{data}",
          "--checkpoints", "2"], "0:0\n0:0\n", "bad sigma map line '0:0'"),
        (["pset", "--values", "0", "--manifest", "{manifest}", "--sigma-file", "{data}",
          "--checkpoints", "2"], "default:0\ndefault:0\n", "bad sigma map line 'default:0'"),
    ], ids=["guess", "sigma", "table-field", "table-width", "csv", "values-file", "values-list",
            "guess-colon", "guess-repeat", "sigma-repeat", "sigma-default-repeat"])
    def test_malformed_integer_names_its_line(self, capsys, tmp_path, argv, text, quoted):
        data, manifest = tmp_path / "data.txt", tmp_path / "manifest.txt"
        data.write_text(text)
        manifest.write_text("identity\n")
        assert main([arg.format(data=data, manifest=manifest) for arg in argv]) == 2
        assert quoted in capsys.readouterr().err

    def test_values_file_skips_blank_and_comment_lines(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("# c\n0\n\n1\n2\n")
        _, from_file = run_json(capsys, "graph", "--values-file", str(values))
        _, from_list = run_json(capsys, "graph", "--values", "0,1,2")
        assert from_file["results"] == from_list["results"]

    def test_table_csv_rows_are_numbered_by_values_read(self, capsys, tmp_path):
        table = tmp_path / "c.csv"
        table.write_text("0,1\n\n# swap\n1,0\n")
        code, report = run_json(
            capsys,
            "density", "--set", "list:1", "--checkpoints", "1,2", "--sampler", f"table:{table}",
        )
        assert code == 0
        assert report["results"]["values"] == ["1", "1/2"]


class TestOutputDiscipline:
    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "--format", "csv", "codes", "pair", "--x", "1", "--y", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "results.code,1" in out

    def test_csv_quotes_a_bare_carriage_return_on_every_python(self, capsys):
        # Only the csv module of Python 3.13 and later quotes it by itself.
        code, out = run_cli(
            capsys, "--format", "csv", "density", "--set", "list:1\r", "--checkpoints", "2"
        )
        assert code == 0
        assert out == (
            "key,value\ncommand,density\nhorizons.stream,2\nparameters.checkpoints,2\n"
            "parameters.direction,preimage\nparameters.horizon,\nparameters.sampler,\n"
            'parameters.set,"list:1\r"\nresults.checkpoints.0,2\nresults.observed_inf,1/2\n'
            "results.observed_sup,1/2\nresults.values.0,1/2\nschema_version,1\n"
        )

    def test_repeat_invocations_are_byte_identical(self, capsys):
        argv = ("density", "--set", "seed:3:p=1/3", "--checkpoints", "16,64,256")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--nope"])
        assert exc.value.code == 2
