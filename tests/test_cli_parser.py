"""The CLI parser against the eagerly built parser it replaced.

`cli._build_parser(argv)` lists every command with its help, but builds a
parser, with its arguments, only for the commands (and kinds) whose names
are in argv; a command or kind that argv does not name is listed but gets
no parser.  The parser it replaced, which declared every argument of every
command on each call, is copied below verbatim as the oracle.  Both must
print the same help and the same usage errors, byte for byte, and parse
every README example and golden invocation to the same namespace, as well
as command lines whose option values are other commands' or kinds' names.
Help is compared with the oracle rather than with recorded files, because
argparse's help layout differs between Python versions.
"""

import argparse
import shlex
from pathlib import Path

import pytest

from intdensity import cli
from test_golden import CASES

# The oracle's handlers are not compared: only its namespaces, help and errors.
_run_density = _run_prefix_set = _run_tree_decode = _run_introreduce = _run_wct = None
_run_graph = _run_trace = _run_hits = _run_dom = _run_codes = _run_weakrep = _run_pset = None


# -- the parser as it was: every argument of every command, on every call -----


def _add_value_source(p, flag: str, dest: str) -> None:
    """Require exactly one of --<flag> (a comma list) and --<flag>-file."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{flag}", dest=dest)
    group.add_argument(f"--{flag}-file", dest=f"{dest}_file")


def _add_registry(p) -> None:
    """The program manifest and the step budget its programs run under."""
    p.add_argument("--manifest", required=True)
    p.add_argument("--budget", type=int, default=64)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intdensity",
        description="Density-of-integer-sets experiments with exact arithmetic.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="partial densities at checkpoints")
    p.add_argument("--set", required=True)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--sampler")
    p.add_argument("--direction", choices=("preimage", "image"), default="preimage")
    p.set_defaults(handler=_run_density)

    p = sub.add_parser("prefix-set", help="codes of a stream's finite prefixes")
    p.add_argument("--set", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(handler=_run_prefix_set)

    p = sub.add_parser("tree-decode", help="bounded-width decoding tree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sampler")
    group.add_argument("--prefix-sampler-of", dest="prefix_sampler_of")
    p.add_argument("--set-horizon", dest="set_horizon", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--full-height", dest="full_height", type=int, default=1)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(handler=_run_tree_decode)

    p = sub.add_parser("introreduce", help="merge prefix codes back into bits")
    _add_value_source(p, "codes", "codes")
    p.set_defaults(handler=_run_introreduce)

    p = sub.add_parser("wct", help="guess-driven injection densities")
    p.add_argument("--set", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmax", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle-trace", dest="oracle_trace", action="store_true")
    group.add_argument("--trace-file", dest="trace_file")
    p.add_argument("--include-table", dest="include_table", action="store_true")
    p.set_defaults(handler=_run_wct)

    p = sub.add_parser("graph", help="graph of a function table as pair codes")
    _add_value_source(p, "values", "values")
    p.add_argument("--horizon", type=int)
    p.set_defaults(handler=_run_graph)

    p = sub.add_parser("trace", help="candidate values read off a sampler image")
    p.add_argument("--sampler", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_run_trace)

    p = sub.add_parser("hits", help="inputs whose graph point the sampler reaches")
    p.add_argument("--sampler", required=True)
    _add_value_source(p, "values", "values")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--horizon", type=int)
    p.set_defaults(handler=_run_hits)

    p = sub.add_parser("dom", help="adversary bound against a dominating table")
    p.add_argument("--sampler", required=True)
    _add_value_source(p, "f-values", "values")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(handler=_run_dom)

    p = sub.add_parser("codes", help="coding bijections")
    codes_sub = p.add_subparsers(dest="codes_kind", required=True)
    k = codes_sub.add_parser("k", help="self-delimiting integer code")
    k.add_argument("--n", type=int)
    k.add_argument("--decode")
    k.set_defaults(handler=_run_codes)
    c = codes_sub.add_parser("c", help="fixed-width code below n^2")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--x", type=int)
    c.add_argument("--decode")
    c.set_defaults(handler=_run_codes)
    pair = codes_sub.add_parser("pair", help="pairing bijection")
    pair.add_argument("--x", type=int)
    pair.add_argument("--y", type=int)
    pair.add_argument("--decode", type=int)
    pair.set_defaults(handler=_run_codes)
    st = codes_sub.add_parser("string", help="length-lex string code")
    st.add_argument("--encode")
    st.add_argument("--decode", type=int)
    st.set_defaults(handler=_run_codes)
    sc = codes_sub.add_parser("setcode", help="canonical finite-set index")
    sc.add_argument("--members")
    sc.add_argument("--decode", type=int)
    sc.set_defaults(handler=_run_codes)

    p = sub.add_parser("weakrep", help="step-witness tables and registries")
    wr_sub = p.add_subparsers(dest="weakrep_kind", required=True)
    v = wr_sub.add_parser("validate", help="check the four table invariants")
    v.add_argument("--table-file", dest="table_file", required=True)
    v.add_argument("--horizon", type=int)
    v.set_defaults(handler=_run_weakrep)
    of = wr_sub.add_parser("of-program", help="table of a registry program")
    _add_registry(of)
    of.add_argument("--index", type=int, required=True)
    of.add_argument("--horizon", type=int, required=True)
    of.set_defaults(handler=_run_weakrep)
    il = wr_sub.add_parser("interleave", help="even/odd family duplication")
    _add_registry(il)
    il.add_argument("--grid", type=int, default=8)
    il.set_defaults(handler=_run_weakrep)

    p = sub.add_parser("pset", help="graph-prefix codes at query-string bounds")
    _add_value_source(p, "values", "values")
    _add_registry(p)
    p.add_argument("--sigma-file", dest="sigma_file", required=True)
    p.add_argument("--checkpoints", required=True)
    p.set_defaults(handler=_run_pset)

    return parser


# -- the cases ------------------------------------------------------------------

COMMANDS = ["density", "prefix-set", "tree-decode", "introreduce", "wct", "graph", "trace",
            "hits", "dom", "codes", "weakrep", "pset"]
KINDS = {"codes": ["k", "c", "pair", "string", "setcode"],
         "weakrep": ["validate", "of-program", "interleave"]}

HELP = [["--help"], *([name, "--help"] for name in COMMANDS),
        *([name, kind, "-h"] for name, kinds in KINDS.items() for kind in kinds)]

ERRORS = [
    [],  # no command
    ["bogus"],
    ["dens", "--set", "evens", "--checkpoints", "2"],  # commands are not abbreviated
    ["--form"],
    ["--format", "xml", "codes", "pair", "--x", "1", "--y", "2"],
    ["codes"],  # no kind
    ["weakrep"],
    ["codes", "bogus"],
    ["codes", "pair", "--x", "1", "--form", "csv"],  # --format belongs before the command
    ["codes", "pair", "--x"],
    ["codes", "pair", "--x", "one"],
    ["dom", "--bogus"],
    ["dom", "--sampler", "identity", "--q", "1", "--nmax", "1"],  # no --f-values source
    ["trace", "--sampler", "identity", "--q", "1"],
    ["trace", "--sampler", "identity", "--q", "x", "--n", "1"],
    ["tree-decode", "--s", "x", "--q", "1", "--depth", "2"],  # --sampler or --set-horizon
    ["tree-decode", "--q", "1", "--depth", "2"],
    ["graph", "--values", "1", "--values-file", "values.txt"],
    ["wct", "--set", "evens", "--nmax", "2", "--oracle-trace", "--trace-file", "t.txt"],
    ["density", "--set", "evens", "--checkpoints", "2", "--direction", "sideways"],
    ["weakrep", "of-program", "--manifest", "m.txt", "--index", "0"],
    ["weakrep", "interleave", "--manifest", "m.txt", "--budget", "1.5"],
    ["pset", "--values", "0", "--manifest", "m.txt", "--checkpoints", "2"],
    ["graph", "--values-file", "dom", "--values", "1"],  # an option's value names a command
    ["codes", "pair", "--x", "validate", "--y", "2"],
    # An unknown name, with a listed but unbuilt name later in argv.
    ["bogus", "--set", "dom"],
    ["codes", "bogus", "--x", "pair"],
    ["weakrep", "bogus", "--manifest", "validate"],
]


def readme_examples() -> list[list[str]]:
    readme = Path(__file__).parent.parent / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text().splitlines()
            if line.startswith("intdensity ")]


# Valid command lines: the README examples, every golden invocation, every
# default left out, and abbreviated options.
VALID = readme_examples() + [argv for _, argv in CASES.values()] + [
    ["density", "--set", "evens", "--checkpoints", "2"],
    ["prefix-set", "--set", "evens"],
    ["tree-decode", "--sampler", "identity", "--q", "1", "--depth", "1"],
    ["wct", "--set", "evens", "--nmax", "2", "--trace-file", "t.txt"],
    ["weakrep", "interleave", "--manifest", "m.txt"],
    ["codes", "k"],
    ["--form", "csv", "codes", "pair", "--x", "1", "--y", "2"],
    ["dom", "--samp", "identity", "--f-values", "1,2", "--q", "1", "--nmax", "1"],
    ["tree-decode", "--prefix", "evens", "--q", "1", "--depth", "2", "--full", "0"],
    # Option values that are other commands' or kinds' names.
    ["weakrep", "validate", "--table-file", "dom"],
    ["graph", "--values-file", "pair"],
    ["weakrep", "of-program", "--manifest", "codes", "--index", "0", "--horizon", "1"],
    ["wct", "--set", "evens", "--nmax", "2", "--trace-file", "interleave"],
    ["codes", "string", "--encode", "weakrep"],
    ["--format", "csv", "hits", "--sampler", "trace", "--values", "1", "--q", "1"],
]


def outcome(parse, argv, capsys):
    """(exit status or None, stdout, stderr, namespace without its handler)."""
    try:
        namespace = vars(parse(list(argv)))
        status = None
    except SystemExit as exc:
        namespace, status = None, exc.code
    captured = capsys.readouterr()
    if namespace is not None:
        namespace.pop("handler")
    return status, captured.out, captured.err, namespace


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_readme_and_golden_cases_are_found():
    assert len(readme_examples()) >= 19
    assert len(VALID) > len(CASES)


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_matches_the_oracle(argv, capsys):
    expected = outcome(lambda a: _build_parser().parse_args(a), argv, capsys)
    assert expected[0] == 0 and expected[1]
    assert outcome(cli.main, argv, capsys) == expected


@pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
def test_usage_errors_match_the_oracle(argv, capsys):
    expected = outcome(lambda a: _build_parser().parse_args(a), argv, capsys)
    assert expected[0] == 2 and expected[2].startswith("usage: intdensity")
    assert outcome(cli.main, argv, capsys) == expected


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_namespaces_match_the_oracle(argv, capsys):
    expected = outcome(lambda a: _build_parser().parse_args(a), argv, capsys)
    assert expected[3] is not None
    assert outcome(lambda a: cli._build_parser(a).parse_args(a), argv, capsys) == expected
    assert callable(cli._build_parser(argv).parse_args(argv).handler)


def test_only_the_chosen_command_is_declared(monkeypatch):
    declared = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(self, *flags, **options):
        declared.extend(flags)
        return add_argument(self, *flags, **options)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    argv = ["codes", "pair", "--x", "1", "--y", "2"]
    assert cli._build_parser(argv).parse_args(argv).codes_kind == "pair"
    assert sorted(set(declared)) == ["--decode", "--format", "--help", "--x", "--y", "-h"]
    assert declared.count("-h") == 3


@pytest.mark.parametrize("argv, built", [
    (["dom", "--sampler", "identity", "--f-values", "1,2,4,8", "--q", "2", "--nmax", "3"], 2),
    (["codes", "pair", "--x", "1", "--y", "2"], 3),
    (["--help"], 1),
    (["bogus"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_call_builds_the_parsers_of_its_command_and_kind(argv, built, monkeypatch, capsys):
    # The top parser, the command's and the kind's: no parser for a name argv leaves out.
    calls = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(calls) == built, calls


def test_a_parser_parses_twice():
    # A parser built for one argv parses it again, and any argv of the same command.
    argv = ["codes", "pair", "--x", "1"]
    parser = cli._build_parser(argv)
    assert parser.parse_args(argv) == parser.parse_args(argv)
    for x in ("1", "2"):
        assert parser.parse_args(["codes", "pair", "--x", x]).x == int(x)


def test_main_reads_sys_argv_and_any_iterable(monkeypatch, capsys):
    argv = ["codes", "pair", "--x", "3", "--y", "4"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert '"code": 32' in expected
    assert cli.main(iter(argv)) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr("sys.argv", ["intdensity", *argv])
    assert cli.main() == 0
    assert capsys.readouterr().out == expected
