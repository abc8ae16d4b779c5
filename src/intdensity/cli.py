"""Batch experiment driver with deterministic, machine-readable reports.

Every subcommand prints a single report document on stdout (JSON by
default, CSV with --format csv) and exits 0 on success, 1 when a property
check fails, 2 on usage errors.  Identical invocations produce
byte-identical stdout; wall time goes to stderr so it cannot perturb that.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from math import factorial
from time import perf_counter

from . import constructions as cons
from . import weakrep as wr
from .codes import (
    _int_field,
    _int_fields,
    cantor_pair,
    cantor_unpair,
    finite_set_code,
    finite_set_decode,
    fixed_width_code,
    fixed_width_decode,
    prefix_free_code,
    prefix_free_decode,
    string_code,
    string_decode,
)
from .errors import IntDensityError, PrefixInconsistencyError
from .samplers import image_stream, parse_sampler
from .streams import SetStream, _bounds, density_profile, preimage_hits

SCHEMA_VERSION = 1

# `wct --nmax 10` reads the stream up to its 10!-th one, 7.3M seeded bits at
# p = 1/2: about 0.9-1.0 s and 65 MB, and 2.6-2.8 s and 312 MB with
# --include-table, which lists all 10! = 3,628,800 values (CPython 3.11, one
# core).  11! ones need about 80M bits at p = 1/2, and the table would be
# eleven times longer, so the budget is 10! entries, checked before
# anything is built.
_WCT_MAX_NMAX = 10

# `prefix-set` reports its prefix set's horizon 2^(h+1) - 1, which from h =
# 14,284 on has more than the 4,300 decimal digits CPython will render, and at
# h = 10^11 would take 12.5 GB to compute, so --horizon is budgeted at 14,283,
# checked before any stream is built, and so is the horizon a `list:` or
# `file:` spec takes from its data, checked before the prefix set is built.
_PREFIX_SET_MAX_HORIZON = 14283
_PREFIX_SET_BUDGET = (f"the budget of {_PREFIX_SET_MAX_HORIZON}"
                      " (a prefix-set horizon 2^(h+1) - 1 of at most 4,300 digits)")


def _ints(text: str) -> list[int]:
    return [_int_field(tok, text, "list") for tok in text.split(",") if tok != ""]


def _read_values(text, path) -> list[int]:
    """Integers from a comma list, or else from a data file of one per line."""
    if text is not None:
        return _ints(text)
    with open(path) as fh:
        return _int_fields(fh, 1, lambda _, line: (_int_field(line, line, "line"),))


def _check(name: str, passed: bool, detail) -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail}


# -- handlers ----------------------------------------------------------------


def _run_density(args):
    checkpoints = _ints(args.checkpoints)
    if not checkpoints:
        raise ValueError("at least one checkpoint is required")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 1:
        raise ValueError(f"--checkpoints must be >= 1, got {checkpoints[0]}")
    horizon = max(checkpoints) if args.horizon is None else args.horizon
    if args.sampler is None:
        stream = SetStream.from_spec(args.set, horizon)
        values = density_profile(stream, checkpoints).values
        horizons = {"stream": stream.horizon}
    elif args.direction == "preimage":
        sampler = parse_sampler(args.sampler)
        reached = sampler.prefix(max(checkpoints))
        if args.horizon is None:
            horizon = max(_bounds(reached)[1], 0) + 1
        stream = SetStream.from_spec(args.set, horizon)
        hits = preimage_hits(stream, reached, checkpoints)
        values = [Fraction(h, n) for h, n in zip(hits, checkpoints)]
        horizons = {"stream": stream.horizon}
    else:
        sampler = parse_sampler(args.sampler)
        stream = SetStream.from_spec(args.set, horizon)
        image = image_stream(stream, sampler)
        values = density_profile(image, checkpoints).values
        horizons = {"stream": stream.horizon, "image": image.horizon}
    results = {
        "checkpoints": checkpoints,
        "values": [str(v) for v in values],
        "observed_sup": str(max(values)),
        "observed_inf": str(min(values)),
    }
    return results, horizons, []


def _run_prefix_set(args):
    if args.horizon is not None and args.horizon > _PREFIX_SET_MAX_HORIZON:
        raise ValueError(f"--horizon {args.horizon} exceeds {_PREFIX_SET_BUDGET}")
    stream = SetStream.from_spec(args.set, args.horizon)
    if stream.horizon > _PREFIX_SET_MAX_HORIZON:
        raise ValueError(f"--set {args.set} has horizon {stream.horizon}, over {_PREFIX_SET_BUDGET}")
    if args.count > stream.horizon + 1:
        raise ValueError(f"--count needs prefixes up to length {args.count - 1}")
    codes = cons.prefix_code_sampler(stream, args.count).prefix(args.count)
    members = cons.prefix_set(stream)
    consistent = all(members.bit(code) == 1 for code in codes)
    results = {"codes": codes}
    horizons = {"stream": stream.horizon, "prefix_set": members.horizon}
    return results, horizons, [_check("membership", consistent, f"{len(codes)} codes")]


def _run_tree_decode(args):
    horizons = {}
    if args.prefix_sampler_of is not None:
        needed = 2 * args.q * args.depth
        horizon = needed if args.set_horizon is None else args.set_horizon
        stream = SetStream.from_spec(args.prefix_sampler_of, horizon)
        sampler = cons.prefix_code_sampler(stream, needed)
        horizons["stream"] = stream.horizon
    else:
        sampler = parse_sampler(args.sampler)
    tree = cons.build_prefix_tree(sampler, args.q, args.full_height, args.depth)
    candidates = cons.extract_candidates(tree)
    widths = tree.widths()
    bound_ok = all(
        w <= 2 * args.q for h, w in enumerate(widths) if h > args.full_height
    )
    results = {"widths": widths, "candidates": candidates}
    return results, horizons, [_check("width_bound", bound_ok, f"2q={2 * args.q}")]


def _run_introreduce(args):
    codes = _read_values(args.codes, args.codes_file)
    try:
        bits = cons.introreduce(codes)
    except PrefixInconsistencyError as exc:
        detail = {
            "position": exc.position,
            "first_code": exc.first_code,
            "second_code": exc.second_code,
        }
        return {"bits": None}, {}, [_check("consistency", False, detail)]
    return {"bits": bits}, {}, [_check("consistency", True, f"{len(bits)} bits")]


def _run_wct(args):
    if args.nmax > _WCT_MAX_NMAX:
        raise ValueError(
            f"--nmax {args.nmax} exceeds the budget of {factorial(_WCT_MAX_NMAX)} table "
            f"entries (n! at --nmax {_WCT_MAX_NMAX})"
        )
    stream = SetStream.from_spec(args.set, args.horizon)
    truth = [cons._wct_truth(stream, n) for n in range(1, args.nmax + 1)]
    if args.oracle_trace:
        masks = truth
    else:
        with open(args.trace_file) as fh:
            guesses = cons.load_guess_lines(fh)
        missing = [n for n in range(1, args.nmax + 1) if n not in guesses]
        if missing:
            raise ValueError(f"trace file lacks guesses for blocks {missing}")
        masks = cons._guess_masks(guesses, args.nmax)
    blocks = cons._wct_blocks(masks)  # raises if not injective
    checkpoints = [factorial(n) for n in range(1, args.nmax + 1)]
    hits = cons._wct_hits(stream, blocks)
    rows = []
    checks = []
    for n, (checkpoint, count, mask, true) in enumerate(zip(checkpoints, hits, masks, truth), 1):
        density = Fraction(count, checkpoint)
        bound = Fraction(n - 1, n)
        matched = mask == true
        rows.append(
            {
                "block": n,
                "checkpoint": checkpoint,
                "density": str(density),
                "bound": str(bound),
                "guess_matches_truth": matched,
                "meets_bound": density >= bound,
            }
        )
        if matched:
            checks.append(
                _check(f"block_{n}_bound", density >= bound, f"{density} >= {bound}")
            )
    results = {"blocks": rows}
    if args.include_table:
        results["table"] = list(cons._wct_table(blocks))
    return results, {"stream": stream.horizon}, checks


def _run_graph(args):
    values = _read_values(args.values, args.values_file)
    horizon = args.horizon if args.horizon is not None else len(values)
    stream = cons.graph_set(values, horizon)
    members = stream.members_below(stream.horizon)
    return {"members": members}, {"stream": stream.horizon}, []


def _run_trace(args):
    sampler = parse_sampler(args.sampler)
    trace = sorted(cons.trace_from_sampler(sampler, args.q, args.n))
    bound = (args.n + 1) * args.q
    ok = len(trace) <= bound
    return (
        {"trace": trace, "cardinality": len(trace)},
        {},
        [_check("cardinality", ok, f"{len(trace)} <= {bound}")],
    )


def _run_hits(args):
    sampler = parse_sampler(args.sampler)
    values = _read_values(args.values, args.values_file)
    horizon = len(values) if args.horizon is None else args.horizon
    hits = sorted(cons.hit_indices(sampler, values, args.q, horizon))
    checks = []
    for m, trace in zip(hits, cons._traces(sampler, args.q, hits)):
        checks.append(_check(f"hit_{m}_sound", values[m] in trace, f"f({m})={values[m]}"))
    return {"hits": hits}, {}, checks


def _run_dom(args):
    sampler = parse_sampler(args.sampler)
    f_values = _read_values(args.values, args.values_file)
    if args.nmax >= len(f_values):
        raise ValueError("--nmax needs f values up to that index")
    rows = []
    checks = []
    for n, (bound, hit) in enumerate(wr.adversary_rows(f_values, sampler, args.q, args.nmax)):
        rows.append({"n": n, "adversary": bound, "f": f_values[n], "hit": hit})
        if hit:
            checks.append(
                _check(f"dominates_{n}", bound > f_values[n], f"{bound} > {f_values[n]}")
            )
    return {"rows": rows}, {}, checks


# kind -> (the options encoding needs, encode, decode), encode and decode each
# from the parsed arguments to the results; decode runs when --decode is given.
_CODECS = {
    "k": (("n",), lambda a: {"code": prefix_free_code(a.n)},
          lambda a: dict(zip(("n", "consumed"), prefix_free_decode(a.decode)))),
    "c": (("x",), lambda a: {"code": fixed_width_code(a.n, a.x)},
          lambda a: {"x": fixed_width_decode(a.n, a.decode)}),
    "pair": (("x", "y"), lambda a: {"code": cantor_pair(a.x, a.y)},
             lambda a: dict(zip("xy", cantor_unpair(a.decode)))),
    "string": (("encode",), lambda a: {"code": string_code(a.encode)},
               lambda a: {"bits": string_decode(a.decode)}),
    "setcode": (("members",), lambda a: {"code": finite_set_code(_ints(a.members))},
                lambda a: {"members": sorted(finite_set_decode(a.decode))}),
}


def _run_codes(args):
    needs, encode, decode = _CODECS[args.codes_kind]
    if args.decode is not None:
        return decode(args), {}, []
    if any(getattr(args, name) is None for name in needs):
        flags = " and ".join(f"--{name}" for name in needs)
        raise ValueError(f"{args.codes_kind} needs {flags} or --decode")
    return encode(args), {}, []


def _run_validate(args):
    with open(args.table_file) as fh:
        table = wr.WeakRepTable.from_lines(fh, args.horizon)
    report = wr.validate_weakrep(table)
    checks = [
        _check(
            b.name,
            b.passed,
            b.detail if b.witness is None else {"witness": b.witness, "note": b.detail},
        )
        for b in report.bullets
    ]
    return {"triples": len(table.triples)}, {"table": table.horizon}, checks


def _run_of_program(args):
    table = wr.table_of_program(_load_registry(args), args.index, args.horizon)
    report = wr.validate_weakrep(table)
    results = {
        "triples": [f"{x},{y},{z}" for x, y, z in table.sorted_triples],
        "count": len(table.triples),
    }
    checks = [_check(b.name, b.passed, b.detail) for b in report.bullets]
    return results, {"table": table.horizon}, checks


def _run_interleave(args):
    registry = _load_registry(args)
    derived = wr.interleave_family(registry)
    evals = [[derived.eval(d, x) for x in range(args.grid)] for d in range(len(derived))]
    checks = []
    for e in range(len(registry)):
        ok = all(
            evals[2 * e][2 * m] == evals[2 * e][2 * m + 1] == registry.eval(e, m)
            for m in range(args.grid // 2)
        ) and all(evals[2 * e + 1][x] == registry.eval(e, x) for x in range(args.grid))
        checks.append(_check(f"interleave_{e}", ok, f"grid {args.grid}"))
    return {"evaluations": evals}, {}, checks


def _run_pset(args):
    values = _read_values(args.values, args.values_file)
    registry = _load_registry(args)
    with open(args.sigma_file) as fh:
        sigma_map = wr.SigmaMap.parse(fh)
    checkpoints = _ints(args.checkpoints)
    bounds = [wr.p_bound(registry, sigma_map, values, n) for n in checkpoints]
    codes = sorted(wr._prefix_codes(values, bounds))
    results = {"checkpoints": checkpoints, "p_bounds": bounds, "codes": codes}
    return results, {}, []


def _load_registry(args) -> wr.FamilyRegistry:
    with open(args.manifest) as fh:
        return wr.parse_manifest(fh, args.budget)


# -- parser ------------------------------------------------------------------
#
# A command is (help, handler, arguments), or (help, kinds) when its kinds
# are commands of their own.  An argument is (flag, add_argument options),
# and a list of arguments is a required mutually exclusive group.  A size
# option adds its least value, (flag, options, least); `_sized` refuses a
# smaller value given, naming the flag, before the handler runs.

_INT, _NEEDED, _NEEDED_INT = {"type": int}, {"required": True}, {"type": int, "required": True}


def _source(flag: str, dest: str = None) -> list:
    """Exactly one of --<flag> (a comma list) and --<flag>-file."""
    dest = dest or flag
    return [(f"--{flag}", {"dest": dest}), (f"--{flag}-file", {"dest": f"{dest}_file"})]


# The program manifest and the step budget its programs run under.
_REGISTRY = [("--manifest", _NEEDED), ("--budget", {"type": int, "default": 64}, 1)]

_COMMANDS = {
    "density": ("partial densities at checkpoints", _run_density, [
        ("--set", _NEEDED), ("--checkpoints", _NEEDED), ("--horizon", _INT, 0), ("--sampler", {}),
        ("--direction", {"choices": ("preimage", "image"), "default": "preimage"}),
    ]),
    "prefix-set": ("codes of a stream's finite prefixes", _run_prefix_set, [
        ("--set", _NEEDED), ("--horizon", _INT, 0), ("--count", {"type": int, "default": 8}, 0),
    ]),
    "tree-decode": ("bounded-width decoding tree", _run_tree_decode, [
        [("--sampler", {}), ("--prefix-sampler-of", {})], ("--set-horizon", _INT, 0),
        ("--q", _NEEDED_INT, 1), ("--full-height", {"type": int, "default": 1}, 0),
        ("--depth", _NEEDED_INT, 0),
    ]),
    "introreduce": ("merge prefix codes back into bits", _run_introreduce, [_source("codes")]),
    "wct": ("guess-driven injection densities", _run_wct, [
        ("--set", _NEEDED), ("--horizon", _INT, 0), ("--nmax", _NEEDED_INT, 1),
        [("--oracle-trace", {"action": "store_true"}), ("--trace-file", {})],
        ("--include-table", {"action": "store_true"}),
    ]),
    "graph": ("graph of a function table as pair codes", _run_graph, [
        _source("values"), ("--horizon", _INT, 0),
    ]),
    "trace": ("candidate values read off a sampler image", _run_trace, [
        ("--sampler", _NEEDED), ("--q", _NEEDED_INT, 1), ("--n", _NEEDED_INT, 0),
    ]),
    "hits": ("inputs whose graph point the sampler reaches", _run_hits, [
        ("--sampler", _NEEDED), _source("values"), ("--q", _NEEDED_INT, 1), ("--horizon", _INT, 0),
    ]),
    "dom": ("adversary bound against a dominating table", _run_dom, [
        ("--sampler", _NEEDED), _source("f-values", "values"), ("--q", _NEEDED_INT, 1),
        ("--nmax", _NEEDED_INT, 0),
    ]),
    "codes": ("coding bijections", {
        "k": ("self-delimiting integer code", _run_codes, [("--n", _INT), ("--decode", {})]),
        "c": ("fixed-width code below n^2", _run_codes, [
            ("--n", _NEEDED_INT), ("--x", _INT), ("--decode", {})]),
        "pair": ("pairing bijection", _run_codes, [
            ("--x", _INT), ("--y", _INT), ("--decode", _INT)]),
        "string": ("length-lex string code", _run_codes, [("--encode", {}), ("--decode", _INT)]),
        "setcode": ("canonical finite-set index", _run_codes, [
            ("--members", {}), ("--decode", _INT)]),
    }),
    "weakrep": ("step-witness tables and registries", {
        "validate": ("check the four table invariants", _run_validate, [
            ("--table-file", _NEEDED), ("--horizon", _INT, 0)]),
        "of-program": ("table of a registry program", _run_of_program, [
            *_REGISTRY, ("--index", _NEEDED_INT), ("--horizon", _NEEDED_INT, 0)]),
        "interleave": ("even/odd family duplication", _run_interleave, [
            *_REGISTRY, ("--grid", {"type": int, "default": 8}, 0)]),
    }),
    "pset": ("graph-prefix codes at query-string bounds", _run_pset, [
        _source("values"), *_REGISTRY, ("--sigma-file", _NEEDED), ("--checkpoints", _NEEDED),
    ]),
}


def _declare(parser, table: dict, dest: str, argv: list) -> None:
    """Subparsers for the commands of `table`, each listed with its help.

    Every command is listed, for help, usage lines and `invalid choice`
    errors, but only a command whose name is in `argv` gets a parser, with
    its arguments or its kinds; any other is mapped to None.  argparse
    dispatches only to a name in argv, so a call builds the parsers of the
    command it runs and its kind and no others.  A name that is only an
    option's value (`--table-file dom`) is built too, which is harmless.
    """
    subparsers = parser.add_subparsers(dest=dest, required=True, parser_class=_parser)
    for name, (help_text, *command) in table.items():
        sub = subparsers.add_parser(name, help=help_text, declared=name in argv)
        if sub is None:
            continue
        if len(command) == 1:
            _declare(sub, command[0], f"{name}_kind", argv)
            continue
        handler, arguments = command
        sizes = []
        for argument in arguments:
            group = isinstance(argument, list)
            target = sub.add_mutually_exclusive_group(required=True) if group else sub
            for flag, options, *least in argument if group else [argument]:
                action = target.add_argument(flag, **options)
                sizes += [(flag, action.dest, n) for n in least]
        sub.set_defaults(handler=partial(_sized, sizes, handler))


def _parser(declared: bool, **options):
    """`_declare`'s parser class: a parser for a command that argv names, else None."""
    return argparse.ArgumentParser(**options) if declared else None


def _sized(sizes: list, handler, args):
    for flag, dest, least in sizes:
        value = getattr(args, dest)
        if value is not None and value < least:
            floor = "a natural number" if least == 0 else f">= {least}"
            raise ValueError(f"{flag} must be {floor}, got {value}")
    return handler(args)


def _build_parser(argv: list) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intdensity",
        description="Density-of-integer-sets experiments with exact arithmetic.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    _declare(parser, _COMMANDS, "command", argv)
    return parser


def _command_echo(args) -> str:
    kind = vars(args).get(f"{args.command}_kind")
    return args.command if kind is None else f"{args.command} {kind}"


def _parameters(args) -> dict:
    skip = {"handler", "command", f"{args.command}_kind", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _dump_json(obj, indent: str = "") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` nested at `indent`, flat parts encoded in C.

    CPython's C encoder runs only without `indent`, so a container of scalars,
    or a list of non-empty flat dicts, is encoded in one call whose item
    separator is a newline and the indent.  An encoded string holds no raw
    newline, so every newline written is a separator, and `},<newline><indent>{`
    is a boundary between two dicts.  Types are checked by exact type, in C.
    """
    inner, deeper = indent + "  ", indent + "    "
    is_dict, is_list = isinstance(obj, dict), isinstance(obj, (list, tuple))
    if is_dict and not _typed(obj, {str}):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    if (is_dict or is_list) and obj and _typed(obj.values() if is_dict else obj, _SCALARS):
        text = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
    if (is_list and obj and _typed(obj, {dict}) and all(obj)
            and _typed(chain.from_iterable(obj), {str})
            and _typed(chain.from_iterable(map(dict.values, obj)), _SCALARS)):
        text = json.dumps(obj, sort_keys=True, separators=(",\n" + deeper, ": "))
        text = text.replace("},\n" + deeper + "{", f"\n{inner}}},\n{inner}{{\n{deeper}")
        return f"[\n{inner}{{\n{deeper}{text[2:-2]}\n{inner}}}\n{indent}]"
    if is_dict and obj:
        items = (f"{json.dumps(key)}: {_dump_json(obj[key], inner)}" for key in sorted(obj))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if is_list and obj:
        items = (_dump_json(item, inner) for item in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(obj)


_SCALARS = {str, int, float, bool, type(None)}


def _typed(items, kinds: set) -> bool:
    return set(map(type, items)) <= kinds


def _emit_csv(report: dict) -> str:
    """The report as `key,value` rows, keys the dotted paths of its leaves.

    A field is quoted iff it holds a comma, a double quote, a carriage return
    or a newline, and each double quote in it is doubled; every row ends in a
    newline.  These are the bytes of `csv.writer` on Python 3.11 to 3.13 with
    CRLF terminators cut to a newline; 3.10's `csv` refuses a NUL, written
    here unquoted like the others.  A list or tuple of exact `str` and `int`
    items is written in bulk: one test of its path quotes every key, one scan
    of its joined values finds whether any item needs more than a comma test,
    and its rows are joined once.  Any other is walked item by item.
    """
    rows = ["key,value\n"]

    def walk(obj, path):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{path}.{key}" if path else str(key))
        elif isinstance(obj, (list, tuple)) and _typed(obj, {str, int}):
            key = _field(f"{path}.")
            head, tail = (key[:-1], '"') if key[-1] == '"' else (key, "")
            values = list(map(str, obj))
            joined = "".join(values)
            if '"' in joined or "\r" in joined or "\n" in joined:
                values = map(_field, values)
            elif "," in joined:
                values = [f'"{value}"' if "," in value else value for value in values]
            rows.append("".join([f"{head}{i}{tail},{value}\n" for i, value in enumerate(values)]))
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}.{i}")
        else:
            rows.append(f"{_field(path)},{_field('' if obj is None else str(obj))}\n")

    walk(report, "")
    return "".join(rows)


def _field(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser(argv).parse_args(argv)
    started = perf_counter()
    try:
        results, horizons, checks = args.handler(args)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": _command_echo(args),
            "parameters": _parameters(args),
            "horizons": horizons,
            "results": results,
            "checks": checks,
        }
        if args.format == "json":
            text = _dump_json(report) + "\n"
        else:
            text = _emit_csv(report)
    except (IntDensityError, ValueError, LookupError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    elapsed_ms = (perf_counter() - started) * 1000.0
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
