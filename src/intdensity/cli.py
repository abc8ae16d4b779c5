"""Batch experiment driver with deterministic, machine-readable reports.

Every subcommand prints a single report document on stdout (JSON by
default, CSV with --format csv) and exits 0 on success, 1 when a property
check fails, 2 on usage errors.  Identical invocations produce
byte-identical stdout; wall time goes to stderr so it cannot perturb that.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import chain
from math import factorial
from time import perf_counter

from . import constructions as cons
from . import weakrep as wr
from .codes import (
    _check_natural,
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
# p = 1/2: about 1.0-1.5 s and 71 MB, and 3.0-3.2 s and 316 MB with
# --include-table, which lists all 10! = 3,628,800 values (CPython 3.11, one
# core).  11! ones need about 80M bits at p = 1/2, and the table would be
# eleven times longer, so the budget is 10! entries, checked before
# anything is built.
_WCT_MAX_NMAX = 10


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
    stream = SetStream.from_spec(args.set, args.horizon)
    if _check_natural(args.count, "--count") > stream.horizon + 1:
        raise ValueError(f"--count needs prefixes up to length {args.count - 1}")
    codes = [string_code(stream.prefix(k)) for k in range(args.count)]
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
    truth = {n: cons.wct_target(stream, n) for n in range(1, args.nmax + 1)}
    if args.oracle_trace:
        guesses = truth
    else:
        with open(args.trace_file) as fh:
            guesses = cons.load_guess_lines(fh)
        missing = [n for n in range(1, args.nmax + 1) if n not in guesses]
        if missing:
            raise ValueError(f"trace file lacks guesses for blocks {missing}")
    blocks = cons._wct_blocks(guesses, args.nmax)  # raises if not injective
    checkpoints = [factorial(n) for n in range(1, args.nmax + 1)]
    hits = cons._wct_hits(stream, blocks)
    rows = []
    checks = []
    for n, (checkpoint, count) in enumerate(zip(checkpoints, hits), 1):
        density = Fraction(count, checkpoint)
        bound = Fraction(n - 1, n)
        matched = guesses[n] == truth[n]
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
    horizon = len(values) if args.horizon is None else _check_natural(args.horizon, "--horizon")
    hits = sorted(cons.hit_indices(sampler, values, args.q, horizon))
    checks = []
    for m, trace in zip(hits, cons._traces(sampler, args.q, hits)):
        sound = values[m] in trace and len(trace) <= (m + 1) * args.q
        checks.append(_check(f"hit_{m}_sound", sound, f"f({m})={values[m]}"))
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


def _run_codes(args):
    kind = args.codes_kind
    if kind == "k":
        if args.decode is not None:
            n, consumed = prefix_free_decode(args.decode)
            results = {"n": n, "consumed": consumed}
        else:
            results = {"code": prefix_free_code(args.n)}
    elif kind == "c":
        if args.decode is not None:
            results = {"x": fixed_width_decode(args.n, args.decode)}
        else:
            results = {"code": fixed_width_code(args.n, args.x)}
    elif kind == "pair":
        if args.decode is not None:
            x, y = cantor_unpair(args.decode)
            results = {"x": x, "y": y}
        else:
            results = {"code": cantor_pair(args.x, args.y)}
    elif kind == "string":
        if args.decode is not None:
            results = {"bits": string_decode(args.decode)}
        else:
            results = {"code": string_code(args.encode)}
    else:  # setcode
        if args.decode is not None:
            results = {"members": sorted(finite_set_decode(args.decode))}
        elif args.members is None:
            raise ValueError("setcode needs --members or --decode")
        else:
            results = {"code": finite_set_code(_ints(args.members))}
    return results, {}, []


def _run_weakrep(args):
    kind = args.weakrep_kind
    if kind == "validate":
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
        results = {"triples": len(table.triples)}
        return results, {"table": table.horizon}, checks
    registry = _load_registry(args)
    if kind == "of-program":
        table = wr.table_of_program(registry, args.index, args.horizon)
        report = wr.validate_weakrep(table)
        results = {
            "triples": [f"{x},{y},{z}" for x, y, z in table.sorted_triples],
            "count": len(table.triples),
        }
        checks = [_check(b.name, b.passed, b.detail) for b in report.bullets]
        return results, {"table": table.horizon}, checks
    # interleave
    derived = wr.interleave_family(registry)
    grid = _check_natural(args.grid, "--grid")
    evals = [[derived.eval(d, x) for x in range(grid)] for d in range(len(derived))]
    checks = []
    for e in range(len(registry)):
        ok = all(
            evals[2 * e][2 * m] == evals[2 * e][2 * m + 1] == registry.eval(e, m)
            for m in range(grid // 2)
        ) and all(evals[2 * e + 1][x] == registry.eval(e, x) for x in range(grid))
        checks.append(_check(f"interleave_{e}", ok, f"grid {grid}"))
    return {"evaluations": evals}, {}, checks


def _run_pset(args):
    values = _read_values(args.values, args.values_file)
    registry = _load_registry(args)
    with open(args.sigma_file) as fh:
        sigma_map = wr.SigmaMap.parse(fh)
    checkpoints = _ints(args.checkpoints)
    bounds = [wr.p_bound(registry, sigma_map, values, n) for n in checkpoints]
    codes = sorted(wr.build_pset(values, registry, sigma_map, checkpoints))
    results = {"checkpoints": checkpoints, "p_bounds": bounds, "codes": codes}
    return results, {}, []


def _load_registry(args) -> wr.FamilyRegistry:
    with open(args.manifest) as fh:
        return wr.parse_manifest(fh, args.budget)


# -- parser ------------------------------------------------------------------


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


def _command_echo(args) -> str:
    parts = [args.command]
    for attr in ("codes_kind", "weakrep_kind"):
        if getattr(args, attr, None):
            parts.append(getattr(args, attr))
    return " ".join(parts)


def _parameters(args) -> dict:
    skip = {"handler", "command", "codes_kind", "weakrep_kind", "format"}
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
    rows = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{path}.{key}" if path else str(key))
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}.{i}")
        else:
            rows.append((path, "" if obj is None else str(obj)))

    walk(report, "")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return out.getvalue()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except (IntDensityError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    elapsed_ms = (perf_counter() - started) * 1000.0
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
