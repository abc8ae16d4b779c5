"""Benchmark worker: one fresh process that runs a workload's jobs back to back.

    python3 perfbench/worker.py --probe       # print set-up and reference seconds
    python3 perfbench/worker.py PLAN.json     # run the plan, print a JSON record

Run from the root of a checkout; the program is imported from `./src` and
nowhere else.  Set-up time runs from the first line of this file to the
end of a first tiny CLI call, so it covers the `intdensity` import and the
first parser build.

A job is one `intdensity.cli.main(argv)` call with stdout and stderr
captured.  Jobs run in rounds, each round the plan's jobs in order, until
the plan's seconds have passed and at least two rounds are done, so every
job is repeated.  An untraced run stops at its deadline even mid-round;
run.py takes each job's median, so the mix need not be whole.  Before
each job the process-wide functools caches of `intdensity` are cleared
and garbage is collected, as a fresh CLI process would start without
them.  In a traced plan the rounds alternate
untraced, traced, traced, untraced, ..., so drift in machine speed falls
on both sides of the tracing overhead.

Machine speed is measured alongside: a fixed piece of pure-Python work
(`reference`, which no program change can touch) is timed before every
job and after the last one, and after set-up.  run.py divides job and
set-up times by the reference times measured around them.
"""

import time

STARTED = time.perf_counter()

import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

READY_ARGV = ["codes", "pair", "--x", "1", "--y", "2"]
# Reference timings taken after set-up, in a probe and in the worker.
REFERENCE_AFTER_SETUP = 7
# Stop starting rounds past this many seconds, so a run ends well within
# the three minutes a run may take.
LIMIT_S = 120.0


def import_program():
    """Import intdensity from ./src, refusing any other installation."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "intdensity", "__init__.py")):
        raise SystemExit("perfbench: src/intdensity not found in the working directory")
    sys.path.insert(0, src)
    import intdensity.cli

    if not os.path.abspath(intdensity.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported {intdensity.__file__}, not ./src")
    return intdensity


def reference():
    """Time a fixed piece of pure-Python work of the kinds intdensity does,
    but none of its code: building and prefix-testing a bit string, probing
    a set of triples, and big-integer arithmetic with a decimal rendering.
    About 12 ms on the baseline VM.  Returns {"wall", "cpu"} seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    bits = "".join("1" if (i * 2654435761) & 0x10000 else "0" for i in range(20000))
    sum(1 for i in range(0, 20000, 7) if bits[i:].startswith(bits[:9]))
    triples = {(x, x * 7 % 1000, z) for x in range(120) for z in range(x + 1, 121)}
    sum(1 for x, y, z in triples if (x, y, z + 1) in triples)
    str(3 ** 20000 % 7 ** 3000)
    return {"wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}


def ready(cli):
    """Finish set-up; return {setup_s, and the reference timings after it}."""
    run_job(cli, READY_ARGV)
    setup_s = time.perf_counter() - STARTED
    after = [reference() for _ in range(REFERENCE_AFTER_SETUP)]
    return {"setup_s": setup_s, "reference": after}


def run_job(cli, argv):
    """One CLI call: (exit status, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job fails the gate; the run goes on
        status = f"raised {exc!r}"
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        sys.stdout, sys.stderr = saved
    return status, out.getvalue(), wall, cpu


# -- correctness gate ----------------------------------------------------------


def _report(argv, stdout):
    """(checks as [(name, passed)], results or None) of a JSON or CSV report."""
    if argv[:2] != ["--format", "csv"]:
        report = json.loads(stdout)
        return [(c["name"], c["pass"]) for c in report["checks"]], report["results"]
    rows = dict(csv.reader(io.StringIO(stdout)))
    checks = []
    while f"checks.{len(checks)}.name" in rows:
        i = len(checks)
        checks.append((rows[f"checks.{i}.name"], rows[f"checks.{i}.pass"] == "True"))
    return checks, None


def check_report(job, stdout):
    """Problems with one report's content, judged against the job's plan."""
    try:
        checks, results = _report(job["argv"], stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems = []
    expect_fail = set(job["expect_fail"])
    for name, passed in checks:
        if passed == (name in expect_fail):
            problems.append(f"check {name} is {passed}")
    missing = expect_fail - {name for name, _ in checks}
    if missing:
        problems.append(f"checks {sorted(missing)} are absent")
    oracle = job["oracle"]
    if "matched" in oracle:
        matched = {int(n): m for n, m in oracle["matched"].items()}
        blocks = results["blocks"]
        if [b["block"] for b in blocks] != sorted(matched):
            problems.append("wct blocks differ from 1..nmax")
        for b in blocks:
            n = b["block"]
            if b["guess_matches_truth"] != matched.get(n):
                problems.append(f"block {n} reports match={b['guess_matches_truth']}")
            elif b["guess_matches_truth"] and not (
                b["meets_bound"] and Fraction(b["density"]) >= 1 - Fraction(1, n)
            ):
                problems.append(f"block {n} density {b['density']} is below 1 - 1/{n}")
    if "prefix" in oracle and oracle["prefix"] not in results["candidates"]:
        problems.append("the true depth-long prefix is not among the candidates")
    return problems


def gate(job, status, stdout, first_sha):
    """(problems, sha256 of stdout) for one execution of a job."""
    problems = []
    expected = 1 if job["expect_fail"] else 0
    if status != expected:
        problems.append(f"exit status {status}, expected {expected}")
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    if first_sha is None:
        if status in (0, 1):
            problems += check_report(job, stdout)
        if job.get("digest") is not None and sha != job["digest"]:
            problems.append("stdout sha256 differs from the committed digest")
    elif sha != first_sha:
        problems.append("stdout differs from the job's first repetition")
    return problems, sha


# -- the loop ------------------------------------------------------------------


def run_plan(plan, intdensity):
    cli = intdensity.cli
    setup = ready(cli)
    modules = [m for name, m in sys.modules.items()
               if name == "intdensity" or name.startswith("intdensity.")]
    caches = [f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")]
    validate = getattr(intdensity.weakrep, "validate_weakrep", None)
    tracer = None
    if plan["trace"]:
        from tracer import LAYERS, Tracer

        tracer = Tracer()
        layers = {name: getattr(intdensity, name) for name in LAYERS}

    records, first_sha, cache = [], {}, {"hits": 0, "misses": 0}
    started, rounds, references = time.perf_counter(), 0, []

    def note_reference():
        references.append(dict(reference(), at=time.perf_counter() - started))

    while True:
        traced = tracer is not None and rounds % 4 in (1, 2)
        if traced:
            tracer.install(layers, modules)
        for job in plan["jobs"]:
            # An untraced run may stop mid-round once every job has run twice.
            if (rounds >= 2 and tracer is None
                    and time.perf_counter() - started >= plan["seconds"]):
                break
            for f in caches:
                f.cache_clear()
            gc.collect()
            note_reference()
            start = time.perf_counter() - started
            status, stdout, wall, cpu = run_job(cli, job["argv"])
            if traced:
                tracer.end_job()
                if hasattr(validate, "cache_info"):
                    info = validate.cache_info()
                    cache["hits"] += info.hits
                    cache["misses"] += info.misses
            problems, sha = gate(job, status, stdout, first_sha.get(job["id"]))
            first_sha.setdefault(job["id"], sha)
            records.append({"id": job["id"], "round": rounds, "traced": traced,
                            "start": start, "wall": wall, "cpu": cpu,
                            "bytes": len(stdout.encode()), "problems": problems})
        if traced:
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= 2 and (elapsed >= plan["seconds"] or elapsed >= LIMIT_S):
            if tracer is None or rounds % 2 == 0:
                break
    note_reference()

    result = {
        **setup,
        "references": references,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
        "digests": first_sha,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_s,
            "counts": dict(tracer.counts),
            "calls": {"codes": tracer.calls("codes."),
                      "bit": tracer.calls("streams.SetStream.bit"),
                      "eval": tracer.calls("samplers.eval_sampler")},
            "cache": cache,
        }
    return result


def main(argv):
    intdensity = import_program()
    if argv == ["--probe"]:
        print(json.dumps(ready(intdensity.cli)))
        return 0
    with open(argv[0]) as fh:
        plan = json.load(fh)
    print(json.dumps(run_plan(plan, intdensity)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
