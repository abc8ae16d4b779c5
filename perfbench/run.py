"""The intdensity benchmark: CLI jobs in a closed loop with one client.

    python3 perfbench/run.py --workload wct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny sizes
    python3 perfbench/run.py --record-digests # rewrite digests.json (seed 1)

Run from the root of a checkout.  One run generates the workload's inputs
from --seed, measures set-up time in PROBES fresh processes, and then runs
the jobs back to back in one fresh worker process (see worker.py) for
--seconds.  Every job passes the correctness gate or counts as failed.  It
prints one line per metric, then one JSON object as the last line:
end-to-end metrics with --trace 0, per-layer metrics (from a run whose
rounds alternate traced and untraced) with --trace 1.  See README.md.

End-to-end times are given at the baseline VM's speed: each job's and
each set-up's time is divided by the time of a fixed reference computation
measured next to it (worker.reference) and multiplied by REFERENCE_S, about
that computation's median time on the baseline VM.  A shared host's speed
drifts by tens of percent over minutes; this takes the drift out, and a
change to the program still moves the times in full.  The unscaled
seconds are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORK_DIR, WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
PROBES = 9
DEADLINE_S = 170.0
# About the median seconds of worker.reference in runs on the baseline VM
# (see README.md).
REFERENCE_S = 0.0120
# The reference timings at most this many seconds before a job's start or
# after its end give the machine's speed during the job.
REFERENCE_WINDOW_S = 1.0

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_cpu_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "codes.calls": "count/job",
    "codes.self_s": "s/job",
    "streams.self_s": "s/job",
    "streams.prefix.bits": "count/job",
    "streams.bit.calls": "count/job",
    "samplers.self_s": "s/job",
    "samplers.eval.calls": "count/job",
    "samplers.eval.distinct_frac": "frac",
    "constructions.self_s": "s/job",
    "constructions.tree.kept_frac": "frac",
    "constructions.tree.startswith_computed": "count/job",
    "weakrep.self_s": "s/job",
    "weakrep.validate.triples": "count/job",
    "weakrep.validate.cache_hit_frac": "frac",
    "weakrep.p_bound.strings": "count/job",
    "cli.self_s": "s/job",
    "cli.stdout_bytes": "bytes/job",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _worker(args, timeout):
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def measure(workload, seed, seconds, trace, smoke=False, check_digests=True):
    """Run one workload; return the worker's record and the probes' set-up records."""
    started = time.perf_counter()
    if not os.path.isfile(os.path.join("src", "intdensity", "__init__.py")):
        raise BenchError("run from the root of a checkout: src/intdensity is missing")
    jobs = make_plan(workload, seed, smoke)
    if check_digests and seed == DEFAULT_SEED and not smoke:
        with open(DIGESTS) as fh:
            digests = json.load(fh).get(workload, {})
        for job in jobs:
            job["digest"] = digests.get(job["id"], "missing")
    plan_path = os.path.join(WORK_DIR, workload, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({"jobs": jobs, "seconds": seconds, "trace": bool(trace)}, fh)
    probes = [json.loads(_worker(["--probe"], DEADLINE_S - (time.perf_counter() - started)))
              for _ in range(PROBES)]
    record = json.loads(_worker([plan_path], DEADLINE_S - (time.perf_counter() - started)))
    return record, probes


def speed(references):
    """How much slower than the baseline VM the machine ran, from
    reference timings: (wall factor, CPU factor)."""
    return (statistics.median(r["wall"] for r in references) / REFERENCE_S,
            statistics.median(r["cpu"] for r in references) / REFERENCE_S)


def job_times(record, traced=False, scale=True):
    """{job id: [(wall, CPU) of each execution]}, at baseline speed if scale."""
    references = record["references"]
    jobs = {}
    for r in record["records"]:
        if r["traced"] != traced:
            continue
        slow_wall = slow_cpu = 1.0
        if scale:
            near = [x for x in references
                    if r["start"] - REFERENCE_WINDOW_S <= x["at"]
                    <= r["start"] + r["wall"] + REFERENCE_WINDOW_S]
            slow_wall, slow_cpu = speed(near)
        jobs.setdefault(r["id"], []).append((r["wall"] / slow_wall, r["cpu"] / slow_cpu))
    return jobs


def job_medians(jobs):
    """(wall, CPU) median of each job over its executions."""
    return [(statistics.median(w for w, _ in runs), statistics.median(c for _, c in runs))
            for runs in jobs.values()]


def end_to_end(record, probes, scale=True):
    """Each job's median over its executions gives the job time; the
    workload's jobs_per_s and p50 are taken over those medians, so every
    job weighs the same in every run."""
    medians = job_medians(job_times(record, scale=scale))
    setups = [r["setup_s"] / (speed(r["reference"])[0] if scale else 1.0)
              for r in probes + [record]]
    return {
        "jobs_per_s": len(medians) / sum(w for w, _ in medians),
        "job_s.p50": statistics.median(w for w, _ in medians),
        "job_cpu_s.p50": statistics.median(c for _, c in medians),
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(record):
    trace = record["trace"]
    traced = [r for r in record["records"] if r["traced"]]
    jobs = len(traced)
    counts, calls = trace["counts"], trace["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    def round_s(traced):
        return sum(w for w, _ in job_medians(job_times(record, traced)))

    cache = trace["cache"]
    metrics = {f"{layer}.self_s": seconds / jobs for layer, seconds in trace["self_s"].items()}
    metrics.update({
        "codes.calls": calls["codes"] / jobs,
        "streams.prefix.bits": counts.get("streams.prefix.bits", 0) / jobs,
        "streams.bit.calls": calls["bit"] / jobs,
        "samplers.eval.calls": calls["eval"] / jobs,
        "samplers.eval.distinct_frac": ratio(counts.get("samplers.eval.distinct", 0),
                                             calls["eval"]),
        "constructions.tree.kept_frac": ratio(counts.get("constructions.tree.kept", 0),
                                              counts.get("constructions.tree.examined", 0)),
        "constructions.tree.startswith_computed":
            counts.get("constructions.tree.startswith_computed", 0) / jobs,
        "weakrep.validate.triples": counts.get("weakrep.validate.triples", 0) / jobs,
        "weakrep.validate.cache_hit_frac": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "weakrep.p_bound.strings": counts.get("weakrep.p_bound.strings", 0) / jobs,
        "cli.stdout_bytes": sum(r["bytes"] for r in traced) / jobs,
        "trace.overhead_frac": round_s(True) / round_s(False) - 1,
    })
    return {name: metrics[name] for name in PER_LAYER}


def report(workload, seed, seconds, trace, smoke=False):
    """Measure, print one line per metric, and return the result object."""
    record, probes = measure(workload, seed, seconds, trace, smoke)
    return summarize(workload, seed, record, probes, trace)


def summarize(workload, seed, record, probes, trace):
    runs = record["records"]
    failed = [r for r in runs if r["problems"]]
    for r in failed:
        print(f"# FAILED {workload} {r['id']} round {r['round']}: {'; '.join(r['problems'])}",
              file=sys.stderr)
    values, units = ((per_layer(record), PER_LAYER) if trace
                     else (end_to_end(record, probes), END_TO_END))
    slow_wall, slow_cpu = speed(record["references"])
    print(f"{workload}: seed {seed}, {len(runs)} jobs in "
          f"{1 + max(r['round'] for r in runs)} rounds; the machine ran "
          f"{slow_wall:.3g}x (wall) and {slow_cpu:.3g}x (CPU) the baseline's time")
    raw = {} if trace else end_to_end(record, probes, scale=False)
    for job, runs_of_job in job_times(record, traced=False).items():
        wall = statistics.median(w for w, _ in runs_of_job)
        print(f"{workload} job {job}: {wall:.4g} s, median of {len(runs_of_job)} executions")
    for name, value in values.items():
        extra = (f"  (median of {len({r['id'] for r in runs})} jobs' medians, "
                 f"n={len(runs)} executions)" if name.endswith(".p50") else "")
        if name in raw and name != "peak_rss_mb":
            extra += f"  [unscaled: {raw[name]:.6g} {units[name]}]"
        print(f"{workload} {name} = {value:.6g} {units[name]}{extra}")
    print(f"{workload} failed_frac = {len(failed) / len(runs):.6g} frac")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def smoke():
    """Every workload once at tiny sizes, both modes; every metric must print."""
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in declared[key]}
        code = END_TO_END if trace == 0 else PER_LAYER
        if names != set(code):
            print(f"BENCHMARK.json {key} differs from run.py: {sorted(names ^ set(code))}")
            ok = False
        for workload in WORKLOADS:
            result = report(workload, DEFAULT_SEED, 0, trace, smoke=True)
            ok &= result["correct"] and set(result["metrics"]) >= names
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def record_digests():
    """Rewrite digests.json from each workload's reports at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        record, _ = measure(workload, DEFAULT_SEED, 0, 0, check_digests=False)
        failed = [r for r in record["records"] if r["problems"]]
        if failed:
            raise BenchError(f"{workload}: jobs fail the gate: {failed}")
        digests[workload] = dict(sorted(record["digests"].items()))
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        result = report(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
