"""Tests of the benchmark itself: the smoke mode and the correctness gate.

    python3 -m pytest perfbench -q     # from the root of the checkout
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, make_plan  # noqa: E402


def _declared_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]


def test_smoke_runs_every_workload_and_prints_every_metric():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("smoke ok")
    for workload in WORKLOADS:
        for name in _declared_names() + ["failed_frac"]:
            assert f"\n{workload} {name} = " in done.stdout, (workload, name)


JOB = {"id": "j", "argv": ["codes", "pair", "--x", "1", "--y", "2"],
       "expect_fail": [], "oracle": {}}


def _stdout(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from intdensity import cli

    status, stdout, _, _ = worker.run_job(cli, argv)
    return status, stdout


def test_gate_passes_a_correct_job_and_flags_each_kind_of_failure():
    status, stdout = _stdout(JOB["argv"])
    problems, sha = worker.gate(JOB, status, stdout, None)
    assert problems == []
    assert worker.gate(JOB, 1, stdout, None)[0] == ["exit status 1, expected 0"]
    assert worker.gate(dict(JOB, digest="0" * 64), status, stdout, None)[0] == [
        "stdout sha256 differs from the committed digest"]
    assert worker.gate(JOB, status, stdout + " ", sha)[0] == [
        "stdout differs from the job's first repetition"]
    expecting_failure = dict(JOB, expect_fail=["representation"])
    assert worker.gate(expecting_failure, status, stdout, None)[0] == [
        "exit status 0, expected 1", "checks ['representation'] are absent"]


def test_gate_checks_the_wct_bound_and_the_tree_prefix():
    argv = ["wct", "--set", "seed:3", "--horizon", "600", "--nmax", "4", "--oracle-trace"]
    status, stdout = _stdout(argv)
    job = {"id": "w", "argv": argv, "expect_fail": [],
           "oracle": {"matched": {str(n): True for n in range(1, 5)}}}
    assert worker.gate(job, status, stdout, None)[0] == []
    job["oracle"]["matched"]["3"] = False
    assert worker.gate(job, status, stdout, None)[0] == ["block 3 reports match=True"]

    argv = ["tree-decode", "--prefix-sampler-of", "seed:5", "--q", "2", "--depth", "20"]
    status, stdout = _stdout(argv)
    from workloads import seeded_bits

    job = {"id": "t", "argv": argv, "expect_fail": [],
           "oracle": {"prefix": seeded_bits(5, 1, 2, 20)}}
    assert worker.gate(job, status, stdout, None)[0] == []
    job["oracle"]["prefix"] = "1" * 20 if job["oracle"]["prefix"] != "1" * 20 else "0" * 20
    assert worker.gate(job, status, stdout, None)[0] == [
        "the true depth-long prefix is not among the candidates"]


@pytest.mark.parametrize("injection", ["digest", "exit"])
def test_injected_failure_raises_failed_frac(injection, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    jobs = make_plan("adversary", run.DEFAULT_SEED, smoke=True)
    if injection == "digest":
        jobs[0]["digest"] = "0" * 64
    else:
        jobs[0]["expect_fail"] = ["dominates_0"]
    plan_path = os.path.join(WORK_DIR, "adversary", "plan-injected.json")
    with open(plan_path, "w") as fh:
        json.dump({"jobs": jobs, "seconds": 0, "trace": False}, fh)
    record = json.loads(run._worker([plan_path], 120))
    probe = {"setup_s": 0.05, "reference": [{"wall": 0.009, "cpu": 0.009}]}
    result = run.summarize("adversary", run.DEFAULT_SEED, record, [probe], 0)

    failed_ids = {r["id"] for r in record["records"] if r["problems"]}
    assert failed_ids == {jobs[0]["id"]}
    assert result["failed"] == (1 if injection == "digest" else 2)  # digests: first run only
    assert not result["correct"]
    frac = result["failed"] / result["attempted"]
    assert f"adversary failed_frac = {frac:.6g} frac" in capsys.readouterr().out


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import intdensity
    from intdensity import cli, codes, constructions, samplers, streams, weakrep
    from tracer import LAYERS, Tracer

    modules = [m for name, m in sys.modules.items()
               if name == "intdensity" or name.startswith("intdensity.")]
    before = (codes.string_code, samplers.eval_sampler, streams.SetStream.prefix)
    tracer = Tracer()
    tracer.install({name: getattr(intdensity, name) for name in LAYERS}, modules)
    try:
        assert codes.string_code is not before[0]
        assert cli.string_code is constructions.string_code is codes.string_code
        assert samplers.eval_sampler is not before[1]
        assert constructions.eval_sampler is weakrep.eval_sampler is samplers.eval_sampler
        assert streams.SetStream.prefix is not before[2]
        argv = ["tree-decode", "--prefix-sampler-of", "seed:5", "--q", "2", "--depth", "40"]
        status, _, wall, _ = worker.run_job(cli, argv)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert (codes.string_code, samplers.eval_sampler, streams.SetStream.prefix) == before
    assert cli.string_code is codes.string_code

    assert status == 0
    assert tracer.calls("samplers.eval_sampler") == tracer.counts["samplers.eval.distinct"] > 0
    assert tracer.calls("codes.") >= 2 * tracer.calls("samplers.eval_sampler")
    assert tracer.counts["streams.prefix.bits"] > 0
    assert tracer.counts["constructions.tree.examined"] > 0
    # self times are estimates, but together they account for the job
    assert 0.5 * wall < sum(tracer.self_s.values()) < 1.5 * wall
