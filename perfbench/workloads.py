"""Seeded inputs and job lists for the four benchmark workloads.

A job is one `intdensity` CLI invocation.  `make_plan` writes every input
file a workload needs under a fixed relative directory (reports echo file
paths in `parameters`, so the paths must not change between runs) and
returns the jobs of one round, each with what the correctness gate expects
of it.  The same (workload, seed, smoke) always gives the same files and
jobs.

The expectations come from the benchmark's own code, not from the
program: seeded stream bits are recomputed here from the documented mixer
formula, guesses are made wrong here on purpose, and table mutants break
exactly one invariant by construction.
"""

from __future__ import annotations

import os
import random
from math import factorial

WORKLOADS = ("wct", "tree-decode", "adversary", "weakrep")
WORK_DIR = os.path.join("perfbench", ".work")

_GAMMA = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """Output `index` of the splitmix-style mixer that `seed:` streams use."""
    z = (seed + (index + 1) * _GAMMA) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def seeded_bits(seed: int, num: int, den: int, count: int) -> str:
    """The first `count` bits of the stream `seed:<seed>:p=<num>/<den>`."""
    return "".join("1" if _mix(seed, i) % den < num else "0" for i in range(count))


def wct_truth(seed: int, num: int, den: int, horizon: int, nmax: int) -> dict[int, str]:
    """The true guess of every block 1..nmax: the bits below the n!-th one."""
    bits = seeded_bits(seed, num, den, horizon)
    ones = [i for i, b in enumerate(bits) if b == "1"]
    if len(ones) <= factorial(nmax):
        raise ValueError(f"seed:{seed} holds too few ones below {horizon}")
    return {n: bits[: ones[factorial(n)]] for n in range(1, nmax + 1)}


def _job(job_id, argv, expect_fail=(), **oracle):
    return {"id": job_id, "argv": argv, "expect_fail": list(expect_fail), "oracle": oracle}


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _stream_spec(seed, num, den):
    return f"seed:{seed}" if (num, den) == (1, 2) else f"seed:{seed}:p={num}/{den}"


# -- wct ---------------------------------------------------------------------


def _wct(rng, directory, smoke):
    big, small = (5, 4) if smoke else (9, 8)
    jobs = []
    for nmax, num, den in [(big, 1, 2), (small, 1, 5), (small, 3, 4)]:
        spec = _stream_spec(rng.getrandbits(64), num, den)
        jobs.append(_job(
            f"wct-oracle-n{nmax}-p{num}_{den}",
            ["wct", "--set", spec, "--horizon", str(_wct_horizon(nmax, num, den)),
             "--nmax", str(nmax), "--oracle-trace"],
            matched={n: True for n in range(1, nmax + 1)},
        ))
    # The last two blocks get wrong guesses, so build_wct_injection takes
    # its fallback path; the gate knows which blocks must report a match.
    # The blocks and the kind of error are fixed, so every seed does the
    # same amount of work.
    for nmax, num, den in [(small, 1, 2), (small, 2, 5)]:
        seed = rng.getrandbits(64)
        horizon = _wct_horizon(nmax, num, den)
        guesses = wct_truth(seed, num, den, horizon, nmax)
        wrong = {nmax - 1, nmax}
        guesses[nmax - 1] = guesses[nmax - 1][: len(guesses[nmax - 1]) // 2]
        guesses[nmax] = _flip_bits(rng, guesses[nmax])
        path = _write(directory, f"guesses-n{nmax}-p{num}_{den}.txt",
                      "".join(f"{n}:{guesses[n]}\n" for n in sorted(guesses)))
        jobs.append(_job(
            f"wct-guesses-n{nmax}-p{num}_{den}",
            ["wct", "--set", _stream_spec(seed, num, den), "--horizon", str(horizon),
             "--nmax", str(nmax), "--trace-file", path],
            matched={n: n not in wrong for n in range(1, nmax + 1)},
        ))
    return jobs


def _wct_horizon(nmax: int, num: int, den: int) -> int:
    """A horizon 10% (plus 200 bits) past the expected position of the
    nmax!-th one: many standard deviations, so no seed runs short."""
    return factorial(nmax) * den * 11 // (num * 10) + 200


def _flip_bits(rng, truth: str) -> str:
    """A wrong guess: the truth with one bit in 200 flipped."""
    bits = list(truth)
    for i in rng.sample(range(len(bits)), max(1, len(bits) // 200)):
        bits[i] = "1" if bits[i] == "0" else "0"
    return "".join(bits)


# -- tree-decode -------------------------------------------------------------


def _tree_decode(rng, directory, smoke):
    # (q, full height, depth); the full-height job checks PrefixTree closure.
    shapes = ([(3, 1, 48), (2, 1, 48), (3, 1, 32), (2, 1, 32), (2, 6, 7)] if smoke else
              [(3, 1, 384), (2, 1, 512), (3, 1, 256), (2, 1, 256), (2, 13, 14)])
    jobs = []
    for q, full_height, depth in shapes:
        seed = rng.getrandbits(64)
        jobs.append(_job(
            f"tree-q{q}-h{full_height}-d{depth}",
            ["tree-decode", "--prefix-sampler-of", f"seed:{seed}", "--q", str(q),
             "--full-height", str(full_height), "--depth", str(depth)],
            prefix=seeded_bits(seed, 1, 2, depth),
        ))
    return jobs


# -- adversary ---------------------------------------------------------------


def _adversary(rng, directory, smoke):
    nmax, block = (60, 20) if smoke else (600, 300)
    size = 8 * (nmax + 1)
    perm = list(range(size))
    rng.shuffle(perm)
    table = "table:" + _write(directory, "perm.csv",
                              "".join(f"{j},{v}\n" for j, v in enumerate(perm)))
    swap = f"swapblocks:{block}"
    # dom rows evaluate the sampler on [0, (n+1)q] again for every n, so most
    # evaluations repeat an input; about a third of the f values land in the
    # sampled segment and get a check.
    jobs = []
    for name, spec, q, rows in [("identity", "identity", 2, nmax),
                                ("swapblocks", swap, 2, nmax),
                                ("table", table, 2, nmax), ("table-q3", table, 3, nmax * 4 // 5)]:
        f_values = [rng.randrange(3 * (n + 1) * q) for n in range(rows + 1)]
        path = _write(directory, f"f-{name}.txt", "".join(f"{v}\n" for v in f_values))
        jobs.append(_job(
            f"dom-{name}",
            ["dom", "--sampler", spec, "--f-values-file", path, "--q", str(q),
             "--nmax", str(rows)],
        ))
    count = size // 2
    values = [rng.randrange(8) for _ in range(count)]
    values_path = _write(directory, "values.txt", "".join(f"{v}\n" for v in values))
    jobs += [
        _job("hits-table", ["hits", "--sampler", table, "--values-file", values_path,
                            "--q", "2"]),
        _job("trace-swapblocks", ["trace", "--sampler", swap, "--q", "2", "--n",
                                  str(count - 1)]),
        _job("graph", ["graph", "--values-file", values_path]),
    ]
    return jobs


# -- weakrep -----------------------------------------------------------------

def _weakrep(rng, directory, smoke):
    horizon = 40 if smoke else 200
    budget = str(horizon + 100)
    programs = ["ramp", "identity", "double", "succ", f"const:{rng.randrange(100)}",
                f"slowid:{rng.randrange(2, 9)}", "zeroonly", "diverge"]
    rng.shuffle(programs)
    manifest = _write(directory, "manifest.txt", "\n".join(programs) + "\n")

    # A valid table with one witness run per input: value y_x from step x+1
    # on, so it holds horizon*(horizon+1)/2 triples (20100 at horizon 200).
    values = [rng.randrange(1000) for _ in range(horizon)]
    triples = [(x, values[x], z) for x in range(horizon) for z in range(x + 1, horizon + 1)]
    late = range(horizon * 3 // 4, horizon - 3)
    x = rng.choice(late)
    gap = (x, values[x], x + 2 + rng.randrange(horizon - x - 2))
    mutants = {
        "representation": triples + [(x, values[x], horizon + 1 + rng.randrange(5))],
        "consistency": triples + [(x, values[x] + 1, z) for z in range(horizon - 3, horizon + 1)],
        "monotonicity": [t for t in triples if t != gap],
        "downward_closure": [t for t in triples if t[0] != x],
    }
    jobs = []
    for name, rows in [("valid", triples)] + list(mutants.items()):
        path = _write(directory, f"table-{name}.txt",
                      "".join(f"{a},{b},{c}\n" for a, b, c in sorted(rows)))
        jobs.append(_job(
            f"validate-{name}",
            ["weakrep", "validate", "--table-file", path, "--horizon", str(horizon)],
            expect_fail=[] if name == "valid" else [name],
        ))

    identity_horizon = str(round((horizon * (horizon + 1) / 2) ** 0.5))
    jobs += [
        _job("of-program-ramp-json",
             ["weakrep", "of-program", "--manifest", manifest, "--index",
              str(programs.index("ramp")), "--horizon", str(horizon), "--budget", budget]),
        _job("of-program-identity-csv",
             ["--format", "csv", "weakrep", "of-program", "--manifest", manifest, "--index",
              str(programs.index("identity")), "--horizon", identity_horizon,
              "--budget", budget]),
        _job("interleave", ["weakrep", "interleave", "--manifest", manifest, "--grid", "64"]),
    ]

    diagonal = [rng.randrange(50) for _ in range(len(programs))]
    diverge = programs.index("diverge")
    sigma = {format(v, "b").zfill(length) if length else "": rng.randrange(len(programs))
             for length in range(4) for v in range(1 << length) if rng.random() < 0.5}
    sigma_path = _write(directory, "sigma.txt",
                        "".join(f"{s}:{i}\n" for s, i in sorted(sigma.items()))
                        + f"default:{diverge}\n")
    values_path = _write(directory, "diagonal.txt", "".join(f"{v}\n" for v in diagonal))
    checkpoints = "2,4,7" if smoke else "2,5,9,12"
    jobs.append(_job(
        "pset",
        ["pset", "--values-file", values_path, "--manifest", manifest, "--budget", budget,
         "--sigma-file", sigma_path, "--checkpoints", checkpoints],
    ))
    return jobs


_BUILDERS = {"wct": _wct, "tree-decode": _tree_decode, "adversary": _adversary,
             "weakrep": _weakrep}


def make_plan(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Write the workload's inputs and return its jobs for one round."""
    directory = os.path.join(WORK_DIR, workload)
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, directory, smoke)
