"""Golden reports: CLI stdout and exit codes compared against recorded files.

Every case runs from a fresh temporary working directory that holds the
input files of FILES, and names them by relative path, so the paths its
report echoes are the same in any checkout.  The cases cover every AC9
invocation plus one for each input parser: values and codes files, guess,
table, manifest and sigma files with blank and `#` lines, a failing CSV
validation whose witness is a tuple, a CSV `of-program` table whose
triples are quoted `x,y,z` rows, a step-witness table in shuffled order
with a repeated line, an unsorted `list:` spec and a `file:` spec with
mixed whitespace.  The `dom` and `hits` cases also cover table
and `swapblocks` samplers, q = 3, a CSV report and a run where every input
is a hit, once with 6 inputs and once with 3,000.

A recorded file is the exact stdout of its invocation, `.csv` for CSV
reports and `.json` otherwise; replacing one changes an expected output and
needs a stated, reviewed reason in CHANGES.md.  Five recorded files are not
cases here: `wct-seed42-nmax10`, `wct-seed42-p1_5-nmax10`,
`wct-seed42-p3_4-nmax10` and `wct-seed42-den2_63p1-nmax10`, `wct --nmax 10`
at p = 1/2, 1/5, 3/4 and (2^62 + 1)/(2^63 + 1), take up to seconds each,
and `wct-evens-nmax10`, the same on `evens`, reads 7.4M bits of a closed
form; CI compares them with the installed entry point's output.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from intdensity.cli import main

GOLDEN = Path(__file__).parent / "golden"

FILES = {
    "perm.csv": "0,2\n1,0\n2,1\n",
    "pairs.csv": "0,0\n1,1\n2,3\n3,6\n4,10\n5,15\n",
    "trace.txt": "1:10\n2:1010\n",
    "trace-comments.txt": "# guesses\n\n1:10\n  # block 2\n2:1010\n\n",
    # Block 3 is the truth for evens with bits 1 and 3 flipped, and block 5
    # the truth cut in half: both blocks take fallback values.
    "trace-wrong.txt": (
        "1:10\n2:1010\n3:111110101010\n4:" + "10" * 24 + "\n5:" + "10" * 60 + "\n"
    ),
    # Prefixes of the truth of seed:7:p=2/5 at blocks 1 and 2; blocks 3 and 5
    # cut to 4 and 100 ones, which keep their preferred values and take a
    # least-free tail; block 4 all ones, whose preferred values clash with
    # block 3's.
    "trace-seed-wrong.txt": "1:{0:.5}\n2:{0:.8}\n3:{0:.11}\n4:{1}\n5:{0}\n".format(
        "0010010011011011010100011110110100110001010101010111000010000111000101001000000110"
        "1010001110010000000100010010010100001010101101100110100001000001001111101111011001"
        "11000011100110110010010101110011000001110000111100010001010010000001",
        "1" * 30,
    ),
    "table.txt": "0,2,3\n0,2,4\n0,2,5\n0,2,6\n",
    "bad-table.txt": "# input 0 has two values\n0,1,3\n0,2,3\n\n2,0,5\n",
    "unsorted-table.txt": (
        "# input 1 first\n1, 3 ,5\n\n0,1,3\n  0,1,2\n# a repeated line\n1,3,4\n"
        "0 ,1, 5\n1,3,4\n  # input 0 at step 4\n0,1,4\n"
    ),
    "manifest.txt": "identity\ndiverge\nconst:3\n",
    "manifest-comments.txt": "# programs\n\nidentity\n  # never halts\ndiverge\n\nconst:3\n",
    "sigma.txt": "1:1\ndefault:0\n",
    "sigma-comments.txt": "# routes\n\n1:1\n\n# fallback\ndefault:0\n",
    "codes.txt": "2\n5\n\n12\n",
    "values.txt": "3\n1\n\n4\n1\n",
    "f-values.txt": "1\n2\n\n4\n8\n",
    "bits.txt": "0110 1\t10\r\n\x0b1\x0c0\x1c1\x1d1\x1e0\x1f1\n\n  10 01\n",
    # j -> <j, 0> on 3,000 inputs, with 3,000 zero values: every input is a hit.
    "pairs-3000.csv": "".join(f"{j},{j * (j + 1) // 2}\n" for j in range(3000)),
    "zeros-3000.txt": "0\n" * 3000,
}

# name -> (exit code, argv)
CASES = {
    "tree-decode-seed5-q2-h1-d64": (0, [
        "tree-decode", "--prefix-sampler-of", "seed:5",
        "--q", "2", "--full-height", "1", "--depth", "64",
    ]),
    "tree-decode-seed6-q3-h1-d48": (0, [
        "tree-decode", "--prefix-sampler-of", "seed:6",
        "--q", "3", "--full-height", "1", "--depth", "48",
    ]),
    "tree-decode-seed7-q2-h6-d7": (0, [
        "tree-decode", "--prefix-sampler-of", "seed:7",
        "--q", "2", "--full-height", "6", "--depth", "7",
    ]),
    # A prefix sampler that reads 12,288 bits, one bit longer at a time, so its
    # seeded stream grows across three steps of 4,096 bits.
    "tree-decode-seed7-q3-h1-d2048": (0, [
        "tree-decode", "--prefix-sampler-of", "seed:7", "--q", "3", "--depth", "2048",
    ]),
    "tree-decode-evens-q2-h1-d64": (0, [
        "tree-decode", "--prefix-sampler-of", "evens",
        "--q", "2", "--full-height", "1", "--depth", "64",
    ]),
    "prefix-set-seed4": (0, [
        "prefix-set", "--set", "seed:4", "--horizon", "32", "--count", "8",
    ]),
    "wct-seed11-nmax4": (0, [
        "wct", "--set", "seed:11", "--horizon", "512", "--nmax", "4",
        "--oracle-trace", "--include-table",
    ]),
    # The remaining AC9 invocations.
    "density-seed9-p13": (0, [
        "density", "--set", "seed:9:p=1/3", "--checkpoints", "4,16,64",
    ]),
    # Seeded fills past one 4,096-bit step at a power of two and at the
    # denominator 2^63 + 1, the least that the fill reads by clamped carries.
    "density-seed9-p5_8": (0, [
        "density", "--set", "seed:9:p=5/8", "--checkpoints", "4,64,4096,4097,10000",
    ]),
    "density-seed9-den2_63p1": (0, [
        "density", "--set", "seed:9:p=4611686018427387905/9223372036854775809",
        "--checkpoints", "4,64,4096,4097,10000",
    ]),
    "density-evens-double": (0, [
        "density", "--set", "evens", "--checkpoints", "8,16", "--sampler", "double",
    ]),
    "tree-decode-seed4-q2-h1-d16": (0, [
        "tree-decode", "--prefix-sampler-of", "seed:4", "--q", "2",
        "--full-height", "1", "--depth", "16",
    ]),
    "tree-decode-table": (0, [
        "tree-decode", "--sampler", "table:perm.csv", "--q", "1",
        "--full-height", "0", "--depth", "1",
    ]),
    "introreduce-codes": (0, ["introreduce", "--codes", "2,5,12"]),
    "wct-evens-trace-file": (0, [
        "wct", "--set", "evens", "--horizon", "64", "--nmax", "2",
        "--trace-file", "trace.txt",
    ]),
    "graph-values": (0, ["graph", "--values", "3,1,4,1"]),
    "trace-identity": (0, ["trace", "--sampler", "identity", "--q", "2", "--n", "3"]),
    "hits-values": (0, [
        "hits", "--sampler", "identity", "--values", "0,0,0,0", "--q", "1",
    ]),
    "dom-f-values": (0, [
        "dom", "--sampler", "identity", "--f-values", "1,2,4,8", "--q", "2",
        "--nmax", "3",
    ]),
    "codes-k": (0, ["codes", "k", "--n", "77"]),
    "codes-c": (0, ["codes", "c", "--n", "9", "--x", "80"]),
    "codes-pair": (0, ["codes", "pair", "--x", "12", "--y", "34"]),
    "codes-string": (0, ["codes", "string", "--encode", "10110"]),
    "codes-setcode": (0, ["codes", "setcode", "--members", "0,3,5"]),
    "weakrep-validate": (0, ["weakrep", "validate", "--table-file", "table.txt"]),
    "weakrep-of-program": (0, [
        "weakrep", "of-program", "--manifest", "manifest.txt", "--index", "0",
        "--horizon", "4",
    ]),
    "weakrep-interleave": (0, [
        "weakrep", "interleave", "--manifest", "manifest.txt", "--grid", "6",
    ]),
    "pset": (0, [
        "pset", "--values", "0,2", "--manifest", "manifest.txt",
        "--sigma-file", "sigma.txt", "--checkpoints", "2",
    ]),
    "csv-density-odds": (0, [
        "--format", "csv", "density", "--set", "odds", "--checkpoints", "5,10",
    ]),
    # One case for each input parser.
    "introreduce-codes-file": (0, ["introreduce", "--codes-file", "codes.txt"]),
    "graph-values-file": (0, ["graph", "--values-file", "values.txt"]),
    "hits-values-file": (0, [
        "hits", "--sampler", "identity", "--values-file", "values.txt", "--q", "2",
    ]),
    "dom-f-values-file": (0, [
        "dom", "--sampler", "double", "--f-values-file", "f-values.txt", "--q", "1",
        "--nmax", "3",
    ]),
    "wct-evens-trace-comments": (0, [
        "wct", "--set", "evens", "--horizon", "64", "--nmax", "2",
        "--trace-file", "trace-comments.txt",
    ]),
    "wct-evens-wrong-guesses-table": (0, [
        "wct", "--set", "evens", "--horizon", "256", "--nmax", "5",
        "--trace-file", "trace-wrong.txt", "--include-table",
    ]),
    "wct-seed7-p2_5-wrong-guesses-table": (0, [
        "wct", "--set", "seed:7:p=2/5", "--horizon", "512", "--nmax", "5",
        "--trace-file", "trace-seed-wrong.txt", "--include-table",
    ]),
    "weakrep-of-program-manifest-comments": (0, [
        "weakrep", "of-program", "--manifest", "manifest-comments.txt",
        "--index", "2", "--horizon", "3", "--budget", "2",
    ]),
    "weakrep-interleave-manifest-comments": (0, [
        "weakrep", "interleave", "--manifest", "manifest-comments.txt", "--grid", "4",
    ]),
    "pset-comments": (0, [
        "pset", "--values-file", "values.txt", "--manifest", "manifest-comments.txt",
        "--sigma-file", "sigma-comments.txt", "--checkpoints", "2,3",
    ]),
    # Every triple is a quoted `x,y,z` row of the bulk-flattened list.
    "csv-weakrep-of-program-identity": (0, [
        "--format", "csv", "weakrep", "of-program", "--manifest", "manifest.txt",
        "--index", "0", "--horizon", "6",
    ]),
    "csv-weakrep-validate-bad": (1, [
        "--format", "csv", "weakrep", "validate", "--table-file", "bad-table.txt",
    ]),
    # Shuffled rows with spaces around fields; the repeated line counts once.
    "weakrep-validate-unsorted": (0, [
        "weakrep", "validate", "--table-file", "unsorted-table.txt",
    ]),
    "density-list-unsorted": (0, [
        "density", "--set", "list:5,1,1,3", "--checkpoints", "2,4,6",
    ]),
    "prefix-set-list-unsorted": (0, [
        "prefix-set", "--set", "list:5,1,1,3", "--count", "7",
    ]),
    "prefix-set-list-empty": (0, ["prefix-set", "--set", "list:", "--count", "2"]),
    "density-file-mixed-whitespace": (0, [
        "density", "--set", "file:bits.txt", "--checkpoints", "4,8,16",
    ]),
    "prefix-set-file-mixed-whitespace": (0, [
        "prefix-set", "--set", "file:bits.txt", "--count", "17",
    ]),
    # The adversary commands beyond identity and double at q <= 2.
    "dom-table": (0, [
        "dom", "--sampler", "table:perm.csv", "--f-values", "2,1", "--q", "1",
        "--nmax", "1",
    ]),
    "dom-swapblocks-q3": (0, [
        "dom", "--sampler", "swapblocks:2", "--f-values", "0,5,3,9", "--q", "3",
        "--nmax", "3",
    ]),
    "csv-dom-double": (0, [
        "--format", "csv", "dom", "--sampler", "double", "--f-values", "0,2,5,8",
        "--q", "1", "--nmax", "3",
    ]),
    # pairs.csv maps j to <j, 0>, so with zero values every input is a hit.
    "hits-table-all-hits": (0, [
        "hits", "--sampler", "table:pairs.csv", "--values", "0,0,0,0,0,0", "--q", "1",
    ]),
    # The same at 3,000 hits; CI also runs it through the installed entry point.
    "hits-hit-heavy": (0, [
        "hits", "--sampler", "table:pairs-3000.csv", "--values-file", "zeros-3000.txt",
        "--q", "1",
    ]),
}


def run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


def golden_path(name: str) -> Path:
    suffix = ".csv" if "csv" in CASES[name][1][:2] else ".json"
    return GOLDEN / f"{name}{suffix}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, monkeypatch):
    for file_name, content in FILES.items():
        (tmp_path / file_name).write_bytes(content.encode("ascii"))
    monkeypatch.chdir(tmp_path)
    expected_code, argv = CASES[name]
    code, stdout = run(argv)
    assert code == expected_code
    assert stdout == golden_path(name).read_bytes()
