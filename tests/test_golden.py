"""Golden reports: CLI stdout compared byte for byte against recorded files.

Each case is a CLI invocation whose parameters echo no file path, so its
report is the same in any checkout.  A recorded file is the exact stdout of
its invocation; replacing one changes an expected output and needs a stated,
reviewed reason in CHANGES.md.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from intdensity.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "tree-decode-seed5-q2-h1-d64": [
        "tree-decode", "--prefix-sampler-of", "seed:5",
        "--q", "2", "--full-height", "1", "--depth", "64",
    ],
    "tree-decode-seed6-q3-h1-d48": [
        "tree-decode", "--prefix-sampler-of", "seed:6",
        "--q", "3", "--full-height", "1", "--depth", "48",
    ],
    "tree-decode-seed7-q2-h6-d7": [
        "tree-decode", "--prefix-sampler-of", "seed:7",
        "--q", "2", "--full-height", "6", "--depth", "7",
    ],
    "tree-decode-evens-q2-h1-d64": [
        "tree-decode", "--prefix-sampler-of", "evens",
        "--q", "2", "--full-height", "1", "--depth", "64",
    ],
    "prefix-set-seed4": [
        "prefix-set", "--set", "seed:4", "--horizon", "32", "--count", "8",
    ],
    "wct-seed11-nmax4": [
        "wct", "--set", "seed:11", "--horizon", "512", "--nmax", "4",
        "--oracle-trace", "--include-table",
    ],
}


def run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, stdout = run(CASES[name])
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.json").read_bytes()
