"""The stream and sampler spec grammars, pinned to a test-side list of spec names.

Each list names every spec of one grammar with an example that its parser
accepts.  The README's "Stream specifications" and "Sampler specifications"
blocks must name exactly the listed specs, each once, and every example must
parse.
"""

import re
from pathlib import Path

import pytest

from intdensity import SetStream, parse_sampler

README = Path(__file__).parent.parent / "README.md"

STREAM_SPECS = {
    "empty": "empty",
    "full": "full",
    "evens": "evens",
    "odds": "odds",
    "seed": "seed:3:p=1/3",
    "file": "file:{path}",
    "list": "list:2,5",
}
SAMPLER_SPECS = {
    "identity": "identity",
    "double": "double",
    "shift": "shift:2",
    "swapblocks": "swapblocks:2",
    "table": "table:{path}",
}


def readme_block_names(heading: str) -> list[str]:
    """The spec names in the first code block under a README heading: the leading
    word of each `|`-separated alternative, a line's trailing comment dropped."""
    section = README.read_text().split(f"### {heading}\n", 1)[1]
    block = section.split("```\n", 2)[1]
    names = []
    for line in block.splitlines():
        grammar = re.split(r"\s{2,}", line.strip())[0]
        names += [re.match(r"[a-z]+", alternative.strip()).group()
                  for alternative in grammar.split("|")]
    return names


@pytest.mark.parametrize("heading, specs", [
    ("Stream specifications", STREAM_SPECS),
    ("Sampler specifications", SAMPLER_SPECS),
])
def test_readme_blocks_name_exactly_the_listed_specs(heading, specs):
    names = readme_block_names(heading)
    assert sorted(names) == sorted(specs)


def test_listed_specs_parse(tmp_path):
    bits, table = tmp_path / "bits.txt", tmp_path / "table.csv"
    bits.write_text("0110")
    table.write_text("0,1\n1,0\n")
    for spec in STREAM_SPECS.values():
        assert SetStream.from_spec(spec.format(path=bits), 4).horizon == 4
    for spec in SAMPLER_SPECS.values():
        assert parse_sampler(spec.format(path=table)) is not None
