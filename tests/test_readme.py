"""The README's examples run or parse as written, and its scenario table is current.

Each fenced ```python block is executed in a fresh namespace, so an example
that names a deleted or renamed function fails here.
"""
import re
import shlex
from pathlib import Path

import pytest

from kickedqubit.analysis import SCENARIOS
from kickedqubit.cli import _parse_override, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_scenario_table_matches_the_defaults():
    rows = re.findall(r"^\| (fig\w+) \|(.*)\|$", README.read_text(), flags=re.M)
    assert [name for name, _ in rows] == list(SCENARIOS)
    for name, cell in rows:
        table = {}
        for item in re.findall(r"`([^`]*)`", cell):
            # key=value parses as --set would; a bare key has a derived default
            key, value = _parse_override(item) if "=" in item else (item, None)
            table[key] = value
        assert table == SCENARIOS[name], name


def test_readme_cli_lines_parse():
    # every `kickedqubit ...` line of the CLI block, continuations joined,
    # parses as the program would read it (pulse specs and --set values included)
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README.read_text(), flags=re.M | re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("kickedqubit ")]
    assert commands
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])
