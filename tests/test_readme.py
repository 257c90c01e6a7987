"""README's examples run as written: its Python block, and each
``hh-bounds`` line of its CLI block through :func:`cli.main`."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from hh_bounds.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line)[1:] for line in _block("CLI", "sh").splitlines()
            if line.startswith("hh-bounds ")]


def test_the_cli_block_has_a_line_per_command():
    assert [argv[0] for argv in COMMANDS] == ["bounds", "chain", "converge", "verify"]


def test_the_python_block_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_each_cli_line_exits_zero(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    output = argv[argv.index("--output") + 1] if "--output" in argv else "human"
    if output == "json":
        assert isinstance(json.loads(out), dict)
    elif output == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
    else:
        assert out
