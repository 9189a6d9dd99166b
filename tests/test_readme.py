"""Every `hallinv ...` line of the README's command-line block runs
through the CLI and exits 0, so the documented examples cannot drift from
the options the CLI accepts."""

import re
import shlex
from pathlib import Path

import pytest

from hallinv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in block.splitlines()
            if re.match(r"    hallinv ", line)]


def test_readme_has_examples():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--in", "--out"):
            argv[i + 1] = str(tmp_path / argv[i + 1])
            if arg == "--in":
                Path(argv[i + 1]).write_text("gens: x, y\nrels: [x,y]\n")
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 0, err
