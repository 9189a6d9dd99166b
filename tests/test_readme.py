"""Every `hallinv ...` line of the README's command-line block runs
through the CLI and exits 0, so the documented examples cannot drift from
the options the CLI accepts; and each prints the same bytes at --jobs 1
and --jobs 2 (every subcommand takes --jobs)."""

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


def run_readme_command(line, directory, capsys, *extra):
    """(exit code, stdout, stderr, the --out file's text or None) of a
    README line run with extra arguments, its files in directory."""
    directory.mkdir(exist_ok=True)
    argv = shlex.split(line)[1:] + list(extra)
    out = None
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--in", "--out"):
            argv[i + 1] = str(directory / argv[i + 1])
            if arg == "--in":
                Path(argv[i + 1]).write_text("gens: x, y\nrels: [x,y]\n")
            else:
                out = Path(argv[i + 1])
    code = main(argv)
    stdout, err = capsys.readouterr()
    return code, stdout, err, out and out.read_text()


def test_readme_has_examples():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(line, tmp_path, capsys):
    code, _, err, _ = run_readme_command(line, tmp_path, capsys)
    assert code == 0, err


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_same_at_two_jobs(line, tmp_path, capsys):
    one = run_readme_command(line, tmp_path / "one", capsys, "--jobs", "1")
    two = run_readme_command(line, tmp_path / "two", capsys, "--jobs", "2")
    assert one[0] == two[0] == 0, two[2]
    assert (one[1], one[3]) == (two[1], two[3])
