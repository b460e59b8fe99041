"""The README's examples run against the current library and CLI."""

import re
import shlex
from pathlib import Path

import pytest

import sumsetlab.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


CLI_LINES = [
    line.split("#")[0].split()[1:]
    for block in code_blocks("sh")
    for line in block.splitlines()
    if line.startswith("sumsetlab ")
]


def test_quick_start_runs(capsys):
    (block,) = code_blocks("python")
    exec(compile(block, "README quick start", "exec"), {})
    assert capsys.readouterr().out


def test_cli_examples_found():
    assert len(CLI_LINES) == 6


@pytest.mark.parametrize("argv", CLI_LINES, ids=shlex.join)
def test_cli_example_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv == shlex.split("compute --set 1,3,5,7 --variant rss --h 3"):
        assert out == "cardinality=16\n"
