"""The README's examples: its python blocks run, and every command line of
its command block parses, with keys its subcommand reads."""

import re
import shlex
from pathlib import Path

from qdmcell import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_python_example_runs(capsys):
    # Each block prints one line of four values.
    examples = _blocks("python")
    assert len(examples) == 2
    for example in examples:
        exec(compile(example, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.split()) == 4


def test_command_lines_parse():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("qdmcell ")]
    assert {shlex.split(line)[1] for line in lines} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        keys = cli._COMMANDS[args.subcommand][1]
        for override in args.overrides or ():
            assert override.partition("=")[0] in keys, line
