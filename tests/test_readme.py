"""README.md's ``python -m repro`` commands still parse.

Every command in a fenced block is parsed with the CLI's own parser, so
a renamed or deleted subcommand or flag cannot outlive its
documentation.  Nothing is run.
"""

import re
import shlex
from pathlib import Path

from repro.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
PREFIX = "python -m repro "


def readme_commands() -> list:
    """The argv of every ``python -m repro`` line in a fenced block,
    backslash continuations joined and trailing comments dropped."""
    commands = []
    for block in FENCED.findall(README.read_text()):
        for line in block.replace("\\\n", " ").splitlines():
            _, found, rest = line.partition(PREFIX)
            if found:
                commands.append(shlex.split(rest, comments=True))
    return commands


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert len(commands) >= 20, commands  # the extractor found the blocks
    parser = build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append((argv, capsys.readouterr().err.strip()))
    assert rejected == []
