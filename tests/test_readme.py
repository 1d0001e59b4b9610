"""README.md's and the CI workflow's ``python -m repro`` commands still parse.

Every command in a README fenced block and every command line of
``.github/workflows/ci.yml`` is parsed with the CLI's own parser, so a
renamed or deleted subcommand or flag cannot outlive its documentation,
and a broken flag fails here rather than in a CI job.  Nothing is run.
"""

import re
import shlex
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CI = ROOT / ".github" / "workflows" / "ci.yml"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
PREFIX = "python -m repro "


def repro_commands(text: str) -> list:
    """The argv of every ``python -m repro`` line in *text*: backslash
    continuations joined, whatever precedes the command (a shell ``!``,
    a YAML ``run:``) dropped, and the line cut at its first pipe or
    redirection and at a trailing comment."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        _, found, rest = line.partition(PREFIX)
        if found:
            commands.append(shlex.split(re.split(r"[|>]", rest)[0],
                                        comments=True))
    return commands


def readme_commands() -> list:
    return repro_commands("\n".join(FENCED.findall(README.read_text())))


def _rejected(commands, capsys) -> list:
    parser = build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append((argv, capsys.readouterr().err.strip()))
    return rejected


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert len(commands) >= 20, commands  # the extractor found the blocks
    assert _rejected(commands, capsys) == []


def test_every_ci_command_parses(capsys):
    commands = repro_commands(CI.read_text())
    assert len(commands) >= 35, commands  # the extractor found the jobs
    assert _rejected(commands, capsys) == []
