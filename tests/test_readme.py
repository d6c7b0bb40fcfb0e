"""README's command-line block and script names follow the code."""

import re
import shlex
from pathlib import Path

from discbraid import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def command_lines():
    block = README.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_every_command_line_parses():
    lines = command_lines()
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        assert argv[0] == "discbraid"
        assert parser.parse_args(argv[1:]).func.__name__.startswith("cmd_")


def test_every_named_script_exists():
    scripts = set(re.findall(r"scripts/[\w.-]+", README))
    assert scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script
