"""The README's command-line examples, replayed through cli.main byte for byte."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from cyconf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for every indented `$ cyconf` line."""
    out: list[tuple[str, list[str]]] = []
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("    $ cyconf "):
            current = []
            out.append((line[len("    $ "):], current))
        elif current is not None and line.startswith("    ") and not line.startswith("    $"):
            current.append(line[4:] + "\n")
        else:
            current = None
    return [(cmd, "".join(lines)) for cmd, lines in out]


EXAMPLES = _examples()


def test_readme_has_nine_examples():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    head = re.fullmatch(r"(.*) \| head -(\d+)", command)
    argv = shlex.split(head.group(1) if head else command)[1:]
    assert main(argv) == (1 if expected == "NON-ISO\n" else 0)
    out = capsys.readouterr().out
    if head:
        out = "".join(out.splitlines(keepends=True)[: int(head.group(2))])
    assert out == expected
