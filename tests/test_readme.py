"""The README's command-line examples print the lines the README shows.

Each `$ homofiber ...` line of a fenced block is run in-process with
`main`; the lines under it, up to the next command or the end of the
block, must appear in its output in the same order; `...` marks lines
left out. A command shown without output (one that writes with --out)
is not run.
"""

import contextlib
import io
import pathlib
import shlex

import pytest

from homofiber.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, shown lines) for every README command shown with output."""
    out, block, argv = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            block, argv = not block, None
        elif block and line.startswith("$ homofiber "):
            argv = shlex.split(line)[2:]
            out.append((argv, []))
        elif block and argv is not None:
            out[-1][1].append(line)
    return [pytest.param(argv, shown, id=argv[0]) for argv, shown in out if shown]


def test_the_readme_shows_three_examples():
    commands = [example.id for example in _examples()]
    assert commands == ["catalog", "validate", "verify"]


@pytest.mark.parametrize("argv,shown", _examples())
def test_readme_example_prints_the_lines_shown(argv, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = iter(out.getvalue().splitlines())
    for want in (line for line in shown if line.strip() != "..."):
        assert want in lines, (argv, want)
