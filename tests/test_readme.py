"""The README's examples are tests: every ``ucsk`` line of its fenced
blocks runs, in order, through ``cli.main`` in one empty directory, and
must exit with the code and write exactly the files that the comment
line after it states."""

import re
import shlex
from pathlib import Path

from ucsk.cli import main

README = Path(__file__).parents[1] / "README.md"
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
_STATED = re.compile(r"# exit (\d+)(?:; writes (.+))?")


def examples(text: str) -> list[tuple[str, int, set[str]]]:
    """(command, exit code, files written) of each fenced ``ucsk`` line;
    an AssertionError names a line whose next line states no outcome."""
    found = []
    for block in _FENCE.findall(text):
        lines = block.splitlines()
        for line, after in zip(lines, lines[1:] + [""]):
            if line.startswith("ucsk "):
                stated = _STATED.fullmatch(after)
                assert stated, f"no '# exit N[; writes ...]' line after {line!r}"
                files = set(stated[2].split()) if stated[2] else set()
                found.append((line, int(stated[1]), files))
    return found


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def test_examples_cover_every_command():
    commands = {shlex.split(line)[1] for line, _, _ in examples(README.read_text())}
    assert commands == {"validate", "design", "ser", "rate", "reproduce"}


def test_examples_exit_and_write_as_stated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line, code, files in examples(README.read_text()):
        before = _files(tmp_path)
        assert main(shlex.split(line)[1:]) == code, line
        assert _files(tmp_path) - before == files, line

