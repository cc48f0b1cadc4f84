"""The README's examples are what the program prints."""

import pathlib
import re

from fuzzygame.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(first_line):
    # The fenced block whose first line starts with first_line, without its fences.
    match = re.search(r"^```[a-z]*\n(" + re.escape(first_line) + r".*?)^```$", README, re.M | re.S)
    assert match, f"README has no block starting {first_line!r}"
    return match.group(1)


def test_solve_example_is_the_output(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert "fuzzygame solve sample_games/simulation.json --trace" in README
    assert main(["solve", "sample_games/simulation.json", "--trace"]) == 0
    assert capsys.readouterr().out == _block("kind: ")


def test_library_example_gives_its_x():
    code = _block("from fuzzygame import")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    shown = re.search(r"^solution\.x +# (.*)$", code, re.M).group(1)
    assert repr(namespace["solution"].x) == shown
