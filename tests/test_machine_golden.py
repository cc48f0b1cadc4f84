"""Machine-mode CLI output pinned byte for byte in a golden file.

``data/golden_machine.json`` holds the exact stdout (and exit code) of
``solve --format machine --trace`` and ``reduce --format machine`` on the
five sample games and on one irreducible 3x3 game, each under the four
option sets the end-to-end tests run.  The 3x3 game has ``-0.0``, ``1e+16`` and
``5e-324`` cells and non-ASCII and quoted labels, so its residual document
exercises every way a number or a label can be written.  A refactor of the
solver or of the CLI must keep every byte.

Regenerate the file only when a change of output is intended::

    PYTHONPATH=src python tests/test_machine_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from fuzzygame import parse_matrix, serialize_matrix
from fuzzygame.cli import main
from fuzzygame.matrix import matrix_doc

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_machine.json"
SAMPLES = ("convex", "dominance", "irreducible", "saddle", "simulation")
OPTION_SETS = (
    (),
    ("--spread-convention", "endpoint", "--attitude", "optimistic"),
    ("--threshold", "1", "--beta-steps", "5"),
    ("--threshold", "inf"),
)
# Rock-paper-scissors at scale 1e16 with a subnormal and a negative zero:
# no saddle, no plain or convex dominance, so both commands print it whole.
EDGE_GAME = json.dumps({
    "rows": ["Ärger", 'say "hi"', "back\\slash"],
    "cols": ["零", "café", "tab\tstop"],
    "entries": [
        [[-0.0, 5e-324], [1e16, 0.25], [-1e16, 0]],
        [[-1e16, 1], [5e-324, 0.0], [1e16, 0.5]],
        [[1e16, 0.1], [-1e16, 5e-324], [0, -0.0]],
    ],
})


def _runs():
    for game in (*SAMPLES, "edge"):
        for opts in OPTION_SETS:
            yield game, ("solve", "GAME", "--format", "machine", "--trace", *opts)
            yield game, ("reduce", "GAME", "--format", "machine", *opts)


def _game_path(game, tmp_dir):
    if game == "edge":
        path = tmp_dir / "edge.json"
        path.write_text(EDGE_GAME, encoding="utf-8")
        return str(path)
    return str(ROOT / "sample_games" / f"{game}.json")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _record(game, argv, tmp_dir):
    path = _game_path(game, tmp_dir)
    code, stdout = _run([path if a == "GAME" else a for a in argv])
    return {"game": game, "argv": list(argv), "exit": code, "stdout": stdout}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_game_and_option_set():
    records = _load()
    assert [(r["game"], tuple(r["argv"])) for r in records] == list(_runs())
    edge = [r for r in records if r["game"] == "edge"]
    assert {r["exit"] for r in edge} == {0, 2}  # reduce exits 0, solve is not reducible
    for token in ("-0.0", "1e+16", "5e-324", "\\u00c4rger", '\\"hi\\"', "\\t"):
        assert all(token in r["stdout"] for r in edge), token


@pytest.mark.parametrize("game", (*SAMPLES, "edge"))
def test_machine_output_matches_golden_bytes(game, tmp_path):
    for record in _load():
        if record["game"] == game:
            assert _record(game, record["argv"], tmp_path) == record, record["argv"]


def test_matrix_doc_is_the_parsed_serialized_matrix():
    pm = parse_matrix(EDGE_GAME)
    doc = matrix_doc(pm)
    expected = json.loads(serialize_matrix(pm))
    assert doc == expected
    # Equal is not enough for -0.0 == 0.0 and 1 == 1.0: compare by type and repr too.
    cells = [(type(v), repr(v)) for row in doc["entries"] for cell in row for v in cell]
    assert cells == [(type(v), repr(v)) for row in expected["entries"] for cell in row for v in cell]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [_record(game, argv, pathlib.Path(tmp)) for game, argv in _runs()]
    lines = (json.dumps(record) for record in records)
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
