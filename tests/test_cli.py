"""Command-line front end: exit codes, table and machine output, streams."""

import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fuzzygame
from fuzzygame import (
    MAX_BETA_STEPS,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    SpreadConvention,
    beta_grid,
    parse_matrix,
    serialize_matrix,
    solve_pipeline,
)
from fuzzygame.cli import _config_from_args, build_parser, main
from fuzzygame.solver import DEFAULT_BETAS


@pytest.fixture
def write_game(tmp_path):
    def _write(pm_or_text, name="game.json"):
        path = tmp_path / name
        text = pm_or_text if isinstance(pm_or_text, str) else serialize_matrix(pm_or_text)
        path.write_text(text)
        return str(path)

    return _write


class TestSolve:
    def test_simulation_table_output(self, write_game, simulation_3x4, capsys):
        code = main(["solve", write_game(simulation_3x4), "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A2=15/16" in out
        assert "A3=1/16" in out
        assert "245/16" in out
        assert out.count("dominated by") == 2
        assert "sub-game (B2, B4)" in out

    def test_saddle_game(self, write_game, saddle_2x2, capsys):
        code = main(["solve", write_game(saddle_2x2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pure-saddle" in out

    def test_irreducible_exits_2(self, write_game, irreducible_4x4, capsys):
        code = main(["solve", write_game(irreducible_4x4)])
        captured = capsys.readouterr()
        assert code == 2
        assert "residual matrix" in captured.err
        assert '"entries"' in captured.err

    def test_parse_error_exits_1(self, write_game, capsys):
        code = main(["solve", write_game("{nope")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_missing_file_exits_1(self, capsys):
        assert main(["solve", "/nonexistent/game.json"]) == 1

    def test_bad_config_exits_1(self, write_game, simulation_3x4, capsys):
        path = write_game(simulation_3x4)
        assert main(["solve", path, "--threshold", "-1"]) == 1
        assert main(["solve", path, "--beta-steps", "1"]) == 1

    def test_machine_output_matches_solution(self, write_game, simulation_3x4, capsys):
        code = main(["solve", write_game(simulation_3x4), "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        sol = solve_pipeline(simulation_3x4)
        assert doc["kind"] == sol.kind.value
        assert doc["x"] == [float(p) for p in sol.x]
        assert doc["y"] == [float(p) for p in sol.y]
        assert [F(s) for s in doc["x_exact"]] == list(sol.x)
        assert [F(s) for s in doc["y_exact"]] == list(sol.y)
        assert F(doc["value"]["center_exact"]) == F(sol.value.center)
        assert doc["value"]["center"] == float(sol.value.center)
        assert len(doc["trace"]) == len(sol.trace)
        for got, step in zip(doc["trace"], sol.trace):
            assert got["kind"] == step.kind.value
            assert got["evidence"] == list(step.evidence)
        assert doc["trace"][0]["deleted"] == {"axis": "row", "index": 0, "label": "A1"}
        assert doc["config"]["threshold"] == 0.0

    def test_machine_config_reports_the_options(self, write_game, simulation_3x4, capsys):
        code = main(["solve", write_game(simulation_3x4), "--format", "machine",
                     "--threshold", "1", "--beta-steps", "5", "--attitude", "optimistic",
                     "--spread-convention", "endpoint"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"] == {
            "threshold": 1.0,
            "beta_steps": 5,
            "attitude": "optimistic",
            "spread_convention": "endpoint",
        }

    def test_machine_mode_keeps_stdout_clean_on_error(self, write_game, capsys):
        code = main(["solve", write_game("{nope"), "--format", "machine"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err != ""

    def test_machine_not_reducible_doc(self, write_game, irreducible_4x4, capsys):
        code = main(["solve", write_game(irreducible_4x4), "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "not-reducible"
        assert len(doc["residual"]["entries"]) == 4


class TestReduce:
    def test_worked_reduction(self, write_game, dominance_3x3, capsys):
        code = main(["reduce", write_game(dominance_3x3)])
        out = capsys.readouterr().out
        assert code == 0
        residual = parse_matrix(out)
        assert residual.centers() == ((1, 7), (6, 2))

    def test_simulation_residual(self, write_game, simulation_3x4, capsys):
        main(["reduce", write_game(simulation_3x4)])
        residual = parse_matrix(capsys.readouterr().out)
        assert (residual.rows, residual.cols) == (2, 3)
        assert residual.row_labels == ("A2", "A3")
        assert residual.col_labels == ("B1", "B2", "B4")

    def test_refeeding_residual_is_fixpoint(self, write_game, simulation_3x4, capsys):
        main(["reduce", write_game(simulation_3x4), "--format", "machine"])
        first = json.loads(capsys.readouterr().out)
        again_path = write_game(json.dumps(first["matrix"]), name="residual.json")
        main(["reduce", again_path, "--format", "machine"])
        second = json.loads(capsys.readouterr().out)
        assert second["matrix"] == first["matrix"]
        assert second["trace"] == []

    def test_already_2x2_unchanged(self, write_game, capsys):
        text = '{"entries": [[[1, 0.2], [7, 0.3]], [[6, 0.2], [2, 0.1]]]}'
        code = main(["reduce", write_game(text), "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_matrix(out.split("trace:")[0]).centers() == ((1, 7), (6, 2))
        assert "(empty)" in out

    def test_nan_index_does_not_pass_a_threshold(self, write_game, capsys):
        # A1's index over A2 overflows floats in the first column; exactly it is 9/17, about 0.529.
        text = ('{"entries": [[[1.7e308, 1.7e308], [5, 0.1]], [[-0.1e308, 1.7e308], [1, 0.1]],'
                ' [[0, 0.1], [3, 0.1]]]}')
        code = main(["reduce", write_game(text), "--threshold", "0.6", "--trace"])
        residual, trace = capsys.readouterr().out.split("trace:")
        assert code == 0
        assert parse_matrix(residual).row_labels == ("A1", "A2")
        assert trace == "\n  1. row-dominance: deleted A3 (dominated by A1); DI = [1, 10]\n"

    def test_overflowing_index_is_strict_json(self, write_game, capsys):
        text = ('{"entries": [[[1.7e308, 1.7e308], [5, 0.1]], [[-0.1e308, 1.7e308], [1, 0.1]],'
                ' [[0, 0.1], [3, 0.1]]]}')
        code = main(["reduce", write_game(text), "--format", "machine"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        first = doc["trace"][0]
        assert first["deleted"]["label"] == "A2"
        assert first["evidence"] == [0.5294117647058824, 20.0]

    def test_int_index_beyond_float_range_prints_inf(self, write_game, capsys):
        big = int(sys.float_info.max)
        text = json.dumps({"entries": [[[big, 1], [5, 0]], [[-big, 0], [1, 0]], [[0, 0], [3, 0]]]})
        code = main(["reduce", write_game(text), "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1. row-dominance: deleted A2 (dominated by A1); DI = [inf, inf]\n" in out


def refuse_constant(constant):
    raise ValueError(f"not strict JSON: {constant}")


# A crisp game whose only deletion, A3 under A1, has an infinite index in both columns.
CRISP_3X2 = '{"entries": [[[3, 0], [1, 0]], [[1, 0], [3, 0]], [[0, 0], [0, 0]]]}'


class TestMachineDocuments:
    """Machine mode is strict JSON, and its *_exact keys are the library's exact numbers."""

    @pytest.mark.parametrize("convention", ["expected", "endpoint"])
    def test_exact_keys_are_exact(self, write_game, capsys, convention):
        rng = random.Random(1307)
        draws = (lambda: rng.randint(-30, 30) / 10, lambda: rng.uniform(-3, 3))
        solved = 0
        for k in range(120):
            center = draws[k % 2]
            m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            pm = PayoffMatrix.of(
                [[(center(), rng.uniform(0, 0.5)) for _ in range(n)] for _ in range(m)]
            )
            config = PipelineConfig(convention=SpreadConvention(convention))
            try:
                sol = solve_pipeline(pm, config)
            except NotReducibleError:
                continue
            code = main(["solve", write_game(pm), "--format", "machine",
                         "--spread-convention", convention])
            doc = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
            assert code == 0
            x, y = [F(s) for s in doc["x_exact"]], [F(s) for s in doc["y_exact"]]
            assert (tuple(x), tuple(y)) == (sol.x, sol.y)
            assert sum(x) == 1 and sum(y) == 1
            assert F(doc["value"]["center_exact"]) == F(sol.value.center)
            assert F(doc["value"]["spread_exact"]) == F(sol.value.spread)
            solved += 1
        assert solved >= 50

    @pytest.mark.parametrize("command, text, label", [
        ("reduce", '{"entries": [[[5, 0], [3, 0]], [[1, 0], [2, 0]]]}', "A2"),
        ("solve", CRISP_3X2, "A3"),  # the 2x2 crisp game above is a saddle under solve
    ], ids=["reduce", "solve"])
    def test_infinite_index_is_named(self, write_game, capsys, command, text, label):
        code = main([command, write_game(text), "--format", "machine", "--trace"])
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert code == 0
        first = doc["trace"][0]
        assert (first["kind"], first["deleted"]["label"]) == ("row-dominance", label)
        assert first["evidence"] == ["Infinity", "Infinity"]
        assert [float(e) for e in first["evidence"]] == [math.inf, math.inf]

    @pytest.mark.parametrize("command", ["solve", "reduce"])
    def test_infinite_threshold_is_named(self, write_game, convex_3x3, capsys, command):
        code = main([command, write_game(convex_3x3), "--format", "machine",
                     "--threshold", "inf"])
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert code == 0
        assert doc["config"]["threshold"] == "Infinity"


def _reads_back(token, exact):
    """Table mode's token for an exact number maps back to it: n, n/d (dec) or dec."""
    number, paren, decimal = token.partition(" (")
    if paren:
        assert "/" in number, f"{token!r} prints one decimal twice"
        assert F(number) == exact and float(decimal.removesuffix(")")) == float(exact)
        return "fraction"
    if number.lstrip("-").isdigit():
        assert int(number) == exact
        return "integer"
    assert exact.denominator > 10**6 and float(number) == float(exact)
    return "decimal"


class TestTableOutput:
    """Table mode prints each number once, and every token reads back to the exact number."""

    @pytest.mark.parametrize("convention", ["expected", "endpoint"])
    def test_numbers_read_back_exactly(self, write_game, capsys, convention):
        rng = random.Random(2029)
        centers = (lambda: rng.randint(-9, 9), lambda: rng.randint(-90, 90) / 10,
                   lambda: rng.uniform(-9, 9))
        spreads = (lambda: 0, lambda: rng.uniform(0, 0.5))
        forms, solved = set(), 0
        for k in range(150):
            center, spread = centers[k % 3], spreads[k // 3 % 2]
            m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            pm = PayoffMatrix.of([[(center(), spread()) for _ in range(n)] for _ in range(m)])
            try:
                sol = solve_pipeline(pm, PipelineConfig(convention=SpreadConvention(convention)))
            except NotReducibleError:
                continue
            code = main(["solve", write_game(pm), "--spread-convention", convention])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0
            for line, labels, mix in ((lines[1], pm.row_labels, sol.x),
                                      (lines[2], pm.col_labels, sol.y)):
                tokens = re.findall(r"(\S+)=(\S+(?: \(\S+\))?)(?: |$)", line[3:])
                assert [label for label, _ in tokens] == list(labels)
                for (_, token), p in zip(tokens, mix):
                    forms.add(_reads_back(token, p))
            assert lines[3].startswith("value: <") and lines[3].endswith(">")
            value = lines[3][len("value: <"):-1].split(", ")
            assert len(value) == 2
            forms.add(_reads_back(value[0], F(sol.value.center)))
            forms.add(_reads_back(value[1], F(sol.value.spread)))
            solved += 1
        assert solved >= 50
        assert forms == {"integer", "fraction", "decimal"}


class TestRank:
    def test_partial_dominance(self, capsys):
        code = main(["rank", "0.3,0.5", "0.4,0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.1" in out
        assert "partially-less" in out

    def test_non_comparable_pessimist(self, capsys):
        main(["rank", "7,1", "7,3"])
        out = capsys.readouterr().out
        assert "non-comparable" in out
        assert "minimization (pessimistic): <7.0, 1.0>" in out

    def test_optimist_flips_spread_choice(self, capsys):
        main(["rank", "7,1", "7,3", "--attitude", "optimistic"])
        out = capsys.readouterr().out
        assert "minimization (optimistic): <7.0, 3.0>" in out

    def test_crisp_pair_notes_direct_comparison(self, capsys):
        code = main(["rank", "5,0", "3,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "direct center comparison" in out
        assert "minimization (pessimistic): <3.0, 0.0>" in out

    def test_bad_argument(self, capsys):
        assert main(["rank", "5", "3,0"]) == 1

    def test_non_number_argument(self, capsys):
        assert main(["rank", "abc,1", "2,3"]) == 1
        assert capsys.readouterr().err == "error: expected two numbers in 'abc,1'\n"

    @pytest.mark.parametrize(
        "a, b, line",
        [
            pytest.param("1.7e308,1.7e308", "-1.7e308,1.7e308",
                         "DI(A < B) = -1  [totally-less]", id="inf-over-inf"),
            pytest.param("5,1.7e308", "6,1.7e308",
                         "DI(A < B) = 2.94118e-309  [partially-less]", id="one-over-inf"),
        ],
    )
    def test_index_past_float_range_is_exact(self, capsys, a, b, line):
        assert main(["rank", "--", a, b]) == 0
        assert capsys.readouterr().out.splitlines()[1] == line


class TestValidate:
    def test_valid_simulation(self, write_game, simulation_3x4, capsys):
        code = main(["validate", write_game(simulation_3x4)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3x4" in out

    def test_ragged_names_row(self, write_game, capsys):
        code = main(["validate", write_game('{"entries": [[[1,0],[2,0]], [[3,0]]]}')])
        captured = capsys.readouterr()
        assert code == 1
        assert "row 2" in captured.err

    def test_negative_spread_names_cell(self, write_game, capsys):
        code = main(["validate", write_game('{"entries": [[[1,0],[2,-0.5]]]}')])
        captured = capsys.readouterr()
        assert code == 1
        assert "entries[1][2]" in captured.err


class TestCheck:
    def test_simulation_passes(self, write_game, simulation_3x4, capsys):
        code = main(["check", write_game(simulation_3x4)])
        out = capsys.readouterr().out
        assert code == 0
        assert "value match:  ok" in out
        assert "245/16" in out

    def test_random_2x2_passes(self, write_game, capsys):
        text = '{"entries": [[[3, 0.1], [-2, 0.2]], [[-4, 0.3], [5, 0.1]]]}'
        assert main(["check", write_game(text)]) == 0

    def test_not_reducible_still_reports_oracle(self, write_game, irreducible_4x4, capsys):
        code = main(["check", write_game(irreducible_4x4)])
        out = capsys.readouterr().out
        assert code == 0
        assert "not reducible" in out
        assert "oracle value center: 0" in out

    def test_not_reducible_prints_the_oracle_value_alone(self, write_game, monkeypatch, capsys):
        # The value comes from the oracle's integer grid: no CenterGame is built.
        def refuse(*args, **kwargs):
            raise AssertionError("check built a CenterGame for a game it cannot reduce")

        class NoCenterGame:
            __init__ = refuse
            from_payoff = of = staticmethod(refuse)

        rng = random.Random(26)
        draws = (lambda: rng.randint(-9, 9), lambda: rng.randint(-90, 90) / 10)
        checked = [0, 0]
        for k in range(80):
            m, n = rng.choice([(3, 3), (3, 4), (4, 4)])
            pm = PayoffMatrix.of([[(draws[k % 2](), 0.1) for _ in range(n)] for _ in range(m)])
            try:
                solve_pipeline(pm)
                continue
            except NotReducibleError:
                value = fuzzygame.oracle_value(fuzzygame.CenterGame.from_payoff(pm)).value
            with monkeypatch.context() as patch:
                for module in (fuzzygame.oracle, fuzzygame.cli):
                    patch.setattr(module, "CenterGame", NoCenterGame, raising=False)
                code, out, err = run_main(["check", write_game(pm)], capsys)
            assert (code, err) == (0, "")
            assert out == (
                "pipeline: not reducible by the dominance method (no check performed)\n"
                f"oracle value center: {value} = {float(value)}\n"
            )
            checked[k % 2] += 1
        assert min(checked) >= 5

    def test_planted_12x12_passes(self, write_game, planted_game, capsys):
        code = main(["check", write_game(planted_game(12, 12, 12))])
        assert code == 0
        assert "value match:  ok" in capsys.readouterr().out

    def test_over_oracle_cap_exits_1(self, write_game, planted_game, capsys):
        code = main(["check", write_game(planted_game(33, 33, 33))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: 33x33 exceeds the 32x32 oracle cap\n"

    def test_over_oracle_cap_is_refused_before_solving(self, write_game, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("check solved a game the oracle cannot check")

        monkeypatch.setattr(fuzzygame.cli, "solve_pipeline", no_solve)
        text = json.dumps({"entries": [[[(i * 7 + j * 3) % 11, 0.1] for j in range(33)]
                                       for i in range(33)]})
        code = main(["check", write_game(text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: 33x33 exceeds the 32x32 oracle cap\n"
        assert captured.out == ""

    @pytest.mark.parametrize("irreducible", [False, True], ids=["checked", "not-reducible"])
    def test_oracle_center_is_printed_exactly(self, write_game, capsys, irreducible):
        # Float centers give values whose denominators run past 10**6, where
        # solve and reduce fall back to a decimal.
        centers = [[0.3, -0.7], [-0.2, 0.9]]
        if irreducible:
            centers = [[0.3 if i == j else -0.1 for j in range(4)] for i in range(4)]
        pm = fuzzygame.PayoffMatrix.of([[(c, 0.1) for c in row] for row in centers])
        value = fuzzygame.oracle_value(fuzzygame.CenterGame.from_payoff(pm)).value
        assert value.denominator > 10**6
        code = main(["check", write_game(pm)])
        out = capsys.readouterr().out
        exact = f"{value.numerator}/{value.denominator} = {float(value)}\n"
        assert code == 0
        if irreducible:
            assert f"oracle value center: {exact}" in out
        else:
            assert f"oracle value center:   {exact}" in out
            assert f"pipeline value center: {exact}" in out
            # The 2x2 mix is fully mixed, so each guarantee payoff is the value itself.
            assert f"x guarantee:  ok (worst column payoff {exact.rstrip()})" in out
            assert f"y guarantee:  ok (best row payoff {exact.rstrip()})" in out


NON_FINITE_GAMES = {
    "nan-center": '{"entries": [[[1, 0.1], [NaN, 0.1]], [[2, 0.1], [0, 0.1]]]}',
    "nan-spread": '{"entries": [[[1, 0.1], [3, NaN]], [[2, 0.1], [0, 0.1]]]}',
    "overflow": '{"entries": [[[1, 0.1], [1e999, 0.1]], [[2, 0.1], [0, 0.1]]]}',
}


UNREADABLE_DOCUMENTS = {
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "long-integer": '{"entries": [[[' + "9" * 5000 + ', 0.1]]]}',
}


@pytest.fixture
def unreadable_input(tmp_path):
    def _make(kind):
        path = tmp_path / "game.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"\xff\xfe{")
        else:
            path.write_text(UNREADABLE_DOCUMENTS[kind])
        return str(path)

    return _make


def run_cli(*argv):
    src = os.path.dirname(os.path.dirname(fuzzygame.__file__))
    return subprocess.run(
        [sys.executable, "-m", "fuzzygame.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


def run_main(argv, capsys):
    """Exit code, stdout and stderr of one in-process run, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputErrors:
    @pytest.mark.parametrize("command", ["solve", "reduce", "validate", "check"])
    @pytest.mark.parametrize("kind", [*UNREADABLE_DOCUMENTS, "not-utf-8", "directory"])
    def test_unreadable_input_exits_1(self, unreadable_input, capsys, command, kind):
        code = main([command, unreadable_input(kind)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unreadable_input_prints_no_traceback(self, unreadable_input):
        proc = run_cli("validate", unreadable_input("deep-nesting"))
        assert proc.returncode == 1
        assert proc.stderr == "error: document is nested too deeply to parse\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "{game}", "--threshold", "abc"], "argument --threshold: invalid float value"),
        (["solve"], "the following arguments are required: input"),
        (["check", "{game}", "--beta-steps", "2.5"], "argument --beta-steps: invalid int value"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-threshold", "missing-input", "bad-beta-steps", "missing-command"])
    def test_usage_error_exits_1(self, write_game, simulation_3x4, capsys, argv, message):
        path = write_game(simulation_3x4)
        with pytest.raises(SystemExit) as info:
            main([path if arg == "{game}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert info.value.code == 1
        assert captured.err.startswith("usage: fuzzygame")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_failure_after_reading_propagates(self, write_game, simulation_3x4, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("internal fault")

        monkeypatch.setattr(fuzzygame.cli, "solve_pipeline", broken)
        with pytest.raises(error, match="internal fault"):
            main(["solve", write_game(simulation_3x4)])

    @pytest.mark.parametrize("command", ["solve", "reduce", "validate", "check"])
    @pytest.mark.parametrize("text", NON_FINITE_GAMES.values(), ids=NON_FINITE_GAMES.keys())
    def test_non_finite_number_exits_1(self, write_game, capsys, command, text):
        code = main([command, write_game(text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: entries[1][2]: ")
        assert captured.out == ""

    def test_non_finite_number_prints_no_traceback(self, write_game):
        proc = run_cli("solve", write_game(NON_FINITE_GAMES["nan-center"]))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["validate"], ["solve"], ["solve", "--format", "machine"]],
                             ids=["validate", "solve-table", "solve-machine"])
    def test_unwritable_label_exits_1(self, write_game, argv):
        # A lone surrogate is valid JSON (an escape), but no UTF-8 output can print it.
        game = write_game('{"entries": [[[1, 0.1], [2, 0.1]]], "rows": ["\\ud800"]}')
        proc = run_cli(argv[0], game, *argv[1:])
        assert proc.returncode == 1
        assert proc.stderr == "error: row label '\\ud800' cannot be written as UTF-8\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["solve", "reduce", "check"])
    def test_nan_threshold_exits_1(self, write_game, simulation_3x4, capsys, command):
        code = main([command, write_game(simulation_3x4), "--threshold", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: threshold must be nonnegative, got nan\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "reduce", "check"])
    def test_beta_steps_over_cap_exits_1(self, write_game, simulation_3x4, capsys, command):
        code = main([command, write_game(simulation_3x4), "--beta-steps", str(MAX_BETA_STEPS + 1)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"at most {MAX_BETA_STEPS}" in captured.err


class TestParserReuse:
    """One parser serves every call of a process and carries nothing between them."""

    CALLS = [
        ["solve", "{game}", "--threshold", "abc"],
        ["solve", "{game}", "--threshold", "1", "--beta-steps", "5"],
        ["solve", "{game}"],
        ["check", "{game}"],
        ["rank", "0.3,0.5", "0.4,0.5", "--attitude", "optimistic"],
        ["rank", "0.3,0.5", "0.4,0.5"],
    ]

    def test_each_call_matches_a_fresh_parser(self, write_game, simulation_3x4, capsys):
        path = write_game(simulation_3x4)
        calls = [[path if arg == "{game}" else arg for arg in argv] for argv in self.CALLS]
        reused = [run_main(argv, capsys) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_main(argv, capsys))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0, 0]
        assert "pessimistic" in reused[-1][1] and "optimistic" in reused[-2][1]

    def test_built_once_and_not_at_import(self):
        assert build_parser() is build_parser()
        src = os.path.dirname(os.path.dirname(fuzzygame.__file__))
        probe = "import fuzzygame.cli as cli; print(cli.build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout == "0\n", proc.stderr


class TestDefaultGrid:
    """The default step count reuses the grid built at import; any other count builds one."""

    def test_default_step_count_reuses_the_default_grid(self):
        args = build_parser().parse_args(["solve", "game.json"])
        assert _config_from_args(args).betas is DEFAULT_BETAS

    @pytest.mark.parametrize("sample", ["convex", "simulation"])
    def test_explicit_default_prints_the_same_bytes(self, capsys, sample):
        argv = ["solve", str(SAMPLE_DIR / f"{sample}.json"), "--format", "machine", "--trace"]
        implicit = run_main(argv, capsys)
        assert run_main([*argv, "--beta-steps", "21"], capsys) == implicit
        assert implicit[0] == 0 and '"beta_steps": 21' in implicit[1]

    @pytest.mark.parametrize("steps", [5, MAX_BETA_STEPS])
    def test_other_step_counts_build_a_checked_grid(self, steps):
        args = build_parser().parse_args(["solve", "game.json", "--beta-steps", str(steps)])
        betas = _config_from_args(args).betas
        want = beta_grid(steps)
        assert type(betas) is type(want) and betas == want and betas.exact == want.exact


SAMPLE_DIR = pathlib.Path(__file__).resolve().parent.parent / "sample_games"
SAMPLES = sorted(path.stem for path in SAMPLE_DIR.glob("*.json"))
OPTION_SETS = ([], ["--spread-convention", "endpoint", "--attitude", "optimistic"],
               ["--threshold", "1", "--beta-steps", "5"], ["--threshold", "inf"])


def padded_12x12():
    """A saddle-free 2x2 core at interleaved positions, padded as the planted benchmark
    games are: each padding row lies strictly below a core row and each padding column
    strictly above a core column, so plain dominance deletes exactly the 20 padding lines."""
    core = {(2, 3): 3, (2, 8): -1, (7, 3): -2, (7, 8): 4}

    def center(i, j):
        pad_row, pad_col = i not in (2, 7), j not in (3, 8)
        base = core[(2, 7)[i % 2] if pad_row else i, (3, 8)[j % 2] if pad_col else j]
        return base + (pad_col - pad_row) * (1 + (i + j) % 4)

    return PayoffMatrix.of([[(center(i, j), (i + 2 * j) % 5 / 10) for j in range(12)]
                            for i in range(12)])


def strict_trace(out):
    return json.loads(out, parse_constant=refuse_constant)["trace"]


class TestEndToEnd:
    """Every command on the sample games, and on games larger than any sample."""

    @pytest.mark.parametrize("game", [*SAMPLES, "crisp"])
    def test_every_command_under_every_option_set(self, write_game, capsys, game):
        path = write_game(CRISP_3X2) if game == "crisp" else str(SAMPLE_DIR / f"{game}.json")
        # The irreducible sample is the one game the method cannot solve.
        solved = 2 if game == "irreducible" else 0
        assert run_main(["validate", path], capsys)[0] == 0
        for opts in OPTION_SETS:
            for command, code in (("solve", solved), ("reduce", 0)):
                # Machine mode is strict JSON; table mode exits as machine mode does.
                got, out, _ = run_main([command, path, "--format", "machine", *opts], capsys)
                strict_trace(out)
                assert (got, run_main([command, path, "--trace", *opts], capsys)[0]) == (code, code)
            assert run_main(["check", path, *opts], capsys)[0] == 0

    @pytest.mark.parametrize("game, solved, deleted", [
        ("curve", 0, 0), ("curve-negated-transpose", 0, 0), ("diagonal", 2, 0), ("padded", 0, 20),
    ])
    def test_larger_games(self, write_game, curve_game, diagonal_game, capsys,
                          game, solved, deleted):
        # The curves need the convex scan on both axes to prove nothing is dominated.
        curve = curve_game(32)
        path = write_game({
            "curve": curve,
            "curve-negated-transpose": PayoffMatrix.of(
                [[(-e.center, e.spread) for e in col] for col in curve.columns]),
            "diagonal": diagonal_game(16),
            "padded": padded_12x12(),
        }[game])
        code, out, _ = run_main(["solve", path, "--format", "machine"], capsys)
        strict_trace(out)
        assert code == solved
        code, out, _ = run_main(["reduce", path, "--format", "machine"], capsys)
        assert code == 0
        assert sum(step["deleted"] is not None for step in strict_trace(out)) == deleted
        # check passes every test of a solved game and gives the oracle value of any other.
        code, out, _ = run_main(["check", path], capsys)
        assert code == 0
        expected = ("oracle value center: ",) if solved else (
            "value match:  ok", "x guarantee:  ok", "y guarantee:  ok")
        assert all(f"\n{line}" in out for line in expected), out

    @pytest.mark.parametrize("command", ["solve", "reduce"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["2x32", "32x2"])
    def test_curves_at_the_grid_cap(self, write_game, curve_game, capsys, command, transpose):
        # The finest grid proves nothing dominated, as the default one does;
        # only the grid size in the config differs.
        curve = curve_game(32)
        if transpose:
            curve = PayoffMatrix.of([[(-e.center, e.spread) for e in col] for col in curve.columns])
        path = write_game(curve)
        docs = []
        for steps in (21, MAX_BETA_STEPS):
            code, out, _ = run_main(
                [command, path, "--format", "machine", "--beta-steps", str(steps)], capsys)
            doc = json.loads(out, parse_constant=refuse_constant)
            assert (code, doc["config"].pop("beta_steps")) == (0, steps)
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_check_at_the_oracle_cap(self, write_game, capsys):
        rng = random.Random(32)
        pm = PayoffMatrix.of([[(rng.randint(-200, 200) / 10, 0.1) for _ in range(32)]
                              for _ in range(32)])
        code, out, _ = run_main(["check", write_game(pm)], capsys)
        assert code == 0
        assert out.startswith("pipeline: not reducible") and "\noracle value center: " in out

    @pytest.mark.parametrize("argv", [
        ["solve", "GAME", "--trace"], ["reduce", "GAME", "--format", "machine"],
        ["rank", "0.3,0.5", "0.4,0.5"], ["validate", "GAME"], ["check", "GAME"],
    ], ids=lambda argv: argv[0])
    def test_each_command_runs_as_a_module(self, capsys, argv):
        argv = [str(SAMPLE_DIR / "simulation.json") if arg == "GAME" else arg for arg in argv]
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_main(argv, capsys)
