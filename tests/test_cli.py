"""Command-line front end: exit codes, table and machine output, streams."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fuzzygame
from fuzzygame import MAX_BETA_STEPS, parse_matrix, serialize_matrix, solve_pipeline
from fuzzygame.cli import main


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


NON_FINITE_GAMES = {
    "nan-center": '{"entries": [[[1, 0.1], [NaN, 0.1]], [[2, 0.1], [0, 0.1]]]}',
    "nan-spread": '{"entries": [[[1, 0.1], [3, NaN]], [[2, 0.1], [0, 0.1]]]}',
    "overflow": '{"entries": [[[1, 0.1], [1e999, 0.1]], [[2, 0.1], [0, 0.1]]]}',
}


class TestInputErrors:
    @pytest.mark.parametrize("command", ["solve", "reduce", "validate", "check"])
    @pytest.mark.parametrize("text", NON_FINITE_GAMES.values(), ids=NON_FINITE_GAMES.keys())
    def test_non_finite_number_exits_1(self, write_game, capsys, command, text):
        code = main([command, write_game(text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: entries[1][2]: ")
        assert captured.out == ""

    def test_non_finite_number_prints_no_traceback(self, write_game):
        src = os.path.dirname(os.path.dirname(fuzzygame.__file__))
        path = write_game(NON_FINITE_GAMES["nan-center"])
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzygame.cli", "solve", path],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

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
