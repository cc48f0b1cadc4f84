"""The output checks accept a correct solution and reject tampered ones."""

import json
from fractions import Fraction as F

from fuzzygame import matrix, oracle, solver
from perfbench import checks, operations, run, workloads
from perfbench.workloads import Game

# Rows [3, -1], [-1, 1]: x = y = (1/3, 2/3), value 1/3.
CENTERS = ((3, -1), (-1, 1))
X = (F(1, 3), F(2, 3))
Y = (F(1, 3), F(2, 3))


def test_correct_solution_passes():
    assert checks.solution_problems(CENTERS, X, Y, F(1, 3)) == []


def test_shifted_probability_is_rejected():
    shifted = (F(1, 3) + F(1, 12), F(2, 3) - F(1, 12))  # still sums to 1
    assert checks.solution_problems(CENTERS, shifted, Y, F(1, 3))
    assert checks.solution_problems(CENTERS, X, shifted, F(1, 3))


def test_wrong_value_center_is_rejected():
    assert checks.solution_problems(CENTERS, X, Y, F(1, 3) + F(1, 1000))
    assert checks.solution_problems(CENTERS, X, Y, F(1, 3) - F(1, 1000))


def test_non_probability_vectors_are_rejected():
    assert checks.solution_problems(CENTERS, (F(1, 3), F(1, 3)), Y, F(1, 3))
    assert checks.solution_problems(CENTERS, (F(4, 3), F(-1, 3)), Y, F(1, 3))
    assert checks.solution_problems(CENTERS, (1 / 3, 2 / 3), Y, F(1, 3))  # inexact floats
    assert checks.solution_problems(CENTERS, X + (F(0),), Y, F(1, 3))


def test_deleted_strategies_must_be_exactly_the_padding():
    core = dict(core_rows=(1, 3), core_cols=(0, 2), shape=(4, 3))
    padding = [("row", 0), ("row", 2), ("col", 1)]
    assert checks.deletion_problems(padding, **core) == []
    assert checks.deletion_problems(padding[:2], **core)
    assert checks.deletion_problems(padding + [("row", 1)], **core)
    assert checks.deletion_problems(padding + [("row", 0)], **core)


def test_residual_must_be_the_kept_part_of_the_game():
    entries = (((1, 0.1), (2, 0.2)), ((3, 0.3), (4, 0.4)))
    residual = [[[3, 0.3], [4, 0.4]]]
    assert checks.residual_problems(residual, (["A2"], ["B1", "B2"]), entries, [1], [0, 1]) == []
    assert checks.residual_problems(residual, (["A1"], ["B1", "B2"]), entries, [1], [0, 1])
    assert checks.residual_problems([[[3, 0.3], [4, 0.5]]], (["A2"], ["B1", "B2"]),
                                    entries, [1], [0, 1])


def _cli_doc(x_exact, center_exact):
    return json.dumps({
        "kind": "mixed-2x2", "x": [], "x_exact": x_exact, "y": [], "y_exact": ["1/3", "2/3"],
        "value": {"center": 0.0, "spread": 0.0, "center_exact": center_exact,
                  "spread_exact": "0"},
        "trace": [], "config": {},
    })


def test_cli_output_checks_read_the_exact_fields():
    game = Game("", tuple(tuple((c, 0.0) for c in row) for row in CENTERS))
    _, problems = operations.judge_cli_solve(game, (0, _cli_doc(["1/3", "2/3"], "1/3"), ""))
    assert problems == []
    _, problems = operations.judge_cli_solve(game, (0, _cli_doc(["5/12", "7/12"], "1/3"), ""))
    assert problems
    _, problems = operations.judge_cli_solve(game, (0, _cli_doc(["1/3", "2/3"], "1/2"), ""))
    assert problems
    _, problems = operations.judge_cli_solve(game, (1, "", "error: boom"))
    assert problems == ["exit code 1"]


def test_unjudgeable_output_counts_as_a_failure():
    spec = run.WORKLOADS["mixed_random"]
    game = Game("", tuple(tuple((c, 0.0) for c in row) for row in CENTERS))
    ledger = run.Ledger(spec, [game])
    ledger.record(0, (0, "not json", ""), None)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_digest_is_order_sensitive():
    a, b = checks.canonical({"x": ["1"]}), checks.canonical({"x": ["0"]})
    assert checks.digest([a, b]) == checks.digest([a, b])
    assert checks.digest([a, b]) != checks.digest([b, a])


def _check_raw(game, not_reducible):
    """The raw result of a check_planted operation, with the solve optionally
    replaced by a NotReducibleError whose residual is the planted core."""
    pm = matrix.parse_matrix(game.text)
    oracle_solution = oracle.oracle_value(oracle.CenterGame.from_payoff(pm))
    try:
        solution = solver.solve_pipeline(pm)
    except solver.NotReducibleError as exc:
        return exc, oracle_solution
    if not_reducible:
        core = matrix.submatrix(pm, game.core_rows, game.core_cols)
        return solver.NotReducibleError(core, solution.trace), oracle_solution
    return solution, oracle.oracle_check(pm, solution)


def test_unsolved_2x2_core_is_rejected_on_check_planted():
    games = workloads.check_planted(5, 3)
    two, three = games[0], games[2]
    assert (len(two.core_rows), len(three.core_rows)) == (2, 3)
    assert operations.judge_check(two, _check_raw(two, False))[1] == []
    assert operations.judge_check(three, _check_raw(three, False))[1] == []
    _, problems = operations.judge_check(two, _check_raw(two, True))
    assert problems == ["planted 2x2 core was not solved"]
