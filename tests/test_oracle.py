"""Exact center-game oracle: the simplex solver against known games."""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzygame import (
    CenterGame,
    FuzzyNum,
    GameTooLargeError,
    PayoffMatrix,
    col_dominates,
    oracle_check,
    oracle_value,
    row_dominates,
    solve_pipeline,
    submatrix,
)
from fuzzygame.solver import Solution, SolutionKind


def game(rows):
    return CenterGame.of(rows)


class TestOracleValue:
    def test_mixed_2x2(self):
        sol = oracle_value(game([[15, 16], [20, 5]]))
        assert sol.value == F(245, 16)
        assert sol.x == (F(15, 16), F(1, 16))
        assert sol.y == (F(11, 16), F(5, 16))

    def test_single_strategy(self):
        sol = oracle_value(game([[7]]))
        assert sol.value == 7
        assert sol.x == (1,)
        assert sol.y == (1,)

    def test_pure_saddle(self):
        sol = oracle_value(game([[19, 16], [0, 5]]))
        assert sol.value == 16
        assert sol.x == (1, 0)
        assert sol.y == (0, 1)

    def test_guarantees_are_exact(self):
        rng = random.Random(5150)
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            g = game([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            sol = oracle_value(g)
            for j in range(n):
                assert sum(sol.x[i] * g.grid[i][j] for i in range(m)) >= sol.value
            for i in range(m):
                assert sum(g.grid[i][j] * sol.y[j] for j in range(n)) <= sol.value

    def test_size_cap(self):
        for m, n in ((2, 33), (33, 2)):
            with pytest.raises(GameTooLargeError, match=f"{m}x{n} exceeds the 32x32 oracle cap"):
                oracle_value(game([[0] * n] * m))
        identity_9x9 = game([[int(i == j) for j in range(9)] for i in range(9)])
        assert oracle_value(identity_9x9).value == F(1, 9)


class TestCenterGameCells:
    def test_int_cells_give_exact_fractions(self):
        sol = oracle_value(CenterGame(((1, 2), (3, 0))))
        assert sol.value == F(3, 2)
        assert sol.x == (F(3, 4), F(1, 4))
        assert all(type(v) is F for v in (sol.value, *sol.x, *sol.y))

    def test_float_cells_equal_their_exact_fractions(self):
        rows = ((0.5, 2.0), (3.0, 0.1))
        assert CenterGame(rows) == CenterGame.of(rows)
        assert oracle_value(CenterGame(rows)) == oracle_value(CenterGame.of(rows))

    def test_malformed_grid_is_refused(self):
        for grid, message in (((), "one row and one column"), (((),), "one row and one column"),
                              (((1, 2), (3,)), "must be rectangular")):
            with pytest.raises(ValueError, match=message):
                CenterGame(grid)

    @pytest.mark.parametrize("cell", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_cells_are_refused(self, cell):
        with pytest.raises(ValueError, match="is not a finite number"):
            CenterGame.of([[cell]])
        with pytest.raises(ValueError, match="is not a finite number"):
            CenterGame(((1, 2), (3, cell)))


class TestOracleProperties:
    def test_role_swap_negates_value(self):
        rng = random.Random(808)
        for _ in range(100):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            swapped = [[-rows[i][j] for i in range(m)] for j in range(n)]
            assert oracle_value(game(swapped)).value == -oracle_value(game(rows)).value

    def test_monotone_in_single_entries(self):
        rng = random.Random(909)
        for _ in range(100):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            before = oracle_value(game(rows)).value
            i, j = rng.randrange(m), rng.randrange(n)
            rows[i][j] += rng.randint(1, 5)
            assert oracle_value(game(rows)).value >= before

    def test_weak_dominance_deletion_preserves_value(self):
        rng = random.Random(1010)
        checked = 0
        while checked < 60:
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            pm = PayoffMatrix.of(
                [[(rng.randint(-5, 5), 0.1) for _ in range(n)] for _ in range(m)]
            )
            full = oracle_value(CenterGame.from_payoff(pm)).value
            for r in range(m):
                for i in range(m):
                    if i != r and row_dominates(pm, i, r) is not None:
                        rest = submatrix(pm, [k for k in range(m) if k != r], range(n))
                        assert oracle_value(CenterGame.from_payoff(rest)).value == full
                        checked += 1
            for s in range(n):
                for j in range(n):
                    if j != s and col_dominates(pm, j, s) is not None:
                        rest = submatrix(pm, range(m), [k for k in range(n) if k != s])
                        assert oracle_value(CenterGame.from_payoff(rest)).value == full
                        checked += 1

    def test_agrees_with_2x2_closed_form(self):
        # spot check; the full 10k sweep lives in the acceptance suite
        rng = random.Random(1111)
        from fuzzygame import solve_2x2

        count = 0
        while count < 200:
            rows = [[rng.randint(-20, 20) for _ in range(2)] for _ in range(2)]
            pm = PayoffMatrix.of([[(c, 0.1) for c in row] for row in rows])
            sol = solve_2x2(pm)
            if sol.kind is not SolutionKind.MIXED_2X2:
                continue
            oracle = oracle_value(CenterGame.of(rows))
            assert F(sol.value.center) == oracle.value
            assert sol.x == oracle.x and sol.y == oracle.y
            count += 1


class TestOracleCheck:
    def test_simulation_pipeline_passes(self, simulation_3x4):
        report = oracle_check(simulation_3x4, solve_pipeline(simulation_3x4))
        assert report.passed
        assert report.oracle_center == F(245, 16)

    def test_printed_y_variant_fails_guarantee(self, simulation_3x4):
        # A column mix of (0, 1/16, 0, 15/16) concedes 255/16 > 245/16 on row 2.
        good = solve_pipeline(simulation_3x4)
        bad = Solution(
            x=good.x,
            y=(F(0), F(1, 16), F(0), F(15, 16)),
            value=good.value,
            kind=good.kind,
            trace=(),
        )
        report = oracle_check(simulation_3x4, bad)
        assert not report.y_guarantee
        assert report.y_ceiling == F(255, 16)
        assert report.value_match  # only the guarantee is broken
        assert not report.passed

    def test_default_demands_exact_value(self, simulation_3x4):
        # Off by 1e-12: the former default tolerance of 1e-9 passed this.
        good = solve_pipeline(simulation_3x4)
        off = Solution(
            good.x, good.y, FuzzyNum(F(good.value.center) + F(1, 10**12), good.value.spread),
            good.kind, (),
        )
        report = oracle_check(simulation_3x4, off)
        assert not report.value_match and not report.passed

    def test_saddle_game_passes(self, saddle_2x2):
        report = oracle_check(saddle_2x2, solve_pipeline(saddle_2x2))
        assert report.passed
        assert report.oracle_center == 16


class TestSolverAgainstOracleBeyondEight:
    def test_planted_games_9_to_16(self, planted_game):
        for m in range(9, 17):
            for n in range(9, 17):
                pm = planted_game(m * 100 + n, m, n)
                sol = solve_pipeline(pm)
                assert sol.kind is SolutionKind.MIXED_2X2
                assert oracle_check(pm, sol).passed



def _runtime_solver_imports(source):
    # Lines that import the solver module outside an ``if TYPE_CHECKING:`` block.
    tree = ast.parse(source)
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if id(node) not in guarded and any("solver" in n.split(".") for n in names):
            lines.append(node.lineno)
    return lines


def test_oracle_imports_the_solver_only_for_type_checking():
    # The oracle checks the solver, so it must not depend on solver code at run time.
    assert _runtime_solver_imports("from .solver import Solution\n") == [1]
    assert _runtime_solver_imports("if TYPE_CHECKING:\n    from . import solver\n") == []
    source = Path(__file__).resolve().parents[1] / "src" / "fuzzygame" / "oracle.py"
    assert _runtime_solver_imports(source.read_text()) == []
