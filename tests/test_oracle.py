"""Exact center-game oracle: the simplex solver against known games."""

import ast
import random
import re
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from fuzzygame import (
    CenterGame,
    FuzzyNum,
    GameTooLargeError,
    NotReducibleError,
    PayoffMatrix,
    col_dominates,
    oracle_check,
    oracle_value,
    parse_matrix,
    row_dominates,
    solve_pipeline,
    submatrix,
)
from fuzzygame import oracle as oracle_module
from fuzzygame.oracle import OracleReport, center_value
from fuzzygame.solver import Solution, SolutionKind


def game(rows):
    return CenterGame.of(rows)


@pytest.fixture
def simplex_calls(monkeypatch):
    """A list that gains one entry each time the oracle's simplex runs."""
    calls = []
    simplex = oracle_module._simplex

    def counted(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(oracle_module, "_simplex", counted)
    return calls


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

    @pytest.mark.parametrize("cell", ["1/2", " 3 ", "0.1", True, False, None, Decimal("0.1"), [1]])
    def test_cells_that_are_not_numbers_are_refused(self, cell):
        # Fraction() would read "1/2" as 1/2, " 3 " as 3, "0.1" as 1/10 and True as 1.
        message = re.escape(f"center game cell {cell!r} is not an int, float or Fraction")
        with pytest.raises(ValueError, match=message):
            CenterGame.of([[1, cell]])
        with pytest.raises(ValueError, match=message):
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

    def test_printed_y_variant_fails_guarantee(self, simulation_3x4, simplex_calls):
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
        assert len(simplex_calls) == 1  # the certificate failed, so the LP referees

    def test_default_demands_exact_value(self, simulation_3x4, simplex_calls):
        # Off by 1e-12: the former default tolerance of 1e-9 passed this.
        good = solve_pipeline(simulation_3x4)
        off = Solution(
            good.x, good.y, FuzzyNum(F(good.value.center) + F(1, 10**12), good.value.spread),
            good.kind, (),
        )
        report = oracle_check(simulation_3x4, off)
        assert not report.value_match and not report.passed
        assert len(simplex_calls) == 1

    def test_a_certified_answer_runs_no_simplex(
        self, simulation_3x4, saddle_2x2, planted_game, simplex_calls
    ):
        for pm in (simulation_3x4, saddle_2x2, planted_game(12, 12, 12)):
            assert oracle_check(pm, solve_pipeline(pm)).passed
        assert simplex_calls == []

    @pytest.mark.parametrize("rows, x, y, center", [
        (((1, 1), (1, 1)), (2, 0), (1, 0), 2),  # x sums to 2
        (((0, 0), (1, 1)), (-1, 2), (1, 0), 2),  # x has a negative weight
        (((1, 1), (1, 1)), (1, 0), (F(1, 2), 0), F(1, 2)),  # y sums to 1/2
        (((1, 2), (1, 2)), (1, 0), (2, -1), 0),  # y has a negative weight
    ])
    def test_a_bracket_of_improper_strategies_proves_nothing(self, simplex_calls, rows, x, y, center):
        # Each pair brackets the wrong center (floor >= center >= ceiling), but the
        # bracket is a proof only for probability vectors; every game's value is 1.
        pm = PayoffMatrix.of([[(c, 0.1) for c in row] for row in rows])
        report = oracle_check(pm, SimpleNamespace(x=x, y=y, value=FuzzyNum(center, 0.1)))
        assert report.x_floor >= center >= report.y_ceiling
        assert (report.oracle_center, report.value_match) == (1, False)
        assert len(simplex_calls) == 1

    def test_a_float_mix_is_summed_exactly(self, simplex_calls):
        # Solution accepts (0.1, 0.9): its float sum is 1.0, its exact sum 1 + 2**-55,
        # so on the all-ones game x's floor is 1 + 2**-55 and brackets that center.
        pm = PayoffMatrix.of([[(1, 0.1), (1, 0.1)], [(1, 0.1), (1, 0.1)]])
        center = 1 + F(1, 2**55)
        sol = Solution((0.1, 0.9), (1, 0), FuzzyNum(center, 0.1), SolutionKind.MIXED_2X2, ())
        report = oracle_check(pm, sol)
        assert report.x_floor == center
        assert (report.oracle_center, report.value_match) == (1, False)
        assert len(simplex_calls) == 1

    def test_saddle_game_passes(self, saddle_2x2):
        report = oracle_check(saddle_2x2, solve_pipeline(saddle_2x2))
        assert report.passed
        assert report.oracle_center == 16

    def test_float_strategies_are_read_exactly(self):
        # Solution accepts float strategies; the oracle reads their exact ratios.
        pm = PayoffMatrix.of([[(1, 0.1), (0, 0.1)], [(0, 0.1), (1, 0.1)]])
        half = Solution((0.5, 0.5), (0.5, 0.5), FuzzyNum(0.5, 0.1), SolutionKind.MIXED_2X2, ())
        report = oracle_check(pm, half)
        assert report.passed
        assert (report.oracle_center, report.x_floor, report.y_ceiling) == (F(1, 2),) * 3

    def test_int_strategies_read_as_their_fractions(self):
        pm = PayoffMatrix.of([[(1, 0.1), (0, 0.1)], [(0, 0.1), (1, 0.1)]])

        def report(x, y):
            return oracle_check(pm, Solution(x, y, FuzzyNum(0.5, 0.1), SolutionKind.MIXED_2X2, ()))

        exact = report((F(1), F(0)), (F(0), F(1)))
        assert report((1, 0), (0, 1)) == exact
        assert not exact.passed and (exact.x_floor, exact.y_ceiling) == (0, 1)


    def test_strategies_of_the_wrong_length_are_refused(self):
        # A 2x2 solution against a 3x3 game: zipping would drop the third row and
        # column and report y_guarantee=True for a y that has no third entry.
        small = PayoffMatrix.of([[(1, 0.1), (7, 0.1)], [(6, 0.1), (2, 0.1)]])
        sol = solve_pipeline(small)
        big = PayoffMatrix.of([[(c, 0.1) for c in row] for row in ((1, 7, 0), (6, 2, 0), (9, 9, 9))])
        with pytest.raises(ValueError, match="have 2 and 2 entries; the matrix is 3x3"):
            oracle_check(big, sol)
        wide = PayoffMatrix.of([[(1, 0.1), (7, 0.1), (0, 0.1)], [(6, 0.1), (2, 0.1), (0, 0.1)]])
        with pytest.raises(ValueError, match="have 2 and 2 entries; the matrix is 2x3"):
            oracle_check(wide, sol)
        tall = PayoffMatrix.of([[(1, 0.1), (7, 0.1)], [(6, 0.1), (2, 0.1)], [(0, 0.1), (0, 0.1)]])
        with pytest.raises(ValueError, match="have 2 and 2 entries; the matrix is 3x2"):
            oracle_check(tall, sol)

    def test_oracle_center_is_oracle_value(self):
        # oracle_check reads the centers onto the integer grid itself; its value
        # must be the one oracle_value finds on the CenterGame of the same matrix.
        rng = random.Random(2525)
        centers = (
            lambda: rng.randint(-20, 20),
            lambda: rng.randint(-200, 200) / 10,
            lambda: F(rng.randint(-60, 60), rng.choice((1, 3, 4, 7))),
        )
        for k in range(150):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            center = centers[k % 3]
            pm = PayoffMatrix.of([[(center(), 0.5) for _ in range(n)] for _ in range(m)])
            oracle = oracle_value(CenterGame.from_payoff(pm))
            sol = Solution(oracle.x, oracle.y, FuzzyNum(oracle.value, 0.5), SolutionKind.MIXED_2X2, ())
            report = oracle_check(pm, sol)
            assert report.oracle_center == oracle.value
            assert report.passed

    @pytest.mark.parametrize("m, n", [(33, 2), (2, 33)])
    def test_size_cap_comes_before_any_cell(self, monkeypatch, m, n):
        pm = PayoffMatrix.of([[(0, 0.1)] * n] * m)
        sol = Solution((F(1),) + (F(0),) * (m - 1), (F(1),) + (F(0),) * (n - 1),
                       FuzzyNum(0, 0.1), SolutionKind.PURE_SADDLE, ())

        def unread(self):
            raise AssertionError("a cell was read before the size check")

        monkeypatch.setattr(PayoffMatrix, "centers", unread)
        monkeypatch.setattr(PayoffMatrix, "entry", unread)
        with pytest.raises(GameTooLargeError, match=f"{m}x{n} exceeds the 32x32 oracle cap"):
            oracle_check(pm, sol)


class TestSolverAgainstOracleBeyondEight:
    def test_planted_games_9_to_16(self, planted_game):
        for m in range(9, 17):
            for n in range(9, 17):
                pm = planted_game(m * 100 + n, m, n)
                sol = solve_pipeline(pm)
                assert sol.kind is SolutionKind.MIXED_2X2
                report = oracle_check(pm, sol)
                assert report.passed
                assert report.oracle_center == center_value(pm)


def _planted_3x3_core(rng, m, n):
    # An m x n game padded, as in conftest's planted games, around a random 3x3 core
    # with centers in [10, 20]: every padding line is strictly dominated.
    core_rows, core_cols = rng.sample(range(m), 3), rng.sample(range(n), 3)
    core = [[rng.randint(10, 20) for _ in range(3)] for _ in range(3)]

    def center(i, j):
        if i in core_rows and j in core_cols:
            return core[core_rows.index(i)][core_cols.index(j)]
        if i in core_rows:
            return rng.randint(25, 30)
        return rng.randint(0, 5) if j in core_cols else rng.randint(6, 9)

    return PayoffMatrix.of(
        [[(center(i, j), rng.randint(0, 50) / 100) for j in range(n)] for i in range(m)]
    )


class TestOneSolve:
    def test_each_value_path_runs_the_simplex_once(self, simulation_3x4, simplex_calls):
        oracle_value(CenterGame.from_payoff(simulation_3x4))
        assert len(simplex_calls) == 1
        center_value(simulation_3x4)
        assert len(simplex_calls) == 2

    def test_center_value_is_oracle_value_on_not_reducible_games(self):
        sample = Path(__file__).resolve().parents[1] / "sample_games" / "irreducible.json"
        games = [parse_matrix(sample.read_text())]
        rng = random.Random(31)
        while len(games) < 21:
            pm = _planted_3x3_core(rng, rng.randint(7, 16), rng.randint(7, 16))
            try:
                solve_pipeline(pm)
            except NotReducibleError:
                games.append(pm)
        values = [center_value(pm) for pm in games]
        assert all(type(value) is F for value in values)
        assert values == [oracle_value(CenterGame.from_payoff(pm)).value for pm in games]
        assert values[0] == 0  # irreducible.json: 3 on the diagonal, -1 off it

    @pytest.mark.parametrize("solve", [
        pytest.param(lambda pm: oracle_value(CenterGame.from_payoff(pm)), id="oracle_value"),
        pytest.param(center_value, id="center_value"),
    ])
    def test_simplex_raises_when_its_proof_fails(self, monkeypatch, simulation_3x4, solve):
        duality = oracle_module._duality

        def refuted(*args):
            return (*duality(*args)[:2], False)

        monkeypatch.setattr(oracle_module, "_duality", refuted)
        with pytest.raises(RuntimeError, match="simplex optimum failed exact certification"):
            solve(simulation_3x4)


def _lp_first_report(pm, solution):
    # The report of a check that runs the simplex first: the LP value, and the
    # floor and ceiling summed in Fractions from the cells.
    oracle_center = center_value(pm)
    centers = [[F(c) for c in row] for row in pm.centers()]
    x, y = [F(p) for p in solution.x], [F(q) for q in solution.y]
    x_floor = min(sum(p * row[j] for p, row in zip(x, centers)) for j in range(pm.cols))
    y_ceiling = max(sum(c * q for c, q in zip(row, y)) for row in centers)
    solution_center = F(solution.value.center)
    return OracleReport(
        oracle_center, solution_center, x_floor, y_ceiling,
        solution_center == oracle_center, x_floor >= oracle_center, y_ceiling <= oracle_center,
    )


def test_certificate_reports_what_the_lp_first_check_reported(planted_game):
    # Planted 7x7 to 16x16 and random 2x2 to 8x8 games, each with integer,
    # binary-float tenth and Fraction centers; each solved game is checked with
    # its own answer (certified) and with its value center off by 1/7 (the LP).
    rng = random.Random(30)
    recenter = (int, lambda c: c / 10, lambda c: F(c, 7))
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: rng.randint(-90, 90) / 10,
        lambda: F(rng.randint(-30, 30), rng.choice((1, 3, 7))),
    )
    solved = [0, 0]
    for k in range(330):
        kind = k % 3
        if k % 2:
            m, n = rng.randint(7, 16), rng.randint(7, 16)
            planted = planted_game(k, m, n)
            pm = PayoffMatrix.of(
                [[(recenter[kind](e.center), e.spread) for e in row] for row in planted.entries]
            )
        else:
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            pm = PayoffMatrix.of([[(draws[kind](), 0.25) for _ in range(n)] for _ in range(m)])
        try:
            sol = solve_pipeline(pm)
        except NotReducibleError:
            continue
        off = SimpleNamespace(x=sol.x, y=sol.y, value=FuzzyNum(F(sol.value.center) + F(1, 7), 0))
        report = oracle_check(pm, sol)
        assert report == _lp_first_report(pm, sol) and report.passed
        assert oracle_check(pm, off) == _lp_first_report(pm, off)
        solved[k % 2] += 1
    assert solved[1] == 165 and solved[0] >= 50 and sum(solved) >= 200


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
