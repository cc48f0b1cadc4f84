"""Saddle detection, dominance ops, 2x2 solve, sub-games, and the pipeline."""

import collections
import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from fuzzygame import (
    Axis,
    CenterGame,
    FuzzyNum,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    ReductionStep,
    ShapeError,
    SolutionKind,
    SpreadConvention,
    StepKind,
    StrategyIndex,
    MAX_BETA_STEPS,
    beta_grid,
    col_dominates,
    convex_col_dominates,
    convex_row_dominates,
    enumerate_subgames,
    find_saddle,
    oracle_value,
    reduce_dominance,
    row_dominates,
    solve_2x2,
    solve_pipeline,
    submatrix,
)
from fuzzygame.solver import Solution, _assert_expected_payoff, _lines


def random_matrix(rng, m, n, lo=-20, hi=20, max_spread=0.5):
    return PayoffMatrix.of(
        [[(rng.randint(lo, hi), rng.uniform(0, max_spread)) for _ in range(n)] for _ in range(m)]
    )


class TestFindSaddle:
    def test_simulation_has_none(self, simulation_3x4):
        # maximin 15 vs minimax 16
        assert find_saddle(simulation_3x4) is None

    def test_saddle_cell_and_value(self, saddle_2x2):
        assert find_saddle(saddle_2x2) == (0, 1, FuzzyNum(16, 0.1))

    def test_constant_matrix(self):
        pm = PayoffMatrix.of([[(4, 0.2)] * 3] * 2)
        found = find_saddle(pm)
        assert found is not None
        assert found[2] == FuzzyNum(4, 0.2)

    def test_tied_cells_resolved_by_attitude(self):
        from fuzzygame import Attitude

        pm = PayoffMatrix.of([[(5, 2), (5, 1)], [(3, 1), (2, 1)]])
        assert find_saddle(pm, Attitude.PESSIMISTIC)[2] == FuzzyNum(5, 1)
        assert find_saddle(pm, Attitude.OPTIMISTIC)[2] == FuzzyNum(5, 2)


class TestRowDominance:
    def test_second_row_beats_third(self, dominance_3x3):
        evidence = row_dominates(dominance_3x3, 1, 2, threshold=1)
        assert evidence is not None
        assert evidence[0] == 15
        assert evidence[1] >= 1
        assert evidence[2] == 2

    def test_duplicate_rows_delete_higher_index(self):
        pm = PayoffMatrix.of([[(1, 0.1), (2, 0.2)], [(1, 0.1), (2, 0.2)]])
        assert row_dominates(pm, 0, 1) is not None
        assert row_dominates(pm, 1, 0) is None

    def test_simulation_needs_weak_rule(self, simulation_3x4):
        # column 2 ties on centers (15 vs 15), so the index there is 0
        evidence = row_dominates(simulation_3x4, 1, 0, threshold=0)
        assert evidence == (27.5, 0.0, 42.0, 36.0)
        assert row_dominates(simulation_3x4, 1, 0, threshold=1) is None

    def test_non_dominating_pair(self, dominance_3x3):
        assert row_dominates(dominance_3x3, 0, 1) is None

    def test_self_comparison_rejected(self, dominance_3x3):
        with pytest.raises(ValueError):
            row_dominates(dominance_3x3, 1, 1)

    def test_out_of_range(self, dominance_3x3):
        with pytest.raises(IndexError):
            row_dominates(dominance_3x3, 0, 5)

    def test_crisp_entries_give_infinite_index(self):
        pm = PayoffMatrix.of([[(3, 0)], [(1, 0)]])
        assert row_dominates(pm, 0, 1) == (math.inf,)


class TestColDominance:
    def test_first_column_beats_third(self, dominance_3x3):
        reduced = submatrix(dominance_3x3, (0, 1), (0, 1, 2))
        evidence = col_dominates(reduced, 0, 2, threshold=1)
        # per-entry indices from the facing spreads: (2-1)/(0.2+0.1), (7-6)/(0.2+0.3)
        assert evidence == pytest.approx((10 / 3, 2.0), abs=1e-12)

    def test_simulation_fourth_column_beats_third(self, simulation_3x4):
        after_row = submatrix(simulation_3x4, (1, 2), range(4))
        evidence = col_dominates(after_row, 3, 2, threshold=1)
        assert evidence is not None
        assert all(di >= 1 for di in evidence)

    def test_self_comparison_rejected(self, dominance_3x3):
        with pytest.raises(ValueError):
            col_dominates(dominance_3x3, 1, 1)


class TestConvexDominance:
    def test_blend_of_lower_rows_beats_first(self, convex_3x3):
        hit = convex_row_dominates(convex_3x3, 1, 2, 0, betas=(0.5,))
        assert hit is not None
        beta, evidence = hit
        assert beta == 0.5
        assert len(evidence) == 3

    def test_virtual_row_entries(self, convex_3x3):
        # beta = 0.5 blend of rows 2 and 3
        blend = [
            (
                0.5 * convex_3x3.entry(1, j).center + 0.5 * convex_3x3.entry(2, j).center,
                0.5 * convex_3x3.entry(1, j).spread + 0.5 * convex_3x3.entry(2, j).spread,
            )
            for j in range(3)
        ]
        assert blend[0] == pytest.approx((1, 0.35), abs=1e-12)
        assert blend[1] == pytest.approx((2, 0.35), abs=1e-12)
        assert blend[2] == pytest.approx((2, 0.30), abs=1e-12)

    def test_beta_one_is_plain_row_p(self):
        pm = PayoffMatrix.of([[(0, 0.1)] * 2, [(5, 0.1)] * 2, [(1, 0.1)] * 2])
        hit = convex_row_dominates(pm, 1, 2, 0, betas=(1.0,))
        assert hit is not None and hit[0] == 1.0
        assert row_dominates(pm, 1, 0) is not None

    def test_beta_zero_is_plain_row_q(self):
        pm = PayoffMatrix.of([[(0, 0.1)] * 2, [(5, 0.1)] * 2, [(1, 0.1)] * 2])
        hit = convex_row_dominates(pm, 2, 1, 0, betas=(0.0,))
        assert hit is not None and hit[0] == 0.0

    def test_blend_of_columns_beats_third(self, convex_3x3):
        after_row = submatrix(convex_3x3, (1, 2), (0, 1, 2))
        hit = convex_col_dominates(after_row, 0, 1, 2, alphas=(0.5,))
        assert hit is not None
        alpha, evidence = hit
        assert alpha == 0.5
        blend = [
            (
                0.5 * after_row.entry(i, 0).center + 0.5 * after_row.entry(i, 1).center,
                0.5 * after_row.entry(i, 0).spread + 0.5 * after_row.entry(i, 1).spread,
            )
            for i in range(2)
        ]
        assert blend[0] == pytest.approx((2, 0.4), abs=1e-12)
        assert blend[1] == pytest.approx((1, 0.3), abs=1e-12)

    def test_indices_must_be_distinct(self, convex_3x3):
        with pytest.raises(ValueError):
            convex_row_dominates(convex_3x3, 1, 1, 0)

    def test_empty_grid_rejected(self, convex_3x3):
        with pytest.raises(ValueError, match="convex coefficient grid must not be empty"):
            convex_row_dominates(convex_3x3, 1, 2, 0, ())

    def test_no_coefficient_works(self, subgame_2x3):
        assert convex_col_dominates(subgame_2x3, 0, 1, 2, beta_grid()) is None


class TestBetaGrid:
    def test_default_tries_half_first(self):
        grid = beta_grid()
        assert grid[0] == 0.5
        assert len(grid) == 21
        assert set(grid) == {i / 20 for i in range(21)}

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            beta_grid(1)

    def test_cap_is_inclusive(self):
        grid = beta_grid(MAX_BETA_STEPS)
        assert len(grid) == MAX_BETA_STEPS and grid[0] == 0.5

    def test_over_cap_rejected_before_allocating(self):
        # A grid of 10**15 floats would not fit in memory: the check must come first.
        for steps in (MAX_BETA_STEPS + 1, 10**15):
            with pytest.raises(ValueError, match="at most"):
                beta_grid(steps)


class TestSolve2x2:
    def test_first_subgame_value(self):
        pm = PayoffMatrix.of([[(19, 0.2), (15, 0.4)], [(0, 0.2), (20, 0.4)]])
        sol = solve_2x2(pm)
        assert F(sol.value.center) == F(95, 6)
        assert sol.x == (F(5, 6), F(1, 6))
        assert sol.y == (F(5, 24), F(19, 24))

    def test_final_simulation_subgame(self):
        pm = PayoffMatrix.of([[(15, 0.5), (16, 0.1)], [(20, 0.2), (5, 0.4)]])
        sol = solve_2x2(pm)
        assert sol.x == (F(15, 16), F(1, 16))
        assert sol.y == (F(11, 16), F(5, 16))
        assert F(sol.value.center) == F(245, 16)

    def test_saddle_gives_pure_solution(self, saddle_2x2):
        sol = solve_2x2(saddle_2x2)
        assert sol.kind is SolutionKind.PURE_SADDLE
        assert sol.x == (1, 0)
        assert sol.y == (0, 1)
        assert sol.value == FuzzyNum(16, 0.1)
        assert sol.trace[0].kind is StepKind.SADDLE_FOUND

    def test_expected_spread_is_mix_of_entry_spreads(self):
        pm = PayoffMatrix.of([[(15, 0.5), (16, 0.1)], [(20, 0.2), (5, 0.4)]])
        sol = solve_2x2(pm, SpreadConvention.EXPECTED)
        x, y = sol.x, sol.y
        manual = sum(
            x[i] * y[j] * F(pm.entry(i, j).spread) for i in range(2) for j in range(2)
        )
        assert F(sol.value.spread) == manual
        assert float(sol.value.spread) == pytest.approx(0.36796875, abs=1e-12)

    def test_endpoint_spread_convention(self):
        pm = PayoffMatrix.of([[(19, 0.2), (15, 0.4)], [(0, 0.2), (20, 0.4)]])
        sol = solve_2x2(pm, SpreadConvention.ENDPOINT)
        b = [[F(pm.entry(i, j).center) + F(pm.entry(i, j).spread) for j in (0, 1)] for i in (0, 1)]
        expected = (b[0][0] * b[1][1] - b[0][1] * b[1][0]) / (
            b[0][0] + b[1][1] - b[0][1] - b[1][0]
        ) - F(95, 6)
        assert F(sol.value.spread) == expected

    def test_endpoint_falls_back_to_expected(self):
        # Right endpoints [[1, 1], [1, 1]] make the endpoint denominator 0.
        pm = PayoffMatrix.of([[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
        sol = solve_2x2(pm, SpreadConvention.ENDPOINT)
        assert sol.x == sol.y == (F(1, 2), F(1, 2))
        assert sol.value.spread == F(1, 2)
        assert type(sol.value.spread) is F
        assert sol.value == solve_2x2(pm, SpreadConvention.EXPECTED).value

    def test_endpoint_spread_clamped_at_zero(self):
        # descending spreads push the endpoint formula below the center
        pm = PayoffMatrix.of([[(0, 0.0), (2, 2.0)], [(3, 3.0), (1, 0.0)]])
        sol = solve_2x2(pm, SpreadConvention.ENDPOINT)
        assert sol.value.spread >= 0

    def test_wrong_shape(self, subgame_2x3):
        with pytest.raises(ShapeError):
            solve_2x2(subgame_2x3)

    def test_expected_spread_nonnegative_randomly(self):
        rng = random.Random(24)
        for _ in range(200):
            pm = random_matrix(rng, 2, 2)
            assert solve_2x2(pm).value.spread >= 0


class TestEnumerateSubgames:
    def test_three_candidate_values(self, subgame_2x3):
        enum = enumerate_subgames(subgame_2x3)
        centers = [F(c.solution.value.center) for c in enum.candidates]
        assert centers == [F(95, 6), F(16), F(245, 16)]
        assert enum.chosen == (1, 2)
        assert enum.axis is Axis.COL

    def test_saddle_candidate_participates(self, subgame_2x3):
        enum = enumerate_subgames(subgame_2x3)
        middle = enum.candidates[1].solution
        assert middle.kind is SolutionKind.PURE_SADDLE
        assert middle.value == FuzzyNum(16, 0.1)

    def test_mx2_selects_greatest_center(self):
        pm = PayoffMatrix.of([[(0, 0.1), (2, 0.1)], [(3, 0.1), (1, 0.1)], [(-5, 0.1), (9, 0.1)]])
        enum = enumerate_subgames(pm)
        assert enum.axis is Axis.ROW
        chosen = next(c for c in enum.candidates if c.pair == enum.chosen)
        best = max(F(c.solution.value.center) for c in enum.candidates)
        assert F(chosen.solution.value.center) == best

    def test_2x2_input_is_a_shape_error(self, saddle_2x2):
        with pytest.raises(ShapeError):
            enumerate_subgames(saddle_2x2)


class TestReduceDominance:
    def test_worked_two_step_reduction(self, dominance_3x3):
        result = reduce_dominance(dominance_3x3)
        assert result.residual == PayoffMatrix.of(
            [[(1, 0.2), (7, 0.3)], [(6, 0.2), (2, 0.1)]],
            row_labels=["A1", "A2"],
            col_labels=["B1", "B2"],
        )
        kinds = [s.kind for s in result.trace]
        assert kinds == [StepKind.ROW_DOMINANCE, StepKind.COL_DOMINANCE]
        assert result.trace[0].deleted == StrategyIndex(Axis.ROW, 2)
        assert result.trace[1].deleted == StrategyIndex(Axis.COL, 2)

    def test_convex_reduction_chain(self, convex_3x3):
        result = reduce_dominance(convex_3x3)
        kinds = [s.kind for s in result.trace]
        assert kinds == [StepKind.CONVEX_ROW_DOMINANCE, StepKind.CONVEX_COL_DOMINANCE]
        assert result.trace[0].deleted == StrategyIndex(Axis.ROW, 0)
        assert result.trace[1].deleted == StrategyIndex(Axis.COL, 2)
        assert result.residual == PayoffMatrix.of(
            [[(3, 0.5), (1, 0.3)], [(-1, 0.2), (3, 0.4)]],
            row_labels=["A2", "A3"],
            col_labels=["B1", "B2"],
        )

    def test_already_reduced_is_fixpoint(self):
        pm = PayoffMatrix.of([[(1, 0.2), (7, 0.3)], [(6, 0.2), (2, 0.1)]])
        result = reduce_dominance(pm)
        assert result.residual == pm
        assert result.trace == ()

    def test_nan_index_does_not_pass_a_positive_threshold(self):
        # Entries near the float maximum overflow A1's index over A2 in the
        # first column to inf/inf in floats; its exact value, 1.8/3.4 = 9/17,
        # is below 0.6.
        pm = PayoffMatrix.of([
            [(1.7e308, 1.7e308), (5, 0.1)],
            [(-0.1e308, 1.7e308), (1, 0.1)],
            [(0, 0.1), (3, 0.1)],
        ])
        assert row_dominates(pm, 0, 1)[0] == 0.5294117647058824
        assert row_dominates(pm, 0, 1, threshold=0.6) is None
        result = reduce_dominance(pm, PipelineConfig(threshold=0.6))
        assert [s.deleted for s in result.trace] == [StrategyIndex(Axis.ROW, 2)]
        assert result.residual.row_labels == ("A1", "A2")

    def test_int_index_beyond_float_range_is_inf(self):
        # 2M / 1 as int division raises OverflowError; exactly it is past the float range.
        big = int(sys.float_info.max)
        pm = PayoffMatrix.of([[(big, 1), (5, 0)], [(-big, 0), (1, 0)], [(0, 0), (3, 0)]])
        assert row_dominates(pm, 0, 1) == (math.inf, math.inf)
        result = reduce_dominance(pm)
        assert result.trace[0].evidence == (math.inf, math.inf)

    def test_threshold_does_not_gate_convex_deletions(self, convex_3x3):
        # Convex deletions take no threshold: A1's evidence [0, 0, 7.5] and
        # B3's [0, 1.43] stay far below 100, yet both are deleted.
        weak = reduce_dominance(convex_3x3, PipelineConfig(threshold=0.0))
        strict = reduce_dominance(convex_3x3, PipelineConfig(threshold=100.0))
        assert strict.trace == weak.trace
        assert [s.kind for s in strict.trace] == [
            StepKind.CONVEX_ROW_DOMINANCE, StepKind.CONVEX_COL_DOMINANCE,
        ]


def _bookkeeping_cases():
    rng = random.Random(8)
    for k in range(60):
        m, n = rng.randint(2, 6), rng.randint(3, 6)
        if k % 2:  # tenths centers, on a narrow range so that dominance happens
            rows = [[(rng.randint(-30, 30) / 10, rng.choice((0, 0.1, 0.25)))
                     for _ in range(n)] for _ in range(m)]
        else:
            rows = [[(rng.randint(-6, 6), rng.choice((0, 0.5, 1))) for _ in range(n)]
                    for _ in range(m)]
        yield PayoffMatrix.of(rows)


class TestReductionBookkeeping:
    """The kept ids, the trace and the residual describe one and the same deletion set."""

    @staticmethod
    def check(pm, result):
        assert result.residual == submatrix(pm, result.row_ids, result.col_ids)
        for axis, ids, size in ((Axis.ROW, result.row_ids, pm.rows),
                                (Axis.COL, result.col_ids, pm.cols)):
            deleted = [s.deleted.index for s in result.trace if s.deleted.axis is axis]
            assert sorted(deleted + list(ids)) == list(range(size))
            assert list(ids) == sorted(set(ids))

    def test_fixtures(self, dominance_3x3, convex_3x3):
        for pm in (dominance_3x3, convex_3x3):
            result = reduce_dominance(pm)
            assert result.trace
            self.check(pm, result)

    def test_random_games(self):
        deletions = 0
        for pm in _bookkeeping_cases():
            result = reduce_dominance(pm)
            deletions += len(result.trace)
            self.check(pm, result)
        assert deletions > 60  # the games do exercise the bookkeeping


class TestSolvePipeline:
    def test_simulation_end_to_end(self, simulation_3x4):
        sol = solve_pipeline(simulation_3x4)
        assert sol.x == (0, F(15, 16), F(1, 16))
        assert sol.y == (0, F(11, 16), 0, F(5, 16))
        assert F(sol.value.center) == F(245, 16)
        assert [s.kind for s in sol.trace] == [
            StepKind.ROW_DOMINANCE,
            StepKind.COL_DOMINANCE,
            StepKind.SUBGAME_SELECTION,
        ]
        assert sol.trace[0].deleted == StrategyIndex(Axis.ROW, 0)
        assert sol.trace[1].deleted == StrategyIndex(Axis.COL, 2)
        assert sol.trace[2].dominator == "sub-game (B2, B4)"

    def test_saddle_short_circuits(self, saddle_2x2):
        sol = solve_pipeline(saddle_2x2)
        assert sol.kind is SolutionKind.PURE_SADDLE
        assert [s.kind for s in sol.trace] == [StepKind.SADDLE_FOUND]

    def test_irreducible_game(self, irreducible_4x4):
        with pytest.raises(NotReducibleError) as exc:
            solve_pipeline(irreducible_4x4)
        assert exc.value.residual == irreducible_4x4
        assert exc.value.trace == ()

    def test_degenerate_tie_still_optimal(self):
        # every minimal sub-game is a saddle whose pure row fails outside the
        # pair; the pipeline must still return an optimal mix
        pm = PayoffMatrix.of([[(2, 0.1), (3, 0.1), (1, 0.1)], [(2, 0.1), (1, 0.1), (4, 0.1)]])
        sol = solve_pipeline(pm)
        assert F(sol.value.center) == 2
        floors = [
            sum(sol.x[i] * F(pm.entry(i, j).center) for i in range(2)) for j in range(3)
        ]
        assert all(f >= 2 for f in floors)

    def test_mx2_pipeline(self):
        pm = PayoffMatrix.of(
            [[(0, 0.1), (2, 0.1)], [(3, 0.1), (1, 0.1)], [(-5, 0.1), (9, 0.1)]]
        )
        sol = solve_pipeline(pm)
        oracle = oracle_value(CenterGame.from_payoff(pm))
        assert F(sol.value.center) == oracle.value

    def test_threshold_one_blocks_weak_plain_deletion(self, simulation_3x4):
        # the tied column (index 0) keeps the literal total-dominance regime
        # from firing on plain row dominance; the convex route (which takes
        # no threshold) deletes the same row, and the value is unchanged
        sol = solve_pipeline(simulation_3x4, PipelineConfig(threshold=1.0))
        assert sol.trace[0].kind is StepKind.CONVEX_ROW_DOMINANCE
        assert sol.trace[0].deleted == StrategyIndex(Axis.ROW, 0)
        assert F(sol.value.center) == F(245, 16)


class TestPipelineConfig:
    def test_nan_threshold_is_refused(self):
        # NaN passes a "< 0" test and then acts as weak dominance.
        with pytest.raises(ValueError, match="threshold must be nonnegative, got nan"):
            PipelineConfig(threshold=math.nan)


class TestExactInvariants:
    def test_probabilities_must_sum_to_exactly_one(self):
        # Off by 1e-15: a float tolerance of 1e-12 used to let this through.
        with pytest.raises(ValueError, match="does not sum to 1"):
            Solution(
                (F(1, 3), F(2, 3) - F(1, 10**15)), (F(1),), FuzzyNum(0, 0),
                SolutionKind.MIXED_2X2, (),
            )

    @pytest.mark.parametrize("x, message", [
        ((F(0), F(-1, 2), F(3, 2), F(0)), "x is not a probability vector"),
        ((F(0), F(3, 2), F(0)), "x is not a probability vector"),
        ((F(0), F(1, 2), F(1, 4), F(0)), "x does not sum to 1"),
        ((F(0), F(0)), "x does not sum to 1"),
    ])
    def test_zero_padded_vectors_are_still_checked(self, x, message):
        # The exact zeros of a padded vector are skipped; every other entry is not.
        y = (F(0), F(1), F(0))
        Solution((F(0), F(1), F(0)), y, FuzzyNum(0, 0), SolutionKind.MIXED_2X2, ())
        with pytest.raises(ValueError, match=message):
            Solution(x, y, FuzzyNum(0, 0), SolutionKind.MIXED_2X2, ())

    def test_deleted_strategy_must_not_be_played(self):
        step = ReductionStep(StepKind.ROW_DOMINANCE, StrategyIndex(Axis.ROW, 1), "A1", ())
        with pytest.raises(ValueError, match="deleted strategy .* carries nonzero probability"):
            Solution((F(1, 2), F(1, 2)), (F(1),), FuzzyNum(0, 0), SolutionKind.MIXED_2X2, (step,))

    def test_expected_payoff_must_match_the_value_exactly(self, simulation_3x4):
        good = solve_pipeline(simulation_3x4)
        _assert_expected_payoff(simulation_3x4, good)
        off = replace(good, value=FuzzyNum(F(good.value.center) + F(1, 10**12), 0))
        with pytest.raises(RuntimeError, match="expected payoff"):
            _assert_expected_payoff(simulation_3x4, off)


class TestSolutionInvariants:
    def test_probability_simplex_and_deleted_zeros(self):
        rng = random.Random(31415)
        solved = 0
        while solved < 150:
            pm = random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4))
            try:
                sol = solve_pipeline(pm)
            except NotReducibleError:
                continue
            solved += 1
            assert sum(sol.x) == 1 and sum(sol.y) == 1
            assert all(0 <= p <= 1 for p in sol.x + sol.y)
            for step in sol.trace:
                if step.deleted is None:
                    continue
                vec = sol.x if step.deleted.axis is Axis.ROW else sol.y
                assert vec[step.deleted.index] == 0

    def test_indifference_for_mixed_solutions(self):
        rng = random.Random(2718)
        seen = 0
        while seen < 100:
            pm = random_matrix(rng, 2, 2)
            sol = solve_2x2(pm)
            if sol.kind is not SolutionKind.MIXED_2X2:
                continue
            seen += 1
            center = F(sol.value.center)
            for j in range(2):
                assert sum(sol.x[i] * F(pm.entry(i, j).center) for i in range(2)) == center
            for i in range(2):
                assert sum(F(pm.entry(i, j).center) * sol.y[j] for j in range(2)) == center

    def test_value_preserved_by_each_deletion(self):
        rng = random.Random(161803)
        deletions = 0
        for _ in range(150):
            pm = random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), lo=-6, hi=6)
            try:
                trace = solve_pipeline(pm).trace
            except NotReducibleError as exc:
                trace = exc.trace
            rows, cols = set(range(pm.rows)), set(range(pm.cols))
            value = oracle_value(CenterGame.from_payoff(pm)).value
            for step in trace:
                if step.deleted is None:
                    continue
                (rows if step.deleted.axis is Axis.ROW else cols).discard(step.deleted.index)
                rest = submatrix(pm, sorted(rows), sorted(cols))
                assert oracle_value(CenterGame.from_payoff(rest)).value == value
                deletions += 1
        assert deletions > 50

    def test_transposition_duality(self):
        rng = random.Random(42424)
        compared = 0
        for _ in range(120):
            m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            pm = random_matrix(rng, m, n, lo=-9, hi=9)
            swapped = PayoffMatrix.of(
                [
                    [(-pm.entry(i, j).center, pm.entry(i, j).spread) for i in range(m)]
                    for j in range(n)
                ]
            )
            try:
                sol = solve_pipeline(pm)
            except NotReducibleError:
                with pytest.raises(NotReducibleError):
                    solve_pipeline(swapped)
                continue
            dual = solve_pipeline(swapped)
            assert F(dual.value.center) == -F(sol.value.center)
            assert dual.x == sol.y and dual.y == sol.x
            compared += 1
        assert compared > 60


def negated_transpose(pm):
    """The column player's game, built entry by entry: -A transposed, labels swapped."""
    return PayoffMatrix.of(
        [[(-pm.entry(i, j).center, pm.entry(i, j).spread) for i in range(pm.rows)]
         for j in range(pm.cols)],
        row_labels=pm.col_labels,
        col_labels=pm.row_labels,
    )


DUALITY_CENTERS = {
    "int": lambda rng: rng.randint(-4, 4),
    "tenths": lambda rng: rng.randint(-30, 30) / 10,
    "float": lambda rng: rng.uniform(-3, 3),
}


class TestColumnPlayerIsRowPlayerOfDual:
    """Column tests on A equal row tests on -A transposed, evidence by repr."""

    @pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
    @pytest.mark.parametrize("center", DUALITY_CENTERS.values(), ids=DUALITY_CENTERS.keys())
    def test_dominance_tests_agree(self, center, crisp):
        rng = random.Random(31415)
        hits = collections.Counter()
        for _ in range(60):
            m, n = rng.randint(2, 4), rng.randint(3, 4)
            pm = PayoffMatrix.of([
                [(center(rng), 0 if crisp else rng.choice((0, 0.1, 0.25))) for _ in range(n)]
                for _ in range(m)
            ])
            dual = negated_transpose(pm)
            for threshold in (0.0, 0.5):
                for j, s in itertools.permutations(range(n), 2):
                    got = col_dominates(pm, j, s, threshold)
                    assert repr(got) == repr(row_dominates(dual, j, s, threshold))
                    hits["plain"] += got is not None
            for grid in (beta_grid(), beta_grid(3)):
                for p, q, s in itertools.permutations(range(n), 3):
                    got = convex_col_dominates(pm, p, q, s, grid)
                    assert repr(got) == repr(convex_row_dominates(dual, p, q, s, grid))
                    hits["convex"] += got is not None
        assert hits["plain"] > 0 and hits["convex"] > 0

    def test_convex_column_evidence_keeps_the_sign_of_zero(self):
        # The blend of B1 and B2 is 0 in the first row, against a center of
        # -0.0 in B3: the index there is -0.0, read on this game's columns.
        # On the dual the center would be 0.0 and the index 0.0.
        pm = PayoffMatrix.of([[(1, 0.1), (-1, 0.1), (-0.0, 0.1)], [(0, 0.1), (0, 0.1), (5, 0.1)]])
        alpha, evidence = convex_col_dominates(pm, 0, 1, 2, (0.5,))
        assert alpha == 0.5
        assert math.copysign(1, evidence[0]) == -1 and evidence[0] == 0

    def test_column_view_is_the_negated_transpose(self, simulation_3x4):
        # Convex column tests read column j of the row player's integer grid,
        # negated: exactly the rows of the negated transpose's grid.
        rng = random.Random(2718)
        drawn = [PayoffMatrix.of([[(center(rng), 0.1) for _ in range(4)] for _ in range(3)])
                 for center in DUALITY_CENTERS.values()]
        for pm in (simulation_3x4, *drawn):
            dual = negated_transpose(pm)
            assert dual.center_scale == pm.center_scale
            for p, q, s in itertools.permutations(range(pm.cols), 3):
                assert list(_lines(pm, Axis.COL, p, q, s)) == list(_lines(dual, Axis.ROW, p, q, s))
            assert pm.scaled_centers is pm.scaled_centers
            assert pm.scaled_centers == tuple(
                tuple(F(e.center) * pm.center_scale for e in row) for row in pm.entries
            )
