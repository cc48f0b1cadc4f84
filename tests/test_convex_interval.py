"""The exact interval test for convex dominance against the grid scan it replaced."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from fuzzygame import (
    CenterGame,
    FuzzyNum,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    beta_grid,
    oracle_value,
    solve_pipeline,
)
from fuzzygame import solver
from fuzzygame.matrix import Axis
from fuzzygame.solver import (
    _check_index,
    _evidence,
    convex_col_dominates,
    convex_row_dominates,
    reduce_dominance,
)


def reference_blends(first, second, beta):
    """The blend ``beta*first + (1-beta)*second``, centers and spreads, in ``Fraction`` arithmetic."""
    bf = Fraction(beta)
    return tuple(
        FuzzyNum(bf * Fraction(a.center) + (1 - bf) * Fraction(b.center),
                 bf * Fraction(a.spread) + (1 - bf) * Fraction(b.spread))
        for a, b in zip(first, second)
    )


def reference_convex_row(pm, p, q, s, betas):
    """Blend rows p and q at every grid point in order; the pre-interval algorithm."""
    if len({p, q, s}) != 3:
        raise ValueError(f"rows p={p}, q={q}, s={s} must be distinct")
    _check_index(pm, Axis.ROW, p, q, s)
    if not betas:
        raise ValueError("beta grid must not be empty")
    for beta in betas:
        virtual = reference_blends(pm.row(p), pm.row(q), beta)
        if all(virtual[j].center >= pm.entry(s, j).center for j in range(pm.cols)):
            return beta, _evidence(pm.row(s), virtual)
    return None


def reference_convex_col(pm, p, q, s, alphas):
    """Column mirror of :func:`reference_convex_row`."""
    if len({p, q, s}) != 3:
        raise ValueError(f"columns p={p}, q={q}, s={s} must be distinct")
    _check_index(pm, Axis.COL, p, q, s)
    if not alphas:
        raise ValueError("alpha grid must not be empty")
    for alpha in alphas:
        virtual = reference_blends(pm.col(p), pm.col(q), alpha)
        if all(virtual[i].center <= pm.entry(i, s).center for i in range(pm.rows)):
            return alpha, _evidence(virtual, pm.col(s))
    return None


GRIDS = {
    "2-point": beta_grid(2),
    "3-point": beta_grid(3),
    "21-point": beta_grid(21),
    "custom": (0.75, 0.35, 1, 0.25, 0.6, 0, 0.9, 0.1, 0.5),
    "1-not-0": (1, 0.5, 0.25),
    "inner": (0.9, Fraction(1, 3), 0.1, 0.5),
}


def _random_matrix(rng, rows, cols, center):
    # Every other matrix has one common spread; the rest mix crisp entries
    # with several spreads.
    spreads = rng.choice(((0, 0, 0.1, 0.25, 0.5), (0.2,)))
    return PayoffMatrix.of([
        [(center(rng), rng.choice(spreads)) for _ in range(cols)] for _ in range(rows)
    ])


def _random_games(center):
    def games(rng):
        return [_random_matrix(rng, rng.randint(3, 5), rng.randint(3, 5), center)
                for _ in range(15)]
    return games


# Lines p = (2, 0) and q = (0, 2) blend to (2b, 2 - 2b).  The coefficients b
# whose blend covers each s below form the interval in its comment: beyond
# or at an end of [0, 1], or, as a control, strictly inside it.
BOUNDARY_LINES = {
    "above 1": ((2, 0), (0, 2), (3, -2)),  # [3/2, 2]
    "below 0": ((2, 0), (0, 2), (-2, 3)),  # [-1, -1/2]
    "at 0": ((2, 0), (0, 2), (-1, 2)),  # [-1/2, 0]
    "at 1": ((2, 0), (0, 2), (2, -1)),  # [1, 3/2]
    "inside": ((2, 0), (0, 2), (0.5, 0.5)),  # [1/4, 3/4]
}


def _boundary_games(rng):
    # Each case as rows, crisp and fuzzy, and as the columns of the negated
    # transpose, where the column test meets the same interval.
    games = []
    for lines in BOUNDARY_LINES.values():
        for spread in (0, 0.1):
            games.append(PayoffMatrix.of([[(c, spread) for c in line] for line in lines]))
            games.append(PayoffMatrix.of([[(-c, spread) for c in col] for col in zip(*lines)]))
    return games


GAMES = {
    # A narrow integer range makes ties and exact boundary hits common.
    "small-int": _random_games(lambda rng: rng.randint(-3, 3)),
    "int": _random_games(lambda rng: rng.randint(-20, 20)),
    "tenths": _random_games(lambda rng: rng.randint(-30, 30) / 10),
    "boundary": _boundary_games,
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("games", GAMES.values(), ids=GAMES.keys())
def test_matches_grid_scan(grid, games):
    rng = random.Random(20130707)
    kinds = collections.Counter()
    for pm in games(rng):
        for p, q, s in itertools.permutations(range(pm.rows), 3):
            got = convex_row_dominates(pm, p, q, s, grid)
            assert repr(got) == repr(reference_convex_row(pm, p, q, s, grid)), (pm, p, q, s)
            kinds["miss" if got is None else "hit"] += 1
        for p, q, s in itertools.permutations(range(pm.cols), 3):
            got = convex_col_dominates(pm, p, q, s, grid)
            assert repr(got) == repr(reference_convex_col(pm, p, q, s, grid)), (pm, p, q, s)
            kinds["miss" if got is None else "hit"] += 1
    # Hits and misses must both occur for the comparison to mean anything.
    assert kinds["hit"] > 0 and kinds["miss"] > 0


def test_boundary_coefficient_is_found():
    # Blends of 10 and 0 reach 3 from beta = 3/10 on.  The float 0.3 lies
    # just below 3/10, so compared exactly it misses, as in the grid scan.
    pm = PayoffMatrix.of([[(10, 0)], [(0, 0)], [(3, 0)]])
    assert convex_row_dominates(pm, 0, 1, 2, (0.3,)) is None
    assert reference_convex_row(pm, 0, 1, 2, (0.3,)) is None
    assert convex_row_dominates(pm, 0, 1, 2, (0.3, Fraction(3, 10))) == (
        Fraction(3, 10), (0.0,)
    )


def test_equal_rows_with_higher_third_row_is_rejected_early():
    pm = PayoffMatrix.of([[(1, 0.1), (2, 0.1)], [(1, 0.2), (0, 0.1)], [(2, 0.1), (1, 0.1)]])
    assert convex_row_dominates(pm, 0, 1, 2) is None


def test_unconstrained_interval_takes_first_grid_point():
    pm = PayoffMatrix.of([[(1, 0.1)] * 2, [(1, 0.2)] * 2, [(1, 0.3)] * 2])
    beta, _ = convex_row_dominates(pm, 1, 0, 2, (1, 0.5))
    assert beta == 1


def test_grid_point_blending_a_negative_spread_still_raises():
    # Rows 0 and 1 admit no blend; an out-of-order grid inside [0, 1] finds
    # none, and the coefficient -1, whose blend of spreads would be below
    # zero, is refused before any blend is tried.
    pm = PayoffMatrix.of([[(0, 0.1)], [(0, 0.3)], [(5, 0.1)]])
    assert convex_row_dominates(pm, 1, 0, 2, (1, 0.5, 0)) is None
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -1"):
        convex_row_dominates(pm, 1, 0, 2, (0.5, -1))


def test_coefficients_outside_unit_interval_are_refused():
    # 1.5*A1 - 0.5*A4 is no mixed strategy, so deleting a row by it is unsound:
    # a grid holding 1.5 once reduced this game to the value 1/4.
    pm = PayoffMatrix.of([
        [(c, 0) for c in row] for row in ([-1, 2, 2], [0, 1, -4], [4, -5, -3], [-5, 3, 2])
    ])
    assert oracle_value(CenterGame.from_payoff(pm)).value == Fraction(17, 64)
    for grid in ((0.5, 1.5), (-0.5,), (0.5, float("nan"))):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PipelineConfig(betas=grid)
        for dominates in (convex_row_dominates, convex_col_dominates):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                dominates(pm, 0, 1, 2, grid)
    with pytest.raises(NotReducibleError):
        solve_pipeline(pm, PipelineConfig(betas=(0.5, 1)))


def test_scaled_centers_built_only_by_convex_tests(dominance_3x3, convex_3x3):
    # Plain dominance never needs the integer grid of the centers.
    reduce_dominance(dominance_3x3)
    assert "scaled_centers" not in vars(dominance_3x3)
    convex_row_dominates(convex_3x3, 1, 2, 0)
    assert "scaled_centers" in vars(convex_3x3)
    columns_only = PayoffMatrix.of([[(0.5, 0.1), (1 / 3, 0), (-2, 0.2)]])
    convex_col_dominates(columns_only, 0, 1, 2)
    grid = columns_only.scaled_centers
    scale = columns_only.center_scale
    assert grid is columns_only.scaled_centers
    assert scale == math.lcm(2, Fraction(1 / 3).denominator)
    assert grid == (tuple(Fraction(c) * scale for c in (0.5, 1 / 3, -2)),)
    assert all(type(c) is int for c in grid[0])


def test_fraction_coefficient_labels_as_its_float(convex_3x3):
    # A Fraction has no "g" format before Python 3.12; the label goes
    # through float, so it reads as the equal float's does.
    want = reduce_dominance(convex_3x3, PipelineConfig(betas=(0.5,)))
    got = reduce_dominance(convex_3x3, PipelineConfig(betas=(Fraction(1, 2),)))
    assert got.trace[0].dominator == "0.5*A2 + 0.5*A3"
    assert repr(got.trace) == repr(want.trace)
    assert solver._blend_label(1, "A1", "A2") == "1*A1 + 0*A2"
    assert solver._blend_label(0.35, "A1", "A2") == "0.35*A1 + 0.65*A2"


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_grid_cache_returns_the_callers_coefficient(order):
    # (1,), (1.0,) and (Fraction(1),) are equal tuples; in any order, each
    # caller still gets its own coefficient object back.
    grids = ((1,), (1.0,), (Fraction(1),))
    rows = PayoffMatrix.of([[(1, 0.1)] * 2, [(1, 0.2)] * 2, [(1, 0.3)] * 2])
    cols = PayoffMatrix.of([[(1, 0.1), (1, 0.2), (1, 0.3)]] * 2)
    for k in order:
        grid = grids[k]
        assert repr(convex_row_dominates(rows, 1, 0, 2, grid)[0]) == repr(grid[0])
        assert repr(convex_col_dominates(cols, 1, 0, 2, grid)[0]) == repr(grid[0])


def test_config_holds_a_checked_copy_of_its_grid(convex_3x3):
    # The grid is checked and copied once, when the config is built; a later
    # change to the caller's list reaches neither the config nor a reduction.
    betas = [0.1]
    config = PipelineConfig(betas=betas)
    assert type(config.betas) is solver._Grid and config.betas == (0.1,)
    assert config.betas[0] is betas[0]
    want = repr(reduce_dominance(convex_3x3, config))
    betas.append(0.5)
    assert config.betas == (0.1,)
    assert repr(reduce_dominance(convex_3x3, config)) == want
    assert repr(reduce_dominance(convex_3x3, PipelineConfig(betas=betas))) != want
    # A grid beta_grid built is already checked and is kept as it is.
    assert PipelineConfig().betas is solver.DEFAULT_BETAS


EXTREME_CENTERS = (5e-324, 1e308, -1e308, 1.7976931348623157e308, -0.0, 0.1, 1 / 3)


@pytest.mark.parametrize("grid", [beta_grid(21), beta_grid(3), GRIDS["custom"]],
                         ids=["21-point", "3-point", "out-of-order"])
def test_matches_grid_scan_on_extreme_floats(grid):
    # 5e-324 has denominator 2**1074, so the integer grid's scale reaches it
    # while 1.8e308 sits in the same game.
    rng = random.Random(1074)
    kinds = collections.Counter()
    for _ in range(24):
        pm = _random_matrix(rng, rng.randint(3, 4), rng.randint(3, 4),
                            lambda rng: rng.choice(EXTREME_CENTERS))
        kinds["scale 2**1074"] += pm.center_scale == 2**1074
        for p, q, s in itertools.permutations(range(pm.rows), 3):
            got = convex_row_dominates(pm, p, q, s, grid)
            assert repr(got) == repr(reference_convex_row(pm, p, q, s, grid)), (pm, p, q, s)
            kinds["miss" if got is None else "hit"] += 1
        for p, q, s in itertools.permutations(range(pm.cols), 3):
            got = convex_col_dominates(pm, p, q, s, grid)
            assert repr(got) == repr(reference_convex_col(pm, p, q, s, grid)), (pm, p, q, s)
            kinds["miss" if got is None else "hit"] += 1
    assert kinds["hit"] > 0 and kinds["miss"] > 0 and kinds["scale 2**1074"] > 0


def test_reduce_dominance_calls_through_module_attributes(convex_3x3, monkeypatch):
    calls = {"row": 0, "col": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "convex_row_dominates",
                        counting("row", solver.convex_row_dominates))
    monkeypatch.setattr(solver, "convex_col_dominates",
                        counting("col", solver.convex_col_dominates))
    result = reduce_dominance(convex_3x3)
    assert [step.kind.value for step in result.trace] == [
        "convex-row-dominance", "convex-col-dominance"
    ]
    assert calls["row"] > 0 and calls["col"] > 0
