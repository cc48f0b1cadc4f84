"""Worked example matrices shared across the suite."""

import random

import pytest

from fuzzygame import PayoffMatrix


@pytest.fixture
def dominance_3x3():
    # 3x3 where the second row dominates the third, then the first column
    # dominates the third.
    return PayoffMatrix.of([
        [(1, 0.2), (7, 0.3), (2, 0.1)],
        [(6, 0.2), (2, 0.1), (7, 0.3)],
        [(0, 0.2), (1, 0.2), (6, 0.2)],
    ])


@pytest.fixture
def convex_3x3():
    # 3x3 reducible only through convex combinations (rows 2+3 beat row 1,
    # then columns 1+2 beat column 3).
    return PayoffMatrix.of([
        [(1, 0.4), (2, 0.1), (-1, 0.1)],
        [(3, 0.5), (1, 0.3), (2, 0.2)],
        [(-1, 0.2), (3, 0.4), (2, 0.4)],
    ])


@pytest.fixture
def subgame_2x3():
    # 2x3 with no saddle and no dominance; solved by sub-game enumeration.
    return PayoffMatrix.of([
        [(19, 0.2), (15, 0.4), (16, 0.1)],
        [(0, 0.2), (20, 0.4), (5, 0.4)],
    ])


@pytest.fixture
def simulation_3x4():
    # Full 3x4 pipeline exercise: one row deletion, one column deletion,
    # then sub-game selection.
    return PayoffMatrix.of([
        [(8, 0.3), (15, 0.4), (-4, 0.1), (-2, 0.4)],
        [(19, 0.1), (15, 0.5), (17, 0.4), (16, 0.1)],
        [(0, 0.3), (20, 0.2), (15, 0.5), (5, 0.4)],
    ])


@pytest.fixture
def saddle_2x2():
    # 2x2 with a pure saddle at (row 1, col 2).
    return PayoffMatrix.of([
        [(19, 0.2), (16, 0.1)],
        [(0, 0.2), (5, 0.4)],
    ])


def _diagonal(n):
    # 3 on the diagonal, -1 elsewhere: no saddle, no dominance, full-support optimum.
    return PayoffMatrix.of([[(3 if i == j else -1, 0.1) for j in range(n)] for i in range(n)])


def _convex_curve(n):
    # 2 x n, columns (j, (n - j)^2) on a convex curve: none is dominated, even by a blend.
    return PayoffMatrix.of([[(j, 0.1) for j in range(n)], [((n - j) ** 2, 0.1) for j in range(n)]])


@pytest.fixture
def irreducible_4x4():
    return _diagonal(4)  # matching-pennies style


@pytest.fixture
def diagonal_game():
    return _diagonal  # factory: diagonal_game(n) -> PayoffMatrix


@pytest.fixture
def curve_game():
    return _convex_curve  # factory: curve_game(n) -> PayoffMatrix


def _planted(seed, m, n):
    """m x n game whose only undominated strategies form a saddle-free 2x2 core.

    Core centers lie in [10, 20].  Padding rows score [0, 5] in core columns
    and [6, 9] in padding columns; core rows score [25, 30] in padding
    columns.  So every padding row is strictly below every core row and
    every padding column strictly above every core column, and the game's
    value is the core's.
    """
    rng = random.Random(seed)
    while True:
        (a, b), (c, d) = [[rng.randint(10, 20) for _ in range(2)] for _ in range(2)]
        if max(min(a, b), min(c, d)) < min(max(a, c), max(b, d)):
            break
    core_rows, core_cols = rng.sample(range(m), 2), rng.sample(range(n), 2)
    core = {(core_rows[0], core_cols[0]): a, (core_rows[0], core_cols[1]): b,
            (core_rows[1], core_cols[0]): c, (core_rows[1], core_cols[1]): d}

    def center(i, j):
        if (i, j) in core:
            return core[i, j]
        if i in core_rows:
            return rng.randint(25, 30)
        return rng.randint(0, 5) if j in core_cols else rng.randint(6, 9)

    return PayoffMatrix.of(
        [[(center(i, j), rng.randint(0, 50) / 100) for j in range(n)] for i in range(m)]
    )


@pytest.fixture
def planted_game():
    # Factory: planted_game(seed, m, n) -> PayoffMatrix (see _planted).
    return _planted
