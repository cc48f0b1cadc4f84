"""Independent exact solver for the crisp center game.

Used by the test suite and the ``check`` command to validate values,
strategies and dominance soundness.  The solver pipeline never calls it.

The method is the standard linear program of a matrix game (von Neumann;
Dantzig 1951): after a shift that makes every payoff at least 1, the column
player's mix is an optimal point of ``max sum(u)`` subject to ``B u <= 1``,
``u >= 0``, and the row player's mix is its dual.  A dense primal simplex
with Bland's pivoting rule (Bland 1977) solves it on ``fractions.Fraction``,
so it is exact and terminates without tolerances.  Every answer is certified
against every pure counter-strategy before it is returned.  Games larger
than ``SIZE_CAP`` in either dimension are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .matrix import PayoffMatrix

if TYPE_CHECKING:  # annotation only: the oracle never runs solver code
    from .solver import Solution

SIZE_CAP = 32  # 32x32: about 1 s on integer centers, 4 s on tenths (2-core Xeon, Python 3.11)


class GameTooLargeError(ValueError):
    """Center game exceeds the oracle's size cap."""


def check_size(rows: int, cols: int) -> None:
    """Refuse a ``rows`` x ``cols`` game above ``SIZE_CAP`` with :class:`GameTooLargeError`."""
    if rows > SIZE_CAP or cols > SIZE_CAP:
        raise GameTooLargeError(f"{rows}x{cols} exceeds the {SIZE_CAP}x{SIZE_CAP} oracle cap")


@dataclass(frozen=True)
class CenterGame:
    """Crisp m x n game: the centers of a fuzzy payoff matrix."""

    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.grid or not self.grid[0]:
            raise ValueError("center game must have at least one row and one column")
        n = len(self.grid[0])
        if any(len(row) != n for row in self.grid):
            raise ValueError("center game must be rectangular")

    @classmethod
    def of(cls, rows: Sequence[Sequence[float]]) -> "CenterGame":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def from_payoff(cls, pm: PayoffMatrix) -> "CenterGame":
        return cls.of(pm.centers())

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])


@dataclass(frozen=True)
class OracleSolution:
    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def oracle_value(game: CenterGame) -> OracleSolution:
    """Exact value and one optimal mixed-strategy pair of the center game.

    The shifted game B = A + shift (every entry at least 1, so its value is
    positive) is solved as the linear program ``max sum(u)`` subject to
    ``B u <= 1``, ``u >= 0`` by a dense primal simplex on ``Fraction``
    entries, starting from the slack basis.  Bland's rule picks the pivots:
    the entering column is the lowest-indexed one with a negative reduced
    cost, and ratio-test ties leave by the lowest-indexed basic variable, so
    the method terminates without tolerances.  At the optimum the value is
    ``1/sum(u) - shift``, the column mix is u scaled to sum to 1, and the row
    mix is the dual read from the slack columns of the objective row.

    The result is certified exactly against every pure counter-strategy
    before it is returned (``RuntimeError`` if that ever fails).  The value
    is unique.  When the optimal strategies are not, the pair returned is
    the one this pivot sequence reaches: deterministic and optimal, but not
    necessarily the pair another exact method, such as kernel enumeration,
    would pick.
    """
    m, n = game.rows, game.cols
    check_size(m, n)
    g = game.grid
    shift = 1 - math.floor(min(min(row) for row in g))
    zero, one = Fraction(0), Fraction(1)
    # Columns 0..n-1 hold u, n..n+m-1 the slacks, the last one the right-hand side.
    tableau = [
        [g[i][j] + shift for j in range(n)]
        + [one if k == i else zero for k in range(m)]
        + [one]
        for i in range(m)
    ]
    objective = [-one] * n + [zero] * (m + 1)  # reduced costs, then sum(u)
    basis = list(range(n, n + m))
    while (enter := next((c for c in range(n + m) if objective[c] < 0), None)) is not None:
        # Smallest ratio; ties go to the lowest-indexed basic variable.
        _, _, leave = min(
            (row[-1] / row[enter], basis[r], r)
            for r, row in enumerate(tableau)
            if row[enter] > 0
        )
        p = tableau[leave][enter]
        pivot = tableau[leave] = [a / p if a else a for a in tableau[leave]]
        support = [c for c, a in enumerate(pivot) if a]
        for row in (*tableau, objective):
            factor = row[enter]
            if factor and row is not pivot:
                for c in support:
                    row[c] -= factor * pivot[c]
        basis[leave] = enter
    scale = 1 / objective[-1]  # value of the shifted game
    y = [zero] * n
    for r, var in enumerate(basis):
        if var < n:
            y[var] = tableau[r][-1] * scale
    x = [objective[n + i] * scale for i in range(m)]
    value = scale - shift
    if not _optimal(g, x, y, value):
        raise RuntimeError("simplex optimum failed exact certification")
    return OracleSolution(value, tuple(x), tuple(y))


def _optimal(
    g: tuple[tuple[Fraction, ...], ...],
    x: list[Fraction],
    y: list[Fraction],
    value: Fraction,
) -> bool:
    """Both mixes are probability vectors and guarantee ``value`` exactly."""
    if sum(x) != 1 or sum(y) != 1 or min(x) < 0 or min(y) < 0:
        return False
    floor, ceiling = _floor_ceiling(g, x, y)
    return floor >= value >= ceiling


def _floor_ceiling(g, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """The worst column payoff under ``x`` and the best row payoff under ``y``."""
    m, n = len(g), len(g[0])
    floor = min(sum(x[i] * g[i][j] for i in range(m)) for j in range(n))
    ceiling = max(sum(g[i][j] * y[j] for j in range(n)) for i in range(m))
    return floor, ceiling


@dataclass(frozen=True)
class OracleReport:
    """Per-check outcome of validating a solution against the oracle."""

    oracle_center: Fraction
    solution_center: Fraction
    x_floor: Fraction  # worst column payoff under the solution's x
    y_ceiling: Fraction  # best row payoff under the solution's y
    value_match: bool
    x_guarantee: bool
    y_guarantee: bool

    @property
    def passed(self) -> bool:
        return self.value_match and self.x_guarantee and self.y_guarantee


def oracle_check(pm: PayoffMatrix, solution: Solution) -> OracleReport:
    """Validate a solution's value center and both guarantee inequalities.

    The solution's x must earn at least the oracle value against every
    column of the original matrix, and its y must concede at most the oracle
    value against every row.  Everything is exact, so all three tests demand
    exact agreement.
    """
    game = CenterGame.from_payoff(pm)
    oracle = oracle_value(game)
    x_floor, y_ceiling = _floor_ceiling(game.grid, solution.x, solution.y)
    solution_center = Fraction(solution.value.center)
    return OracleReport(
        oracle_center=oracle.value,
        solution_center=solution_center,
        x_floor=x_floor,
        y_ceiling=y_ceiling,
        value_match=solution_center == oracle.value,
        x_guarantee=x_floor >= oracle.value,
        y_guarantee=y_ceiling <= oracle.value,
    )
