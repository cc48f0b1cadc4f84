"""Independent exact solver for the crisp center game.

Used by the test suite and the ``check`` command to validate values,
strategies and dominance soundness.  The solver pipeline never calls it.

The method is the standard linear program of a matrix game (von Neumann;
Dantzig 1951): after a shift that makes every payoff at least 1, the column
player's mix is an optimal point of ``max sum(u)`` subject to ``B u <= 1``,
``u >= 0``, and the row player's mix is its dual.  A dense primal simplex
with Bland's pivoting rule (Bland 1977) solves it exactly and terminates
without tolerances.  Its pivots are integer-preserving (Edmonds 1967;
Bareiss 1968): the game is put on one integer grid, each tableau row is
the rational tableau's row times a positive integer, and each update is
divided exactly by the previous pivot, so no ``Fraction`` is built until
the answer is read off.  Every answer is certified on the same grid against
every pure counter-strategy before it is returned.  Games larger than
``SIZE_CAP`` in either dimension are refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .matrix import PayoffMatrix

if TYPE_CHECKING:  # annotation only: the oracle never runs solver code
    from .solver import Solution

SIZE_CAP = 32  # 32x32: 0.1 s on integer centers, about 1 s on tenths, 1-2 s mixed (2-core Xeon, Python 3.11)


class GameTooLargeError(ValueError):
    """Center game exceeds the oracle's size cap."""


def check_size(rows: int, cols: int) -> None:
    """Refuse a ``rows`` x ``cols`` game above ``SIZE_CAP`` with :class:`GameTooLargeError`."""
    if rows > SIZE_CAP or cols > SIZE_CAP:
        raise GameTooLargeError(f"{rows}x{cols} exceeds the {SIZE_CAP}x{SIZE_CAP} oracle cap")


def _exact(cell: object) -> Fraction:
    try:
        return Fraction(cell)
    except (OverflowError, ValueError):  # ±inf overflow, NaN is a ValueError
        raise ValueError(f"center game cell {cell!r} is not a finite number") from None


def _on_grid(rows: Sequence[Sequence[float]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(ints, scale)``: ``scale`` is the lcm of the values' denominators, ``ints`` each value times it."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]  # ints, floats and Fractions alike
    scale = math.lcm(*(den for row in ratios for _, den in row))
    return tuple(tuple(num * (scale // den) for num, den in row) for row in ratios), scale


@dataclass(frozen=True)
class CenterGame:
    """Crisp m x n game: the centers of a fuzzy payoff matrix.

    Cells may be given as ints, floats or ``Fraction``s; each is kept as the
    exact ``Fraction`` of its value.  NaN and infinities raise ``ValueError``.
    """

    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.grid or not self.grid[0]:
            raise ValueError("center game must have at least one row and one column")
        n = len(self.grid[0])
        if any(len(row) != n for row in self.grid):
            raise ValueError("center game must be rectangular")
        exact = tuple(
            tuple(v if type(v) is Fraction else _exact(v) for v in row) for row in self.grid
        )
        object.__setattr__(self, "grid", exact)

    @classmethod
    def of(cls, rows: Sequence[Sequence[float]]) -> "CenterGame":
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def from_payoff(cls, pm: PayoffMatrix) -> "CenterGame":
        return cls.of(pm.centers())

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])

    @cached_property
    def _integer_grid(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _on_grid(self.grid)


@dataclass(frozen=True)
class OracleSolution:
    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def oracle_value(game: CenterGame) -> OracleSolution:
    """Exact value and one optimal mixed-strategy pair of the center game.

    The shifted game B = A + shift (every entry at least 1, so its value is
    positive) is solved as the linear program ``max sum(u)`` subject to
    ``B u <= 1``, ``u >= 0`` by a dense primal simplex, starting from the
    slack basis.  Bland's rule picks the pivots: the entering column is the
    lowest-indexed one with a negative reduced cost, and ratio-test ties
    leave by the lowest-indexed basic variable, so the method terminates
    without tolerances.

    The pivots are integer-preserving (Edmonds 1967; Bareiss 1968).  The
    tableau starts as ``[scale*B | scale*I | scale]`` on the game's integer
    grid, with the objective row ``[-1]*n + [0]*(m+1)`` and a common
    divisor d = 1.  A pivot keeps its own row; every other row becomes
    ``(row*p - row[enter]*pivot_row) // d``, which is exact, and d becomes
    the pivot p.  Each row stays a positive multiple of the rational
    tableau's row, so every sign and ratio, and hence every Bland choice, is
    the one the rational simplex makes.  With S the objective's last entry at
    the optimum, the value is ``d/S - shift``, the column mix is the basic
    u-entries over S and the row mix is the objective's slack entries over S.

    The result is certified exactly, on the integer grid, against every pure
    counter-strategy before it is returned (``RuntimeError`` if that ever
    fails).  The value is unique.  When the optimal strategies are not, the
    pair returned is the one this pivot sequence reaches: deterministic and
    optimal, but not necessarily the pair another exact method, such as
    kernel enumeration, would pick.
    """
    m, n = game.rows, game.cols
    check_size(m, n)
    ints, scale = game._integer_grid
    shift = 1 - min(map(min, ints)) // scale
    lift = shift * scale
    # Columns 0..n-1 hold u, n..n+m-1 the slacks, the last one the right-hand side.
    tableau = [
        [a + lift for a in row] + [scale if k == i else 0 for k in range(m)] + [scale]
        for i, row in enumerate(ints)
    ]
    objective = [-1] * n + [0] * (m + 1)  # reduced costs, then sum(u), each times d
    basis = list(range(n, n + m))
    d = 1
    while (enter := next((c for c in range(n + m) if objective[c] < 0), None)) is not None:
        # Smallest ratio rhs/entry by cross-multiplication (every entry compared is
        # positive); ties go to the lowest-indexed basic variable.
        leave = -1
        for r, row in enumerate(tableau):
            if row[enter] > 0:
                if leave < 0:
                    leave = r
                    continue
                best = tableau[leave]
                left, right = row[-1] * best[enter], best[-1] * row[enter]
                if left < right or (left == right and basis[r] < basis[leave]):
                    leave = r
        pivot = tableau[leave]
        p = pivot[enter]
        for row in (*tableau, objective):
            if row is pivot:
                continue
            factor = row[enter]
            if factor or p != d:
                row[:] = [(a * p - factor * b) // d for a, b in zip(row, pivot)]
        d = p
        basis[leave] = enter
    total = objective[-1]  # sum(u) of the rational tableau, times d
    x = objective[n:n + m]
    y = [0] * n
    for r, var in enumerate(basis):
        if var < n:
            y[var] = tableau[r][-1]
    # value = d/total - shift, so a mix guarantees it exactly when its weighted
    # payoffs on the grid clear scale*(d - shift*total).
    bound = scale * (d - shift * total)
    floor, ceiling = _floor_ceiling(ints, x, y)
    if not (
        total > 0 and sum(x) == total == sum(y) and min(x) >= 0 and min(y) >= 0
        and floor >= bound >= ceiling
    ):
        raise RuntimeError("simplex optimum failed exact certification")
    return OracleSolution(
        Fraction(d, total) - shift,
        tuple(Fraction(v, total) for v in x),
        tuple(Fraction(v, total) for v in y),
    )


def _floor_ceiling(
    ints: tuple[tuple[int, ...], ...], x: Sequence[int], y: Sequence[int]
) -> tuple[int, int]:
    """The worst column payoff under weights ``x`` and the best row payoff under ``y``."""
    payoffs = [0] * len(ints[0])
    for w, row in zip(x, ints):
        if w:
            payoffs = [a + w * v for a, v in zip(payoffs, row)]
    return min(payoffs), max(sum(map(operator.mul, row, y)) for row in ints)


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
    value against every row.  Its numbers may be ints, floats or ``Fraction``s;
    all are read exactly, so all three tests demand exact agreement.
    """
    game = CenterGame.from_payoff(pm)
    oracle = oracle_value(game)
    ints, scale = game._integer_grid
    (x,), x_scale = _on_grid((solution.x,))
    (y,), y_scale = _on_grid((solution.y,))
    floor, ceiling = _floor_ceiling(ints, x, y)
    x_floor, y_ceiling = Fraction(floor, x_scale * scale), Fraction(ceiling, y_scale * scale)
    solution_center = Fraction(*solution.value.center.as_integer_ratio())
    return OracleReport(
        oracle_center=oracle.value,
        solution_center=solution_center,
        x_floor=x_floor,
        y_ceiling=y_ceiling,
        value_match=solution_center == oracle.value,
        x_guarantee=x_floor >= oracle.value,
        y_guarantee=y_ceiling <= oracle.value,
    )
