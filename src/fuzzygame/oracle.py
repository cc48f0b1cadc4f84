"""Independent exact solver for the crisp center game.

Used by the test suite and the ``check`` command to validate values,
strategies and dominance soundness.  The solver pipeline never calls it.

The method is the standard linear program of a matrix game (von Neumann;
Dantzig 1951): after a shift that makes every payoff at least 1, the column
player's mix is an optimal point of ``max sum(u)`` subject to ``B u <= 1``,
``u >= 0``, and the row player's mix is its dual.  A primal simplex with
Bland's pivoting rule (Bland 1977) solves it exactly and terminates without
tolerances.  Its pivots are integer-preserving (Edmonds 1967; Bareiss
1968): the game is put on one integer grid, each tableau row is the
rational tableau's row times a positive integer, and each update is divided
exactly by the previous pivot, so no ``Fraction`` is built until the answer
is read off.  The tableau is condensed (von Stengel 2002): it keeps only the
nonbasic columns and the right-hand side, since the basic columns are
columns of a scaled identity.  A pivot swaps the entering variable's column
for the leaving variable's, whose new entries follow from the pivot row and
the leaving row's own diagonal entry.  Every answer is certified on the same
grid against every pure counter-strategy before it is returned.
:func:`center_value` reads a payoff matrix's centers onto that grid itself
and solves for the value alone, for :func:`oracle_check` and for ``check``.
Games larger than ``SIZE_CAP`` in either dimension are refused.
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

# 32x32, on a 2-core Xeon with Python 3.11 (three seeded games each): 0.03-0.04 s on integer
# centers; 0.06-0.11 s on exact tenths (Fraction(k, 10)); 0.5-0.7 s on binary-float tenths,
# which is what JSON gives; 0.7-0.9 s mixed.  Big-integer arithmetic dominates at this size.
SIZE_CAP = 32


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
    scale = math.lcm(*[den for row in ratios for _, den in row])
    return tuple([tuple([num * (scale // den) for num, den in row]) for row in ratios]), scale


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
    ``B u <= 1``, ``u >= 0`` by a primal simplex, starting from the slack
    basis.  Bland's rule picks the pivots: the entering variable is the
    lowest-indexed one (u_0..u_{n-1}, then the m slacks) with a negative
    reduced cost, and ratio-test ties leave by the lowest-indexed basic
    variable, so the method terminates without tolerances.

    The pivots are integer-preserving (Edmonds 1967; Bareiss 1968) on a
    condensed tableau (von Stengel 2002): it keeps only the n nonbasic
    columns and the right-hand side, each column labelled with the variable
    it holds.  It starts as ``[scale*B | scale]`` on the game's integer grid,
    with the objective row ``[-1]*n + [0]`` and a common divisor d = 1.
    ``unit[i]``, row i's entry in its own basic column, starts at ``scale``.
    A pivot at row r and column e keeps its own row; every other cell becomes
    ``(a*p - row[e]*pivot[j]) // d``, which is exact.  Column e then holds
    the leaving variable: ``unit[r]`` in the pivot row and
    ``-row[e]*unit[r] // d`` in every other row and in the objective.  Then
    ``unit[r]`` becomes p, every other ``unit[i]`` becomes ``unit[i]*p // d``,
    and d becomes p.  Each row stays a positive multiple of the rational
    tableau's row, so every sign and ratio, and hence every Bland choice, is
    the one the rational simplex makes.  With S the objective's last entry at
    the optimum, the value is ``d/S - shift``, the column mix is the
    right-hand sides of the rows where a u is basic, over S, and the row mix
    is the objective's entries in the nonbasic slack columns (0 for a basic
    slack), over S.

    The result is certified exactly, on the integer grid, against every pure
    counter-strategy before it is returned (``RuntimeError`` if that ever
    fails).  The value is unique.  When the optimal strategies are not, the
    pair returned is the one this pivot sequence reaches: deterministic and
    optimal, but not necessarily the pair another exact method, such as
    kernel enumeration, would pick.
    """
    check_size(game.rows, game.cols)
    d, total, shift, x, y = _simplex(*game._integer_grid)
    return OracleSolution(
        Fraction(d, total) - shift,
        tuple(Fraction(v, total) for v in x),
        tuple(Fraction(v, total) for v in y),
    )


def _simplex(
    ints: tuple[tuple[int, ...], ...], scale: int
) -> tuple[int, int, int, list[int], list[int]]:
    """``(d, total, shift, x, y)``: the value is ``d/total - shift``, the mixes ``x/total``, ``y/total``.

    ``ints`` is the game times ``scale``; see :func:`oracle_value` for the method.
    """
    m, n = len(ints), len(ints[0])
    shift = 1 - min(map(min, ints)) // scale
    lift = shift * scale
    # Column k holds variable nonbasic[k] (u_j is j, slack i is n + i); the last
    # column is the right-hand side.
    tableau = [[a + lift for a in row] + [scale] for row in ints]
    objective = [-1] * n + [0]  # reduced costs, then sum(u), each times d
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    unit = [scale] * m
    d = 1
    while True:
        entering = [k for k in range(n) if objective[k] < 0]
        if not entering:
            break
        enter = min(entering, key=nonbasic.__getitem__)
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
        leaving_unit = unit[leave]
        for row in (*tableau, objective):
            if row is pivot:
                continue
            factor = row[enter]
            if factor or p != d:
                row[:] = [(a * p - factor * b) // d for a, b in zip(row, pivot)]
                row[enter] = -factor * leaving_unit // d
        pivot[enter] = leaving_unit
        unit = [v * p // d for v in unit]
        unit[leave] = p
        d = p
        nonbasic[enter], basis[leave] = basis[leave], nonbasic[enter]
    total = objective[-1]  # sum(u) of the rational tableau, times d
    x = [0] * m
    for k, var in enumerate(nonbasic):
        if var >= n:
            x[var - n] = objective[k]
    y = [0] * n
    for row, var in zip(tableau, basis):
        if var < n:
            y[var] = row[-1]
    # value = d/total - shift, so a mix guarantees it exactly when its weighted
    # payoffs on the grid clear scale*(d - shift*total).
    bound = scale * (d - shift * total)
    floor, ceiling = _floor_ceiling(ints, x, y)
    if not (
        total > 0 and sum(x) == total == sum(y) and min(x) >= 0 and min(y) >= 0
        and floor >= bound >= ceiling
    ):
        raise RuntimeError("simplex optimum failed exact certification")
    return d, total, shift, x, y


def _floor_ceiling(
    ints: tuple[tuple[int, ...], ...], x: Sequence[int], y: Sequence[int]
) -> tuple[int, int]:
    """The worst column payoff under weights ``x`` and the best row payoff under ``y``."""
    payoffs = [0] * len(ints[0])
    for w, row in zip(x, ints):
        if w:
            payoffs = [a + w * v for a, v in zip(payoffs, row)]
    return min(payoffs), max(sum(map(operator.mul, row, y)) for row in ints)


def center_value(pm: PayoffMatrix) -> tuple[Fraction, tuple[tuple[int, ...], ...], int]:
    """``(value, ints, scale)``: the exact value of ``pm``'s center game, solved for alone.

    ``ints`` is the centers times ``scale``; no :class:`CenterGame` or strategy is built.
    """
    check_size(pm.rows, pm.cols)
    ints, scale = _on_grid(pm.centers())
    d, total, shift, _, _ = _simplex(ints, scale)
    return Fraction(d, total) - shift, ints, scale


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
    all are read exactly, so all three tests demand exact agreement.  A
    strategy whose length is not the matrix's row or column count is refused
    with ``ValueError``.

    The value is :func:`center_value`'s, and the guarantees are read on its grid.
    """
    check_size(pm.rows, pm.cols)  # the size refusal comes first, the length refusal before the LP
    if len(solution.x) != pm.rows or len(solution.y) != pm.cols:
        raise ValueError(
            f"solution strategies have {len(solution.x)} and {len(solution.y)} entries;"
            f" the matrix is {pm.rows}x{pm.cols}"
        )
    oracle_center, ints, scale = center_value(pm)
    (x,), x_scale = _on_grid((solution.x,))
    (y,), y_scale = _on_grid((solution.y,))
    floor, ceiling = _floor_ceiling(ints, x, y)
    x_floor, y_ceiling = Fraction(floor, x_scale * scale), Fraction(ceiling, y_scale * scale)
    solution_center = Fraction(*solution.value.center.as_integer_ratio())
    return OracleReport(
        oracle_center=oracle_center,
        solution_center=solution_center,
        x_floor=x_floor,
        y_ceiling=y_ceiling,
        value_match=solution_center == oracle_center,
        x_guarantee=x_floor >= oracle_center,
        y_guarantee=y_ceiling <= oracle_center,
    )
