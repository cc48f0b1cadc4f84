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
the leaving row's own diagonal entry.

The module solves one way and proves one way.  :func:`oracle_value`,
:func:`center_value` (the value alone, from a payoff matrix's centers) and
:func:`oracle_check` read the exact value from the one simplex.  One
weak-duality test proves a value v: x and y are probability vectors, x earns
at least v against every column and y concedes at most v to every row.  The
simplex proves its own answer by it, and :func:`oracle_check` proves the
solution's value center by it first, running the simplex only when that
fails.  Games larger than ``SIZE_CAP`` in either dimension are refused
before any cell is read, even where the proof would need no simplex.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .matrix import PayoffMatrix

if TYPE_CHECKING:  # annotation only: the oracle never runs solver code
    from .solver import Solution

# 32x32, on a 2-core Xeon with Python 3.11 (three seeded games each): 0.03-0.04 s on integer
# centers; 0.06-0.11 s on exact tenths (Fraction(k, 10)); 0.5-0.7 s on binary-float tenths,
# which is what JSON gives; 0.7-0.9 s mixed.  Big-integer arithmetic dominates at this size.
# Those times are the simplex's, which runs only for a game the pipeline cannot reduce or an
# answer whose certificate fails; the cap is checked up front all the same, before ``check`` solves.
SIZE_CAP = 32


class GameTooLargeError(ValueError):
    """Center game exceeds the oracle's size cap."""


def check_size(rows: int, cols: int) -> None:
    """Refuse a ``rows`` x ``cols`` game above ``SIZE_CAP`` with :class:`GameTooLargeError`."""
    if rows > SIZE_CAP or cols > SIZE_CAP:
        raise GameTooLargeError(f"{rows}x{cols} exceeds the {SIZE_CAP}x{SIZE_CAP} oracle cap")


# The types a center game cell may have, tested exactly, so bool, str and Decimal are refused.
_NUMBER_TYPES = frozenset((int, float, Fraction))


def _exact(cell: object) -> Fraction:
    if type(cell) not in _NUMBER_TYPES:
        raise ValueError(f"center game cell {cell!r} is not an int, float or Fraction")
    if type(cell) is Fraction:
        return cell
    try:
        return Fraction(cell)
    except (OverflowError, ValueError):  # ±inf overflow, NaN is a ValueError
        raise ValueError(f"center game cell {cell!r} is not a finite number") from None


def _centers(pm: PayoffMatrix) -> tuple[tuple[float, ...], ...]:
    """The centers of ``pm``, each an int, float or ``Fraction``.

    A cell of another type (``bool`` or ``Decimal``, which ``FuzzyNum``
    accepts) is refused with the ``ValueError`` :class:`CenterGame` gives.
    The test is one per game: the set of the cells' types, gathered without
    a Python loop per cell.
    """
    centers = pm.centers()
    if not _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(centers))):
        for cell in itertools.chain.from_iterable(centers):
            _exact(cell)  # raises at the first cell of another type
    return centers


def _on_grid(rows: Sequence[Sequence[float]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(ints, scale)``: ``scale`` is the lcm of the values' denominators, ``ints`` each value times it."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]  # ints, floats and Fractions alike
    scale = math.lcm(*[den for row in ratios for _, den in row])
    return tuple([tuple([num * (scale // den) for num, den in row]) for row in ratios]), scale


@dataclass(frozen=True)
class CenterGame:
    """Crisp m x n game: the centers of a fuzzy payoff matrix.

    Cells may be given as ints, floats or ``Fraction``s; each is kept as the
    exact ``Fraction`` of its value.  NaN, infinities and a cell of any other
    type (``bool`` and ``str`` included) raise ``ValueError``.
    """

    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.grid or not self.grid[0]:
            raise ValueError("center game must have at least one row and one column")
        n = len(self.grid[0])
        if any(len(row) != n for row in self.grid):
            raise ValueError("center game must be rectangular")
        object.__setattr__(self, "grid", tuple(tuple(map(_exact, row)) for row in self.grid))

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
    value, total, x, y = _simplex(*_on_grid(game.grid))
    return OracleSolution(
        value, tuple(Fraction(v, total) for v in x), tuple(Fraction(v, total) for v in y)
    )


def _simplex(
    ints: tuple[tuple[int, ...], ...], scale: int
) -> tuple[Fraction, int, list[int], list[int]]:
    """``(value, total, x, y)``: the game's exact value and the mixes ``x/total``, ``y/total``.

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
    if total > 0:
        value = Fraction(d, total) - shift
        if _duality(ints, scale, x, total, y, total, value)[2]:
            return value, total, x, y
    raise RuntimeError("simplex optimum failed exact certification")


def _duality(
    ints: tuple[tuple[int, ...], ...], scale: int,
    x: Sequence[int], x_den: int, y: Sequence[int], y_den: int, value: Fraction,
) -> tuple[Fraction, Fraction, bool]:
    """``(floor, ceiling, proven)`` for the mixes ``x/x_den`` and ``y/y_den`` of the game ``ints/scale``.

    ``floor`` is the worst column payoff under x and ``ceiling`` the best row
    payoff under y.  ``proven`` holds when x and y are probability vectors and
    ``floor >= value >= ceiling``: then, by weak duality, ``value`` is the game's value.
    """
    payoffs = [0] * len(ints[0])
    for w, row in zip(x, ints):
        if w:
            payoffs = [a + w * v for a, v in zip(payoffs, row)]
    floor = Fraction(min(payoffs), x_den * scale)
    ceiling = Fraction(max(sum(map(operator.mul, row, y)) for row in ints), y_den * scale)
    proven = (
        min(x) >= 0 and min(y) >= 0 and sum(x) == x_den and sum(y) == y_den
        and floor >= value >= ceiling
    )
    return floor, ceiling, proven


def center_value(pm: PayoffMatrix) -> Fraction:
    """The exact value of ``pm``'s center game, solved for alone: no :class:`CenterGame` is built.

    A center that is not an int, float or ``Fraction`` is refused as :class:`CenterGame` refuses it.
    """
    check_size(pm.rows, pm.cols)
    return _simplex(*_on_grid(_centers(pm)))[0]


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
    all are read exactly, so all three tests demand exact agreement.  A game
    above ``SIZE_CAP`` is refused with :class:`GameTooLargeError` before any
    cell is read, then a strategy whose length is not the matrix's row or
    column count with ``ValueError``, then a center that is not an int, float
    or ``Fraction``, as :class:`CenterGame` refuses it.

    The solution's own strategies decide first, by weak duality: when x and
    y are probability vectors and x's worst column payoff is at least the
    solution's value center v while y's best row payoff is at most v, the
    game's value lies between the two, so it is v, and no linear program
    runs.  That is the test the simplex passes its own answer through.
    Otherwise the simplex solves the game on the grid already read, so a
    wrong answer is reported beside the true value.
    """
    check_size(pm.rows, pm.cols)  # the size refusal comes first, the length refusal before any cell
    if len(solution.x) != pm.rows or len(solution.y) != pm.cols:
        raise ValueError(
            f"solution strategies have {len(solution.x)} and {len(solution.y)} entries;"
            f" the matrix is {pm.rows}x{pm.cols}"
        )
    ints, scale = _on_grid(_centers(pm))
    (x,), x_den = _on_grid((solution.x,))
    (y,), y_den = _on_grid((solution.y,))
    solution_center = Fraction(*solution.value.center.as_integer_ratio())
    x_floor, y_ceiling, certified = _duality(ints, scale, x, x_den, y, y_den, solution_center)
    oracle_center = solution_center if certified else _simplex(ints, scale)[0]
    return OracleReport(
        oracle_center=oracle_center,
        solution_center=solution_center,
        x_floor=x_floor,
        y_ceiling=y_ceiling,
        value_match=solution_center == oracle_center,
        x_guarantee=x_floor >= oracle_center,
        y_guarantee=y_ceiling <= oracle_center,
    )
