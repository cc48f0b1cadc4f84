"""Independent exact solver for the crisp center game.

Used by the test suite and the ``check`` command to validate values,
strategies and dominance soundness.  The solver pipeline never calls it.

The method enumerates square submatrices (kernels): for a k x k kernel B
with adjugate adj(B) and s = sum of the entries of adj(B) != 0, the
candidate value is det(B)/s, the row mix is proportional to the column sums
of adj(B) and the column mix to its row sums.  A candidate is accepted when
both mixes are nonnegative and optimal against every pure strategy of the
full game.  Every finite zero-sum game has such a kernel, so enumeration in
a fixed order is an exact, tolerance-free oracle.  Everything runs on
``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrix import PayoffMatrix
from .solver import Solution

SIZE_CAP = 8


class GameTooLargeError(ValueError):
    """Center game exceeds the desk-scale enumeration cap."""


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


def _det(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(mat)
    a = [list(row) for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def _adjugate(mat: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Adjugate (transposed cofactor matrix): B @ adj(B) == det(B) * I."""
    k = len(mat)
    if k == 1:
        return ((Fraction(1),),)
    adj = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = [
                [mat[r][c] for c in range(k) if c != i] for r in range(k) if r != j
            ]
            sign = -1 if (i + j) % 2 else 1
            row.append(sign * _det(minor))
        adj.append(tuple(row))
    return tuple(adj)


def oracle_value(game: CenterGame) -> OracleSolution:
    """Exact value and one optimal mixed-strategy pair of the center game.

    Kernels are scanned in deterministic order (size ascending, then row and
    column subsets lexicographically) and the first optimal candidate is
    returned.  The value is unique; the strategies need not be.
    """
    m, n = game.rows, game.cols
    if m > SIZE_CAP or n > SIZE_CAP:
        raise GameTooLargeError(
            f"{m}x{n} exceeds the {SIZE_CAP}x{SIZE_CAP} enumeration cap"
        )
    g = game.grid
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                kernel = [[g[i][j] for j in cols] for i in rows]
                adj = _adjugate(kernel)
                s = sum(adj[r][c] for r in range(k) for c in range(k))
                if s == 0:
                    continue
                value = _det(kernel) / s
                x_part = [sum(adj[r][c] for r in range(k)) / s for c in range(k)]
                y_part = [sum(adj[r][c] for c in range(k)) / s for r in range(k)]
                if any(p < 0 for p in x_part) or any(p < 0 for p in y_part):
                    continue
                x = [Fraction(0)] * m
                y = [Fraction(0)] * n
                for pos, i in enumerate(rows):
                    x[i] = x_part[pos]
                for pos, j in enumerate(cols):
                    y[j] = y_part[pos]
                if _optimal(g, x, y, value):
                    return OracleSolution(value, tuple(x), tuple(y))
    raise RuntimeError("kernel enumeration exhausted without an optimal pair")


def _optimal(
    g: tuple[tuple[Fraction, ...], ...],
    x: list[Fraction],
    y: list[Fraction],
    value: Fraction,
) -> bool:
    m, n = len(g), len(g[0])
    floor_ok = all(sum(x[i] * g[i][j] for i in range(m)) >= value for j in range(n))
    ceil_ok = all(sum(g[i][j] * y[j] for j in range(n)) <= value for i in range(m))
    return floor_ok and ceil_ok


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


def oracle_check(pm: PayoffMatrix, solution: Solution, tol: float = 0) -> OracleReport:
    """Validate a solution's value center and both guarantee inequalities.

    The solution's x must earn at least the oracle value against every
    column of the original matrix, and its y must concede at most the oracle
    value against every row.  Everything is exact, so the default ``tol``
    of 0 demands exact agreement; a positive ``tol`` loosens all three tests.
    """
    oracle = oracle_value(CenterGame.from_payoff(pm))
    centers = [[Fraction(c) for c in row] for row in pm.centers()]
    m, n = pm.rows, pm.cols
    x_floor = min(
        sum(solution.x[i] * centers[i][j] for i in range(m)) for j in range(n)
    )
    y_ceiling = max(
        sum(centers[i][j] * solution.y[j] for j in range(n)) for i in range(m)
    )
    solution_center = Fraction(solution.value.center)
    tol_f = Fraction(tol)
    return OracleReport(
        oracle_center=oracle.value,
        solution_center=solution_center,
        x_floor=x_floor,
        y_ceiling=y_ceiling,
        value_match=abs(solution_center - oracle.value) <= tol_f,
        x_guarantee=x_floor >= oracle.value - tol_f,
        y_guarantee=y_ceiling <= oracle.value + tol_f,
    )
