"""Payoff matrices of fuzzy numbers and their on-disk JSON format.

A matrix document is a JSON object with an ``entries`` key (array of rows,
each row an array of ``[center, spread]`` pairs) and optional ``rows`` /
``cols`` label lists::

    {
      "rows": ["A1", "A2"],
      "cols": ["B1", "B2"],
      "entries": [[[1, 0.2], [7, 0.3]], [[6, 0.2], [2, 0.1]]]
    }

Payoffs are always written for the maximizing row player.  Numbers are kept
exactly as parsed (no rounding), so serialize/parse round-trips bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .fuzzy import FuzzyNum


class MatrixError(ValueError):
    """Base class for payoff-matrix validation failures."""


class MatrixSyntaxError(MatrixError):
    """Document is not well-formed (bad JSON or wrong structure)."""


class RaggedRowsError(MatrixError):
    """Rows of the entry grid have differing lengths."""


class NegativeSpreadError(MatrixError):
    """An entry carries a negative spread."""


class NonFiniteNumberError(MatrixError):
    """An entry holds NaN, an infinity, or a number too large for a float."""


class DuplicateLabelsError(MatrixError):
    """Strategy labels repeat within an axis."""


class EmptyMatrixError(MatrixError):
    """The matrix has no rows or no columns."""


class SelectionError(MatrixError):
    """A submatrix selection is empty or out of range."""


class Axis(Enum):
    ROW = "row"
    COL = "col"


@dataclass(frozen=True)
class StrategyIndex:
    """Stable identity of a strategy: axis plus 0-based index in the ORIGINAL matrix."""

    axis: Axis
    index: int


def default_row_labels(m: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1}" for i in range(m))


def default_col_labels(n: int) -> tuple[str, ...]:
    return tuple(f"B{j + 1}" for j in range(n))


@dataclass(frozen=True)
class PayoffMatrix:
    """Rectangular grid of fuzzy payoffs with row/column strategy labels."""

    entries: tuple[tuple[FuzzyNum, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise EmptyMatrixError("matrix must have at least one row and one column")
        n = len(self.entries[0])
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise RaggedRowsError(
                    f"row {i + 1} has {len(row)} entries, expected {n}"
                )
        if len(self.row_labels) != len(self.entries):
            raise MatrixError(
                f"{len(self.row_labels)} row labels for {len(self.entries)} rows"
            )
        if len(self.col_labels) != n:
            raise MatrixError(f"{len(self.col_labels)} column labels for {n} columns")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise DuplicateLabelsError(f"duplicate row labels: {self.row_labels}")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise DuplicateLabelsError(f"duplicate column labels: {self.col_labels}")

    @classmethod
    def of(
        cls,
        entries: Sequence[Sequence[FuzzyNum | Sequence[float]]],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ) -> "PayoffMatrix":
        """Build a matrix from FuzzyNum entries or plain (center, spread) pairs."""
        grid = tuple(
            tuple(e if isinstance(e, FuzzyNum) else FuzzyNum(*e) for e in row)
            for row in entries
        )
        if not grid:
            raise EmptyMatrixError("matrix must have at least one row and one column")
        rows = tuple(row_labels) if row_labels is not None else default_row_labels(len(grid))
        cols = tuple(col_labels) if col_labels is not None else default_col_labels(len(grid[0]))
        return cls(grid, rows, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> FuzzyNum:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[FuzzyNum, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[FuzzyNum, ...]:
        return tuple(row[j] for row in self.entries)

    def centers(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(e.center for e in row) for row in self.entries)

    @cached_property
    def exact_centers(self) -> tuple[tuple[Fraction, ...], ...]:
        """The centers as exact rationals, converted on first use and kept."""
        return tuple(tuple(Fraction(e.center) for e in row) for row in self.entries)

    @cached_property
    def dual(self) -> "PayoffMatrix":
        """The negated transpose with the labels swapped, built on first use and kept.

        Its rows are the column player's strategies: minimizing over this
        game's columns is maximizing over the dual's rows.
        """
        return PayoffMatrix(
            tuple(tuple(FuzzyNum(-e.center, e.spread) for e in col) for col in zip(*self.entries)),
            self.col_labels,
            self.row_labels,
        )


def parse_matrix(text: str) -> PayoffMatrix:
    """Parse a matrix document, reporting the position of whatever is wrong."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(doc, dict):
        raise MatrixSyntaxError("top level must be an object with an 'entries' key")
    unknown = set(doc) - {"rows", "cols", "entries"}
    if unknown:
        raise MatrixSyntaxError(f"unknown keys: {sorted(unknown)}")
    if "entries" not in doc:
        raise MatrixSyntaxError("missing required key 'entries'")
    raw = doc["entries"]
    if not isinstance(raw, list) or any(not isinstance(row, list) for row in raw):
        raise MatrixSyntaxError("'entries' must be an array of rows")
    if not raw or not raw[0]:
        raise EmptyMatrixError("matrix must have at least one row and one column")

    n = len(raw[0])
    for i, row in enumerate(raw):
        if len(row) != n:
            raise RaggedRowsError(f"row {i + 1} has {len(row)} entries, expected {n}")

    # json.loads gives exact list, int, float and bool objects, never a
    # subclass, so exact type tests suffice and keep true/false out.
    grid = []
    for i, row in enumerate(raw):
        cells = []
        for j, cell in enumerate(row):
            if (
                type(cell) is not list
                or len(cell) != 2
                or type(cell[0]) not in (int, float)
                or type(cell[1]) not in (int, float)
            ):
                raise MatrixSyntaxError(f"{_where(i, j)}: expected a [center, spread] pair")
            center, spread = cell
            if spread < 0:
                raise NegativeSpreadError(f"{_where(i, j)}: spread {spread} is negative")
            try:
                cells.append(FuzzyNum(center, spread))
            except ValueError as exc:
                raise NonFiniteNumberError(f"{_where(i, j)}: {exc}") from None
        grid.append(tuple(cells))

    row_labels = _parse_labels(doc.get("rows"), len(grid), "rows") or default_row_labels(len(grid))
    col_labels = _parse_labels(doc.get("cols"), n, "cols") or default_col_labels(n)
    return PayoffMatrix(tuple(grid), row_labels, col_labels)


def _where(i: int, j: int) -> str:
    return f"entries[{i + 1}][{j + 1}]"


def _parse_labels(raw: object, expected: int, key: str) -> tuple[str, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or any(not isinstance(s, str) for s in raw):
        raise MatrixSyntaxError(f"'{key}' must be an array of strings")
    if len(raw) != expected:
        raise MatrixSyntaxError(f"'{key}' lists {len(raw)} labels, expected {expected}")
    return tuple(raw)


def serialize_matrix(pm: PayoffMatrix) -> str:
    """Canonical document for ``pm``; parse_matrix inverts it bit-exactly."""
    rows = json.dumps(list(pm.row_labels))
    cols = json.dumps(list(pm.col_labels))
    grid = ",\n".join(
        "    [" + ", ".join(json.dumps([e.center, e.spread]) for e in row) + "]"
        for row in pm.entries
    )
    return (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        f'  "entries": [\n{grid}\n  ]\n'
        "}\n"
    )


def submatrix(
    pm: PayoffMatrix, keep_rows: Iterable[int], keep_cols: Iterable[int]
) -> PayoffMatrix:
    """Restrict to the given row/column indices (kept in ascending order)."""
    rows = sorted(set(keep_rows))
    cols = sorted(set(keep_cols))
    if not rows or not cols:
        raise SelectionError("submatrix selection must keep at least one row and column")
    if rows[0] < 0 or rows[-1] >= pm.rows:
        raise SelectionError(f"row selection {rows} out of range for {pm.rows} rows")
    if cols[0] < 0 or cols[-1] >= pm.cols:
        raise SelectionError(f"column selection {cols} out of range for {pm.cols} columns")
    entries = pm.entries
    return PayoffMatrix(
        tuple([tuple([entries[i][j] for j in cols]) for i in rows]),
        tuple([pm.row_labels[i] for i in rows]),
        tuple([pm.col_labels[j] for j in cols]),
    )
