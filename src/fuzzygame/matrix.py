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
import math
from dataclasses import dataclass
from enum import Enum
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
        n = len(grid[0]) if grid else 0  # the constructor refuses an empty grid
        rows = tuple(row_labels) if row_labels is not None else default_row_labels(len(grid))
        cols = tuple(col_labels) if col_labels is not None else default_col_labels(n)
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
        return self.columns[j]

    @cached_property
    def columns(self) -> tuple[tuple[FuzzyNum, ...], ...]:
        """The entries column by column (the transpose), computed on first use and kept."""
        return tuple(zip(*self.entries))

    def without(self, axis: Axis, pos: int) -> "PayoffMatrix":
        """This matrix with line ``pos`` of ``axis`` left out, labels included.

        The same matrix as :func:`submatrix` on every other index, built by
        slicing one line out of this matrix's entries and labels.  It is not
        validated again: lines cut out of a valid matrix leave rows of one
        length and labels that do not repeat, so only the position and the
        last line of an axis need a check.
        """
        size = self.rows if axis is Axis.ROW else self.cols
        if not 0 <= pos < size:
            raise SelectionError(f"{axis.value} {pos} out of range for size {size}")
        if size == 1:
            raise EmptyMatrixError("matrix must have at least one row and one column")
        entries, row_labels, col_labels = self.entries, self.row_labels, self.col_labels
        if axis is Axis.ROW:
            entries = entries[:pos] + entries[pos + 1:]
            row_labels = row_labels[:pos] + row_labels[pos + 1:]
        else:
            entries = tuple([row[:pos] + row[pos + 1:] for row in entries])
            col_labels = col_labels[:pos] + col_labels[pos + 1:]
        residual = object.__new__(PayoffMatrix)
        residual.__dict__.update(entries=entries, row_labels=row_labels, col_labels=col_labels)
        return residual

    def centers(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(e.center for e in row) for row in self.entries)

    @cached_property
    def center_scale(self) -> int:
        """The lcm of the center denominators: the least positive int making every center whole."""
        return math.lcm(*(e.center.as_integer_ratio()[1] for row in self.entries for e in row))

    @cached_property
    def scaled_centers(self) -> tuple[tuple[int, ...], ...]:
        """Each center times :attr:`center_scale`, as an exact int, computed on first use and kept.

        The scale is positive, so every sign, order and ratio of differences
        of the centers is the same on this grid.
        """
        scale = self.center_scale
        return tuple(
            tuple(num * (scale // den) for num, den in (e.center.as_integer_ratio() for e in row))
            for row in self.entries
        )


def parse_matrix(text: str) -> PayoffMatrix:
    """Parse a matrix document; every failure is a MatrixError saying what is wrong where."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise MatrixSyntaxError("document is nested too deeply to parse") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise MatrixSyntaxError(str(exc)) from None

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

    n = len(grid[0]) if grid else 0  # PayoffMatrix refuses an empty or ragged grid
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


def matrix_doc(pm: PayoffMatrix) -> dict:
    """The document of ``pm``: machine mode prints it, :func:`serialize_matrix` renders it.

    A parsed game holds only ints and floats, which json writes back as they were read.
    """
    return {
        "rows": list(pm.row_labels),
        "cols": list(pm.col_labels),
        "entries": [[[e.center, e.spread] for e in row] for row in pm.entries],
    }


def serialize_matrix(pm: PayoffMatrix) -> str:
    """Canonical text of :func:`matrix_doc`; parse_matrix inverts it bit-exactly."""
    doc = matrix_doc(pm)
    grid = ",\n".join("    [" + ", ".join(map(json.dumps, row)) + "]" for row in doc["entries"])
    return (
        "{\n"
        f'  "rows": {json.dumps(doc["rows"])},\n'
        f'  "cols": {json.dumps(doc["cols"])},\n'
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
