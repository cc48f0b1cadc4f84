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
from functools import cached_property
from typing import Iterable, Sequence

from .fuzzy import FuzzyNum, on_denominator


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
        _check_labels("row", self.row_labels)
        _check_labels("column", self.col_labels)
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
        grid = [tuple(e if isinstance(e, FuzzyNum) else FuzzyNum(*e) for e in row) for row in entries]
        return _labelled(cls, grid, row_labels, col_labels)

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
        """The entries column by column (the transpose), computed on first use and kept.

        A column cut by :meth:`without` is given its columns when it is built.
        """
        return tuple(zip(*self.entries))

    def without(self, axis: Axis, pos: int) -> "PayoffMatrix":
        """This matrix with line ``pos`` of ``axis`` left out, labels included.

        The same matrix as :func:`submatrix` on every other index, built by
        slicing one line out of this matrix's entries and labels.  A column
        cut slices this matrix's :attr:`columns` instead, rebuilds its rows
        from them and keeps them as its own, so the parent's column tuples
        are shared and never transposed again.  ``axis`` must be an
        :class:`Axis`.  Like every cut, it is not checked again (see
        :func:`_cut`): only the axis, the position and the last line of an
        axis need a check.
        """
        if axis is Axis.ROW:
            lines = self.entries
        elif axis is Axis.COL:
            lines = self.columns
        else:
            raise SelectionError(f"axis must be Axis.ROW or Axis.COL, got {axis!r}")
        size = len(lines)
        if not 0 <= pos < size:
            raise SelectionError(f"{axis.value} {pos} out of range for size {size}")
        if size == 1:
            raise EmptyMatrixError("matrix must have at least one row and one column")
        lines = lines[:pos] + lines[pos + 1:]
        if axis is Axis.ROW:
            return _cut(lines, self.row_labels[:pos] + self.row_labels[pos + 1:], self.col_labels)
        cut = _cut(tuple(zip(*lines)), self.row_labels, self.col_labels[:pos] + self.col_labels[pos + 1:])
        cut.__dict__["columns"] = lines
        return cut

    def centers(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(e.center for e in row) for row in self.entries)

    @cached_property
    def center_scale(self) -> int:
        """The lcm of the center denominators: the least positive int making every center whole."""
        self.scaled_centers  # finds and keeps the scale too
        return self.__dict__["center_scale"]

    @cached_property
    def scaled_centers(self) -> tuple[tuple[int, ...], ...]:
        """Each center times :attr:`center_scale`, as an exact int, computed on first use and kept.

        One :func:`~fuzzygame.fuzzy.on_denominator` call over every center
        gives both.  The scale is positive, so every sign, order and ratio of
        differences of the centers is the same on this grid.
        """
        nums, scale = on_denominator([e.center for row in self.entries for e in row])
        self.__dict__["center_scale"] = scale
        n = len(self.entries[0])
        return tuple([tuple(nums[k:k + n]) for k in range(0, len(nums), n)])


def _check_labels(axis: str, labels: tuple) -> None:
    """Refuse a label that is not a ``str`` or cannot be written as UTF-8 (a lone surrogate)."""
    for label in labels:
        if not isinstance(label, str):
            raise MatrixError(f"{axis} label {label!r} is not a string")
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise MatrixError(f"{axis} label {label!r} cannot be written as UTF-8") from None


def _cut(entries: tuple, row_labels: tuple[str, ...], col_labels: tuple[str, ...]) -> PayoffMatrix:
    """The matrix of parts cut from a checked matrix, built without ``__post_init__``.

    Lines and labels kept at distinct positions of a valid matrix, in order,
    cannot be ragged or repeat a label, so they are not checked again.
    """
    pm = object.__new__(PayoffMatrix)
    pm.__dict__.update(entries=entries, row_labels=row_labels, col_labels=col_labels)
    return pm


def _labelled(
    cls: type[PayoffMatrix], grid: Sequence, rows: Sequence[str] | None, cols: Sequence[str] | None
) -> PayoffMatrix:
    """The checked ``cls`` of outside data; labels not given default to A1..Am and B1..Bn."""
    n = len(grid[0]) if grid else 0  # the constructor refuses an empty or ragged grid
    rows = tuple(rows) if rows is not None else tuple(f"A{i + 1}" for i in range(len(grid)))
    cols = tuple(cols) if cols is not None else tuple(f"B{j + 1}" for j in range(n))
    return cls(tuple(grid), rows, cols)


def parse_matrix(text: str) -> PayoffMatrix:
    """Parse a matrix document; every failure is a MatrixError saying what is wrong where.

    Each cell's numbers are judged by :class:`FuzzyNum` alone; its refusal
    is a :class:`NegativeSpreadError` when the spread is negative, else a
    :class:`NonFiniteNumberError`.
    """
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
            try:
                cells.append(FuzzyNum(*cell))
            except ValueError as exc:
                if cell[1] < 0:
                    raise NegativeSpreadError(f"{_where(i, j)}: spread {cell[1]} is negative") from None
                raise NonFiniteNumberError(f"{_where(i, j)}: {exc}") from None
        grid.append(tuple(cells))

    row_labels = _parse_labels(doc.get("rows"), len(grid), "rows")
    col_labels = _parse_labels(doc.get("cols"), len(grid[0]) if grid else 0, "cols")
    return _labelled(PayoffMatrix, grid, row_labels, col_labels)


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
    """Restrict to the given row/column indices (kept in ascending order).

    The selection is checked; the lines it cuts are not (see :func:`_cut`).
    """
    rows = sorted(set(keep_rows))
    cols = sorted(set(keep_cols))
    if not rows or not cols:
        raise SelectionError("submatrix selection must keep at least one row and column")
    if rows[0] < 0 or rows[-1] >= pm.rows:
        raise SelectionError(f"row selection {rows} out of range for {pm.rows} rows")
    if cols[0] < 0 or cols[-1] >= pm.cols:
        raise SelectionError(f"column selection {cols} out of range for {pm.cols} columns")
    entries = pm.entries
    return _cut(
        tuple([tuple([entries[i][j] for j in cols]) for i in rows]),
        tuple([pm.row_labels[i] for i in rows]),
        tuple([pm.col_labels[j] for j in cols]),
    )
