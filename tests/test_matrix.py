"""Payoff-matrix model, file format, and submatrix extraction."""

import random
import sys

import pytest

from fuzzygame import (
    Axis,
    DuplicateLabelsError,
    EmptyMatrixError,
    FuzzyNum,
    MatrixError,
    MatrixSyntaxError,
    NegativeSpreadError,
    NonFiniteNumberError,
    PayoffMatrix,
    RaggedRowsError,
    SelectionError,
    parse_matrix,
    serialize_matrix,
    submatrix,
)

REDUCED_2X2 = '{"entries": [[[1, 0.2], [7, 0.3]], [[6, 0.2], [2, 0.1]]]}'


class TestParse:
    def test_basic_document(self):
        pm = parse_matrix(REDUCED_2X2)
        assert (pm.rows, pm.cols) == (2, 2)
        assert pm.entry(0, 1) == FuzzyNum(7, 0.3)
        assert pm.row_labels == ("A1", "A2")
        assert pm.col_labels == ("B1", "B2")

    def test_custom_labels(self):
        pm = parse_matrix(
            '{"rows": ["hawk", "dove"], "cols": ["left", "right"],'
            ' "entries": [[[0, 0], [1, 0]], [[2, 0], [3, 0]]]}'
        )
        assert pm.row_labels == ("hawk", "dove")
        assert pm.col_labels == ("left", "right")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRowsError, match="row 2"):
            parse_matrix('{"entries": [[[1, 0], [2, 0]], [[3, 0], [4, 0], [5, 0]]]}')

    def test_negative_spread_names_the_cell(self):
        with pytest.raises(NegativeSpreadError, match=r"entries\[1\]\[2\]"):
            parse_matrix('{"entries": [[[1, 0], [2, -0.1]]]}')

    @pytest.mark.parametrize("cell, where", [
        ("[NaN, 0.1]", r"entries\[1\]\[2\]"),
        ("[1, NaN]", r"entries\[1\]\[2\]"),
        ("[1e999, 0.1]", r"entries\[1\]\[2\]"),
        ("[-Infinity, 0.1]", r"entries\[1\]\[2\]"),
        ("[1, Infinity]", r"entries\[1\]\[2\]"),
        ("[1" + "0" * 400 + ", 0]", r"entries\[1\]\[2\]"),
    ])
    def test_non_finite_number_names_the_cell(self, cell, where):
        with pytest.raises(NonFiniteNumberError, match=where):
            parse_matrix('{"entries": [[[1, 0], ' + cell + ']]}')

    def test_largest_float_is_accepted(self):
        pm = parse_matrix('{"entries": [[[-1.7976931348623157e308, 1.7976931348623157e308]]]}')
        assert pm.entry(0, 0).spread == 1.7976931348623157e308

    def test_duplicate_labels(self):
        with pytest.raises(DuplicateLabelsError):
            parse_matrix('{"rows": ["A", "A"], "entries": [[[1, 0]], [[2, 0]]]}')

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            parse_matrix('{"entries": []}')
        with pytest.raises(EmptyMatrixError):
            parse_matrix('{"entries": [[]]}')

    def test_ragged_document_with_a_bad_cell_names_the_cell(self):
        # Cells are read before the shape is checked, once, by PayoffMatrix.
        with pytest.raises(NegativeSpreadError, match=r"entries\[2\]\[3\]"):
            parse_matrix('{"entries": [[[1, 0], [2, 0]], [[3, 0], [4, 0], [5, -1]]]}')

    def test_empty_row_with_labels_names_the_label_count(self):
        with pytest.raises(MatrixSyntaxError, match="'cols' lists 1 labels, expected 0"):
            parse_matrix('{"entries": [[]], "cols": ["B1"]}')

    def test_syntax_error_reports_position(self):
        with pytest.raises(MatrixSyntaxError, match=r"line 2"):
            parse_matrix('{"entries":\n [[1, 0],]}')

    @pytest.mark.parametrize(
        "cell, i, j",
        [
            pytest.param("true", 1, 2, id="boolean"),
            pytest.param("null", 2, 1, id="null"),
            pytest.param('"1"', 2, 2, id="string"),
            pytest.param("1", 1, 2, id="number"),
            pytest.param("[1]", 2, 1, id="one-item"),
            pytest.param("[1, 2, 3]", 1, 1, id="three-items"),
            pytest.param("[[1], 0]", 2, 2, id="nested-center"),
            pytest.param('{"c": 1}', 1, 1, id="object"),
            pytest.param("[true, 0]", 1, 2, id="boolean-center"),
            pytest.param("[0, false]", 2, 1, id="boolean-spread"),
            pytest.param('[1, "x"]', 2, 2, id="string-spread"),
        ],
    )
    def test_entry_must_be_a_pair(self, cell, i, j):
        grid = [["[1, 0.5]", "[2, 0]"], ["[3, 0.1]", "[4, 0]"]]
        grid[i - 1][j - 1] = cell
        text = '{"entries": [' + ", ".join("[" + ", ".join(row) + "]" for row in grid) + "]}"
        with pytest.raises(MatrixSyntaxError) as info:
            parse_matrix(text)
        assert str(info.value) == f"entries[{i}][{j}]: expected a [center, spread] pair"

    def test_wrong_label_count(self):
        with pytest.raises(MatrixSyntaxError, match="expected 1"):
            parse_matrix('{"rows": ["a", "b"], "entries": [[[1, 0]]]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[[[1, 0]]]", "top level must be an object with an 'entries' key",
                         id="top-level-array"),
            pytest.param('{"rows": ["A1"]}', "missing required key 'entries'", id="no-entries"),
            pytest.param('{"entries": 5}', "'entries' must be an array of rows", id="entries-5"),
            pytest.param('{"cols": [1], "entries": [[[1, 0]]]}',
                         "'cols' must be an array of strings", id="number-label"),
        ],
    )
    def test_structure_refusals(self, text, message):
        with pytest.raises(MatrixSyntaxError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    def test_unknown_keys_rejected(self):
        with pytest.raises(MatrixSyntaxError, match="unknown"):
            parse_matrix('{"entries": [[[1, 0]]], "extra": 1}')

    def test_deep_nesting_is_a_matrix_error(self):
        # json.loads raises RecursionError on this; parse must not pass it on.
        with pytest.raises(MatrixSyntaxError, match="nested too deeply"):
            parse_matrix("[" * 200_000 + "]" * 200_000)

    def test_long_integer_is_a_matrix_error(self):
        # Pythons with the int-to-string digit limit (4300 by default) refuse
        # the integer inside json.loads with a bare ValueError; without the
        # limit it parses and is too large for a float.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        expected = MatrixSyntaxError if 0 < limit < 5000 else NonFiniteNumberError
        with pytest.raises(MatrixError) as info:
            parse_matrix('{"entries": [[[' + "9" * 5000 + ', 0.1]]]}')
        assert type(info.value) is expected


class TestSerialize:
    def test_round_trip_single_cell(self):
        pm = PayoffMatrix.of([[(0, 0)]])
        assert parse_matrix(serialize_matrix(pm)) == pm

    def test_round_trip_simulation(self, simulation_3x4):
        assert parse_matrix(serialize_matrix(simulation_3x4)) == simulation_3x4

    def test_round_trip_preserves_labels(self):
        pm = PayoffMatrix.of([[(1, 0.5)]], row_labels=["only"], col_labels=["choice"])
        again = parse_matrix(serialize_matrix(pm))
        assert again.row_labels == ("only",)
        assert again.col_labels == ("choice",)

    def test_serialize_is_canonical_fixpoint(self, simulation_3x4):
        text = serialize_matrix(simulation_3x4)
        assert serialize_matrix(parse_matrix(text)) == text

    def test_random_round_trips_bit_exact(self):
        rng = random.Random(91)
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            pm = PayoffMatrix.of(
                [
                    [(rng.uniform(-1e6, 1e6), rng.uniform(0, 1e3)) for _ in range(n)]
                    for _ in range(m)
                ]
            )
            assert parse_matrix(serialize_matrix(pm)) == pm


class TestSubmatrix:
    def test_drop_third_row(self, dominance_3x3):
        reduced = submatrix(dominance_3x3, (0, 1), (0, 1, 2))
        assert reduced == PayoffMatrix.of(
            [
                [(1, 0.2), (7, 0.3), (2, 0.1)],
                [(6, 0.2), (2, 0.1), (7, 0.3)],
            ],
            row_labels=["A1", "A2"],
            col_labels=["B1", "B2", "B3"],
        )

    def test_keep_everything(self, simulation_3x4):
        assert submatrix(simulation_3x4, range(3), range(4)) == simulation_3x4

    def test_final_simulation_block(self, simulation_3x4):
        block = submatrix(simulation_3x4, (1, 2), (1, 3))
        assert block.entries == (
            (FuzzyNum(15, 0.5), FuzzyNum(16, 0.1)),
            (FuzzyNum(20, 0.2), FuzzyNum(5, 0.4)),
        )
        assert block.row_labels == ("A2", "A3")
        assert block.col_labels == ("B2", "B4")

    def test_entry_identity(self, simulation_3x4):
        sub = submatrix(simulation_3x4, (0, 2), (1, 2))
        for i, oi in enumerate((0, 2)):
            for j, oj in enumerate((1, 2)):
                assert sub.entry(i, j) == simulation_3x4.entry(oi, oj)

    def test_empty_selection(self, simulation_3x4):
        with pytest.raises(SelectionError):
            submatrix(simulation_3x4, (), (0,))

    def test_out_of_range(self, simulation_3x4):
        with pytest.raises(SelectionError):
            submatrix(simulation_3x4, (0, 7), (0,))

    def test_column_out_of_range(self, simulation_3x4):
        with pytest.raises(SelectionError) as info:
            submatrix(simulation_3x4, (0,), (0, 4))
        assert str(info.value) == "column selection [0, 4] out of range for 4 columns"


class TestWithout:
    @pytest.fixture
    def labelled_4x5(self):
        rng = random.Random(45)
        return PayoffMatrix.of(
            [[(rng.randint(-9, 9), rng.randint(0, 5) / 10) for _ in range(5)] for _ in range(4)],
            row_labels=["top", "up", "down", "bottom"],
            col_labels=["a", "b", "c", "d", "e"],
        )

    def test_equals_submatrix_of_the_kept_indices(self, labelled_4x5):
        pm = labelled_4x5
        for pos in range(pm.rows):
            kept = [i for i in range(pm.rows) if i != pos]
            assert pm.without(Axis.ROW, pos) == submatrix(pm, kept, range(pm.cols))
        for pos in range(pm.cols):
            kept = [j for j in range(pm.cols) if j != pos]
            assert pm.without(Axis.COL, pos) == submatrix(pm, range(pm.rows), kept)
        assert pm.without(Axis.ROW, 1).row_labels == ("top", "down", "bottom")
        assert pm.without(Axis.COL, 4).col_labels == ("a", "b", "c", "d")

    @pytest.mark.parametrize("axis, pos", [(Axis.ROW, 4), (Axis.ROW, -1), (Axis.COL, 5)])
    def test_out_of_range(self, labelled_4x5, axis, pos):
        with pytest.raises(SelectionError):
            labelled_4x5.without(axis, pos)

    def test_last_line_is_kept(self):
        with pytest.raises(EmptyMatrixError):
            PayoffMatrix.of([[(1, 0), (2, 0)]]).without(Axis.ROW, 0)

    def test_columns_are_the_cached_transpose(self, labelled_4x5):
        pm = labelled_4x5
        assert pm.columns == tuple(zip(*pm.entries))
        assert pm.columns is pm.columns
        assert pm.col(2) == tuple(row[2] for row in pm.entries)


class TestConstruction:
    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            PayoffMatrix.of([[(1, -0.1)]])

    def test_ragged_rejected(self):
        with pytest.raises(RaggedRowsError):
            PayoffMatrix.of([[(1, 0), (2, 0)], [(3, 0)]])

    def test_no_rows_rejected(self):
        with pytest.raises(EmptyMatrixError) as info:
            PayoffMatrix.of([])
        assert str(info.value) == "matrix must have at least one row and one column"

    @pytest.mark.parametrize(
        "rows, cols, error, message",
        [
            (("A1", "A2"), ("B1", "B2"), MatrixError, "2 row labels for 1 rows"),
            (("A1",), ("B1",), MatrixError, "1 column labels for 2 columns"),
            (("A1",), ("B", "B"), DuplicateLabelsError, "duplicate column labels: ('B', 'B')"),
        ],
    )
    def test_direct_construction_checks_labels(self, rows, cols, error, message):
        entries = ((FuzzyNum(1, 0), FuzzyNum(2, 0)),)
        with pytest.raises(error) as info:
            PayoffMatrix(entries, rows, cols)
        assert str(info.value) == message

    def test_valid_matrix_never_raises(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            PayoffMatrix.of(
                [[(rng.uniform(-9, 9), rng.uniform(0, 2)) for _ in range(n)] for _ in range(m)]
            )
