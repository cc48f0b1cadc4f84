"""Payoff-matrix model, file format, and submatrix extraction."""

import random

import pytest

from fuzzygame import (
    DuplicateLabelsError,
    EmptyMatrixError,
    FuzzyNum,
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

    def test_unknown_keys_rejected(self):
        with pytest.raises(MatrixSyntaxError, match="unknown"):
            parse_matrix('{"entries": [[[1, 0]]], "extra": 1}')


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


class TestConstruction:
    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            PayoffMatrix.of([[(1, -0.1)]])

    def test_ragged_rejected(self):
        with pytest.raises(RaggedRowsError):
            PayoffMatrix.of([[(1, 0), (2, 0)], [(3, 0)]])

    def test_valid_matrix_never_raises(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            PayoffMatrix.of(
                [[(rng.uniform(-9, 9), rng.uniform(0, 2)) for _ in range(n)] for _ in range(m)]
            )
