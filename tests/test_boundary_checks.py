"""Each public constructor and dominance test refuses bad input as it always has.

The solver builds residuals and results from parts it has already checked,
so those internal paths skip the checks; these tests pin what a caller who
passes bad input directly still gets: the same error type and message.
"""

import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import pickle
import random
from fractions import Fraction as F

import pytest

from fuzzygame import (
    Axis,
    EmptyMatrixError,
    FuzzyNum,
    NegativeSpreadError,
    NonFiniteNumberError,
    PayoffMatrix,
    SelectionError,
    SolutionKind,
    StepKind,
    StrategyIndex,
    col_dominates,
    convex_col_dominates,
    convex_row_dominates,
    parse_matrix,
    row_dominates,
    submatrix,
)
from fuzzygame.solver import ReductionStep, Solution

def _game(rng, m, n):
    return PayoffMatrix.of(
        [[(rng.choice((rng.randint(-9, 9), rng.randint(-90, 90) / 10)), rng.randint(0, 5) / 10)
          for _ in range(n)] for _ in range(m)],
        row_labels=[f"r{i}" for i in range(m)],
        col_labels=[f"c{j}" for j in range(n)],
    )


def _assert_same_matrix(got, want):
    assert type(got) is PayoffMatrix
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert got.columns == want.columns
    assert got.scaled_centers == want.scaled_centers
    assert got.center_scale == want.center_scale


class TestWithout:
    @pytest.mark.parametrize("axis, entries", [
        (Axis.ROW, [[(1, 0), (2, 0.5)]]),
        (Axis.COL, [[(1, 0)], [(2, 0.5)]]),
        (Axis.ROW, [[(3, 0.1)]]),
        (Axis.COL, [[(3, 0.1)]]),
    ])
    def test_refuses_to_empty_an_axis(self, axis, entries):
        with pytest.raises(EmptyMatrixError) as info:
            PayoffMatrix.of(entries).without(axis, 0)
        assert str(info.value) == "matrix must have at least one row and one column"

    @pytest.mark.parametrize("axis, pos, message", [
        (Axis.ROW, -1, "row -1 out of range for size 3"),
        (Axis.ROW, 3, "row 3 out of range for size 3"),
        (Axis.ROW, 10, "row 10 out of range for size 3"),
        (Axis.COL, -2, "col -2 out of range for size 4"),
        (Axis.COL, 4, "col 4 out of range for size 4"),
    ])
    def test_refuses_a_position_out_of_range(self, axis, pos, message):
        with pytest.raises(SelectionError) as info:
            _game(random.Random(3), 3, 4).without(axis, pos)
        assert str(info.value) == message

    def test_range_is_checked_before_the_last_line(self):
        with pytest.raises(SelectionError) as info:
            PayoffMatrix.of([[(1, 0), (2, 0)]]).without(Axis.ROW, 1)
        assert str(info.value) == "row 1 out of range for size 1"

    @pytest.mark.parametrize("axis", ["row", "col", None, 0, 1, True])
    def test_refuses_an_axis_that_is_not_an_axis(self, axis):
        with pytest.raises(SelectionError) as info:
            _game(random.Random(3), 3, 4).without(axis, 0)
        assert str(info.value) == f"axis must be Axis.ROW or Axis.COL, got {axis!r}"

    @pytest.mark.parametrize("columns_read", [True, False])
    def test_a_column_cut_keeps_the_parents_columns(self, columns_read):
        pm = _game(random.Random(11), 4, 5)
        if columns_read:
            pm.columns
        for pos in range(pm.cols):
            cut = pm.without(Axis.COL, pos)
            assert "columns" in vars(cut)
            assert cut.columns == tuple(zip(*cut.entries))
            parents = pm.columns[:pos] + pm.columns[pos + 1:]
            assert all(mine is theirs for mine, theirs in zip(cut.columns, parents, strict=True))
            _assert_same_matrix(cut, submatrix(pm, range(pm.rows), [j for j in range(pm.cols) if j != pos]))

    @pytest.mark.parametrize("columns_read", [True, False])
    def test_a_row_cut_leaves_its_columns_until_read(self, columns_read):
        pm = _game(random.Random(12), 4, 5)
        if columns_read:
            pm.columns
        for pos in range(pm.rows):
            cut = pm.without(Axis.ROW, pos)
            assert "columns" not in vars(cut)
            _assert_same_matrix(cut, submatrix(pm, [i for i in range(pm.rows) if i != pos], range(pm.cols)))

    def test_is_submatrix_of_the_other_indices(self):
        rng = random.Random(2024)
        compared = 0
        for _ in range(40):
            pm = _game(rng, rng.randint(1, 6), rng.randint(1, 6))
            # Cut lines one at a time, as reduce_dominance does, down to one line per axis.
            while pm.rows > 1 or pm.cols > 1:
                axis, size = rng.choice([line for line in ((Axis.ROW, pm.rows), (Axis.COL, pm.cols))
                                         if line[1] > 1])
                pos = rng.randrange(size)
                kept = [k for k in range(size) if k != pos]
                got = pm.without(axis, pos)
                want = submatrix(pm, *((kept, range(pm.cols)) if axis is Axis.ROW
                                       else (range(pm.rows), kept)))
                _assert_same_matrix(got, want)
                pm = got
                compared += 1
        assert compared > 100


class TestSubmatrix:
    def test_is_the_checked_constructor_on_the_same_parts(self):
        rng = random.Random(77)
        for _ in range(200):
            pm = _game(rng, rng.randint(1, 7), rng.randint(1, 7))
            # Unsorted selections with repeats, as a caller may pass them.
            keep_rows = [rng.randrange(pm.rows) for _ in range(rng.randint(1, 2 * pm.rows))]
            keep_cols = [rng.randrange(pm.cols) for _ in range(rng.randint(1, 2 * pm.cols))]
            rows, cols = sorted(set(keep_rows)), sorted(set(keep_cols))
            want = PayoffMatrix(
                tuple(tuple(pm.entry(i, j) for j in cols) for i in rows),
                tuple(pm.row_labels[i] for i in rows),
                tuple(pm.col_labels[j] for j in cols),
            )
            _assert_same_matrix(submatrix(pm, keep_rows, keep_cols), want)
            _assert_same_matrix(submatrix(pm, iter(keep_rows), tuple(keep_cols)), want)

    @pytest.mark.parametrize("keep_rows, keep_cols, message", [
        ((), (0,), "submatrix selection must keep at least one row and column"),
        ((0,), [], "submatrix selection must keep at least one row and column"),
        ((2, 0, 3, 3), (0,), "row selection [0, 2, 3] out of range for 3 rows"),
        ((-1, 1), (0,), "row selection [-1, 1] out of range for 3 rows"),
        ((0,), (4, 1, 1), "column selection [1, 4] out of range for 4 columns"),
        ((0,), (-2,), "column selection [-2] out of range for 4 columns"),
    ])
    def test_refuses_a_selection_as_before(self, keep_rows, keep_cols, message):
        with pytest.raises(SelectionError) as info:
            submatrix(_game(random.Random(5), 3, 4), keep_rows, keep_cols)
        assert str(info.value) == message


def _document(pairs, rows=None, cols=None):
    doc = {"entries": pairs}
    if rows is not None:
        doc["rows"] = rows
    if cols is not None:
        doc["cols"] = cols
    return json.dumps(doc)


class TestLabels:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 1), (11, 12)])
    def test_of_and_parse_matrix_default_the_same_labels(self, m, n):
        pairs = [[[i - j, (i + j) / 4] for j in range(n)] for i in range(m)]
        built, parsed = PayoffMatrix.of(pairs), parse_matrix(_document(pairs))
        assert built.row_labels == parsed.row_labels == tuple(f"A{i + 1}" for i in range(m))
        assert built.col_labels == parsed.col_labels == tuple(f"B{j + 1}" for j in range(n))
        assert built == parsed

    @pytest.mark.parametrize("rows, cols", [
        (["r", "s"], ["x", "y", "z"]),
        (["r", "s"], None),
        (None, ["x", "y", "z"]),
        (["B1", "B2"], ["A1", "A2", "A3"]),
    ])
    def test_of_and_parse_matrix_keep_given_labels(self, rows, cols):
        pairs = [[[1, 0], [2, 0.5], [3, 1]], [[4, 0.25], [5, 0], [6, 2]]]
        built = PayoffMatrix.of(pairs, row_labels=rows, col_labels=cols)
        parsed = parse_matrix(_document(pairs, rows, cols))
        assert built == parsed
        assert built.row_labels == (tuple(rows) if rows is not None else ("A1", "A2"))
        assert built.col_labels == (tuple(cols) if cols is not None else ("B1", "B2", "B3"))

    def test_of_builds_its_own_class(self):
        class Sub(PayoffMatrix):
            pass

        assert type(Sub.of([[(1, 0)]])) is Sub


class TestParsedCell:
    @pytest.mark.parametrize("cell, error, message", [
        ("[1, -0.5]", NegativeSpreadError, "spread -0.5 is negative"),
        ("[1, -3]", NegativeSpreadError, "spread -3 is negative"),
        ("[-Infinity, -1]", NegativeSpreadError, "spread -1 is negative"),
        ("[NaN, -2]", NegativeSpreadError, "spread -2 is negative"),
        ("[1, -" + "9" * 400 + "]", NegativeSpreadError, "spread -" + "9" * 400 + " is negative"),
        ("[NaN, 0.1]", NonFiniteNumberError, "got <nan, 0.1>"),
        ("[1, NaN]", NonFiniteNumberError, "got <1, nan>"),
        ("[Infinity, 0]", NonFiniteNumberError, "got <inf, 0>"),
        ("[-Infinity, 0]", NonFiniteNumberError, "got <-inf, 0>"),
        ("[2, Infinity]", NonFiniteNumberError, "got <2, inf>"),
        ("[" + "7" * 400 + ", 0]", NonFiniteNumberError, "got <" + "7" * 400 + ", 0>"),
        ("[0, " + "7" * 400 + "]", NonFiniteNumberError, "got <0, " + "7" * 400 + ">"),
        ("[1e999, 0]", NonFiniteNumberError, "got <inf, 0>"),
    ])
    def test_refuses_a_bad_number_as_before(self, cell, error, message):
        if error is NonFiniteNumberError:
            limit = TestFuzzyNum.LIMIT
            message = f"center and spread must be finite with magnitude at most {limit}, {message}"
        with pytest.raises(error) as info:
            parse_matrix('{"entries": [[[1, 0], [2, 0]], [[3, 0], ' + cell + ']]}')
        assert type(info.value) is error
        assert str(info.value) == f"entries[2][2]: {message}"

    def test_accepts_a_negative_zero_spread(self):
        pm = parse_matrix('{"entries": [[[1, -0.0]]]}')
        assert pm.entry(0, 0) == FuzzyNum(1, 0)
        assert math.copysign(1, pm.entry(0, 0).spread) == -1


def _solution(x, y, trace=()):
    return Solution(x, y, FuzzyNum(0, 0), SolutionKind.MIXED_2X2, trace)


def _deleted(axis, index):
    return (ReductionStep(StepKind.ROW_DOMINANCE, StrategyIndex(axis, index), "A1", ()),)


class TestSolution:
    @pytest.mark.parametrize("x", [
        (F(1, 2), F(1, 2)),
        (F(0), F(1)),
        (1, 0),
        (0, F(1, 3), F(2, 3)),
        (0.5, 0.5),
        (0.25, F(3, 4)),
        (True, False),
    ])
    def test_accepts_a_probability_vector(self, x):
        assert _solution(x, (1,)).x == x

    @pytest.mark.parametrize("x", [
        (F(3, 2), F(-1, 2)),
        (F(-1, 3), F(4, 3)),
        (2, -1),
        (F(5, 4), 0, F(-1, 4)),
        (1.5, -0.5),
        (-0.25, F(5, 4)),
        (F(3, 2), True, F(-3, 2)),
    ])
    def test_refuses_an_entry_out_of_range(self, x):
        with pytest.raises(ValueError) as info:
            _solution(x, (1,))
        assert str(info.value) == f"x is not a probability vector: {x}"

    @pytest.mark.parametrize("y", [
        (F(1, 2), F(1, 3)),
        (F(2, 3), F(2, 3)),
        (1, 1),
        (0, 0),
        (F(0), F(0)),
        (1, F(1, 10**30)),
        (0.5, 0.25),
        (0.7, 0.2, 0.1),
        (F(1, 2), 0.25),
        (True, True),
        (False, False),
    ])
    def test_refuses_a_vector_not_summing_to_1(self, y):
        with pytest.raises(ValueError) as info:
            _solution((1,), y)
        assert str(info.value) == f"y does not sum to 1: {y}"

    def test_range_is_checked_before_the_sum(self):
        with pytest.raises(ValueError) as info:
            _solution((F(3, 2), F(1, 2)), (1,))
        assert str(info.value) == "x is not a probability vector: (Fraction(3, 2), Fraction(1, 2))"

    def test_x_is_checked_before_y(self):
        with pytest.raises(ValueError, match="^x does not sum to 1"):
            _solution((0, 0), (2, 2))

    def test_float_vector_sums_as_floats(self):
        # A float vector's verdict is its float sum's, added left to right, not the exact sum's.
        # sum() would not do for the reference: from Python 3.12 it adds floats compensated.
        for x in ((0.1, 0.9), (0.1, 0.2, 0.7)):
            assert functools.reduce(operator.add, x) == 1 and sum(map(F, x)) != 1
            assert _solution(x, (1,)).x == x
        y = (0.7, 0.2, 0.1)
        assert functools.reduce(operator.add, y) != 1
        with pytest.raises(ValueError, match="^y does not sum to 1"):
            _solution((1,), y)

    @pytest.mark.parametrize("x, y, axis, index", [
        ((F(1, 2), F(1, 2)), (F(1),), Axis.ROW, 0),
        ((1,), (F(1, 4), F(3, 4)), Axis.COL, 1),
        ((1, 0), (0, F(1)), Axis.COL, 1),
        ((0.5, 0.5), (1,), Axis.ROW, 1),
        ((1,), (0.0, 1.0), Axis.COL, 1),
        ((True, False), (1,), Axis.ROW, 0),
    ])
    def test_refuses_probability_on_a_deleted_strategy(self, x, y, axis, index):
        with pytest.raises(ValueError) as info:
            _solution(x, y, _deleted(axis, index))
        assert str(info.value) == (
            f"deleted strategy StrategyIndex(axis=<Axis.{axis.name}: '{axis.value}'>, "
            f"index={index}) carries nonzero probability"
        )

    @pytest.mark.parametrize("x, y, axis, index", [
        ((0, F(1)), (F(1, 2), F(1, 2)), Axis.ROW, 0),
        ((F(1, 2), F(1, 2)), (F(1), 0), Axis.COL, 1),
        ((0.0, 1.0), (1,), Axis.ROW, 0),
        ((1,), (False, True), Axis.COL, 0),
    ])
    def test_accepts_zero_on_a_deleted_strategy(self, x, y, axis, index):
        assert _solution(x, y, _deleted(axis, index)).trace == _deleted(axis, index)


DOMINANCE_TESTS = [
    (row_dominates, Axis.ROW, 2),
    (col_dominates, Axis.COL, 2),
    (convex_row_dominates, Axis.ROW, 3),
    (convex_col_dominates, Axis.COL, 3),
]


class TestDominanceIndices:
    @pytest.mark.parametrize("test, axis, arity", DOMINANCE_TESTS)
    @pytest.mark.parametrize("bad", [-1, 3, 5, -4])
    def test_refuses_an_index_out_of_range(self, dominance_3x3, test, axis, arity, bad):
        for place in range(arity):
            indices = [0, 1, 2][:arity]
            indices[place] = bad
            with pytest.raises(IndexError) as info:
                test(dominance_3x3, *indices)
            assert str(info.value) == f"{axis.value} index {bad} out of range for size 3"

    @pytest.mark.parametrize("test, axis, indices", [
        (test, axis, indices)
        for test, axis, arity in DOMINANCE_TESTS
        for indices in (
            [(0, 0), (5, 5), (-1, -1)] if arity == 2
            else [(1, 0, 1), (0, 2, 2), (1, 1, 0), (2, 2, 2), (7, 0, 0), (-1, -1, 5), (0, 3, 3)]
        )
    ])
    def test_refuses_a_repeated_index_first(self, dominance_3x3, test, axis, indices):
        with pytest.raises(ValueError) as info:
            test(dominance_3x3, *indices)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{axis.value} indices {indices} must be distinct"

    def test_range_is_checked_in_argument_order(self, dominance_3x3):
        with pytest.raises(IndexError) as info:
            convex_col_dominates(dominance_3x3, 4, 0, -1)
        assert str(info.value) == "col index 4 out of range for size 3"

    @pytest.mark.parametrize("test, axis, arity", DOMINANCE_TESTS)
    def test_valid_indices_pass(self, dominance_3x3, test, axis, arity):
        for indices in itertools.permutations(range(3), arity):
            test(dominance_3x3, *indices)


class TestFuzzyNum:
    LIMIT = "1.79769e+308"  # the float maximum, as the message writes it

    @pytest.mark.parametrize("center, spread, shown", [
        (math.nan, 0.1, "<nan, 0.1>"),
        (1, math.nan, "<1, nan>"),
        (math.inf, 0.1, "<inf, 0.1>"),
        (-math.inf, 0.1, "<-inf, 0.1>"),
        (1, math.inf, "<1, inf>"),
        (10**400, 0, f"<{10**400}, 0>"),
        (-(10**400), F(1, 2), f"<{-(10**400)}, 1/2>"),
        (0, 10**400, f"<0, {10**400}>"),
    ])
    def test_refuses_a_non_finite_field(self, center, spread, shown):
        with pytest.raises(ValueError) as info:
            FuzzyNum(center, spread)
        assert str(info.value) == (
            f"center and spread must be finite with magnitude at most {self.LIMIT}, got {shown}"
        )

    @pytest.mark.parametrize("center, spread", [(1, -0.1), (math.nan, -1), (10**400, F(-1, 3))])
    def test_refuses_a_negative_spread_first(self, center, spread):
        with pytest.raises(ValueError) as info:
            FuzzyNum(center, spread)
        assert str(info.value) == f"spread must be nonnegative, got {spread}"

    def test_keyword_construction(self):
        assert FuzzyNum(center=1, spread=0.5) == FuzzyNum(1, 0.5)
        assert FuzzyNum(spread=0.5, center=1) == FuzzyNum(1, 0.5)
        with pytest.raises(ValueError, match="^spread must be nonnegative"):
            FuzzyNum(center=1, spread=-1)
        with pytest.raises(TypeError):
            FuzzyNum(1)

    def test_fields_and_replace(self):
        f = FuzzyNum(F(1, 3), 0.25)
        assert [field.name for field in dataclasses.fields(f)] == ["center", "spread"]
        assert dataclasses.asdict(f) == {"center": F(1, 3), "spread": 0.25}
        assert dataclasses.replace(f, spread=0) == FuzzyNum(F(1, 3), 0)
        for spread in (-0.5, -1):
            with pytest.raises(ValueError) as info:
                dataclasses.replace(f, spread=spread)
            assert str(info.value) == f"spread must be nonnegative, got {spread}"

    def test_fields_live_in_slots(self):
        assert FuzzyNum.__slots__ == ("center", "spread")
        parsed = parse_matrix('{"entries": [[[1, 0.5]]]}').entry(0, 0)
        for f in (FuzzyNum(1, 0.5), parsed):
            assert type(f) is FuzzyNum and not hasattr(f, "__dict__")
            with pytest.raises(TypeError):
                vars(f)

    def test_frozen(self):
        f = FuzzyNum(1, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.center = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.spread
        assert f == FuzzyNum(1, 0.5)

    def test_eq_hash_repr(self):
        a, b = FuzzyNum(1, 0.5), FuzzyNum(1.0, F(1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != FuzzyNum(1, 0.25) and a != (1, 0.5)
        assert repr(a) == "FuzzyNum(center=1, spread=0.5)"
        assert repr(FuzzyNum(F(245, 16), 0)) == "FuzzyNum(center=Fraction(245, 16), spread=0)"
        assert str(a) == "<1, 0.5>"
        assert len({a, b, FuzzyNum(2, 0)}) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_round_trip(self, protocol):
        f = FuzzyNum(F(-7, 3), 1e-3)
        back = pickle.loads(pickle.dumps(f, protocol))
        assert back == f and type(back) is FuzzyNum and repr(back) == repr(f)
        assert copy.copy(f) == f and copy.deepcopy(f) == f
