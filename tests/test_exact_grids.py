"""The integer-grid kernels of the solver against ``Fraction`` references.

The closed form of a 2x2 game, the expected payoff and the evidence of a
convex deletion are computed from integer numerators and denominators, and
each returned ``Fraction`` is built once.  The references below are the same
formulas written directly in ``Fraction`` arithmetic, as the solver had them
before.  Every result must have the same ``repr`` (so a ``Fraction`` never
turns into an equal int or float), and every dominance index read against a
blend the same bits as on the ``Fraction`` blend.
"""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzygame import (
    Attitude,
    FuzzyNum,
    PayoffMatrix,
    SolutionKind,
    SpreadConvention,
    beta_grid,
    convex_col_dominates,
    convex_row_dominates,
    find_saddle,
    solve_2x2,
)
from fuzzygame import solver
from fuzzygame.fuzzy import MAX_MAGNITUDE


def reference_closed_form(m):
    (m11, m12), (m21, m22) = m
    d = m11 + m22 - m12 - m21
    if d == 0:
        return None
    x = ((m22 - m21) / d, (m11 - m12) / d)
    y = ((m22 - m12) / d, (m11 - m21) / d)
    return x, y, (m11 * m22 - m12 * m21) / d


def reference_expected(pm, x, y, part):
    rows = [(i, p) for i, p in enumerate(x) if p]
    cols = [(j, q) for j, q in enumerate(y) if q]
    entries = pm.entries
    return sum(p * q * Fraction(getattr(entries[i][j], part)) for i, p in rows for j, q in cols)


def reference_blends(first, second, beta):
    bf = Fraction(beta)
    return tuple(
        FuzzyNum(bf * Fraction(a.center) + (1 - bf) * Fraction(b.center),
                 bf * Fraction(a.spread) + (1 - bf) * Fraction(b.spread))
        for a, b in zip(first, second)
    )


def reference_solve_2x2(pm, convention, attitude):
    """(x, y, value) as ``solve_2x2`` computed them in ``Fraction`` arithmetic."""
    saddle = find_saddle(pm, attitude)
    if saddle is not None:
        sol = solver._saddle_solution(pm, saddle)
        return sol.x, sol.y, sol.value
    x, y, center = reference_closed_form([[Fraction(e.center) for e in row] for row in pm.entries])
    spread = None
    if convention is SpreadConvention.ENDPOINT:
        ends = [[Fraction(e.center) + Fraction(e.spread) for e in row] for row in pm.entries]
        endpoint = reference_closed_form(ends)
        if endpoint is not None:
            spread = max(endpoint[2] - center, Fraction(0))
    if spread is None:
        spread = reference_expected(pm, x, y, "spread")
    return x, y, FuzzyNum(center, spread)


FLOAT_MAX = sys.float_info.max
EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, FLOAT_MAX, -FLOAT_MAX,
         MAX_MAGNITUDE, -MAX_MAGNITUDE, MAX_MAGNITUDE - 1, Fraction(MAX_MAGNITUDE, 3))
centers = st.one_of(
    st.integers(-3, 3),  # narrow, so that D == 0 and saddles are common
    st.integers(-10**6, 10**6),
    st.floats(-1e3, 1e3),
    st.fractions(-50, 50, max_denominator=60),
    st.sampled_from(EDGES),
)
spreads = st.one_of(
    st.integers(0, 5),
    st.floats(0, 1e3),
    st.fractions(0, 50, max_denominator=60),
    st.sampled_from((-0.0, 0.0, 5e-324, 1e16, FLOAT_MAX, MAX_MAGNITUDE)),
)
cells = st.builds(FuzzyNum, centers, spreads)
games = st.lists(st.lists(cells, min_size=2, max_size=2), min_size=2, max_size=2).map(
    PayoffMatrix.of
)
betas = st.one_of(
    st.integers(2, 41).flatmap(lambda steps: st.sampled_from(beta_grid(steps))),
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=1000),
    st.sampled_from((0, 1, 5e-324, 1 - 2**-53, Fraction(1, 3))),
)
probabilities = st.one_of(st.fractions(0, 1, max_denominator=1000), st.sampled_from((0, 1)))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
D_ZERO = PayoffMatrix.of([[(1, 0.5), (2, 0)], [(3, 0.25), (4, 1)]])  # 1 + 4 - 2 - 3 == 0


def _reprs(*values):
    return [repr(v) for v in values]


@SETTINGS
@given(games)
@example(D_ZERO)
@example(PayoffMatrix.of([[(-0.0, 5e-324), (FLOAT_MAX, 0)], [(MAX_MAGNITUDE, 1e16), (5e-324, -0.0)]]))
def test_closed_form_matches_fraction_reference(pm):
    got = solver._closed_form(pm.scaled_centers, pm.center_scale)
    want = reference_closed_form([[Fraction(e.center) for e in row] for row in pm.entries])
    if want is None:
        assert got is None
    else:
        assert _reprs(*got[0], *got[1], got[2]) == _reprs(*want[0], *want[1], want[2])
    ends, scale = solver._endpoint_grid(pm)
    got = solver._closed_form(ends, scale)
    want = reference_closed_form(
        [[Fraction(e.center) + Fraction(e.spread) for e in row] for row in pm.entries]
    )
    assert (got is None) == (want is None)
    if want is not None:
        assert repr(got[2]) == repr(want[2])


@SETTINGS
@given(games, st.sampled_from(SpreadConvention), st.sampled_from(Attitude))
@example(D_ZERO, SpreadConvention.ENDPOINT, Attitude.PESSIMISTIC)
@example(PayoffMatrix.of([[(3, 0), (-1, 5e-324)], [(-2, FLOAT_MAX), (4, -0.0)]]),
         SpreadConvention.ENDPOINT, Attitude.OPTIMISTIC)
def test_solve_2x2_matches_fraction_reference(pm, convention, attitude):
    sol = solve_2x2(pm, convention, attitude)
    x, y, value = reference_solve_2x2(pm, convention, attitude)
    assert _reprs(sol.x, sol.y, sol.value) == _reprs(x, y, value)


def test_saddle_exactly_when_the_closed_form_is_not_strictly_mixed(monkeypatch):
    # Every 2x2 game with centers in -2..2, ties included; solve_2x2 relies on
    # it: find_saddle decides once, and the closed form runs only for a strict mix.
    closed_form = solver._closed_form
    saddles, forms = [], []
    monkeypatch.setattr(solver, "find_saddle", lambda *a: saddles.append(a) or find_saddle(*a))
    monkeypatch.setattr(solver, "_closed_form", lambda *a: forms.append(a) or closed_form(*a))
    for cells in itertools.product(range(-2, 3), repeat=4):
        pm = PayoffMatrix.of([[(c, 0.1) for c in cells[:2]], [(c, 0.1) for c in cells[2:]]])
        solved = closed_form(pm.scaled_centers, pm.center_scale)
        mixed = solved is not None and all(0 < p < 1 for p in (*solved[0], *solved[1]))
        assert (find_saddle(pm) is None) == mixed, cells
        saddles.clear()
        forms.clear()
        kind = solve_2x2(pm).kind
        assert (kind is SolutionKind.MIXED_2X2, len(saddles), len(forms)) == (
            mixed, 1, int(mixed)), cells


# Few values, so that ties are common: -0.0 ties 0, 1.0 ties 1, and the
# float tenths lie next to the exact ones.
TIED_CENTERS = (-1, 0, -0.0, 5e-324, 0.1, 0.2, 0.3, 1, 1.0, 2.5,
                Fraction(1, 10), Fraction(1, 3), Fraction(-3, 2))
tied_cells = st.builds(FuzzyNum, st.sampled_from(TIED_CENTERS), st.sampled_from((0, 0.1, Fraction(1, 3))))
tied_games = st.lists(st.lists(tied_cells, min_size=2, max_size=2), min_size=2, max_size=2).map(
    PayoffMatrix.of
)


@settings(SETTINGS, max_examples=500)
@given(tied_games, st.sampled_from(SpreadConvention), st.sampled_from(Attitude))
@example(PayoffMatrix.of([[(0, 0), (-0.0, 0.1)], [(5e-324, 0), (0, 0)]]),
         SpreadConvention.EXPECTED, Attitude.PESSIMISTIC)
@example(PayoffMatrix.of([[(0.1, 0), (Fraction(1, 10), 0)], [(Fraction(1, 10), 0.1), (0.1, 0)]]),
         SpreadConvention.ENDPOINT, Attitude.OPTIMISTIC)
def test_saddle_exactly_when_not_strictly_mixed_on_any_numbers(pm, convention, attitude):
    # The fact solve_2x2 rests on, beyond small ints: no pure saddle exactly
    # when the closed form is strictly mixed, and its answer is optimal.
    solved = solver._closed_form(pm.scaled_centers, pm.center_scale)
    mixed = solved is not None and all(0 < p < 1 for p in (*solved[0], *solved[1]))
    assert (find_saddle(pm, attitude) is None) == mixed
    sol = solve_2x2(pm, convention, attitude)
    assert solver._certified(pm, (0, 1), sol.x, (0, 1), sol.y, sol.value.center)


@SETTINGS
@given(games, probabilities, probabilities)
def test_expected_matches_fraction_reference(pm, p, q):
    x, y = (p, 1 - p), (1 - q, q)
    assert repr(solver._expected(pm, x, y)) == repr(reference_expected(pm, x, y, "spread"))


@SETTINGS
@given(games, probabilities, probabilities)
def test_certificate_matches_fraction_reference(pm, p, q):
    # At the expected payoff and at each strategy's own guarantee, where one
    # side of the test holds with equality.
    x, y = (p, 1 - p), (1 - q, q)
    centers = [[Fraction(e.center) for e in row] for row in pm.entries]
    floor = min(x[0] * top + x[1] * bottom for top, bottom in zip(*centers))
    ceiling = max(y[0] * left + y[1] * right for left, right in centers)
    for center in (reference_expected(pm, x, y, "center"), floor, ceiling):
        assert solver._certified(pm, (0, 1), x, (0, 1), y, center) == (floor >= center >= ceiling)


# Cells as JSON gives them for integer centers (an int center, a float
# spread), where the evidence of a blend is read on the integer grid, and
# crisp cells, whose zero widths go to the exact index.
json_cells = st.builds(
    FuzzyNum,
    st.one_of(st.integers(-10**6, 10**6), st.sampled_from((0, MAX_MAGNITUDE, -MAX_MAGNITUDE))),
    st.one_of(st.floats(0, 1e3), st.sampled_from((0.0, -0.0, 5e-324, FLOAT_MAX))),
)
crisp_cells = st.builds(FuzzyNum, centers, st.sampled_from((0, 0.0)))
line_cells = st.one_of(cells, json_cells, crisp_cells)
blend_betas = st.one_of(
    st.sampled_from(solver.DEFAULT_BETAS),
    st.sampled_from((0, 1, 0.5, Fraction(1, 3), 5e-324)),
    betas,
)
M = MAX_MAGNITUDE
# Row 3 is covered by the even blend of rows 1 and 2, whose first center is
# M against -M: the gap 2*M is past the float range, and its index is inf.
OVERFLOW_GAME = PayoffMatrix.of([
    [(M, 0.5), (M, 0.5), (-M, 0.5)],
    [(M, 0.5), (-M, 0.5), (M, 0.5)],
    [(-M, 0.5), (0, 0.5), (0, 0.5)],
])


@settings(SETTINGS, max_examples=500)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.lists(line_cells, min_size=n, max_size=n).map(tuple)] * 3)
), blend_betas)
@example(OVERFLOW_GAME.entries, 0.5)
@example(tuple(zip(*OVERFLOW_GAME.entries)), 0.5)
@example(((FuzzyNum(1, 0.0),), (FuzzyNum(3, 0.0),), (FuzzyNum(2, 0.0),)), 0.5)
@example(((FuzzyNum(4, 0.5),), (FuzzyNum(0, 0.5),), (FuzzyNum(1, 0.25),)), 5e-324)
@example(((FuzzyNum(2, 5e-324),), (FuzzyNum(0, 0),), (FuzzyNum(0.5, 0),)), 0.5)
def test_blend_evidence_matches_fraction_reference(lines, beta):
    # The evidence of a convex row deletion (the blend above the line) and
    # of a column deletion (the line above the blend), by repr, against the
    # index of each line entry and the Fraction blend.
    first, second, other = lines
    want = reference_blends(first, second, beta)
    assert repr(solver._blend_evidence(first, second, beta, other, True)) == repr(
        solver._evidence(other, want))
    assert repr(solver._blend_evidence(first, second, beta, other, False)) == repr(
        solver._evidence(want, other))


def test_overflowing_blend_evidence_is_exact():
    # 2*M / (0.5 + 0.5) overflows a float division; the exact index is past
    # the float range, so it is inf, on rows and on the negated transpose's columns.
    inf = float("inf")
    assert convex_row_dominates(OVERFLOW_GAME, 0, 1, 2) == (0.5, (inf, 0.0, 0.0))
    dual = PayoffMatrix.of([[(-e.center, e.spread) for e in col] for col in OVERFLOW_GAME.columns])
    assert convex_col_dominates(dual, 0, 1, 2) == (0.5, (inf, 0.0, 0.0))


def test_blend_spread_below_the_float_range():
    # The even blend of A1 and A2 has spread 5e-324 / 2 in B1, a Fraction
    # whose float is 0.0, against the float center and int spread of A3: the
    # index there is exact, and past the float range.
    pm = PayoffMatrix.of([[(2, 5e-324), (0, 0.1)], [(0, 0), (2, 0.1)], [(0.5, 0), (0.5, 0.1)]])
    assert convex_row_dominates(pm, 0, 1, 2) == (0.5, (float("inf"), 2.5))


# Blends at 1/2: rows A1, A2 give (2, 2, 5), strictly above A3; columns B1,
# B2 give (2, 2, 1), strictly below B3.  No entry of a blend ties its line.
UNTIED = ((4, 0, 5), (0, 4, 5), (1, 1, 3))


@pytest.mark.parametrize("scale, calls", [(1, 0), (10, 3)], ids=["int", "tenths"])
def test_int_centers_with_float_spreads_skip_the_exact_index(monkeypatch, scale, calls):
    # An int center with a float spread is read on the integer grid; the
    # same game in float tenths asks dominance_index once per entry.
    pm = PayoffMatrix.of([[(c if scale == 1 else c / scale, 0.5) for c in row] for row in UNTIED])
    counted = []
    index = solver.dominance_index
    monkeypatch.setattr(solver, "dominance_index", lambda *a: counted.append(a) or index(*a))
    for dominates in (convex_row_dominates, convex_col_dominates):
        counted.clear()
        beta, evidence = dominates(pm, 0, 1, 2, (0.5,))
        assert (beta, len(evidence), len(counted)) == (0.5, 3, calls)
        assert all(evidence)
