"""The integer-grid kernels of the solver against ``Fraction`` references.

The closed form of a 2x2 game, the expected payoff and the convex blends
are computed from integer numerators and denominators, and each returned
``Fraction`` is built once.  The references below are the same formulas
written directly in ``Fraction`` arithmetic, as the solver had them before.
Every result must have the same ``repr`` (so a ``Fraction`` never turns into
an equal int or float), and every dominance index read on a blend the same
bits.
"""

import itertools
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from fuzzygame import (
    Attitude,
    FuzzyNum,
    PayoffMatrix,
    SolutionKind,
    SpreadConvention,
    beta_grid,
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
    # it, and runs the closed form only for a strict mix.
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
            mixed, int(not mixed), int(mixed)), cells


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


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.lists(cells, min_size=n, max_size=n).map(tuple)] * 3)
), betas)
def test_blends_match_fraction_reference(lines, beta):
    first, second, other = lines
    got = solver._blends(first, second, beta)
    want = reference_blends(first, second, beta)
    assert _reprs(*got) == _reprs(*want)
    # The evidence both ways round, as convex row and column dominance read it.
    for args_got, args_want in (((other, got), (other, want)), ((got, other), (want, other))):
        assert [float.hex(e) for e in solver._evidence(*args_got)] == [
            float.hex(e) for e in solver._evidence(*args_want)
        ]
