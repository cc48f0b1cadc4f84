"""The integer simplex oracle against two exact references.

The references are the kernel enumeration that preceded the simplex and
the simplex as first written, on ``Fraction`` entries.  The integer oracle
must reach the very pair of strategies the ``Fraction`` simplex reaches,
because both make the same pivots.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fuzzygame import CenterGame, oracle_check, oracle_value, solve_pipeline


def _det(mat):
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


def reference_value(grid):
    """Value by square-kernel enumeration; the pre-simplex algorithm.

    Kernels are scanned by size, then row and column subsets in
    lexicographic order.  For a k x k kernel B with s = sum of the entries
    of adj(B) != 0, the candidate value is det(B)/s, the row mix is
    proportional to the column sums of adj(B) and the column mix to its row
    sums.  The first candidate that is optimal in the full game gives the
    value.  Every minor is itself a kernel, so determinants are cached by
    (row subset, column subset).
    """
    m, n = len(grid), len(grid[0])

    @functools.cache
    def det(rows, cols):
        return _det([[grid[i][j] for j in cols] for i in rows]) if rows else Fraction(1)

    def without(subset, pos):
        return subset[:pos] + subset[pos + 1:]

    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                # adj[i][j] = (-1)^(i+j) * minor with kernel row j and column i removed
                adj = [
                    [(-1) ** (i + j) * det(without(rows, j), without(cols, i)) for j in range(k)]
                    for i in range(k)
                ]
                s = sum(map(sum, adj))
                if s == 0:
                    continue
                value = det(rows, cols) / s
                x_part = [sum(adj[r][c] for r in range(k)) / s for c in range(k)]
                y_part = [sum(adj[r]) / s for r in range(k)]
                if min(x_part) < 0 or min(y_part) < 0:
                    continue
                x, y = [0] * m, [0] * n
                for pos, i in enumerate(rows):
                    x[i] = x_part[pos]
                for pos, j in enumerate(cols):
                    y[j] = y_part[pos]
                if certified(grid, x, y, value):
                    return value
    raise AssertionError("kernel enumeration exhausted without an optimal pair")


def certified(grid, x, y, value):
    """Both mixes are probability vectors and guarantee ``value`` exactly."""
    rows = [i for i, p in enumerate(x) if p]
    cols = [j for j, p in enumerate(y) if p]
    return (
        sum(x) == 1 and min(x) >= 0 and sum(y) == 1 and min(y) >= 0
        and all(sum(x[i] * grid[i][j] for i in rows) >= value for j in range(len(y)))
        and all(sum(grid[i][j] * y[j] for j in cols) <= value for i in range(len(x)))
    )


def fraction_simplex(g):
    """``(value, x, y)`` by Bland's simplex on ``Fraction`` entries; the pre-integer oracle."""
    m, n = len(g), len(g[0])
    shift = 1 - math.floor(min(min(row) for row in g))
    zero, one = Fraction(0), Fraction(1)
    # Columns 0..n-1 hold u, n..n+m-1 the slacks, the last one the right-hand side.
    tableau = [
        [g[i][j] + shift for j in range(n)]
        + [one if k == i else zero for k in range(m)]
        + [one]
        for i in range(m)
    ]
    objective = [-one] * n + [zero] * (m + 1)  # reduced costs, then sum(u)
    basis = list(range(n, n + m))
    while (enter := next((c for c in range(n + m) if objective[c] < 0), None)) is not None:
        # Smallest ratio; ties go to the lowest-indexed basic variable.
        _, _, leave = min(
            (row[-1] / row[enter], basis[r], r)
            for r, row in enumerate(tableau)
            if row[enter] > 0
        )
        p = tableau[leave][enter]
        pivot = tableau[leave] = [a / p if a else a for a in tableau[leave]]
        support = [c for c, a in enumerate(pivot) if a]
        for row in (*tableau, objective):
            factor = row[enter]
            if factor and row is not pivot:
                for c in support:
                    row[c] -= factor * pivot[c]
        basis[leave] = enter
    scale = 1 / objective[-1]  # value of the shifted game
    y = [zero] * n
    for r, var in enumerate(basis):
        if var < n:
            y[var] = tableau[r][-1] * scale
    x = [objective[n + i] * scale for i in range(m)]
    value = scale - shift
    assert certified(g, x, y, value)
    return value, tuple(x), tuple(y)


def fraction_floor_ceiling(g, x, y):
    """The worst column payoff under ``x`` and the best row payoff under ``y``, on ``Fraction``s."""
    m, n = len(g), len(g[0])
    floor = min(sum(x[i] * g[i][j] for i in range(m)) for j in range(n))
    ceiling = max(sum(g[i][j] * y[j] for j in range(n)) for i in range(m))
    return floor, ceiling


def assert_same_pivots(rows):
    """The integer oracle returns the ``Fraction`` simplex's value and strategies exactly."""
    game = CenterGame.of(rows)
    sol = oracle_value(game)
    assert (sol.value, sol.x, sol.y) == fraction_simplex(game.grid)
    assert all(type(v) is Fraction for v in (sol.value, *sol.x, *sol.y))
    return game, sol


def assert_matches_reference(rows):
    game, sol = assert_same_pivots(rows)
    assert sol.value == reference_value(game.grid)
    assert certified(game.grid, sol.x, sol.y, sol.value)
    assert oracle_value(CenterGame.of(rows)) == sol  # deterministic


def test_random_games_match_kernel_enumeration():
    rng = random.Random(4242)
    for k in range(2000):
        m, n = k % 5 + 1, k // 5 % 5 + 1
        spread = rng.choice((2, 9, 20))
        assert_matches_reference(
            [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(m)]
        )


def test_fractional_centers_match_kernel_enumeration():
    rng = random.Random(77)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        assert_matches_reference(
            [[rng.randint(-50, 50) / 10 for _ in range(n)] for _ in range(m)]
        )


def test_degenerate_games():
    rng = random.Random(9)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        kind = rng.randrange(4)
        if kind == 0:  # duplicate a row
            rows.append(list(rng.choice(rows)))
        elif kind == 1:  # duplicate a column
            j = rng.randrange(n)
            rows = [row + [row[j]] for row in rows]
        elif kind == 2:  # a zero row
            rows.insert(rng.randrange(m + 1), [0] * n)
        else:  # constant game
            c = rng.randint(-3, 3)
            rows = [[c] * n for _ in range(m)]
        assert_matches_reference(rows)


def test_degenerate_games_6x6_to_12x12_match_fraction_simplex():
    # Ties and zero ratios everywhere.  The integer tableau keeps only the nonbasic
    # columns, so after the first pivot a column's position no longer tells which
    # variable it holds; Bland's rule must still enter by variable index, or the
    # pivots (and so the strategies) part from the Fraction simplex's.
    rng = random.Random(612)
    for k in range(120):
        m, n = rng.randint(6, 12), rng.randint(6, 12)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        for kind in (k % 4, rng.randrange(4)):
            if kind == 0:  # duplicate rows
                for _ in range(rng.randint(1, 3)):
                    rows[rng.randrange(m)] = list(rng.choice(rows))
            elif kind == 1:  # duplicate columns
                for _ in range(rng.randint(1, 3)):
                    src, dst = rng.randrange(n), rng.randrange(n)
                    for row in rows:
                        row[dst] = row[src]
            elif kind == 2:  # zero rows
                for i in rng.sample(range(m), rng.randint(1, 3)):
                    rows[i] = [0] * n
            else:  # a constant block
                c = rng.randint(-3, 3)
                top, left = rng.randrange(m - 2), rng.randrange(n - 2)
                height, width = rng.randint(2, m - top), rng.randint(2, n - left)
                for i in range(top, top + height):
                    rows[i][left:left + width] = [c] * width
        assert_same_pivots(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
def test_small_int_games_match_kernel_enumeration(rows):
    assert_matches_reference(rows)


def test_seeded_games_up_to_12x12_match_fraction_simplex():
    rng = random.Random(1212)
    centers = (
        lambda: rng.randint(-20, 20),  # integer
        lambda: rng.randint(-200, 200) / 10,  # tenths: binary floats, large denominators
        lambda: rng.uniform(-20, 20),  # arbitrary floats
    )
    for k in range(90):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        center = centers[k % 3]
        assert_same_pivots([[center() for _ in range(n)] for _ in range(m)])


def test_24x24_tenths_game_matches_fraction_simplex():
    rng = random.Random(2424)
    assert_same_pivots([[rng.randint(-200, 200) / 10 for _ in range(24)] for _ in range(24)])


def test_check_payoffs_match_fraction_floor_ceiling(planted_game):
    for m in range(9, 17):
        for n in range(9, 17):
            pm = planted_game(m * 100 + n, m, n)
            sol = solve_pipeline(pm)
            report = oracle_check(pm, sol)
            grid = CenterGame.from_payoff(pm).grid
            assert (report.x_floor, report.y_ceiling) == fraction_floor_ceiling(grid, sol.x, sol.y)
