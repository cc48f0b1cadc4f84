"""The simplex oracle against the kernel enumeration it replaced."""

import functools
import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fuzzygame import CenterGame, oracle_value


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


def assert_matches_reference(rows):
    game = CenterGame.of(rows)
    sol = oracle_value(game)
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
def test_small_int_games_match_kernel_enumeration(rows):
    assert_matches_reference(rows)
