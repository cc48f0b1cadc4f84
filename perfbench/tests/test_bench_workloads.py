"""The generators are deterministic per seed and plant what they claim."""

import itertools
from fractions import Fraction

import pytest

from fuzzygame import matrix, solver
from perfbench import workloads
from perfbench.run import WORKLOADS
from perfbench.spans import Tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_games(name):
    generate = WORKLOADS[name].generate
    assert generate(7, 30) == generate(7, 30)
    assert generate(7, 30) != generate(8, 30)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_document_matches_entries(name):
    for game in WORKLOADS[name].generate(3, 24):
        pm = matrix.parse_matrix(game.text)
        assert tuple(tuple((e.center, e.spread) for e in row) for row in pm.entries) == game.entries
        assert all(0 <= w <= 0.5 for row in game.entries for _, w in row)


def test_mixed_random_shapes_cycle():
    games = workloads.mixed_random(5, 2 * len(workloads.MIXED_SHAPES))
    shapes = [game.shape for game in games]
    assert shapes == list(workloads.MIXED_SHAPES) * 2
    assert all(abs(c) <= 20 for game in games for row in game.centers for c in row)


def _padding_dominated(game):
    g = game.centers
    m, n = game.shape
    for r in set(range(m)) - set(game.core_rows):
        assert any(all(g[r][j] < g[c][j] for j in range(n)) for c in game.core_rows)
    for s in set(range(n)) - set(game.core_cols):
        assert any(all(g[i][s] > g[i][d] for i in range(m)) for d in game.core_cols)


@pytest.mark.parametrize("name", ["planted_plain", "check_planted"])
def test_padding_is_strictly_dominated_by_the_core(name):
    for game in WORKLOADS[name].generate(11, 36):
        _padding_dominated(game)


def test_check_planted_cores_are_completely_mixed():
    games = workloads.check_planted(2, 12)
    assert [len(game.core_rows) for game in games] == [2, 2, 3] * 4
    for game in games:
        core = [[Fraction(game.centers[i][j]) for j in game.core_cols] for i in game.core_rows]
        crisp = matrix.PayoffMatrix.of([[(c, 0) for c in row] for row in core])
        assert solver.find_saddle(crisp) is None
        if len(core) == 3:
            # No row or column of the core is weakly dominated by another.
            for a, b in itertools.permutations(range(3), 2):
                assert not all(core[a][j] >= core[b][j] for j in range(3))
                assert not all(core[i][a] <= core[i][b] for i in range(3))


def test_planted_plain_never_calls_convex_dominance():
    games = workloads.planted_plain(4, 20)
    tracer = Tracer()
    tracer.install()
    try:
        for game in games:
            solution = solver.solve_pipeline(matrix.parse_matrix(game.text))
            tracer.end_operation()
            deleted = {(s.deleted.axis.value, s.deleted.index) for s in solution.trace if s.deleted}
            m, n = game.shape
            assert deleted == {("row", i) for i in range(m) if i not in game.core_rows} | {
                ("col", j) for j in range(n) if j not in game.core_cols
            }
    finally:
        tracer.uninstall()
    assert tracer.calls["solver.row_dominates"] > 0
    assert tracer.calls["solver.convex_row_dominates"] == 0
    assert tracer.calls["solver.convex_col_dominates"] == 0
