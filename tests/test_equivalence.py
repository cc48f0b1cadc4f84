"""Strategic equivalence, duality and permutations, checked on the whole pipeline.

Classical game theory gives relations that hold at any size (von Neumann &
Morgenstern 1944; Owen, *Game Theory*, ch. 2): the value of aA + b is
a·v(A) + b for a > 0, the value of -Aᵀ is -v(A), and the value does not
depend on the order of the rows and columns.  The pipeline decides
everything on differences and ratios of centers and spreads, so the affine
relation holds for the whole result: solve(aA + b) makes the same
deletions, by the same dominators, with the same evidence bits, and returns
the same strategies, with value <a·v + b, a·w>.  Such a map keeps every
number exact on int and ``Fraction`` data; on float data only a power of
two for a and b = 0 keeps it exact, so only those are used there.

Iterated weak dominance depends on the order it scans in, so a permuted
game or -Aᵀ may solve where A does not, or by other strategies; where
either does not solve, the exact oracle's values are compared instead.
"""

import random
from fractions import Fraction as F

import pytest

from fuzzygame import (
    Attitude,
    Axis,
    CenterGame,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    SpreadConvention,
    StepKind,
    enumerate_subgames,
    oracle_check,
    oracle_value,
    solve_pipeline,
    submatrix,
)
from fuzzygame.oracle import SIZE_CAP

CONFIGS = {
    "default": PipelineConfig(),
    "endpoint": PipelineConfig(convention=SpreadConvention.ENDPOINT),
    "optimistic": PipelineConfig(threshold=0.5, attitude=Attitude.OPTIMISTIC),
    "betas": PipelineConfig(betas=(0.5, 0.25, 1)),
}

# (a, b) pairs of the affine map aA + b, by the type of the data.
EXACT_MAPS = ((2, 0), (3, -7), (F(1, 3), 5), (F(7, 2), F(-2, 3)))
FLOAT_MAPS = ((2, 0), (4, 0), (0.5, 0))


def _number(rng, kind, lo, hi):
    # Narrow ranges make ties, and so deletions, common.
    if kind == "int":
        return rng.randint(lo, hi)
    if kind == "fraction":
        return F(rng.randint(3 * lo, 3 * hi), rng.choice((1, 2, 3)))
    return rng.randint(10 * lo, 10 * hi) / 10


def _random_game(rng, kind):
    m, n = rng.randint(2, 7), rng.randint(2, 7)
    return PayoffMatrix.of(
        [[(_number(rng, kind, -5, 5), abs(_number(rng, kind, 0, 1))) for _ in range(n)]
         for _ in range(m)],
        row_labels=[f"r{i}" for i in range(m)],
        col_labels=[f"c{j}" for j in range(n)],
    )


def _games(kind, count=40):
    rng = random.Random(f"equivalence-{kind}")
    return [_random_game(rng, kind) for _ in range(count)]


def _curve(n):
    # 2 x n, columns (j, (n - j)^2) on a convex curve: none is dominated, even by a blend.
    return PayoffMatrix.of([[(j, F(1, 10)) for j in range(n)],
                            [((n - j) ** 2, F(1, 10)) for j in range(n)]])


def _diagonal(n):
    # 10 on the diagonal, 0 elsewhere: no saddle and no dominance.
    return PayoffMatrix.of([[(10 if i == j else 0, F(1, 10)) for j in range(n)] for i in range(n)])


def _affine(pm, a, b):
    # With b = 0 nothing is added, so a float -0.0 center keeps its sign.
    return PayoffMatrix.of(
        [[(a * e.center + b if b else a * e.center, a * e.spread) for e in row]
         for row in pm.entries],
        pm.row_labels,
        pm.col_labels,
    )


def _negated_transpose(pm):
    return PayoffMatrix.of(
        [[(-e.center, e.spread) for e in column] for column in pm.columns],
        pm.col_labels,
        pm.row_labels,
    )


def _outcome(pm, config):
    try:
        return solve_pipeline(pm, config)
    except NotReducibleError as exc:
        return exc


def _oracle(pm):
    return oracle_value(CenterGame.from_payoff(pm)).value


def _candidate_centers(pm, trace, config):
    # The exact value centers the sub-game selection of ``trace`` chose among.
    kept = {Axis.ROW: set(range(pm.rows)), Axis.COL: set(range(pm.cols))}
    for step in trace:
        if step.deleted is not None:
            kept[step.deleted.axis].remove(step.deleted.index)
    residual = submatrix(pm, kept[Axis.ROW], kept[Axis.COL])
    enum = enumerate_subgames(residual, config.convention, config.attitude)
    return [c.solution.value.center for c in enum.candidates]


def _bits(evidence):
    return tuple(map(float.hex, evidence))


def _assert_affine(pm, a, b, config):
    want, got = _outcome(pm, config), _outcome(_affine(pm, a, b), config)
    assert type(got) is type(want)
    assert [(s.kind, s.deleted, s.dominator) for s in got.trace] == [
        (s.kind, s.deleted, s.dominator) for s in want.trace
    ]
    for g, w in zip(got.trace, want.trace):
        if w.kind is StepKind.SUBGAME_SELECTION:
            centers = _candidate_centers(pm, want.trace, config)
            assert _bits(w.evidence) == _bits(map(float, centers))
            mapped = _candidate_centers(_affine(pm, a, b), got.trace, config)
            assert mapped == [F(a) * c + F(b) for c in centers]
            assert _bits(g.evidence) == _bits(map(float, mapped))
        else:
            assert _bits(g.evidence) == _bits(w.evidence)
    if isinstance(want, NotReducibleError):
        assert got.residual == _affine(want.residual, a, b)
    else:
        assert (got.x, got.y, got.kind) == (want.x, want.y, want.kind)
        assert F(got.value.center) == F(a) * F(want.value.center) + F(b)
        assert F(got.value.spread) == F(a) * F(want.value.spread)


def _assert_dual(pm, config):
    dual = _negated_transpose(pm)
    want, got = _outcome(pm, config), _outcome(dual, config)
    if isinstance(want, NotReducibleError) or isinstance(got, NotReducibleError):
        assert _oracle(dual) == -_oracle(pm)
        return
    assert F(got.value.center) == -F(want.value.center)
    if max(pm.rows, pm.cols) <= SIZE_CAP:  # the oracle's limit; the 2x64 curve is past it
        assert oracle_check(pm, want).passed
        assert oracle_check(dual, got).passed


def _assert_permuted(pm, config, rng):
    rows, cols = list(range(pm.rows)), list(range(pm.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = PayoffMatrix.of(
        [[pm.entry(i, j) for j in cols] for i in rows],
        [pm.row_labels[i] for i in rows],
        [pm.col_labels[j] for j in cols],
    )
    want, got = _outcome(pm, config), _outcome(permuted, config)
    if isinstance(want, NotReducibleError) or isinstance(got, NotReducibleError):
        assert _oracle(permuted) == _oracle(pm)
    else:
        assert got.value.center == want.value.center


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("kind, maps", [
    ("int", EXACT_MAPS), ("fraction", EXACT_MAPS), ("float", FLOAT_MAPS),
])
def test_an_affine_map_keeps_the_whole_solution(kind, maps, config):
    for i, pm in enumerate(_games(kind)):
        a, b = maps[i % len(maps)]
        _assert_affine(pm, a, b, config)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_the_negated_transpose_negates_the_value(kind, config):
    for pm in _games(kind):
        _assert_dual(pm, config)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_a_permutation_keeps_the_value(kind, config):
    rng = random.Random(f"permutation-{kind}")
    for pm in _games(kind):
        _assert_permuted(pm, config, rng)


def test_the_seeded_games_reach_every_outcome():
    # Every step kind, each kind of data, and games that dominance cannot reduce.
    seen = set()
    for kind in ("int", "fraction", "float"):
        for pm in _games(kind):
            result = _outcome(pm, CONFIGS["default"])
            if isinstance(result, NotReducibleError):
                seen.add((kind, "not reducible"))
            seen.update((kind, step.kind) for step in result.trace)
    assert seen == {
        (kind, outcome)
        for kind in ("int", "fraction", "float")
        for outcome in (*StepKind, "not reducible")
    }


def test_the_convex_curve_2x64():
    pm = _curve(64)
    config = CONFIGS["default"]
    _assert_affine(pm, F(5, 3), -11, config)
    _assert_dual(pm, config)
    _assert_permuted(pm, config, random.Random(64))


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
def test_the_diagonal_game_24(config):
    pm = _diagonal(24)
    _assert_affine(pm, 3, F(-1, 2), config)
    _assert_dual(pm, config)
    _assert_permuted(pm, config, random.Random(24))
