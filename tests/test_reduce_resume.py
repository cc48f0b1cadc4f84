"""The resumed dominance scan against the restart-from-scratch loop it replaced.

``reference_reduce`` rebuilds the residual from the original game after
every deletion and scans it again from the first pair.  ``reduce_dominance``
resumes each scan and leaves one line out of the previous residual; both
must give the same residual, trace, evidence and kept indices.
"""

import collections
import itertools
import random

from fuzzygame import (
    Axis,
    PayoffMatrix,
    PipelineConfig,
    StepKind,
    StrategyIndex,
    col_dominates,
    reduce_dominance,
    row_dominates,
    submatrix,
)
from fuzzygame import solver
from fuzzygame.solver import ReductionResult, ReductionStep


def _reference_deletion(pm, config):
    """First deletion of a full scan of ``pm``, in the pipeline's order.

    The four tests are looked up on the module, so that a wrapper installed
    there counts this loop's calls too.
    """
    rows = (Axis.ROW, pm.rows, pm.row_labels)
    cols = (Axis.COL, pm.cols, pm.col_labels)
    for kind, dominates, (axis, size, labels) in (
        (StepKind.ROW_DOMINANCE, solver.row_dominates, rows),
        (StepKind.COL_DOMINANCE, solver.col_dominates, cols),
    ):
        for s in range(size):
            for d in range(size):
                if d != s:
                    evidence = dominates(pm, d, s, config.threshold)
                    if evidence is not None:
                        return kind, axis, s, labels[d], evidence
    for kind, dominates, (axis, size, labels) in (
        (StepKind.CONVEX_ROW_DOMINANCE, solver.convex_row_dominates, rows),
        (StepKind.CONVEX_COL_DOMINANCE, solver.convex_col_dominates, cols),
    ):
        for s in range(size):
            others = [k for k in range(size) if k != s]
            for p, q in itertools.combinations(others, 2):
                hit = dominates(pm, p, q, s, config.betas)
                if hit is not None:
                    beta, evidence = hit
                    label = f"{float(beta):g}*{labels[p]} + {float(1 - beta):g}*{labels[q]}"
                    return kind, axis, s, label, evidence
    return None


def reference_reduce(pm, config=PipelineConfig()):
    """The dominance fixpoint, rescanning the whole residual after every deletion."""
    rows, cols = list(range(pm.rows)), list(range(pm.cols))
    work = pm
    steps = []
    while (hit := _reference_deletion(work, config)) is not None:
        kind, axis, pos, dominator, evidence = hit
        kept = rows if axis is Axis.ROW else cols
        steps.append(ReductionStep(kind, StrategyIndex(axis, kept.pop(pos)), dominator, evidence))
        work = submatrix(pm, rows, cols)
    return ReductionResult(work, tuple(steps), tuple(rows), tuple(cols))


def _random_game(rng):
    """A 2x2 to 9x9 game with ties: small integer or tenths centers, crisp
    cells, and now and then a duplicated row or column."""
    m, n = rng.randint(2, 9), rng.randint(2, 9)
    tenths = rng.random() < 0.5

    def center():
        return rng.randint(-40, 40) / 10 if tenths else rng.randint(-4, 4)

    grid = [[[center(), rng.choice((0, 0, 0.1, 0.5))] for _ in range(n)] for _ in range(m)]
    if m > 2 and rng.random() < 0.3:
        grid[rng.randrange(m)] = [list(cell) for cell in rng.choice(grid)]
    if n > 2 and rng.random() < 0.3:
        src, dst = rng.randrange(n), rng.randrange(n)
        for row in grid:
            row[dst] = list(row[src])
    return PayoffMatrix.of(grid)


CONFIGS = (PipelineConfig(), PipelineConfig(threshold=0.5), PipelineConfig(betas=(0.5,)))


def test_matches_the_restart_loop(diagonal_game, curve_game):
    rng = random.Random(2013)
    # Diagonal games and convex curves are not reducible; convex rows reduce the transposes.
    curves = [curve_game(n) for n in range(2, 10)]
    games = [_random_game(rng) for _ in range(200)] + [diagonal_game(n) for n in range(2, 10)]
    games += curves + [PayoffMatrix.of(curve.columns) for curve in curves]
    kinds = collections.Counter()
    for pm in games:
        for config in CONFIGS:
            got = reduce_dominance(pm, config)
            assert repr(got) == repr(reference_reduce(pm, config)), (pm, config)
            kinds.update(step.kind for step in got.trace)
    assert set(kinds) == {
        StepKind.ROW_DOMINANCE, StepKind.COL_DOMINANCE,
        StepKind.CONVEX_ROW_DOMINANCE, StepKind.CONVEX_COL_DOMINANCE,
    }, kinds


def _plain_calls(monkeypatch, reduce, pm):
    calls = collections.Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(solver, "row_dominates", counting("row", row_dominates))
        patch.setattr(solver, "col_dominates", counting("col", col_dominates))
        result = reduce(pm)
    return result, calls["row"] + calls["col"]


# Public row_dominates plus col_dominates calls that reduce_dominance makes on
# planted_game(16, 16, 16); the restart loop makes 266.
RESUMED_PLAIN_CALLS = 91


def test_resumed_scan_makes_fewer_plain_calls(planted_game, monkeypatch):
    pm = planted_game(16, 16, 16)
    resumed, calls = _plain_calls(monkeypatch, reduce_dominance, pm)
    rescanned, rescan_calls = _plain_calls(monkeypatch, reference_reduce, pm)
    assert repr(resumed) == repr(rescanned)
    assert len(resumed.trace) == 28
    assert 0 < calls <= RESUMED_PLAIN_CALLS < rescan_calls
