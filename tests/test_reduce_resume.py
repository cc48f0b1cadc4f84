"""The resumed dominance scan against the restart-from-scratch loop it replaced.

``reference_reduce`` rebuilds the residual from the original game after
every deletion and scans it again from the first pair.  ``reduce_dominance``
resumes each scan and leaves one line out of the previous residual; both
must give the same residual, trace, evidence and kept indices.

``resumed_reduce`` is the resumed scan written as one loop per kind of
dominator; ``reduce_dominance`` must make the same calls to the four public
tests, in the same order, so that a tracer wrapping them counts the same.
"""

import collections
import itertools
import pathlib
import random

from fuzzygame import (
    Axis,
    PayoffMatrix,
    PipelineConfig,
    StepKind,
    StrategyIndex,
    parse_matrix,
    reduce_dominance,
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


def _families(diagonal_game, curve_game):
    # Diagonal games and convex curves are not reducible; convex rows reduce the transposes.
    curves = [curve_game(n) for n in range(2, 10)]
    return [diagonal_game(n) for n in range(2, 10)] + curves + [
        PayoffMatrix.of(curve.columns) for curve in curves]


def test_matches_the_restart_loop(diagonal_game, curve_game):
    rng = random.Random(2013)
    games = [_random_game(rng) for _ in range(200)] + _families(diagonal_game, curve_game)
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


TESTS = ("row_dominates", "col_dominates", "convex_row_dominates", "convex_col_dominates")


def _recorded_calls(monkeypatch, reduce, pm, config):
    """Every call ``reduce`` makes to the four public tests: name and line indices, in order.

    The wrappers are installed on the module attributes, where an outside
    tracer installs its own.
    """
    calls = []

    def recording(name, original):
        def wrapper(pm, *args):
            calls.append((name, *args[:-1]))
            return original(pm, *args)
        return wrapper

    with monkeypatch.context() as patch:
        for name in TESTS:
            patch.setattr(solver, name, recording(name, getattr(solver, name)))
        result = reduce(pm, config)
    return result, calls


def _plain_calls(monkeypatch, reduce, pm):
    result, calls = _recorded_calls(monkeypatch, reduce, pm, PipelineConfig())
    return result, sum(name in ("row_dominates", "col_dominates") for name, *_ in calls)


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


def _resumed_deletion(pm, config, starts):
    """The resumed scan written as two loops, one per kind of dominator.

    Scan ``scan`` runs from ``starts[scan]`` and leaves there the line it
    deletes, or the axis size when it finds none.  The four tests are looked
    up on the module, as in ``_reference_deletion``.
    """
    rows = (Axis.ROW, pm.rows, pm.row_labels)
    cols = (Axis.COL, pm.cols, pm.col_labels)
    for scan, (kind, dominates, (axis, size, labels)) in enumerate((
        (StepKind.ROW_DOMINANCE, solver.row_dominates, rows),
        (StepKind.COL_DOMINANCE, solver.col_dominates, cols),
    )):
        for s in range(starts[scan], size):
            for d in range(size):
                if d != s:
                    evidence = dominates(pm, d, s, config.threshold)
                    if evidence is not None:
                        starts[scan] = s
                        return kind, axis, s, labels[d], evidence
        starts[scan] = size
    for scan, (kind, dominates, (axis, size, labels)) in enumerate((
        (StepKind.CONVEX_ROW_DOMINANCE, solver.convex_row_dominates, rows),
        (StepKind.CONVEX_COL_DOMINANCE, solver.convex_col_dominates, cols),
    ), start=2):
        for s in range(starts[scan], size):
            others = [k for k in range(size) if k != s]
            for p, q in itertools.combinations(others, 2):
                hit = dominates(pm, p, q, s, config.betas)
                if hit is not None:
                    beta, evidence = hit
                    starts[scan] = s
                    label = f"{float(beta):g}*{labels[p]} + {float(1 - beta):g}*{labels[q]}"
                    return kind, axis, s, label, evidence
        starts[scan] = size
    return None


def resumed_reduce(pm, config=PipelineConfig()):
    """The dominance fixpoint with resumed scans, one line left out per deletion."""
    scan_axes = (Axis.ROW, Axis.COL, Axis.ROW, Axis.COL)
    kept = {Axis.ROW: list(range(pm.rows)), Axis.COL: list(range(pm.cols))}
    starts = [0] * 4
    work = pm
    steps = []
    while (hit := _resumed_deletion(work, config, starts)) is not None:
        kind, axis, pos, dominator, evidence = hit
        deleted = StrategyIndex(axis, kept[axis].pop(pos))
        steps.append(ReductionStep(kind, deleted, dominator, evidence))
        work = work.without(axis, pos)
        starts = [start - (pos < start) if scan is axis else 0
                  for scan, start in zip(scan_axes, starts)]
    return ReductionResult(work, tuple(steps), tuple(kept[Axis.ROW]), tuple(kept[Axis.COL]))


def test_makes_the_calls_of_the_two_loop_scan(diagonal_game, curve_game, planted_game,
                                              monkeypatch):
    rng = random.Random(18)
    samples = pathlib.Path(__file__).resolve().parent.parent / "sample_games"
    games = _families(diagonal_game, curve_game)
    games += [parse_matrix(path.read_text()) for path in sorted(samples.glob("*.json"))]
    games += [planted_game(seed, 9, 7) for seed in range(3)]
    games += [_random_game(rng) for _ in range(60)]
    names = collections.Counter()
    for pm in games:
        for config in CONFIGS:
            got, calls = _recorded_calls(monkeypatch, reduce_dominance, pm, config)
            want, reference_calls = _recorded_calls(monkeypatch, resumed_reduce, pm, config)
            assert repr(got) == repr(want), (pm, config)
            assert calls == reference_calls, (pm, config)
            names.update(call[0] for call in calls)
    assert set(names) == set(TESTS), names
