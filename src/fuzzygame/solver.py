"""Saddle detection, dominance reductions and mixed-strategy solving.

The pipeline mirrors the classical recipe for rectangular zero-sum games:
check for a pure saddle point on the centers, then repeatedly delete
dominated strategies (plain row, plain column, convex-combination row,
convex-combination column; first applicable deletion wins, rows before
columns, lower indices first; a scan resumes where it stopped unless the
other axis lost a line, and so finds what a full rescan would).  A 2x2
residual is solved in closed form; a 2xn or mx2 residual goes through
enumeration of its 2x2 sub-games.  Anything larger is reported as not
reducible by this method.

The minimizing column player of a game is the maximizing row player of its
negated transpose.  So each test is written once: plain column dominance is
the row test on two columns with their order swapped, and convex column
dominance and the column player's guarantee run the row versions on the
columns of :attr:`PayoffMatrix.scaled_centers`, negated in place.  That
integer grid is the centers times the lcm of their denominators; a positive
scale keeps every comparison the convex test and the guarantee make.

Mixed strategies, value centers and spreads, the expected payoff and the
convex blends are exact rationals (``fractions.Fraction``), so results like
15/16 are exact.  They are computed on integer grids (the cells times the
lcm of their denominators, or a numerator over one common denominator), and
each returned ``Fraction`` is built once, from its integer numerator and
denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .fuzzy import Attitude, Choice, FuzzyNum, dominance_index, prefer_max, prefer_min
# Unused here (_evidence calls dominance_index on the entries' own numbers),
# but perfbench/spans.py traces the dominance index at solver.di_fuzzy.
from .fuzzy import di_fuzzy  # noqa: F401
from .matrix import Axis, PayoffMatrix, StrategyIndex, submatrix


class ShapeError(ValueError):
    """Operation applied to a matrix of the wrong shape."""


class NotReducibleError(Exception):
    """Dominance cannot bring the game down to 2x2 / 2xn / mx2.

    Carries the irreducible residual matrix and the deletions performed so
    far.  The crisp center game can still be solved by the oracle module.
    """

    def __init__(self, residual: PayoffMatrix, trace: tuple["ReductionStep", ...]):
        super().__init__(
            f"dominance leaves a {residual.rows}x{residual.cols} matrix; "
            "the method only solves games reducible to 2x2, 2xn or mx2"
        )
        self.residual = residual
        self.trace = trace


class SpreadConvention(Enum):
    """How the spread of a mixed-strategy game value is derived."""

    EXPECTED = "expected"  # spread averaged under the optimal mixed strategies
    ENDPOINT = "endpoint"  # closed form on the right endpoints m + w


class SolutionKind(Enum):
    PURE_SADDLE = "pure-saddle"
    MIXED_2X2 = "mixed-2x2"


class StepKind(Enum):
    ROW_DOMINANCE = "row-dominance"
    COL_DOMINANCE = "col-dominance"
    CONVEX_ROW_DOMINANCE = "convex-row-dominance"
    CONVEX_COL_DOMINANCE = "convex-col-dominance"
    SUBGAME_SELECTION = "subgame-selection"
    SADDLE_FOUND = "saddle-found"


@dataclass(frozen=True)
class ReductionStep:
    """One audit-trail event: what was deleted (or chosen), why, and the DI evidence."""

    kind: StepKind
    deleted: StrategyIndex | None
    dominator: str
    evidence: tuple[float, ...]


@dataclass(frozen=True)
class Solution:
    """Mixed strategies over the ORIGINAL indices, fuzzy value, and trace."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    value: FuzzyNum
    kind: SolutionKind
    trace: tuple[ReductionStep, ...]

    def __post_init__(self) -> None:
        vectors = {Axis.ROW: self.x, Axis.COL: self.y}
        for name, vec in (("x", self.x), ("y", self.y)):
            # A vector is padded to the original game with exact zeros, which
            # pass the range check and add nothing to the sum.
            support = [p for p in vec if p]
            if any(p < 0 or p > 1 for p in support):
                raise ValueError(f"{name} is not a probability vector: {vec}")
            if sum(support) != 1:
                raise ValueError(f"{name} does not sum to 1: {vec}")
        for step in self.trace:
            deleted = step.deleted
            if deleted is not None and vectors[deleted.axis][deleted.index]:
                raise ValueError(
                    f"deleted strategy {step.deleted} carries nonzero probability"
                )


# Largest grid beta_grid builds; an unbounded one is a memory hazard.
MAX_BETA_STEPS = 10_001


class _Grid(tuple):
    """The caller's convex coefficients, checked once; ``exact`` holds each as ``(num, den)``.

    A grid must not be empty, and a coefficient outside [0, 1], NaN too, is
    refused: its blend is no mixed strategy, so a deletion by it is unsound.
    """

    def __new__(cls, betas: Iterable[float]) -> "_Grid":
        grid = super().__new__(cls, betas)
        if not grid:
            raise ValueError("convex coefficient grid must not be empty")
        for beta in grid:
            if not 0 <= beta <= 1:
                raise ValueError(f"convex coefficients must lie in [0, 1], got {beta}")
        # A float's own ratio is Fraction(float)'s, at a tenth of the cost.
        grid.exact = tuple(
            (b if type(b) is float else Fraction(b)).as_integer_ratio() for b in grid)
        return grid


def beta_grid(steps: int = 21) -> tuple[float, ...]:
    """Evenly spaced coefficients on [0, 1]; 0.5 is tried first when present.

    ``steps`` must lie in [2, MAX_BETA_STEPS]; it is checked before anything
    is allocated.
    """
    if steps < 2:
        raise ValueError(f"beta grid needs at least 2 points, got {steps}")
    if steps > MAX_BETA_STEPS:
        raise ValueError(f"beta grid allows at most {MAX_BETA_STEPS} points, got {steps}")
    values = [i / (steps - 1) for i in range(steps)]
    if 0.5 in values:
        values.remove(0.5)
        values.insert(0, 0.5)
    return _Grid(values)


DEFAULT_BETAS = beta_grid()


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the reduction pipeline.

    ``threshold`` > 0 additionally requires every per-entry dominance index
    of a plain deletion to reach it (convex deletions ignore it); the
    default 0 uses weak dominance on centers, which is what the worked
    reductions need.  ``betas`` is kept as a checked copy: each in [0, 1].
    """

    threshold: float = 0.0
    betas: tuple[float, ...] = DEFAULT_BETAS
    attitude: Attitude = Attitude.PESSIMISTIC
    convention: SpreadConvention = SpreadConvention.EXPECTED

    def __post_init__(self) -> None:
        if not self.threshold >= 0:  # NaN included
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        if type(self.betas) is not _Grid:
            object.__setattr__(self, "betas", _Grid(self.betas))


def _evidence(lo: Sequence[FuzzyNum], hi: Sequence[FuzzyNum]) -> tuple[float, ...]:
    # Per entry, the dominance index of the lower line over the upper one.
    return tuple(dominance_index(a.center, a.spread, b.center, b.spread) for a, b in zip(lo, hi))


def find_saddle(
    pm: PayoffMatrix, attitude: Attitude = Attitude.PESSIMISTIC
) -> tuple[int, int, FuzzyNum] | None:
    """Pure-strategy solution cell, if the centers admit one.

    A saddle is an entry that is simultaneously a minimum of its row and a
    maximum of its column; it exists exactly when the maximin and minimax
    centers coincide.  Among tied cells the attitude picks the entry
    (pessimistic: smaller spread), first in row-major order on exact ties.
    """
    centers = pm.centers()
    row_min = tuple(min(row) for row in centers)
    col_max = tuple(map(max, zip(*centers)))
    if max(row_min) != min(col_max):
        return None
    best: tuple[int, int, FuzzyNum] | None = None
    for i in range(pm.rows):
        for j in range(pm.cols):
            if centers[i][j] == row_min[i] and centers[i][j] == col_max[j]:
                entry = pm.entry(i, j)
                if best is None or prefer_min(best[2], entry, attitude) is Choice.B:
                    best = (i, j, entry)
    return best


def _check_index(pm: PayoffMatrix, axis: Axis, *indices: int) -> None:
    if len(set(indices)) != len(indices):
        raise ValueError(f"{axis.value} indices {indices} must be distinct")
    size = pm.rows if axis is Axis.ROW else pm.cols
    for idx in indices:
        if not 0 <= idx < size:
            raise IndexError(f"{axis.value} index {idx} out of range for size {size}")


def row_dominates(
    pm: PayoffMatrix, i: int, r: int, threshold: float = 0.0
) -> tuple[float, ...] | None:
    """Evidence that row ``i`` dominates row ``r`` for the maximizer, else None.

    Row ``i`` must be entrywise at least row ``r`` on centers with one strict
    gap; exact duplicates are deletable when the dominator has the lower
    index.  A positive ``threshold`` additionally requires every per-column
    dominance index to reach it.
    """
    _check_index(pm, Axis.ROW, i, r)
    return _covers(pm.entries[i], pm.entries[r], i < r, threshold)


def col_dominates(
    pm: PayoffMatrix, j: int, s: int, threshold: float = 0.0
) -> tuple[float, ...] | None:
    """Mirror of :func:`row_dominates` for the minimizing column player.

    Column ``j`` dominates column ``s`` when it is entrywise at most ``s``
    on centers with one strict gap (or an exact duplicate with j < s).
    Negating the centers turns "at most" into "at least", so this is the
    row test with column ``s`` on top of column ``j``.
    """
    _check_index(pm, Axis.COL, j, s)
    columns = pm.columns
    return _covers(columns[s], columns[j], j < s, threshold)


def _covers(
    hi: Sequence[FuzzyNum], lo: Sequence[FuzzyNum], tie_ok: bool, threshold: float
) -> tuple[float, ...] | None:
    """Evidence that line ``hi`` lies entrywise at or above line ``lo``, else None.

    One strict gap on centers is needed, or ``tie_ok`` for an exact
    duplicate; a positive ``threshold`` must be reached by every entry's
    dominance index, which is exact near the float maximum and never NaN.
    """
    strict = False
    for top, low in zip(hi, lo):
        if top.center < low.center:
            return None
        if top.center > low.center:
            strict = True
    if not (strict or tie_ok):
        return None
    evidence = _evidence(lo, hi)
    if threshold > 0 and any(di < threshold for di in evidence):
        return None
    return evidence


def _blends(
    first: tuple[FuzzyNum, ...], second: tuple[FuzzyNum, ...], beta: float
) -> tuple[FuzzyNum, ...]:
    # Exact rational blend keeps the dominance comparisons deterministic.
    # With beta = bn/bd, u = un/ud and v = vn/vd, beta*u + (1 - beta)*v is
    # one integer numerator over bd*ud*vd, normalised once.
    bn, bd = Fraction(beta).as_integer_ratio()
    rest = bd - bn

    def blend(u, v) -> Fraction:
        un, ud = u.as_integer_ratio()
        vn, vd = v.as_integer_ratio()
        return Fraction(bn * un * vd + rest * vn * ud, bd * ud * vd)

    return tuple(
        FuzzyNum(blend(a.center, b.center), blend(a.spread, b.spread))
        for a, b in zip(first, second)
    )


def _lines(pm: PayoffMatrix, axis: Axis, p: int, q: int, s: int) -> Iterable[tuple[int, int, int]]:
    """Entry by entry, lines p, q and s of the maximizer's game on ``axis``.

    Rows are rows of :attr:`PayoffMatrix.scaled_centers`.  The minimizing
    column player is the maximizer of the negated transpose, read in place:
    column j of the same ints, negated.
    """
    c = pm.scaled_centers
    if axis is Axis.ROW:
        return zip(c[p], c[q], c[s])
    return ((-row[p], -row[q], -row[s]) for row in c)


def _first_feasible(
    lines: Iterable[tuple[int, int, int]], betas: tuple[float, ...]
) -> float | None:
    """First grid point ``beta`` whose blend of lines ``p`` and ``q`` covers line ``s``.

    ``lines`` gives ``(c_pj, c_qj, c_sj)`` per entry.  Per entry that is
    ``beta * d >= r`` with ``d = c_pj - c_qj`` and ``r = c_sj - c_qj``.
    Each constraint bounds ``beta`` from one side (or, when ``d == 0``, holds
    for every ``beta`` or for none), so with [0, 1], which holds every grid
    point, they cut out one interval ``lo <= beta <= hi``: two fractions
    ``(num, den)`` with ``den > 0``, from 0/1 and 1/1, compared by
    cross-multiplication.  One exact pass finds it and stops as soon as it is
    empty; then the grid is scanned, in the caller's order, for the first
    point inside it, which is returned as the caller gave it.  Returns None
    when there is none.  Any grid but a ``_Grid`` is checked here first.
    """
    grid = betas if type(betas) is _Grid else _Grid(betas)
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for cp, cq, cs in lines:
        d, r = cp - cq, cs - cq
        if d > 0:
            if r * lo_d > lo_n * d:  # r/d > lo
                lo_n, lo_d = r, d
        elif d < 0:
            if r * hi_d > hi_n * d:  # r/d < hi, written as -r/-d
                hi_n, hi_d = -r, -d
        elif r > 0:
            return None
        if lo_n * hi_d > hi_n * lo_d:
            return None
    for (num, den), beta in zip(grid.exact, grid):
        if lo_n * den <= num * lo_d and num * hi_d <= hi_n * den:
            return beta
    return None


def convex_row_dominates(
    pm: PayoffMatrix, p: int, q: int, s: int, betas: tuple[float, ...] = DEFAULT_BETAS
) -> tuple[float, tuple[float, ...]] | None:
    """First coefficient whose blend of rows p and q dominates row s, with evidence.

    The virtual row is beta*row(p) + (1-beta)*row(q), blended entrywise on
    centers and spreads.  Dominance is in the sense of maximization: the
    virtual row must be entrywise at least row s on centers (equality
    everywhere counts, since the blend makes row s redundant).  Per column
    that is ``beta * (c_pj - c_qj) >= c_sj - c_qj``, so the coefficients that
    work form one exact interval, found on the integer grid
    :attr:`PayoffMatrix.scaled_centers`; the first grid point inside it is
    the answer, and only its blend is built, for the evidence.  Every
    coefficient must lie in [0, 1].
    """
    _check_index(pm, Axis.ROW, p, q, s)
    beta = _first_feasible(_lines(pm, Axis.ROW, p, q, s), betas)
    if beta is None:
        return None
    return beta, _evidence(pm.row(s), _blends(pm.row(p), pm.row(q), beta))


def convex_col_dominates(
    pm: PayoffMatrix, p: int, q: int, s: int, alphas: tuple[float, ...] = DEFAULT_BETAS
) -> tuple[float, tuple[float, ...]] | None:
    """Mirror of :func:`convex_row_dominates` in the sense of minimization.

    Per row the blend must stay at most column s, that is
    ``alpha * (c_iq - c_ip) >= c_iq - c_is``: the row test on the negated
    transpose, read in place as the columns of
    :attr:`PayoffMatrix.scaled_centers` negated, which gives the reversed
    inequality exactly.  The evidence is read on this game's own
    columns, the blend below column s, as for plain column dominance; on
    negated centers, an index of -0.0 at a center of -0.0 would lose its sign.
    """
    _check_index(pm, Axis.COL, p, q, s)
    alpha = _first_feasible(_lines(pm, Axis.COL, p, q, s), alphas)
    if alpha is None:
        return None
    return alpha, _evidence(_blends(pm.col(p), pm.col(q), alpha), pm.col(s))


def _saddle_solution(pm: PayoffMatrix, saddle: tuple[int, int, FuzzyNum]) -> Solution:
    i, j, entry = saddle
    label = f"saddle at ({pm.row_labels[i]}, {pm.col_labels[j]})"
    step = ReductionStep(StepKind.SADDLE_FOUND, None, label, ())
    x = _on_original(pm.rows, (i,), (Fraction(1),))
    y = _on_original(pm.cols, (j,), (Fraction(1),))
    return Solution(x, y, entry, SolutionKind.PURE_SADDLE, (step,))


def solve_2x2(
    pm: PayoffMatrix,
    convention: SpreadConvention = SpreadConvention.EXPECTED,
    attitude: Attitude = Attitude.PESSIMISTIC,
) -> Solution:
    """Closed-form solution of a 2x2 game.

    Writing m_ij for the centers and D = m11 + m22 - m12 - m21:

        x = ((m22 - m21)/D, (m11 - m12)/D)
        y = ((m22 - m12)/D, (m11 - m21)/D)
        value center = (m11*m22 - m12*m21)/D

    all exact rationals.  The mix is strict (every probability in (0, 1))
    exactly when both diagonal centers lie above both others, or both below,
    and the game has a pure saddle exactly when it is not.  That test runs
    first, on the ints of :attr:`PayoffMatrix.scaled_centers`; a saddle goes
    to :func:`find_saddle`, whose entry is the value.  A mixed value's spread
    follows the convention: EXPECTED averages the entry spreads under (x, y);
    ENDPOINT applies the center formula to the right endpoints m + w and
    clamps at zero (falling back to EXPECTED if its denominator vanishes).
    """
    if (pm.rows, pm.cols) != (2, 2):
        raise ShapeError(f"solve_2x2 needs a 2x2 matrix, got {pm.rows}x{pm.cols}")

    (a11, a12), (a21, a22) = pm.scaled_centers
    if not (min(a11, a22) > max(a12, a21) or max(a11, a22) < min(a12, a21)):
        saddle = find_saddle(pm, attitude)
        if saddle is None:
            raise RuntimeError("internal consistency: a saddle-free 2x2 game is not strictly mixed")
        return _saddle_solution(pm, saddle)
    x, y, center = _closed_form(pm.scaled_centers, pm.center_scale)

    spread = None
    if convention is SpreadConvention.ENDPOINT:
        endpoint = _closed_form(*_endpoint_grid(pm))
        if endpoint is not None:
            spread = max(endpoint[2] - center, Fraction(0))
    if spread is None:
        spread = _expected(pm, x, y, "spread")

    return Solution(x, y, FuzzyNum(center, spread), SolutionKind.MIXED_2X2, ())


def _closed_form(
    a: Sequence[Sequence[int]], scale: int
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction], Fraction] | None:
    """The formula of :func:`solve_2x2` on a 2x2 integer grid: (x, y, value), or None when D == 0.

    ``a`` is the game times the positive int ``scale``.  The scale cancels
    in the strategies and once in the value, so each result is one
    ``Fraction`` of two ints.
    """
    (a11, a12), (a21, a22) = a
    d = a11 + a22 - a12 - a21
    if d == 0:
        return None
    x = (Fraction(a22 - a21, d), Fraction(a11 - a12, d))
    y = (Fraction(a22 - a12, d), Fraction(a11 - a21, d))
    return x, y, Fraction(a11 * a22 - a12 * a21, d * scale)


def _endpoint_grid(pm: PayoffMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The right endpoints ``center + spread`` as an integer grid and its positive scale.

    Each exact sum is ``(cn*sd + sn*cd) / (cd*sd)``; the scale is the lcm
    of those denominators, as :attr:`PayoffMatrix.scaled_centers` is for the centers.
    """
    sums = []
    for row in pm.entries:
        line = []
        for e in row:
            cn, cd = e.center.as_integer_ratio()
            sn, sd = e.spread.as_integer_ratio()
            line.append((cn * sd + sn * cd, cd * sd))
        sums.append(line)
    scale = math.lcm(*(den for line in sums for _, den in line))
    return tuple(tuple(num * (scale // den) for num, den in line) for line in sums), scale


@dataclass(frozen=True)
class SubgameCandidate:
    """One 2x2 sub-game: the kept index pair and its solution."""

    pair: tuple[int, int]
    solution: Solution


@dataclass(frozen=True)
class SubgameEnumeration:
    """All 2x2 sub-games of a 2xn (column pairs) or mx2 (row pairs) game."""

    axis: Axis
    chosen: tuple[int, int]
    candidates: tuple[SubgameCandidate, ...]


def enumerate_subgames(
    pm: PayoffMatrix,
    convention: SpreadConvention = SpreadConvention.EXPECTED,
    attitude: Attitude = Attitude.PESSIMISTIC,
) -> SubgameEnumeration:
    """Solve every 2x2 sub-game and mark the one the deciding player picks.

    For a 2xn game the minimizing column player keeps the pair with the
    least value center; for an mx2 game the maximizing row player keeps the
    greatest.  Ties fall to the smaller value spread, then to the
    lexicographically first pair.
    """
    if pm.rows == 2 and pm.cols >= 3:
        axis, size, prefer = Axis.COL, pm.cols, prefer_min
    elif pm.cols == 2 and pm.rows >= 3:
        axis, size, prefer = Axis.ROW, pm.rows, prefer_max
    else:
        raise ShapeError(
            f"sub-game enumeration needs a 2xn (n >= 3) or mx2 (m >= 3) matrix, "
            f"got {pm.rows}x{pm.cols}"
        )

    candidates = []
    for pair in itertools.combinations(range(size), 2):
        keep = (pair, (0, 1)) if axis is Axis.ROW else ((0, 1), pair)
        sub = submatrix(pm, *keep)
        candidates.append(SubgameCandidate(pair, solve_2x2(sub, convention, attitude)))

    best = candidates[0]
    for cand in candidates[1:]:
        # Pessimistic: equal centers go to the smaller spread, exact ties to the earlier pair.
        if prefer(best.solution.value, cand.solution.value) is Choice.B:
            best = cand
    return SubgameEnumeration(axis, best.pair, tuple(candidates))


@dataclass(frozen=True)
class ReductionResult:
    """Residual matrix after the dominance fixpoint, with index bookkeeping."""

    residual: PayoffMatrix
    trace: tuple[ReductionStep, ...]
    row_ids: tuple[int, ...]  # original index of each residual row
    col_ids: tuple[int, ...]


# The scans of _first_deletion, tried in this order: the step a deletion
# records, the axis it deletes on, whether a dominator blends two lines, and
# the public test that decides it.
_SCANS = (
    (StepKind.ROW_DOMINANCE, Axis.ROW, False, "row_dominates"),
    (StepKind.COL_DOMINANCE, Axis.COL, False, "col_dominates"),
    (StepKind.CONVEX_ROW_DOMINANCE, Axis.ROW, True, "convex_row_dominates"),
    (StepKind.CONVEX_COL_DOMINANCE, Axis.COL, True, "convex_col_dominates"),
)


def reduce_dominance(pm: PayoffMatrix, config: PipelineConfig | None = None) -> ReductionResult:
    """Apply dominance deletions until none applies.

    Each round tries the scans of ``_SCANS`` in order: plain row dominance,
    plain column dominance, convex-combination rows, convex-combination
    columns; the first scan that finds a deletable strategy deletes the
    lowest-index one.

    No scan starts over: each resumes at its start, below which every line
    was tried on the current residual and is not deletable by it.  Deleting
    line ``pos`` of an axis removes only dominators or pair members on that
    axis and keeps the order of the rest (which settles exact ties; a
    threshold reads only the two lines compared), so those lines stay
    undeletable and a start above ``pos`` moves down one; scans of the
    other axis lost a constraint and restart at 0.  Each round thus finds
    the deletion a full rescan would, and the trace is the same.
    """
    config = config or PipelineConfig()
    kept = {Axis.ROW: list(range(pm.rows)), Axis.COL: list(range(pm.cols))}  # original indices
    starts = [0] * len(_SCANS)
    work = pm
    steps: list[ReductionStep] = []
    while (hit := _first_deletion(work, config, starts)) is not None:
        kind, axis, pos, dominator, evidence = hit
        deleted = StrategyIndex(axis, kept[axis].pop(pos))
        steps.append(ReductionStep(kind, deleted, dominator, evidence))
        work = work.without(axis, pos)
        starts = [
            start - (pos < start) if scan_axis is axis else 0
            for (_, scan_axis, _, _), start in zip(_SCANS, starts)
        ]
    return ReductionResult(work, tuple(steps), tuple(kept[Axis.ROW]), tuple(kept[Axis.COL]))


def _first_deletion(
    pm: PayoffMatrix, config: PipelineConfig, starts: list[int]
) -> tuple[StepKind, Axis, int, str, tuple[float, ...]] | None:
    # Scan number ``scan`` of _SCANS runs from starts[scan] and leaves there
    # the line it deletes, or the axis size when it finds none.  Its public
    # test is looked up here, at call time, so that a wrapper installed on
    # the module sees every call.
    for scan, (kind, axis, blend, test) in enumerate(_SCANS):
        dominates = globals()[test]
        size, labels = (pm.rows, pm.row_labels) if axis is Axis.ROW else (pm.cols, pm.col_labels)
        setting = config.betas if blend else config.threshold
        for s in range(starts[scan], size):
            for dominator in itertools.combinations(range(size), 2 if blend else 1):
                if s in dominator:
                    continue
                hit = dominates(pm, *dominator, s, setting)
                if hit is not None:
                    starts[scan] = s
                    if not blend:
                        return kind, axis, s, labels[dominator[0]], hit
                    beta, evidence = hit
                    p, q = dominator
                    return kind, axis, s, _blend_label(beta, labels[p], labels[q]), evidence
        starts[scan] = size
    return None


def _blend_label(beta: float, first: str, second: str) -> str:
    # Through float, so that a Fraction coefficient formats on every Python version.
    return f"{float(beta):g}*{first} + {float(1 - beta):g}*{second}"


def solve_pipeline(pm: PayoffMatrix, config: PipelineConfig | None = None) -> Solution:
    """End-to-end solve: saddle check, dominance fixpoint, residual solve.

    Probabilities are mapped back to the ORIGINAL indices with exact zeros
    for every deleted strategy, and every step is recorded in the trace.
    Raises :class:`NotReducibleError` when the fixpoint is still larger than
    2xn / mx2 in both dimensions.
    """
    config = config or PipelineConfig()

    saddle = find_saddle(pm, config.attitude)
    if saddle is not None:
        return _saddle_solution(pm, saddle)

    reduced = reduce_dominance(pm, config)
    work = reduced.residual
    steps = list(reduced.trace)
    if work.rows < 2 or work.cols < 2:
        raise RuntimeError(
            "internal consistency: dominance reduced a saddle-free game below 2x2"
        )

    ids = {Axis.ROW: reduced.row_ids, Axis.COL: reduced.col_ids}
    if (work.rows, work.cols) == (2, 2):
        sub = solve_2x2(work, config.convention, config.attitude)
    elif work.rows == 2 or work.cols == 2:
        enum = enumerate_subgames(work, config.convention, config.attitude)
        chosen = next(c for c in enum.candidates if c.pair == enum.chosen)
        labels = work.row_labels if enum.axis is Axis.ROW else work.col_labels
        ids[enum.axis] = tuple(ids[enum.axis][k] for k in enum.chosen)
        label = f"sub-game ({', '.join(labels[k] for k in enum.chosen)})"
        centers = tuple(float(c.solution.value.center) for c in enum.candidates)
        steps.append(ReductionStep(StepKind.SUBGAME_SELECTION, None, label, centers))
        sub = _repaired_subgame_solution(work, enum, chosen)
    else:
        raise NotReducibleError(work, tuple(steps))
    steps.extend(sub.trace)

    solution = Solution(
        _on_original(pm.rows, ids[Axis.ROW], sub.x),
        _on_original(pm.cols, ids[Axis.COL], sub.y),
        sub.value,
        sub.kind,
        tuple(steps),
    )
    _assert_expected_payoff(pm, solution)
    return solution


def _on_original(
    size: int, ids: Sequence[int], probs: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    # Place each kept strategy's probability at its original index; the deleted get 0.
    out = [Fraction(0)] * size
    for orig, prob in zip(ids, probs):
        out[orig] = prob
    return tuple(out)


def _repaired_subgame_solution(
    work: PayoffMatrix, enum: SubgameEnumeration, chosen: SubgameCandidate
) -> Solution:
    """Guarantee-check the selected sub-game on the whole residual.

    The selected value center and the deciding player's strategy are always
    optimal for the residual, but when the selected sub-game is a saddle its
    pure strategy for the OTHER player can fail against strategies outside
    the pair (this needs tied sub-game values).  In that case the strategy
    is borrowed from another enumerated sub-game that does satisfy the
    guarantee; such a donor always exists.  The check runs on
    :attr:`PayoffMatrix.scaled_centers` against the value times
    :attr:`PayoffMatrix.center_scale`; the column player's guarantee is the
    row player's on the negated transpose, read in place, against -value.
    """
    solution = chosen.solution
    value = Fraction(solution.value.center) * work.center_scale
    scaled = work.scaled_centers
    if enum.axis is Axis.COL:
        other, against = "x", list(zip(*scaled))
    else:
        other, against, value = "y", [[-c for c in row] for row in scaled], -value
    for cand in (chosen, *enum.candidates):
        mix = getattr(cand.solution, other)
        if _guarantees(against, mix, value):
            return solution if cand is chosen else replace(solution, **{other: mix})
    raise RuntimeError("internal consistency: no enumerated sub-game passes the guarantee")


def _guarantees(
    against: Sequence[Sequence[int]], x: tuple[Fraction, ...], value: Fraction
) -> bool:
    # x mixes the entries of each opposing line; every line must pay the maximizer at least value.
    return all(sum(p * c for p, c in zip(x, line)) >= value for line in against)


def _expected(
    pm: PayoffMatrix, x: Sequence[Fraction], y: Sequence[Fraction], part: str
) -> Fraction:
    # The entries' center or spread (``part``) averaged under (x, y).  A
    # strategy played with probability 0 adds an exact 0, so summing over
    # the supports (at most 2x2 after dominance) gives the full sum.  Each
    # term p*q*v is added as integers to one numerator over one denominator.
    rows = [(i, *p.as_integer_ratio()) for i, p in enumerate(x) if p]
    cols = [(j, *q.as_integer_ratio()) for j, q in enumerate(y) if q]
    entries = pm.entries
    num, den = 0, 1
    for i, pn, pd in rows:
        line = entries[i]
        for j, qn, qd in cols:
            vn, vd = getattr(line[j], part).as_integer_ratio()
            td = pd * qd * vd
            num, den = num * td + pn * qn * vn * den, den * td
    return Fraction(num, den)


def _assert_expected_payoff(pm: PayoffMatrix, solution: Solution) -> None:
    if _expected(pm, solution.x, solution.y, "center") != Fraction(solution.value.center):
        raise RuntimeError(
            "internal consistency: expected payoff does not match the value center"
        )
