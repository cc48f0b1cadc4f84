"""Saddle detection, dominance reductions and mixed-strategy solving.

The pipeline mirrors the classical recipe for rectangular zero-sum games:
check for a pure saddle point on the centers, then repeatedly delete
dominated strategies (plain row, plain column, convex-combination row,
convex-combination column; first applicable deletion wins, rows before
columns, lower indices first, rescanning after every deletion).  A 2x2
residual is solved in closed form; a 2xn or mx2 residual goes through
enumeration of its 2x2 sub-games.  Anything larger is reported as not
reducible by this method.

The minimizing column player of a game is the maximizing row player of its
negated transpose (:attr:`PayoffMatrix.dual`), so each test is written once:
plain column dominance is the row test on two columns with their order
swapped, and convex column dominance and the column player's guarantee run
the row versions on the dual.

Mixed strategies and value centers are computed in exact rational
arithmetic (``fractions.Fraction``), so results like 15/16 are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .fuzzy import Attitude, Choice, FuzzyNum, prefer_min
# Unused here (_entry_di computes its expression straight off the entries),
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
        for name, vec in (("x", self.x), ("y", self.y)):
            if any(p < 0 or p > 1 for p in vec):
                raise ValueError(f"{name} is not a probability vector: {vec}")
            if sum(vec) != 1:
                raise ValueError(f"{name} does not sum to 1: {vec}")
        for step in self.trace:
            if step.deleted is None:
                continue
            vec = self.x if step.deleted.axis is Axis.ROW else self.y
            if vec[step.deleted.index] != 0:
                raise ValueError(
                    f"deleted strategy {step.deleted} carries nonzero probability"
                )


# Largest grid beta_grid builds: a finer grid cannot change which blends
# exist, only slow the rare scan over it, and an unbounded one is a memory
# hazard.
MAX_BETA_STEPS = 10_001


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
    return tuple(values)


DEFAULT_BETAS = beta_grid()


def _check_coefficients(betas: tuple[float, ...]) -> None:
    # A coefficient outside [0, 1] blends two strategies into one that is
    # not a mixed strategy, so a deletion by it would be unsound.
    if not betas:
        raise ValueError("convex coefficient grid must not be empty")
    for beta in betas:
        if not 0 <= beta <= 1:
            raise ValueError(f"convex coefficients must lie in [0, 1], got {beta}")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the reduction pipeline.

    ``threshold`` > 0 additionally requires every per-entry dominance index
    to reach it (the literal total-dominance regime); the default 0 uses
    weak dominance on centers, which is what the worked reductions need.
    Every convex coefficient in ``betas`` must lie in [0, 1].
    """

    threshold: float = 0.0
    betas: tuple[float, ...] = DEFAULT_BETAS
    attitude: Attitude = Attitude.PESSIMISTIC
    convention: SpreadConvention = SpreadConvention.EXPECTED

    def __post_init__(self) -> None:
        if not self.threshold >= 0:  # NaN included
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        _check_coefficients(self.betas)


def _entry_di(a: FuzzyNum, b: FuzzyNum) -> float:
    """Dominance index of entry ``a`` over entry ``b``; +/-inf for crisp pairs.

    This is ``di_fuzzy`` on the two LR triples, operand for operand, read
    straight off the entries.
    """
    width = a.spread + b.spread
    if width == 0:
        diff = b.center - a.center
        return math.inf if diff > 0 else (-math.inf if diff < 0 else 0.0)
    return float((b.center - a.center) / width)


def _evidence(lo: Sequence[FuzzyNum], hi: Sequence[FuzzyNum]) -> tuple[float, ...]:
    # Per entry, the dominance index of the lower line over the upper one.
    return tuple(_entry_di(a, b) for a, b in zip(lo, hi))


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
    col_max = tuple(max(centers[i][j] for i in range(pm.rows)) for j in range(pm.cols))
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
    rows = pm.entries
    return _covers([row[s] for row in rows], [row[j] for row in rows], j < s, threshold)


def _covers(
    hi: Sequence[FuzzyNum], lo: Sequence[FuzzyNum], tie_ok: bool, threshold: float
) -> tuple[float, ...] | None:
    """Evidence that line ``hi`` lies entrywise at or above line ``lo``, else None.

    One strict gap on centers is needed, or ``tie_ok`` for an exact
    duplicate; a positive ``threshold`` must be reached by every entry's
    dominance index.
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


def _blend(a: FuzzyNum, b: FuzzyNum, beta: Fraction) -> FuzzyNum:
    # Exact rational blend keeps the dominance comparisons deterministic.
    return FuzzyNum(
        beta * Fraction(a.center) + (1 - beta) * Fraction(b.center),
        beta * Fraction(a.spread) + (1 - beta) * Fraction(b.spread),
    )


def _blends(
    first: tuple[FuzzyNum, ...], second: tuple[FuzzyNum, ...], beta: float
) -> tuple[FuzzyNum, ...]:
    bf = Fraction(beta)
    return tuple(_blend(a, b, bf) for a, b in zip(first, second))


def _first_feasible(
    centers: tuple[tuple[Fraction, ...], ...], p: int, q: int, s: int, betas: tuple[float, ...]
) -> float | None:
    """First grid point ``beta`` whose blend of rows ``p`` and ``q`` covers row ``s``.

    Per column that is ``beta * d >= r`` with ``d = c_pj - c_qj`` and
    ``r = c_sj - c_qj``.  Each constraint bounds ``beta`` from one side (or,
    when ``d == 0``, holds for every ``beta`` or for none), so together they
    cut out one interval ``lo <= beta <= hi`` whose ends may be open-ended.
    It is found in one exact pass that stops as soon as it is empty; then
    the grid is scanned, in the caller's order, for the first point inside
    it.  Returns None when there is none.
    """
    lo = hi = None
    for cp, cq, cs in zip(centers[p], centers[q], centers[s]):
        d, r = cp - cq, cs - cq
        if d > 0:
            bound = r / d
            if lo is None or bound > lo:
                lo = bound
        elif d < 0:
            bound = r / d
            if hi is None or bound < hi:
                hi = bound
        elif r > 0:
            return None
        if lo is not None and hi is not None and lo > hi:
            return None
    for beta in betas:
        bf = Fraction(beta)
        if (lo is None or lo <= bf) and (hi is None or bf <= hi):
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
    work form one exact interval; the first grid point inside it is the
    answer, and only its blend is built, for the evidence.  Every
    coefficient must lie in [0, 1].
    """
    _check_index(pm, Axis.ROW, p, q, s)
    _check_coefficients(betas)
    beta = _first_feasible(pm.exact_centers, p, q, s, betas)
    if beta is None:
        return None
    return beta, _evidence(pm.row(s), _blends(pm.row(p), pm.row(q), beta))


def convex_col_dominates(
    pm: PayoffMatrix, p: int, q: int, s: int, alphas: tuple[float, ...] = DEFAULT_BETAS
) -> tuple[float, tuple[float, ...]] | None:
    """Mirror of :func:`convex_row_dominates` in the sense of minimization.

    Per row the blend must stay at most column s, that is
    ``alpha * (c_iq - c_ip) >= c_iq - c_is``: the row test on the negated
    transpose :attr:`PayoffMatrix.dual`, whose exact centers give the
    reversed inequality exactly.  The evidence is read on this game's own
    columns, the blend below column s, as for plain column dominance; on
    the dual, an index of -0.0 at a center of -0.0 would lose its sign.
    """
    _check_index(pm, Axis.COL, p, q, s)
    _check_coefficients(alphas)
    alpha = _first_feasible(pm.dual.exact_centers, p, q, s, alphas)
    if alpha is None:
        return None
    return alpha, _evidence(_blends(pm.col(p), pm.col(q), alpha), pm.col(s))


def _pure(size: int, at: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if k == at else Fraction(0) for k in range(size))


def _saddle_solution(pm: PayoffMatrix, saddle: tuple[int, int, FuzzyNum]) -> Solution:
    i, j, entry = saddle
    label = f"saddle at ({pm.row_labels[i]}, {pm.col_labels[j]})"
    step = ReductionStep(StepKind.SADDLE_FOUND, None, label, ())
    return Solution(
        _pure(pm.rows, i), _pure(pm.cols, j), entry, SolutionKind.PURE_SADDLE, (step,)
    )


def _expected_spread(
    pm: PayoffMatrix, x: tuple[Fraction, ...], y: tuple[Fraction, ...]
) -> Fraction:
    return sum(
        (
            x[i] * y[j] * Fraction(pm.entry(i, j).spread)
            for i in range(pm.rows)
            for j in range(pm.cols)
        ),
        Fraction(0),
    )


def solve_2x2(
    pm: PayoffMatrix,
    convention: SpreadConvention = SpreadConvention.EXPECTED,
    attitude: Attitude = Attitude.PESSIMISTIC,
) -> Solution:
    """Closed-form solution of a 2x2 game.

    With a saddle point the solution is pure and the value is the saddle
    entry itself.  Otherwise, writing m_ij for the centers and
    D = m11 + m22 - m12 - m21:

        x = ((m22 - m21)/D, (m11 - m12)/D)
        y = ((m22 - m12)/D, (m11 - m21)/D)
        value center = (m11*m22 - m12*m21)/D

    all exact rationals.  The value spread follows the convention: EXPECTED
    averages the entry spreads under (x, y); ENDPOINT applies the
    center formula to the right endpoints m + w and clamps at zero (falling
    back to EXPECTED if its denominator vanishes).
    """
    if (pm.rows, pm.cols) != (2, 2):
        raise ShapeError(f"solve_2x2 needs a 2x2 matrix, got {pm.rows}x{pm.cols}")

    saddle = find_saddle(pm, attitude)
    if saddle is not None:
        return _saddle_solution(pm, saddle)

    m11, m12 = Fraction(pm.entry(0, 0).center), Fraction(pm.entry(0, 1).center)
    m21, m22 = Fraction(pm.entry(1, 0).center), Fraction(pm.entry(1, 1).center)
    d = m11 + m22 - m12 - m21
    if d == 0:
        raise RuntimeError("internal consistency: no saddle point yet D == 0")
    x = ((m22 - m21) / d, (m11 - m12) / d)
    y = ((m22 - m12) / d, (m11 - m21) / d)
    if any(not 0 < p < 1 for p in (*x, *y)):
        raise RuntimeError("internal consistency: no saddle point yet degenerate mix")
    center = (m11 * m22 - m12 * m21) / d

    spread = None
    if convention is SpreadConvention.ENDPOINT:
        spread = _endpoint_spread(pm, center)
    if spread is None:
        spread = _expected_spread(pm, x, y)

    return Solution(x, y, FuzzyNum(center, spread), SolutionKind.MIXED_2X2, ())


def _endpoint_spread(pm: PayoffMatrix, center: Fraction) -> Fraction | None:
    b = [
        [Fraction(pm.entry(i, j).center) + Fraction(pm.entry(i, j).spread) for j in (0, 1)]
        for i in (0, 1)
    ]
    denom = b[0][0] + b[1][1] - b[0][1] - b[1][0]
    if denom == 0:
        return None
    spread = (b[0][0] * b[1][1] - b[0][1] * b[1][0]) / denom - center
    return max(spread, Fraction(0))


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
        axis, size, minimize = Axis.COL, pm.cols, True
    elif pm.cols == 2 and pm.rows >= 3:
        axis, size, minimize = Axis.ROW, pm.rows, False
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
        if _value_beats(cand.solution.value, best.solution.value, minimize):
            best = cand
    return SubgameEnumeration(axis, best.pair, tuple(candidates))


def _value_beats(new: FuzzyNum, old: FuzzyNum, minimize: bool) -> bool:
    if new.center != old.center:
        return new.center < old.center if minimize else new.center > old.center
    return new.spread < old.spread  # pessimistic tie-break; equal keeps the earlier pair


@dataclass(frozen=True)
class ReductionResult:
    """Residual matrix after the dominance fixpoint, with index bookkeeping."""

    residual: PayoffMatrix
    trace: tuple[ReductionStep, ...]
    row_ids: tuple[int, ...]  # original index of each residual row
    col_ids: tuple[int, ...]


def reduce_dominance(pm: PayoffMatrix, config: PipelineConfig | None = None) -> ReductionResult:
    """Apply dominance deletions until none applies.

    Each pass tries, in order: plain row dominance, plain column dominance,
    convex-combination rows, convex-combination columns; within a pass the
    lowest-index deletable strategy goes first and the scan restarts from
    scratch after every deletion, so traces are reproducible.
    """
    config = config or PipelineConfig()
    work = pm
    ids = [list(range(pm.rows)), list(range(pm.cols))]  # rows, then columns
    steps: list[ReductionStep] = []
    while True:
        hit = _first_deletion(work, config)
        if hit is None:
            break
        kind, axis, pos, dominator, evidence = hit
        side = 0 if axis is Axis.ROW else 1
        original = StrategyIndex(axis, ids[side].pop(pos))
        steps.append(ReductionStep(kind, original, dominator, evidence))
        keep = [range(work.rows), range(work.cols)]
        keep[side] = [k for k in keep[side] if k != pos]
        work = submatrix(work, *keep)
    return ReductionResult(work, tuple(steps), tuple(ids[0]), tuple(ids[1]))


def _first_deletion(
    pm: PayoffMatrix, config: PipelineConfig
) -> tuple[StepKind, Axis, int, str, tuple[float, ...]] | None:
    # The four public tests are looked up here, at call time, so that a
    # wrapper installed on the module sees every call.
    rows = (Axis.ROW, pm.rows, pm.row_labels)
    cols = (Axis.COL, pm.cols, pm.col_labels)
    for kind, dominates, (axis, size, labels) in (
        (StepKind.ROW_DOMINANCE, row_dominates, rows),
        (StepKind.COL_DOMINANCE, col_dominates, cols),
    ):
        for s in range(size):
            for d in range(size):
                if d != s:
                    evidence = dominates(pm, d, s, config.threshold)
                    if evidence is not None:
                        return kind, axis, s, labels[d], evidence
    for kind, dominates, (axis, size, labels) in (
        (StepKind.CONVEX_ROW_DOMINANCE, convex_row_dominates, rows),
        (StepKind.CONVEX_COL_DOMINANCE, convex_col_dominates, cols),
    ):
        for s in range(size):
            others = [k for k in range(size) if k != s]
            for p, q in itertools.combinations(others, 2):
                hit = dominates(pm, p, q, s, config.betas)
                if hit is not None:
                    beta, evidence = hit
                    return kind, axis, s, _blend_label(beta, labels[p], labels[q]), evidence
    return None


def _blend_label(beta: float, first: str, second: str) -> str:
    return f"{beta:g}*{first} + {1 - beta:g}*{second}"


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
    guarantee; such a donor always exists.  The column player's guarantee
    is checked as the row player's on the dual, against the negated value.
    """
    solution = chosen.solution
    value = Fraction(solution.value.center)
    if enum.axis is Axis.COL:
        other, centers = "x", work.exact_centers
    else:
        other, centers, value = "y", work.dual.exact_centers, -value
    for cand in (chosen, *enum.candidates):
        mix = getattr(cand.solution, other)
        if _guarantees(centers, mix, value):
            return solution if cand is chosen else replace(solution, **{other: mix})
    raise RuntimeError("internal consistency: no enumerated sub-game passes the guarantee")


def _guarantees(
    centers: Sequence[Sequence[Fraction]], x: tuple[Fraction, ...], value: Fraction
) -> bool:
    # x mixes the rows of centers; every column must pay the maximizer at least value.
    return all(sum(p * c for p, c in zip(x, col)) >= value for col in zip(*centers))


def _assert_expected_payoff(pm: PayoffMatrix, solution: Solution) -> None:
    # A strategy played with probability 0 adds an exact 0, so summing over
    # the supports (at most 2x2 after dominance) gives the full sum.
    rows = [(i, p) for i, p in enumerate(solution.x) if p]
    cols = [(j, q) for j, q in enumerate(solution.y) if q]
    entries = pm.entries
    expected = sum(p * q * Fraction(entries[i][j].center) for i, p in rows for j, q in cols)
    if expected != Fraction(solution.value.center):
        raise RuntimeError(
            "internal consistency: expected payoff does not match the value center"
        )
