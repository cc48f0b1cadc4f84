"""Saddle detection, dominance reductions and mixed-strategy solving.

The pipeline mirrors the classical recipe for rectangular zero-sum games:
check for a pure saddle point on the centers, then repeatedly delete
dominated strategies (plain row, plain column, convex-combination row,
convex-combination column; first applicable deletion wins, rows before
columns, lower indices first, rescanning after every deletion).  A 2x2
residual is solved in closed form; a 2xn or mx2 residual goes through
enumeration of its 2x2 sub-games.  Anything larger is reported as not
reducible by this method.

Mixed strategies and value centers are computed in exact rational
arithmetic (``fractions.Fraction``), so results like 15/16 are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .fuzzy import Attitude, Choice, FuzzyNum, di_fuzzy, prefer_min
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


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the reduction pipeline.

    ``threshold`` > 0 additionally requires every per-entry dominance index
    to reach it (the literal total-dominance regime); the default 0 uses
    weak dominance on centers, which is what the worked reductions need.
    """

    threshold: float = 0.0
    betas: tuple[float, ...] = DEFAULT_BETAS
    attitude: Attitude = Attitude.PESSIMISTIC
    convention: SpreadConvention = SpreadConvention.EXPECTED

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        if not self.betas:
            raise ValueError("beta grid must not be empty")


def _entry_di(a: FuzzyNum, b: FuzzyNum) -> float:
    """Dominance index of entry ``a`` over entry ``b``; +/-inf for crisp pairs."""
    if a.spread + b.spread == 0:
        diff = b.center - a.center
        return math.inf if diff > 0 else (-math.inf if diff < 0 else 0.0)
    return float(di_fuzzy(a.as_lr_triple(), b.as_lr_triple()))


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
    if i == r:
        raise ValueError("a row cannot dominate itself")
    _check_index(pm, Axis.ROW, i, r)
    strict = False
    for j in range(pm.cols):
        ci, cr = pm.entry(i, j).center, pm.entry(r, j).center
        if ci < cr:
            return None
        if ci > cr:
            strict = True
    if not strict and not i < r:
        return None
    evidence = tuple(_entry_di(pm.entry(r, j), pm.entry(i, j)) for j in range(pm.cols))
    if threshold > 0 and any(di < threshold for di in evidence):
        return None
    return evidence


def col_dominates(
    pm: PayoffMatrix, j: int, s: int, threshold: float = 0.0
) -> tuple[float, ...] | None:
    """Mirror of :func:`row_dominates` for the minimizing column player.

    Column ``j`` dominates column ``s`` when it is entrywise at most ``s``
    on centers with one strict gap (or an exact duplicate with j < s).
    """
    if j == s:
        raise ValueError("a column cannot dominate itself")
    _check_index(pm, Axis.COL, j, s)
    strict = False
    for i in range(pm.rows):
        cj, cs = pm.entry(i, j).center, pm.entry(i, s).center
        if cj > cs:
            return None
        if cj < cs:
            strict = True
    if not strict and not j < s:
        return None
    evidence = tuple(_entry_di(pm.entry(i, j), pm.entry(i, s)) for i in range(pm.rows))
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
    first: tuple[FuzzyNum, ...], second: tuple[FuzzyNum, ...], beta: Fraction
) -> tuple[FuzzyNum, ...]:
    return tuple(_blend(a, b, beta) for a, b in zip(first, second))


def _first_feasible(
    constraints: Iterable[tuple[Fraction, Fraction]],
    betas: tuple[float, ...],
    first: tuple[FuzzyNum, ...],
    second: tuple[FuzzyNum, ...],
) -> float | None:
    """First grid point ``beta`` with ``beta * d >= r`` for every ``(d, r)``, else None.

    Each constraint bounds ``beta`` from one side (or, when ``d == 0``, holds
    for every ``beta`` or for none), so together they cut out one interval
    ``lo <= beta <= hi`` whose ends may be open-ended.  It is found in one
    exact pass that stops as soon as it is empty; then the grid is scanned,
    in the caller's order, for the first point inside it.

    A grid point outside [0, 1] can blend ``first`` and ``second`` into a
    negative spread, which :class:`FuzzyNum` refuses; such points are
    blended as they are passed, so a bad grid raises the same
    ``ValueError`` whether or not a coefficient before it is accepted.
    """
    lo = hi = None
    feasible = True
    for d, r in constraints:
        if d > 0:
            bound = r / d
            if lo is None or bound > lo:
                lo = bound
        elif d < 0:
            bound = r / d
            if hi is None or bound < hi:
                hi = bound
        elif r > 0:
            feasible = False
            break
        if lo is not None and hi is not None and lo > hi:
            feasible = False
            break
    if not feasible and all(0 <= beta <= 1 for beta in betas):
        return None
    for beta in betas:
        bf = Fraction(beta)
        if not 0 <= bf <= 1:
            _blends(first, second, bf)
        if feasible and (lo is None or lo <= bf) and (hi is None or bf <= hi):
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
    answer, and only its blend is built, for the evidence.
    """
    if len({p, q, s}) != 3:
        raise ValueError(f"rows p={p}, q={q}, s={s} must be distinct")
    _check_index(pm, Axis.ROW, p, q, s)
    if not betas:
        raise ValueError("beta grid must not be empty")
    centers = pm.exact_centers
    first, second = pm.row(p), pm.row(q)
    beta = _first_feasible(
        ((cp - cq, cs - cq) for cp, cq, cs in zip(centers[p], centers[q], centers[s])),
        betas,
        first,
        second,
    )
    if beta is None:
        return None
    virtual = _blends(first, second, Fraction(beta))
    return beta, tuple(_entry_di(a, v) for a, v in zip(pm.row(s), virtual))


def convex_col_dominates(
    pm: PayoffMatrix, p: int, q: int, s: int, alphas: tuple[float, ...] = DEFAULT_BETAS
) -> tuple[float, tuple[float, ...]] | None:
    """Mirror of :func:`convex_row_dominates` in the sense of minimization.

    Per row the blend must stay at most column s, that is
    ``alpha * (c_iq - c_ip) >= c_iq - c_is``.
    """
    if len({p, q, s}) != 3:
        raise ValueError(f"columns p={p}, q={q}, s={s} must be distinct")
    _check_index(pm, Axis.COL, p, q, s)
    if not alphas:
        raise ValueError("alpha grid must not be empty")
    first, second = pm.col(p), pm.col(q)
    alpha = _first_feasible(
        ((row[q] - row[p], row[q] - row[s]) for row in pm.exact_centers),
        alphas,
        first,
        second,
    )
    if alpha is None:
        return None
    virtual = _blends(first, second, Fraction(alpha))
    return alpha, tuple(_entry_di(v, a) for v, a in zip(virtual, pm.col(s)))


def _pure(size: int, at: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if k == at else Fraction(0) for k in range(size))


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
        i, j, entry = saddle
        step = ReductionStep(
            StepKind.SADDLE_FOUND,
            None,
            f"saddle at ({pm.row_labels[i]}, {pm.col_labels[j]})",
            (),
        )
        return Solution(_pure(2, i), _pure(2, j), entry, SolutionKind.PURE_SADDLE, (step,))

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

    if convention is SpreadConvention.ENDPOINT:
        spread = _endpoint_spread(pm, center)
        if spread is None:
            spread = _expected_spread(pm, x, y)
    else:
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
        axis = Axis.COL
        pairs = itertools.combinations(range(pm.cols), 2)
        minimize = True
    elif pm.cols == 2 and pm.rows >= 3:
        axis = Axis.ROW
        pairs = itertools.combinations(range(pm.rows), 2)
        minimize = False
    else:
        raise ShapeError(
            f"sub-game enumeration needs a 2xn (n >= 3) or mx2 (m >= 3) matrix, "
            f"got {pm.rows}x{pm.cols}"
        )

    candidates = []
    for pair in pairs:
        if axis is Axis.COL:
            sub = submatrix(pm, (0, 1), pair)
        else:
            sub = submatrix(pm, pair, (0, 1))
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
    row_ids = list(range(pm.rows))
    col_ids = list(range(pm.cols))
    steps: list[ReductionStep] = []
    while True:
        hit = _first_deletion(work, config)
        if hit is None:
            break
        kind, axis, pos, dominator, evidence = hit
        if axis is Axis.ROW:
            original = StrategyIndex(axis, row_ids.pop(pos))
            work = submatrix(work, [i for i in range(work.rows) if i != pos], range(work.cols))
        else:
            original = StrategyIndex(axis, col_ids.pop(pos))
            work = submatrix(work, range(work.rows), [j for j in range(work.cols) if j != pos])
        steps.append(ReductionStep(kind, original, dominator, evidence))
    return ReductionResult(work, tuple(steps), tuple(row_ids), tuple(col_ids))


def _first_deletion(
    pm: PayoffMatrix, config: PipelineConfig
) -> tuple[StepKind, Axis, int, str, tuple[float, ...]] | None:
    if pm.rows > 1:
        for r in range(pm.rows):
            for i in range(pm.rows):
                if i == r:
                    continue
                evidence = row_dominates(pm, i, r, config.threshold)
                if evidence is not None:
                    return (StepKind.ROW_DOMINANCE, Axis.ROW, r, pm.row_labels[i], evidence)
    if pm.cols > 1:
        for s in range(pm.cols):
            for j in range(pm.cols):
                if j == s:
                    continue
                evidence = col_dominates(pm, j, s, config.threshold)
                if evidence is not None:
                    return (StepKind.COL_DOMINANCE, Axis.COL, s, pm.col_labels[j], evidence)
    if pm.rows >= 3:
        for s in range(pm.rows):
            others = [i for i in range(pm.rows) if i != s]
            for p, q in itertools.combinations(others, 2):
                hit = convex_row_dominates(pm, p, q, s, config.betas)
                if hit is not None:
                    beta, evidence = hit
                    dominator = _blend_label(beta, pm.row_labels[p], pm.row_labels[q])
                    return (StepKind.CONVEX_ROW_DOMINANCE, Axis.ROW, s, dominator, evidence)
    if pm.cols >= 3:
        for s in range(pm.cols):
            others = [j for j in range(pm.cols) if j != s]
            for p, q in itertools.combinations(others, 2):
                hit = convex_col_dominates(pm, p, q, s, config.betas)
                if hit is not None:
                    alpha, evidence = hit
                    dominator = _blend_label(alpha, pm.col_labels[p], pm.col_labels[q])
                    return (StepKind.CONVEX_COL_DOMINANCE, Axis.COL, s, dominator, evidence)
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
        i, j, entry = saddle
        step = ReductionStep(
            StepKind.SADDLE_FOUND,
            None,
            f"saddle at ({pm.row_labels[i]}, {pm.col_labels[j]})",
            (),
        )
        return Solution(
            _pure(pm.rows, i), _pure(pm.cols, j), entry, SolutionKind.PURE_SADDLE, (step,)
        )

    reduced = reduce_dominance(pm, config)
    work = reduced.residual
    steps = list(reduced.trace)
    if work.rows < 2 or work.cols < 2:
        raise RuntimeError(
            "internal consistency: dominance reduced a saddle-free game below 2x2"
        )

    if (work.rows, work.cols) == (2, 2):
        sub = solve_2x2(work, config.convention, config.attitude)
        sub_rows, sub_cols = reduced.row_ids, reduced.col_ids
        steps.extend(sub.trace)
    elif work.rows == 2 or work.cols == 2:
        enum = enumerate_subgames(work, config.convention, config.attitude)
        chosen = next(c for c in enum.candidates if c.pair == enum.chosen)
        if enum.axis is Axis.COL:
            kept = tuple(work.col_labels[k] for k in enum.chosen)
            sub_rows = reduced.row_ids
            sub_cols = tuple(reduced.col_ids[k] for k in enum.chosen)
        else:
            kept = tuple(work.row_labels[k] for k in enum.chosen)
            sub_rows = tuple(reduced.row_ids[k] for k in enum.chosen)
            sub_cols = reduced.col_ids
        steps.append(
            ReductionStep(
                StepKind.SUBGAME_SELECTION,
                None,
                f"sub-game ({kept[0]}, {kept[1]})",
                tuple(float(c.solution.value.center) for c in enum.candidates),
            )
        )
        sub = _repaired_subgame_solution(work, enum, chosen)
        steps.extend(sub.trace)
    else:
        raise NotReducibleError(work, tuple(steps))

    x = [Fraction(0)] * pm.rows
    y = [Fraction(0)] * pm.cols
    for pos, orig in enumerate(sub_rows):
        x[orig] = sub.x[pos]
    for pos, orig in enumerate(sub_cols):
        y[orig] = sub.y[pos]

    solution = Solution(tuple(x), tuple(y), sub.value, sub.kind, tuple(steps))
    _assert_expected_payoff(pm, solution)
    return solution


def _repaired_subgame_solution(
    work: PayoffMatrix, enum: SubgameEnumeration, chosen: SubgameCandidate
) -> Solution:
    """Guarantee-check the selected sub-game on the whole residual.

    The selected value center and the deciding player's strategy are always
    optimal for the residual, but when the selected sub-game is a saddle its
    pure strategy for the OTHER player can fail against strategies outside
    the pair (this needs tied sub-game values).  In that case the strategy
    is borrowed from another enumerated sub-game that does satisfy the
    guarantee; such a donor always exists.
    """
    value = Fraction(chosen.solution.value.center)
    centers = work.exact_centers  # already built by the convex tests on this residual

    if enum.axis is Axis.COL:
        if _x_guarantee(centers, chosen.solution.x, value):
            return chosen.solution
        for cand in enum.candidates:
            if _x_guarantee(centers, cand.solution.x, value):
                return Solution(
                    cand.solution.x,
                    chosen.solution.y,
                    chosen.solution.value,
                    chosen.solution.kind,
                    chosen.solution.trace,
                )
    else:
        if _y_guarantee(centers, chosen.solution.y, value):
            return chosen.solution
        for cand in enum.candidates:
            if _y_guarantee(centers, cand.solution.y, value):
                return Solution(
                    chosen.solution.x,
                    cand.solution.y,
                    chosen.solution.value,
                    chosen.solution.kind,
                    chosen.solution.trace,
                )
    raise RuntimeError("internal consistency: no enumerated sub-game passes the guarantee")


def _x_guarantee(
    centers: Sequence[Sequence[Fraction]], x: tuple[Fraction, ...], value: Fraction
) -> bool:
    # x lives on the residual's two rows; every residual column must pay at least value.
    cols = len(centers[0])
    return all(
        sum(x[i] * centers[i][j] for i in range(len(centers))) >= value for j in range(cols)
    )


def _y_guarantee(
    centers: Sequence[Sequence[Fraction]], y: tuple[Fraction, ...], value: Fraction
) -> bool:
    cols = len(centers[0])
    return all(
        sum(centers[i][j] * y[j] for j in range(cols)) <= value for i in range(len(centers))
    )


def _assert_expected_payoff(pm: PayoffMatrix, solution: Solution) -> None:
    expected = sum(
        solution.x[i] * solution.y[j] * Fraction(pm.entry(i, j).center)
        for i in range(pm.rows)
        for j in range(pm.cols)
    )
    if expected != Fraction(solution.value.center):
        raise RuntimeError(
            "internal consistency: expected payoff does not match the value center"
        )
