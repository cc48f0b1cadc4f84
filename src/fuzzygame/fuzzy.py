"""Interval and LR-type fuzzy-number primitives.

A symmetric trapezoidal fuzzy number is written ``<center, spread>``; its
support is the interval ``[center - spread, center + spread]``.  Pairs of
fuzzy quantities are ordered through a dominance index: the peak difference
scaled by the facing spreads.  An index of at least 1 is total dominance,
anything in (0, 1) is partial dominance, and 0 leaves the pair
non-comparable, where the decision maker's attitude (pessimistic or
optimistic) breaks the tie on spread.  :func:`dominance_index` is the one
place the index is computed; it stays exact where floats overflow.

All types are immutable values and every operation is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


# Largest magnitude a center or spread may take.  Every value must survive
# float() for evidence and output; NaN compares false against it, so one
# chained comparison per value rejects NaN, the infinities and oversized
# integers (abs() would build a new Fraction).
MAX_MAGNITUDE = int(sys.float_info.max)
MIN_CENTER = -MAX_MAGNITUDE


class DegenerateComparisonError(ValueError):
    """Dominance index requested for a pair of crisp (zero-spread) numbers."""


class Attitude(Enum):
    """Tie-break policy when two numbers share the same center."""

    PESSIMISTIC = "pessimistic"  # prefers the smaller support
    OPTIMISTIC = "optimistic"  # prefers the larger support


class Relation(Enum):
    TOTALLY_LESS = "totally-less"
    PARTIALLY_LESS = "partially-less"
    NON_COMPARABLE = "non-comparable"


class Choice(Enum):
    A = "a"
    B = "b"


def _refuse_unfit(**fields: float) -> None:
    # Each field is a float-range number or +/-inf; NaN is the one value unequal to itself.
    for name, value in fields.items():
        if value != value:
            raise ValueError(f"{name} must not be NaN")
        if not MIN_CENTER <= value <= MAX_MAGNITUDE and value not in (math.inf, -math.inf):
            raise ValueError(f"{name} must be infinite or at most {float(MAX_MAGNITUDE):g} in magnitude")


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _refuse_unfit(lo=self.lo, hi=self.hi)
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def from_midpoint(cls, midpoint: float, halfwidth: float) -> "Interval":
        _refuse_unfit(midpoint=midpoint, halfwidth=halfwidth)
        if halfwidth < 0:
            raise ValueError(f"halfwidth must be nonnegative, got {halfwidth}")
        return cls(midpoint - halfwidth, midpoint + halfwidth)

    # Near the float maximum the sum or difference overflows although its
    # half does not; only then are the ends halved first, which would lose
    # a bit on subnormals if it were the default.  ``v - v == 0`` tests
    # finiteness without converting an exact value to float.
    @property
    def midpoint(self) -> float:
        mid = (self.lo + self.hi) / 2
        return mid if mid - mid == 0 else self.lo / 2 + self.hi / 2

    @property
    def halfwidth(self) -> float:
        half = (self.hi - self.lo) / 2
        return half if half - half == 0 else self.hi / 2 - self.lo / 2


def _in_float_range(value: float) -> float:
    # An exact value past the float range as the infinity of its sign; any other value as it is.
    if value > MAX_MAGNITUDE:
        return math.inf
    return -math.inf if value < MIN_CENTER else value


def interval_add(i: Interval, j: Interval) -> Interval:
    """Endpoint-wise sum; midpoints and halfwidths add.

    An end past the float range is infinite, in float and exact arithmetic
    alike, as in :meth:`FuzzyNum.support`.
    """
    return Interval(_in_float_range(i.lo + j.lo), _in_float_range(i.hi + j.hi))


def dominance_index(lo_peak: float, lo_spread: float, hi_peak: float, hi_spread: float) -> float:
    """``(hi_peak - lo_peak) / (lo_spread + hi_spread)`` over the facing spreads, as a float.

    Each operand is a float-range number or +/-inf, as the fuzzy types require of their fields.
    A crisp pair (both spreads zero) gives +/-inf, or 0.0 for equal peaks.
    A quotient that is not finite, or 0 for unequal peaks, becomes the rounded
    exact ``Fraction`` quotient, +/-inf past the float range; finite operands never give NaN.
    An infinite operand keeps the float quotient, or 0.0 where it is undefined
    (inf - inf, inf/inf), so no operand gives NaN.
    """
    width = lo_spread + hi_spread
    gap = hi_peak - lo_peak
    if width != 0:
        try:
            di = float(gap / width)
        except OverflowError:  # an int or Fraction quotient beyond the float range
            di = math.nan
        if di - di == 0.0 and (di or hi_peak == lo_peak):
            return di
        try:
            exact = Fraction(hi_peak) - Fraction(lo_peak)
            exact /= Fraction(lo_spread) + Fraction(hi_spread)
        except (OverflowError, ValueError):  # an infinite or NaN operand has no exact value
            return di if di == di else 0.0  # inf - inf or inf/inf: non-comparable
        try:
            return float(exact)
        except OverflowError:  # past the float range: infinite, as for a crisp pair
            pass
    return math.inf if gap > 0 else (-math.inf if gap < 0 else 0.0)


def di_interval(i: Interval, j: Interval) -> float:
    """Dominance index of ``i`` over ``j``: positive means ``i`` sits lower.

    Defined as (midpoint(j) - midpoint(i)) / (halfwidth(i) + halfwidth(j)).
    Antisymmetric in its arguments.  Undefined when both intervals are
    degenerate points.
    """
    if i.halfwidth + j.halfwidth == 0:
        raise DegenerateComparisonError(
            "both intervals are points; compare their midpoints directly"
        )
    return dominance_index(i.midpoint, i.halfwidth, j.midpoint, j.halfwidth)


@dataclass(frozen=True)
class LRTriple:
    """Fuzzy number as (left spread, peak, right spread), spreads >= 0."""

    left: float
    peak: float
    right: float

    def __post_init__(self) -> None:
        _refuse_unfit(left=self.left, peak=self.peak, right=self.right)
        if self.left < 0 or self.right < 0:
            raise ValueError(f"spreads must be nonnegative, got ({self.left}, {self.right})")


@dataclass(frozen=True, init=False, slots=True)
class FuzzyNum:
    """Symmetric trapezoidal fuzzy number <center, spread>.

    A frozen dataclass whose two fields live in slots, not in an instance
    dict: the dominance tests read both fields of a cell on every pair they
    compare, and a slot is cheaper to read than a dict entry, and smaller
    (48 B a cell against 344 B on Python 3.11).  So a ``FuzzyNum`` has no ``vars()`` and
    cannot be weakly referenced.  Its own ``__init__`` checks both fields and
    writes each through its slot descriptor, which costs less, on every
    parsed entry, than ``object.__setattr__`` or a generated frozen
    ``__init__`` followed by a ``__post_init__``.
    """

    center: float
    spread: float

    def __init__(self, center: float, spread: float) -> None:
        if spread < 0:
            raise ValueError(f"spread must be nonnegative, got {spread}")
        if not (MIN_CENTER <= center <= MAX_MAGNITUDE and spread <= MAX_MAGNITUDE):
            raise ValueError(
                f"center and spread must be finite with magnitude at most "
                f"{float(MAX_MAGNITUDE):g}, got <{center}, {spread}>"
            )
        _set_center(self, center)
        _set_spread(self, spread)

    def as_lr_triple(self) -> LRTriple:
        return LRTriple(self.spread, self.center, self.spread)

    def support(self) -> Interval:
        """``[center - spread, center + spread]``, in the fields' own arithmetic.

        An end past the float range is infinite (``<1.7e308, 1.7e308>`` has
        ``hi = inf``); the number itself and its dominance indices stay exact.
        """
        return Interval(
            _in_float_range(self.center - self.spread), _in_float_range(self.center + self.spread)
        )

    @property
    def is_crisp(self) -> bool:
        return self.spread == 0

    def __str__(self) -> str:
        return f"<{self.center}, {self.spread}>"


# The slot descriptors' setters, bound once: they write past the frozen ``__setattr__``.
_set_center = FuzzyNum.center.__set__
_set_spread = FuzzyNum.spread.__set__


@dataclass(frozen=True)
class TrapezoidMF:
    """Trapezoidal membership function with knots a <= b <= c <= d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"trapezoid knots out of order: ({self.a}, {self.b}, {self.c}, {self.d})"
            )


def trapezoid_eval(x: float, mf: TrapezoidMF) -> float:
    """Membership grade of ``x`` under ``mf``, in [0, 1].

    Zero outside [a, d], one on the plateau [b, c], linear on the edges.
    A degenerate edge (a == b or c == d) evaluates to 1 at the shared point.
    """
    if x < mf.a or x > mf.d:
        return 0.0
    if mf.b <= x <= mf.c:
        return 1.0
    if x < mf.b:
        return (x - mf.a) / (mf.b - mf.a)
    return (mf.d - x) / (mf.d - mf.c)


def fuzzy_to_membership(f: FuzzyNum, plateau_fraction: float = 0.5) -> TrapezoidMF:
    """Render <m, w> as a trapezoid with support exactly [m - w, m + w].

    The plateau occupies ``plateau_fraction`` of the spread on each side of
    the center; 0 gives a triangle, 1 a rectangle.  The fraction is a
    rendering convention only and never feeds the solver.
    """
    if not 0 <= plateau_fraction <= 1:
        raise ValueError(f"plateau_fraction must be in [0, 1], got {plateau_fraction}")
    m, w = f.center, f.spread
    rho = plateau_fraction
    return TrapezoidMF(m - w, m - rho * w, m + rho * w, m + w)


def di_fuzzy(a: LRTriple, b: LRTriple) -> float:
    """Dominance index of ``a`` over ``b``.

    (peak(b) - peak(a)) / (right(a) + left(b)).  Positive means ``a`` is the
    smaller number, i.e. preferred in the sense of minimization; at least 1
    is total dominance.  Undefined when the facing spreads are both zero.
    """
    if a.right + b.left == 0:
        raise DegenerateComparisonError(
            "facing spreads are both zero; compare the peaks directly"
        )
    return dominance_index(a.peak, a.right, b.peak, b.left)


@dataclass(frozen=True)
class Ranking:
    """Classification of one fuzzy number against another.

    ``di`` keeps the sign of the oriented index: positive means the first
    operand dominates in minimization, negative that the reversed
    proposition holds (to the same degree); the relation classifies the
    magnitude.  Callers wanting the reversed reading query rank(b, a).
    """

    relation: Relation
    di: float


def _classify(di: float) -> Relation:
    magnitude = abs(di)
    if magnitude >= 1:
        return Relation.TOTALLY_LESS
    if magnitude > 0:
        return Relation.PARTIALLY_LESS
    return Relation.NON_COMPARABLE


def rank(a: LRTriple, b: LRTriple) -> Ranking:
    """Rank ``a`` against ``b`` by dominance index.

    Crisp-versus-crisp pairs, where the index is undefined, fall back to a
    direct peak comparison: the index degenerates to +/-infinity (total
    dominance) or 0 (non-comparable equals).
    """
    di = dominance_index(a.peak, a.right, b.peak, b.left)
    return Ranking(_classify(di), di)


def prefer_min(a: FuzzyNum, b: FuzzyNum, attitude: Attitude = Attitude.PESSIMISTIC) -> Choice:
    """Which of two fuzzy numbers a minimizer should pick.

    The smaller center wins outright.  Equal centers fall back to the
    attitude: pessimistic takes the smaller spread, optimistic the larger.
    Exact ties go to the first argument.
    """
    return _prefer(a, b, a.center < b.center, attitude)


def prefer_max(a: FuzzyNum, b: FuzzyNum, attitude: Attitude = Attitude.PESSIMISTIC) -> Choice:
    """Mirror of :func:`prefer_min` for a maximizer; same spread policy."""
    return _prefer(a, b, a.center > b.center, attitude)


def _prefer(a: FuzzyNum, b: FuzzyNum, a_wins: bool, attitude: Attitude) -> Choice:
    # a_wins: a has the better center.  Equal centers go to the narrower
    # support for a pessimist and to the wider one for an optimist.
    if a.center == b.center:
        if a.spread == b.spread:
            return Choice.A
        a_wins = (a.spread < b.spread) == (attitude is Attitude.PESSIMISTIC)
    return Choice.A if a_wins else Choice.B
