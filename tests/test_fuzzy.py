"""Fuzzy-number primitives: worked values plus algebraic properties."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fuzzygame import (
    Attitude,
    Choice,
    DegenerateComparisonError,
    FuzzyNum,
    Interval,
    LRTriple,
    Relation,
    TrapezoidMF,
    di_fuzzy,
    di_interval,
    fuzzy_to_membership,
    interval_add,
    prefer_max,
    prefer_min,
    rank,
    trapezoid_eval,
)
from fuzzygame.fuzzy import MAX_MAGNITUDE, dominance_index


def lr(center, spread):
    return FuzzyNum(center, spread).as_lr_triple()


class TestFuzzyNum:
    @pytest.mark.parametrize("center, spread", [
        (math.nan, 0.1),
        (1, math.nan),
        (math.inf, 0.1),
        (-math.inf, 0.1),
        (1, math.inf),
        (10**400, 0),
    ])
    def test_non_finite_rejected(self, center, spread):
        with pytest.raises(ValueError, match="finite"):
            FuzzyNum(center, spread)

    def test_exact_and_extreme_finite_values_accepted(self):
        from fractions import Fraction

        assert FuzzyNum(Fraction(245, 16), Fraction(1, 3)).center == Fraction(245, 16)
        assert FuzzyNum(-1.7976931348623157e308, 1.7976931348623157e308).spread > 0


class TestTrapezoid:
    def test_plateau(self):
        assert trapezoid_eval(5, TrapezoidMF(0, 2, 6, 8)) == 1

    def test_rising_edge_midpoint(self):
        assert trapezoid_eval(1, TrapezoidMF(0, 2, 6, 8)) == 0.5

    def test_outside_support(self):
        assert trapezoid_eval(9, TrapezoidMF(0, 2, 6, 8)) == 0

    def test_falling_edge(self):
        assert trapezoid_eval(7, TrapezoidMF(0, 2, 6, 8)) == 0.5

    def test_degenerate_edges_hit_one(self):
        assert trapezoid_eval(0, TrapezoidMF(0, 0, 6, 8)) == 1
        assert trapezoid_eval(8, TrapezoidMF(0, 2, 8, 8)) == 1
        assert trapezoid_eval(3, TrapezoidMF(3, 3, 3, 3)) == 1

    def test_malformed_knots_rejected(self):
        with pytest.raises(ValueError):
            TrapezoidMF(0, 3, 2, 8)


class TestFuzzyToMembership:
    def test_half_plateau(self):
        assert fuzzy_to_membership(FuzzyNum(5, 2), 0.5) == TrapezoidMF(3, 4, 6, 7)

    def test_crisp_number(self):
        assert fuzzy_to_membership(FuzzyNum(5, 0), 0.5) == TrapezoidMF(5, 5, 5, 5)

    def test_triangular_limit(self):
        assert fuzzy_to_membership(FuzzyNum(0, 1), 0) == TrapezoidMF(-1, 0, 0, 1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            fuzzy_to_membership(FuzzyNum(0, 1), 1.5)


class TestInterval:
    def test_addition_endpoints(self):
        assert interval_add(Interval(110, 120), Interval(150, 155)) == Interval(260, 275)

    def test_addition_identity(self):
        assert interval_add(Interval(-3, 4), Interval(0, 0)) == Interval(-3, 4)

    def test_addition_midpoint_form(self):
        total = interval_add(
            Interval.from_midpoint(115, 5), Interval.from_midpoint(152.5, 2.5)
        )
        assert total.midpoint == 267.5
        assert total.halfwidth == 7.5

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_negative_halfwidth_rejected(self):
        with pytest.raises(ValueError, match="halfwidth must be nonnegative, got -1"):
            Interval.from_midpoint(0, -1)

    @pytest.mark.parametrize("field, ends", [("lo", (math.nan, 1)), ("hi", (0, math.nan))])
    def test_nan_endpoint_rejected(self, field, ends):
        # NaN compares false with everything, so the order check alone would let it in.
        with pytest.raises(ValueError, match=f"^{field} must not be NaN$"):
            Interval(*ends)
        assert Interval(-math.inf, math.inf).hi == math.inf

    @pytest.mark.parametrize("field, args", [
        ("midpoint", (math.nan, 1)), ("halfwidth", (0, math.nan)),
    ])
    def test_nan_midpoint_form_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must not be NaN$"):
            Interval.from_midpoint(*args)

    def test_di_interval_worked_case(self):
        # (152.5 - 115) / (5 + 2.5)
        assert di_interval(Interval(110, 120), Interval(150, 155)) == 5

    def test_di_interval_equal_midpoints(self):
        assert di_interval(Interval(0, 4), Interval(1, 3)) == 0

    def test_di_interval_antisymmetric_case(self):
        assert di_interval(Interval(150, 155), Interval(110, 120)) == -5

    def test_di_interval_midpoints_past_the_float_range(self):
        # lo + hi overflows for both intervals; the midpoints themselves are finite.
        di = di_interval(Interval(1e308, 1.2e308), Interval(1.1e308, 1.3e308))
        assert math.isclose(di, 0.5, rel_tol=1e-12)

    def test_di_interval_halfwidth_past_the_float_range(self):
        # hi - lo overflows; the index is a subnormal, not a false 0.
        di = di_interval(Interval(-1.7e308, 1.7e308), Interval(0, 1))
        assert di == 2.941176470588236e-309

    def test_di_interval_unbounded_interval_is_non_comparable(self):
        # The midpoint of (-inf, inf) is inf - inf: the index is 0.0, not NaN.
        assert repr(di_interval(Interval(-math.inf, math.inf), Interval(0, 1))) == "0.0"

    def test_di_interval_degenerate(self):
        with pytest.raises(
            DegenerateComparisonError,
            match="both intervals are points; compare their midpoints directly",
        ):
            di_interval(Interval(1, 1), Interval(2, 2))


class TestDiFuzzy:
    def test_partial_dominance_case(self):
        # <0.3, 0.5> sits a tenth of the joint spread below <0.4, 0.5>
        assert di_fuzzy(lr(0.3, 0.5), lr(0.4, 0.5)) == pytest.approx(0.1, abs=1e-12)

    def test_total_dominance_magnitude(self):
        assert di_fuzzy(lr(1, 0.2), lr(6, 0.2)) == 12.5
        assert di_fuzzy(lr(6, 0.2), lr(1, 0.2)) == -12.5

    def test_identical_numbers(self):
        assert di_fuzzy(lr(3, 0.4), lr(3, 0.4)) == 0

    def test_asymmetric_spreads_use_facing_sides(self):
        # right spread of the first, left spread of the second
        a = LRTriple(left=9, peak=1, right=2)
        b = LRTriple(left=3, peak=11, right=9)
        assert di_fuzzy(a, b) == 2

    def test_degenerate(self):
        with pytest.raises(
            DegenerateComparisonError,
            match="facing spreads are both zero; compare the peaks directly",
        ):
            di_fuzzy(lr(1, 0), lr(2, 0))

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="spreads must be nonnegative"):
            LRTriple(-1, 0, 0)

    @pytest.mark.parametrize("field, args", [
        ("left", (math.nan, 0, 1)), ("peak", (0, math.nan, 1)), ("right", (0, 0, math.nan)),
    ])
    def test_nan_field_rejected(self, field, args):
        # A NaN field would give a NaN index and a "non-comparable" rank.
        with pytest.raises(ValueError, match=f"^{field} must not be NaN$"):
            LRTriple(*args)

    def test_infinite_operand_keeps_the_float_quotient(self):
        # An infinite peak has no exact value, so the float result stands.
        assert di_fuzzy(LRTriple(1, math.inf, 1), LRTriple(1, 0, 1)) == -math.inf

    def test_equal_infinite_peaks_are_non_comparable(self):
        # inf - inf has no value: the index is 0.0, not NaN.
        assert repr(di_fuzzy(LRTriple(1, math.inf, 1), LRTriple(1, math.inf, 1))) == "0.0"


class TestRank:
    def test_totally_less(self):
        r = rank(lr(115, 5), lr(152.5, 2.5))
        assert r.relation is Relation.TOTALLY_LESS
        assert r.di == 5

    def test_partially_less(self):
        r = rank(lr(0.3, 0.5), lr(0.4, 0.5))
        assert r.relation is Relation.PARTIALLY_LESS
        assert r.di == pytest.approx(0.1, abs=1e-12)

    def test_non_comparable(self):
        r = rank(lr(7, 1), lr(7, 3))
        assert r.relation is Relation.NON_COMPARABLE
        assert r.di == 0

    def test_crisp_pair_falls_back_to_centers(self):
        assert rank(lr(3, 0), lr(5, 0)).relation is Relation.TOTALLY_LESS
        assert rank(lr(3, 0), lr(5, 0)).di == math.inf
        assert rank(lr(5, 0), lr(3, 0)).di == -math.inf
        assert rank(lr(5, 0), lr(5, 0)).relation is Relation.NON_COMPARABLE

    def test_equal_infinite_peaks_are_non_comparable(self):
        r = rank(LRTriple(1, math.inf, 1), LRTriple(1, math.inf, 1))
        assert r.relation is Relation.NON_COMPARABLE
        assert repr(r.di) == "0.0"

    def test_overflowing_peaks_are_not_nan(self):
        # In floats both the peak gap and the spread sum overflow: inf/inf.
        r = rank(lr(1.7e308, 1.7e308), lr(-1.7e308, 1.7e308))
        assert r.di == -1
        assert r.relation is Relation.TOTALLY_LESS

    def test_overflowing_spreads_are_not_a_false_zero(self):
        # In floats the spread sum overflows and 1/inf reads 0.
        r = rank(lr(5, 1.7e308), lr(6, 1.7e308))
        assert r.di == float(F(1) / (2 * F(1.7e308)))
        assert f"{r.di:g}" == "2.94118e-309"
        assert r.relation is Relation.PARTIALLY_LESS


class TestDominanceIndex:
    def test_infinite_gap_over_infinite_width_is_zero(self):
        assert repr(dominance_index(0, math.inf, math.inf, math.inf)) == "0.0"

    def test_no_infinite_or_finite_operands_give_nan(self):
        values = (-math.inf, math.inf, 0, -0.0, 1, -2.5, 1e308, -1e308, 5e-324, F(1, 3))
        for operands in itertools.product(values, repeat=4):
            assert not math.isnan(dominance_index(*operands)), operands

    def test_int_quotient_beyond_float_range(self):
        # int / int raises OverflowError here; the exact quotient is past the float maximum.
        assert dominance_index(-MAX_MAGNITUDE, 0, MAX_MAGNITUDE, 1) == math.inf
        assert dominance_index(MAX_MAGNITUDE, 1, -MAX_MAGNITUDE, 0) == -math.inf

    def test_exact_quotient_is_rounded(self):
        # 1.8e308 / 3.4e308 overflows both operands; exactly it rounds to 9/17.
        assert dominance_index(-0.1e308, 1.7e308, 1.7e308, 1.7e308) == 0.5294117647058824
        # An exact quotient below the float range still rounds to 0.
        assert dominance_index(F(1), F(10) ** 400, F(2), 0) == 0.0


class TestPreferences:
    def test_smaller_center_wins(self):
        assert prefer_min(FuzzyNum(1, 0.2), FuzzyNum(6, 0.2)) is Choice.A
        assert prefer_min(FuzzyNum(6, 0.2), FuzzyNum(1, 0.2)) is Choice.B

    def test_pessimist_takes_smaller_support(self):
        assert prefer_min(FuzzyNum(7, 1), FuzzyNum(7, 3), Attitude.PESSIMISTIC) is Choice.A

    def test_optimist_takes_larger_support(self):
        assert prefer_min(FuzzyNum(7, 1), FuzzyNum(7, 3), Attitude.OPTIMISTIC) is Choice.B

    def test_exact_tie_keeps_first(self):
        assert prefer_min(FuzzyNum(7, 1), FuzzyNum(7, 1)) is Choice.A
        assert prefer_max(FuzzyNum(7, 1), FuzzyNum(7, 1)) is Choice.A

    def test_prefer_max_mirrors_centers(self):
        assert prefer_max(FuzzyNum(1, 0.2), FuzzyNum(6, 0.2)) is Choice.B
        assert prefer_max(FuzzyNum(7, 1), FuzzyNum(7, 3), Attitude.PESSIMISTIC) is Choice.A


# -- algebraic properties ----------------------------------------------------

peaks = st.floats(min_value=-50, max_value=50, allow_nan=False)
spreads = st.floats(min_value=0.1, max_value=5, allow_nan=False)
fuzzy_nums = st.builds(FuzzyNum, peaks, spreads)
# The same examples on every run, so a run's verdict depends on the code alone.
DERANDOMIZED = settings(derandomize=True)


@st.composite
def trapezoids(draw):
    knots = sorted(draw(st.lists(peaks, min_size=4, max_size=4)))
    return TrapezoidMF(*knots)


class TestDiProperties:
    @DERANDOMIZED
    @given(a=fuzzy_nums, b=fuzzy_nums)
    def test_antisymmetry(self, a, b):
        assert di_fuzzy(a.as_lr_triple(), b.as_lr_triple()) == -di_fuzzy(
            b.as_lr_triple(), a.as_lr_triple()
        )

    @DERANDOMIZED
    @given(a=fuzzy_nums, b=fuzzy_nums, t=peaks)
    def test_translation_invariance(self, a, b, t):
        before = di_fuzzy(a.as_lr_triple(), b.as_lr_triple())
        after = di_fuzzy(
            FuzzyNum(a.center + t, a.spread).as_lr_triple(),
            FuzzyNum(b.center + t, b.spread).as_lr_triple(),
        )
        assert after == pytest.approx(before, abs=1e-12)

    @DERANDOMIZED
    @given(a=fuzzy_nums, b=fuzzy_nums, k=st.floats(min_value=0.1, max_value=10))
    def test_positive_scale_equivariance(self, a, b, k):
        before = di_fuzzy(a.as_lr_triple(), b.as_lr_triple())
        after = di_fuzzy(
            FuzzyNum(k * a.center, k * a.spread).as_lr_triple(),
            FuzzyNum(k * b.center, k * b.spread).as_lr_triple(),
        )
        assert after == pytest.approx(before, abs=1e-12)

    @DERANDOMIZED
    @given(a=fuzzy_nums, b=fuzzy_nums)
    def test_consistency_with_interval_index(self, a, b):
        # support endpoints are rounded floats, so the midpoint view can be a
        # few ulps off; compare relatively
        over_supports = di_interval(a.support(), b.support())
        over_triples = di_fuzzy(a.as_lr_triple(), b.as_lr_triple())
        assert over_supports == pytest.approx(over_triples, rel=1e-9, abs=1e-12)

    @DERANDOMIZED
    @given(a=fuzzy_nums, b=fuzzy_nums)
    def test_rank_fields_consistent(self, a, b):
        r = rank(a.as_lr_triple(), b.as_lr_triple())
        if abs(r.di) >= 1:
            assert r.relation is Relation.TOTALLY_LESS
        elif r.di != 0:
            assert r.relation is Relation.PARTIALLY_LESS
        else:
            assert r.relation is Relation.NON_COMPARABLE
        # sign carries orientation: the swapped query negates di
        assert rank(b.as_lr_triple(), a.as_lr_triple()).di == -r.di


class TestTrapezoidProperties:
    @DERANDOMIZED
    @given(mf=trapezoids(), x=st.floats(min_value=-60, max_value=60, allow_nan=False))
    def test_range(self, mf, x):
        assert 0 <= trapezoid_eval(x, mf) <= 1

    @DERANDOMIZED
    @given(mf=trapezoids(), t1=st.floats(0, 1), t2=st.floats(0, 1))
    def test_monotone_edges(self, mf, t1, t2):
        # clamp, as for the plateau: the affine parametrization can overshoot
        # the edge's end by an ulp, which reads 0 when that end is d
        lo, hi = sorted((t1, t2))
        x1, x2 = (min(max(mf.a + t * (mf.b - mf.a), mf.a), mf.b) for t in (lo, hi))
        assert trapezoid_eval(x1, mf) <= trapezoid_eval(x2, mf)
        x1, x2 = (min(max(mf.c + t * (mf.d - mf.c), mf.c), mf.d) for t in (lo, hi))
        assert trapezoid_eval(x1, mf) >= trapezoid_eval(x2, mf)

    @DERANDOMIZED
    @given(mf=trapezoids(), t=st.floats(0, 1))
    def test_plateau_is_one(self, mf, t):
        # clamp: the affine parametrization can overshoot c by one ulp
        x = min(max(mf.b + t * (mf.c - mf.b), mf.b), mf.c)
        assert trapezoid_eval(x, mf) == 1


class TestIntervalProperties:
    @DERANDOMIZED
    @given(
        m1=peaks, w1=spreads, m2=peaks, w2=spreads
    )
    def test_addition_is_additive_in_both_views(self, m1, w1, m2, w2):
        i = Interval.from_midpoint(m1, w1)
        j = Interval.from_midpoint(m2, w2)
        total = interval_add(i, j)
        assert total.midpoint == pytest.approx(i.midpoint + j.midpoint, abs=1e-12)
        assert total.halfwidth == pytest.approx(i.halfwidth + j.halfwidth, abs=1e-12)

    @DERANDOMIZED
    @given(m=peaks, w=spreads)
    def test_views_round_trip(self, m, w):
        i = Interval.from_midpoint(m, w)
        assert i.midpoint == pytest.approx(m, abs=1e-12)
        assert i.halfwidth == pytest.approx(w, abs=1e-12)

    @DERANDOMIZED
    @given(a=fuzzy_nums)
    def test_support_matches_lr_view(self, a):
        assert a.support().lo == a.center - a.spread
        assert a.support().hi == a.center + a.spread
        triple = a.as_lr_triple()
        assert (triple.left, triple.peak, triple.right) == (a.spread, a.center, a.spread)
