"""Fuzzy-number primitives: worked values plus algebraic properties."""

import ast
import itertools
import math
import pathlib
import sys
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
import fuzzygame
from fuzzygame.fuzzy import MAX_MAGNITUDE, dominance_index, on_denominator, ratio


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

    def test_support_end_past_float_range_is_infinite(self):
        # The same for float and int fields; an exact end there would be refused by Interval.
        assert FuzzyNum(1.7e308, 1.7e308).support() == Interval(0.0, math.inf)
        assert FuzzyNum(-MAX_MAGNITUDE, 1).support() == Interval(-math.inf, 1 - MAX_MAGNITUDE)
        assert FuzzyNum(F(1, 3), F(1, 6)).support() == Interval(F(1, 6), F(1, 2))


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

    def test_addition_past_the_float_range_is_infinite(self):
        # An exact end past the float range is the infinity of its sign, as a float sum's is.
        top = Interval(math.inf, math.inf)
        assert interval_add(Interval(MAX_MAGNITUDE, MAX_MAGNITUDE), Interval(1, 1)) == top
        assert interval_add(Interval(-MAX_MAGNITUDE, 0), Interval(-1, 0)) == Interval(-math.inf, 0)
        assert interval_add(Interval(1.7e308, 1.7e308), Interval(1e308, 1e308)) == top
        assert interval_add(Interval(F(MAX_MAGNITUDE), F(MAX_MAGNITUDE)), Interval(0, F(1, 2))) == (
            Interval(MAX_MAGNITUDE, math.inf))
        assert interval_add(Interval(MAX_MAGNITUDE - 1, MAX_MAGNITUDE), Interval(0, 1)) == (
            Interval(MAX_MAGNITUDE - 1, math.inf))

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

    @pytest.mark.parametrize("field, ends", [
        ("lo", (10**400, 10**401)), ("hi", (1.5, 10**400)),
        ("lo", (-10**400, 0)), ("hi", (0, F(10) ** 400)),
    ])
    def test_endpoint_past_float_range_rejected(self, field, ends):
        # Its midpoint or halfwidth would raise OverflowError when read.
        with pytest.raises(ValueError, match=f"^{field} must be infinite or at most 1.79769e\\+308"):
            Interval(*ends)
        assert Interval(-MAX_MAGNITUDE, MAX_MAGNITUDE).midpoint == 0

    @pytest.mark.parametrize("field, args", [
        ("midpoint", (10**400, 1)), ("halfwidth", (0, 10**400)),
    ])
    def test_midpoint_form_past_float_range_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be infinite or at most"):
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

    @pytest.mark.parametrize("field, args", [
        ("left", (10**400, 0, 1)), ("peak", (1, 10**400, 1)), ("right", (0, 0, F(10) ** 400)),
        ("peak", (1, -10**400, 1)),
    ])
    def test_field_past_float_range_rejected(self, field, args):
        # An int past the float range would raise OverflowError in the index.
        with pytest.raises(ValueError, match=f"^{field} must be infinite or at most"):
            LRTriple(*args)
        assert LRTriple(MAX_MAGNITUDE, -MAX_MAGNITUDE, math.inf).peak == -MAX_MAGNITUDE

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

    def test_float_gap_over_a_width_below_the_float_range(self):
        # Half of 5e-324 is a positive Fraction whose float is 0.0; a float gap
        # over it divides by zero in floats, and the exact index is past the range.
        tiny = F(5e-324) / 2
        assert dominance_index(0.5, 0, F(1), tiny) == math.inf
        assert dominance_index(F(1), tiny, 0.5, 0) == -math.inf
        assert dominance_index(0.5, 0, F(1, 2) + F(5e-324) ** 2, tiny) == float(F(5e-324) ** 2 / tiny)


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


class TestRatio:
    """``ratio`` is the exact reader of the solver and the CLI: each value's own integer ratio."""

    @pytest.mark.parametrize("value, expected", [
        (0, (0, 1)),
        (7, (7, 1)),
        (-3, (-3, 1)),
        (10**30, (10**30, 1)),
        (F(3, 4), (3, 4)),
        (F(-6, 8), (-3, 4)),
        (-0.0, (0, 1)),
        (0.5, (1, 2)),
        (0.3, (5404319552844595, 2**54)),  # the binary value, not 3/10
        (5e-324, (1, 2**1074)),
        (sys.float_info.max, (MAX_MAGNITUDE, 1)),
        (-sys.float_info.max, (-MAX_MAGNITUDE, 1)),
        (MAX_MAGNITUDE, (MAX_MAGNITUDE, 1)),
        (F(MAX_MAGNITUDE, 3), (MAX_MAGNITUDE, 3)),
    ])
    def test_worked_values(self, value, expected):
        num, den = ratio(value)
        assert (num, den) == expected and type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1 and F(num, den) == value

    @pytest.mark.parametrize("value, error", [
        (math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError),
    ])
    def test_refuses_what_as_integer_ratio_refuses(self, value, error):
        with pytest.raises(error):
            value.as_integer_ratio()
        with pytest.raises(error):
            ratio(value)

    @DERANDOMIZED
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_a_float_reads_as_its_binary_value(self, value):
        num, den = ratio(value)
        assert F(num, den) == F(value) and den & (den - 1) == 0 and math.gcd(num, den) == 1


def reference_on_denominator(values):
    fractions = [F(v) for v in values]
    den = math.lcm(*[f.denominator for f in fractions])
    return [int(f * den) for f in fractions], den


FLOAT_EDGES = (5e-324, -5e-324, -0.0, 0.0, sys.float_info.max, -sys.float_info.max, 0.3, 1e-300)
exact_values = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(FLOAT_EDGES + (MAX_MAGNITUDE, -MAX_MAGNITUDE, F(MAX_MAGNITUDE, 3))),
)


class TestOnDenominator:
    """``on_denominator`` puts values on their least common denominator, as ``Fraction`` does."""

    @pytest.mark.parametrize("values, expected", [
        ([], ([], 1)),
        ([7], ([7], 1)),
        ([F(1, 2), F(1, 3), 1], ([3, 2, 6], 6)),
        ([F(-3, 4), 0.5, 2], ([-3, 2, 8], 4)),
        ([-0.0, 0], ([0, 0], 1)),
        ([0.3], ([5404319552844595], 2**54)),
        ([5e-324, 1], ([1, 2**1074], 2**1074)),
        ([sys.float_info.max, -sys.float_info.max, 5e-324],
         ([MAX_MAGNITUDE * 2**1074, -MAX_MAGNITUDE * 2**1074, 1], 2**1074)),
    ])
    def test_worked_values(self, values, expected):
        got = on_denominator(values)
        assert got == expected == reference_on_denominator(values)
        assert all(type(n) is int for n in got[0]) and type(got[1]) is int

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(exact_values, max_size=8))
    def test_matches_fraction_reference(self, values):
        nums, den = on_denominator(values)
        assert (nums, den) == reference_on_denominator(values)
        assert den > 0 and all(type(n) is int for n in nums) and type(den) is int
        assert [F(n, den) for n in nums] == [F(v) for v in values]

    @pytest.mark.parametrize("value, error", [
        (math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError),
    ])
    def test_refuses_what_ratio_refuses(self, value, error):
        with pytest.raises(error):
            on_denominator([1, value])


# Where the solver and the CLI read a number exactly: a ratio attribute, or
# Fraction(x) of one non-constant argument.  Fraction(*ratio(x)) passes two.
# A call of lcm or gcd builds a common denominator that on_denominator builds.
_EXACT_ATTRIBUTES = {"as_integer_ratio", "numerator", "denominator"}
_DENOMINATOR_CALLS = {"lcm", "gcd"}


def _exact_reads(source, name):
    reads = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Attribute) and node.attr in _EXACT_ATTRIBUTES:
            reads.append((node.lineno, f"{name}:{node.lineno}: .{node.attr}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and len(node.args) == 1
            and not node.keywords
            and not isinstance(node.args[0], (ast.Constant, ast.Starred))
        ):
            reads.append((node.lineno, f"{name}:{node.lineno}: Fraction(x)"))
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in _DENOMINATOR_CALLS:
                reads.append((node.lineno, f"{name}:{node.lineno}: {called}()"))
    return [read for _, read in sorted(reads)]


def test_every_exact_read_outside_the_oracle_goes_through_ratio():
    package = pathlib.Path(fuzzygame.__file__).parent
    reads = [
        read for name in ("matrix.py", "solver.py", "cli.py")
        for read in _exact_reads((package / name).read_text(), name)
    ]
    assert reads == []


def test_the_exact_read_finder_sees_each_form():
    source = (
        "a = x.as_integer_ratio()\nb = x.numerator\nc = x.denominator\n"
        "d = Fraction(x)\ne = Fraction(1)\nf = Fraction(*ratio(x))\ng = Fraction(1, 2)\n"
        "h = math.lcm(a, b)\ni = gcd(a, b)\nj = on_denominator(x)\n"
    )
    assert [read.split(": ")[1] for read in _exact_reads(source, "probe.py")] == [
        ".as_integer_ratio", ".numerator", ".denominator", "Fraction(x)", "lcm()", "gcd()"
    ]
