"""Shortcut formulas in the solver against the full computations they replace.

``_evidence`` reads each entry's dominance index straight off the centers
and spreads (``dominance_index``) instead of going through ``di_fuzzy`` on
their LR triples, and ``_assert_expected_payoff`` sums the expected payoff
over the supports of x and y instead of over every cell.  Both must give
exactly what the full computation gives.
"""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzygame import FuzzyNum, NotReducibleError, PayoffMatrix, StepKind, solve_pipeline
from fuzzygame.fuzzy import di_fuzzy
from fuzzygame.solver import Solution, SolutionKind, _assert_expected_payoff, _evidence


def entry_di(a, b):
    # The solver's evidence for one pair of entries.
    return _evidence((a,), (b,))[0]


def reference_entry_di(a, b):
    # The dominance index as computed through the LR triples.
    if a.spread + b.spread == 0:
        diff = b.center - a.center
        return math.inf if diff > 0 else (-math.inf if diff < 0 else 0.0)
    return float(di_fuzzy(a.as_lr_triple(), b.as_lr_triple()))


def full_sum_accepts(pm, solution):
    # The expected payoff of (x, y) summed over every cell of the game.
    expected = sum(
        solution.x[i] * solution.y[j] * F(pm.entry(i, j).center)
        for i in range(pm.rows)
        for j in range(pm.cols)
    )
    return expected == F(solution.value.center)


def shortcut_accepts(pm, solution):
    try:
        _assert_expected_payoff(pm, solution)
    except RuntimeError:
        return False
    return True


def _center(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-20, 20)
    if kind == 1:
        return rng.randint(-200, 200) / 10
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.choice((0.0, -0.0, 0))
    # A convex blend, as the convex tests build it: exact rationals.
    beta = F(rng.choice((0.5, 0.05, 0.35, 1 / 3, 0.9)))
    return beta * F(rng.randint(-20, 20)) + (1 - beta) * F(rng.randint(-200, 200) / 10)


def _spread(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0, 0.0, -0.0))
    if kind == 1:
        return rng.randint(0, 50) / 100
    if kind == 2:
        return rng.uniform(0, 3)
    if kind == 3:
        return rng.randint(0, 5)
    beta = F(rng.choice((0.5, 0.05, 1 / 3)))
    return beta * F(rng.randint(0, 50) / 100) + (1 - beta) * F(rng.uniform(0, 1))


class TestEntryDominanceIndex:
    def test_matches_lr_triples_on_seeded_pairs(self):
        rng = random.Random(4242)
        crisp = 0
        for _ in range(4000):
            a = FuzzyNum(_center(rng), _spread(rng))
            b = FuzzyNum(_center(rng), _spread(rng))
            crisp += a.spread + b.spread == 0
            assert repr(entry_di(a, b)) == repr(reference_entry_di(a, b)), (a, b)
            assert repr(entry_di(b, a)) == repr(reference_entry_di(b, a)), (b, a)
        assert crisp > 50

    def test_keeps_the_sign_of_zero(self):
        for ca, cb in itertools.product((0.0, -0.0, 0), repeat=2):
            for sa, sb in ((0.1, 0.2), (0, 0.5), (F(1, 3), 0.0)):
                a, b = FuzzyNum(ca, sa), FuzzyNum(cb, sb)
                assert repr(entry_di(a, b)) == repr(reference_entry_di(a, b))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(st.integers(-10**6, 10**6), st.floats(-1e9, 1e9), st.fractions(-100, 100)),
        st.one_of(st.integers(0, 100), st.floats(0, 1e3), st.fractions(0, 10)),
        st.one_of(st.integers(-10**6, 10**6), st.floats(-1e9, 1e9), st.fractions(-100, 100)),
        st.one_of(st.integers(0, 100), st.floats(0, 1e3), st.fractions(0, 10)),
    )
    def test_matches_lr_triples_on_any_pair(self, ca, sa, cb, sb):
        a, b = FuzzyNum(ca, sa), FuzzyNum(cb, sb)
        assert repr(entry_di(a, b)) == repr(reference_entry_di(a, b))


def _random_game(rng, m, n):
    return PayoffMatrix.of(
        [[(rng.randint(-9, 9), rng.randint(0, 5) / 10) for _ in range(n)] for _ in range(m)]
    )


class TestExpectedPayoffOnSupports:
    def test_agrees_with_full_sum_on_pipeline_solutions(self, planted_game):
        rng = random.Random(2718)
        games = [planted_game(rng.randrange(10**9), rng.randint(2, 16), rng.randint(2, 16))
                 for _ in range(160)]
        shapes = [(2, 3), (2, 5), (3, 2), (5, 2), (3, 3), (3, 4), (4, 3)]
        games += [_random_game(rng, *rng.choice(shapes)) for _ in range(400)]
        solved = subgame = 0
        for pm in games:
            try:
                sol = solve_pipeline(pm)
            except NotReducibleError:
                continue
            solved += 1
            subgame += any(s.kind is StepKind.SUBGAME_SELECTION for s in sol.trace)
            assert full_sum_accepts(pm, sol)
            assert shortcut_accepts(pm, sol)
            off = replace(sol, value=FuzzyNum(F(sol.value.center) + F(1, 10**12), 0))
            assert not full_sum_accepts(pm, off)
            assert not shortcut_accepts(pm, off)
        assert solved >= 200
        assert subgame >= 30

    def test_agrees_with_full_sum_on_any_strategies(self):
        # Supports of every size, full ones included; the value is the full
        # sum itself, or that sum nudged.
        rng = random.Random(1618)

        def mix(size):
            weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(size)]
            if not any(weights):
                weights[rng.randrange(size)] = 1
            total = sum(weights)
            return tuple(F(w, total) for w in weights)

        for _ in range(300):
            m, n = rng.randint(1, 16), rng.randint(1, 16)
            pm = PayoffMatrix.of(
                [[(_center(rng), _spread(rng)) for _ in range(n)] for _ in range(m)]
            )
            x, y = mix(m), mix(n)
            value = sum(
                x[i] * y[j] * F(pm.entry(i, j).center) for i in range(m) for j in range(n)
            )
            for center in (value, value + F(1, 10**15), value - 1):
                sol = Solution(x, y, FuzzyNum(center, 0), SolutionKind.MIXED_2X2, ())
                assert shortcut_accepts(pm, sol) == full_sum_accepts(pm, sol)
