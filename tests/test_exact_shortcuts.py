"""Shortcut formulas in the solver against the full computations they replace.

``_evidence`` reads each entry's dominance index straight off the centers
and spreads (``dominance_index``) instead of going through ``di_fuzzy`` on
their LR triples, ``_expected`` sums the spreads over the supports of x and
y instead of over every cell, and ``_certified`` tests weak duality on the
integer grid of the centers instead of in ``Fraction`` arithmetic.  Each
must give exactly what the full computation gives.
"""

import collections
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzygame import FuzzyNum, NotReducibleError, PayoffMatrix, StepKind, solve_pipeline
from fuzzygame.fuzzy import di_fuzzy
from fuzzygame.solver import Solution, SolutionKind, _certified, _evidence, _expected


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


def full_duality_accepts(pm, solution):
    # Weak duality in Fraction arithmetic: x earns at least the value center
    # against every column, and y concedes at most it against every row.
    x, y, value = solution.x, solution.y, F(solution.value.center)
    centers = [[F(e.center) for e in row] for row in pm.entries]
    floor = min(sum(p * c for p, c in zip(x, col)) for col in zip(*centers))
    ceiling = max(sum(q * c for q, c in zip(y, row)) for row in centers)
    return floor >= value >= ceiling


def shortcut_accepts(pm, solution):
    # The solver's certificate, on every line of the game.
    return _certified(pm, range(pm.rows), solution.x, range(pm.cols), solution.y,
                      solution.value.center)


def full_spread_sum(pm, x, y):
    # The spreads averaged under (x, y), summed over every cell of the game.
    return sum(
        x[i] * y[j] * F(pm.entry(i, j).spread) for i in range(pm.rows) for j in range(pm.cols)
    )


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


class TestCertificateAndSpreadOnSupports:
    def test_certificate_agrees_with_full_duality_on_pipeline_solutions(self, planted_game):
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
            # Every answer is optimal on the whole game, so it meets x.A.y = v.
            assert full_duality_accepts(pm, sol)
            assert shortcut_accepts(pm, sol)
            assert full_sum_accepts(pm, sol)
            for nudge in (F(1, 10**12), -F(1, 10**12)):
                off = replace(sol, value=FuzzyNum(F(sol.value.center) + nudge, 0))
                assert not full_duality_accepts(pm, off)
                assert not shortcut_accepts(pm, off)
        assert solved >= 200
        assert subgame >= 30

    def test_agree_with_full_sums_on_any_strategies(self):
        # Supports of every size, full ones included; the value is the
        # expected payoff, x's floor or y's ceiling, each also nudged.  One
        # game in three has a saddle planted at (i, j), and x and y play it.
        rng = random.Random(1618)

        def mix(size):
            weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(size)]
            if not any(weights):
                weights[rng.randrange(size)] = 1
            total = sum(weights)
            return tuple(F(w, total) for w in weights)

        verdicts = collections.Counter()
        for round_ in range(300):
            m, n = rng.randint(1, 16), rng.randint(1, 16)
            cells = [[[_center(rng), _spread(rng)] for _ in range(n)] for _ in range(m)]
            x, y = mix(m), mix(n)
            if round_ % 3 == 0:
                i, j = rng.randrange(m), rng.randrange(n)
                saddle = cells[i][j][0]
                for k in range(n):
                    cells[i][k][0] = max(cells[i][k][0], saddle)
                for k in range(m):
                    cells[k][j][0] = min(cells[k][j][0], saddle)
                x = tuple(F(k == i) for k in range(m))
                y = tuple(F(k == j) for k in range(n))
            pm = PayoffMatrix.of(cells)
            assert _expected(pm, x, y) == full_spread_sum(pm, x, y)
            centers = [[F(e.center) for e in row] for row in pm.entries]
            value = sum(x[i] * y[j] * centers[i][j] for i in range(m) for j in range(n))
            floor = min(sum(p * c for p, c in zip(x, col)) for col in zip(*centers))
            ceiling = max(sum(q * c for q, c in zip(y, row)) for row in centers)
            for base in (value, floor, ceiling):
                for center in (base, base + F(1, 10**15), base - F(1, 10**15)):
                    sol = Solution(x, y, FuzzyNum(center, 0), SolutionKind.MIXED_2X2, ())
                    verdict = full_duality_accepts(pm, sol)
                    assert shortcut_accepts(pm, sol) == verdict
                    verdicts[verdict] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20
