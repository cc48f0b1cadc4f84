"""Seeded game generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same games, byte for byte.  The program under test only ever sees the
generated matrix documents.

* ``mixed_random``: random games, shapes 2x3 to 5x5 taken in a fixed cycle,
  integer centers in [-20, 20], spreads in [0, 0.5].  The real user mix:
  saddles, 2x2 / 2xn solves and games the method cannot reduce.
* ``planted_plain``: 8x8 to 16x16 games (all 81 shapes in a fixed cycle)
  made of a saddle-free 2x2 core padded with strictly dominated rows and
  columns at shuffled positions.  Plain deletions are always available
  until the core is left, so convex dominance is never called.
* ``check_planted``: 7x7 to 8x8 games padded the same way around a
  full-support 2x2 core (two games in three) or 3x3 core (one in three),
  for the solve-then-oracle check.

Core positions are dealt by :class:`_Deck`, so a pool covers early and late
positions evenly: the oracle scans kernels in lexicographic order and stops
at the core, so its cost depends on where the core sits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

MIXED_SHAPES = tuple((m, n) for m in range(2, 6) for n in range(3, 6))
PLAIN_SIZES = tuple(range(8, 17))
CHECK_SHAPES = ((7, 7), (7, 8), (8, 7), (8, 8))
CENTER_RANGE = 20
CORE_RANGE = 10
MAX_PAD_GAP = 4


@dataclass(frozen=True)
class Game:
    """One generated input and what is known about it by construction."""

    text: str  # matrix document handed to the program
    entries: tuple[tuple[tuple[int, float], ...], ...]  # (center, spread) cells
    core_rows: tuple[int, ...] | None = None  # planted core, original indices
    core_cols: tuple[int, ...] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    @property
    def centers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(center for center, _ in row) for row in self.entries)


def _spread(rng: random.Random) -> float:
    return rng.randint(0, 50) / 100


def _game(centers: list[list[int]], rng: random.Random, **core) -> Game:
    """Draw a spread for every cell and write the document with default labels."""
    entries = tuple(tuple((c, _spread(rng)) for c in row) for row in centers)
    rows = ",\n".join(
        "    [" + ", ".join(f"[{c}, {w}]" for c, w in row) + "]" for row in entries
    )
    return Game('{\n  "entries": [\n' + rows + "\n  ]\n}\n", entries, **core)


def mixed_random(seed: int, count: int) -> list[Game]:
    rng = random.Random(f"mixed_random-{seed}")
    games = []
    for k in range(count):
        m, n = MIXED_SHAPES[k % len(MIXED_SHAPES)]
        centers = [[rng.randint(-CENTER_RANGE, CENTER_RANGE) for _ in range(n)] for _ in range(m)]
        games.append(_game(centers, rng))
    return games


def planted_plain(seed: int, count: int) -> list[Game]:
    rng = random.Random(f"planted_plain-{seed}")
    deck = _Deck(rng)
    games = []
    for k in range(count):
        m = PLAIN_SIZES[k % len(PLAIN_SIZES)]
        n = PLAIN_SIZES[k // len(PLAIN_SIZES) % len(PLAIN_SIZES)]
        core = _saddle_free_2x2(rng)
        games.append(_planted(rng, core, (m, n), *deck.draw((m, n), 2)))
    return games


def check_planted(seed: int, count: int) -> list[Game]:
    rng = random.Random(f"check_planted-{seed}")
    deck = _Deck(rng)
    games = []
    for k in range(count):
        m, n = CHECK_SHAPES[k % len(CHECK_SHAPES)]
        core = _full_support_3x3(rng) if k % 3 == 2 else _saddle_free_2x2(rng)
        games.append(_planted(rng, core, (m, n), *deck.draw((m, n), len(core))))
    return games


class _Deck:
    """Deals the rows and columns of a k x k core in an m x n game, stratified
    by their place in the oracle's scan order.

    The (row subset, column subset) pairs, in the order the oracle scans
    them (row subsets in ``itertools.combinations`` order, then column
    subsets), are cut into STRATA runs of equal length.  Each shuffled deck,
    one per shape and core size, deals every run once, and the pair is drawn
    uniformly within its run.  Every pair stays equally likely, but a pool
    with a whole number of decks per shape and core size holds the same mix
    of early and late cores for every seed.
    """

    STRATA = 7  # divides C(7,2), C(8,2), C(7,3) and C(8,3)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decks: dict[tuple[int, int, int], list[int]] = {}

    def draw(self, shape: tuple[int, int], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        m, n = shape
        row_sets = list(itertools.combinations(range(m), k))
        col_sets = list(itertools.combinations(range(n), k))
        deck = self.decks.setdefault((m, n, k), [])
        if not deck:
            deck.extend(range(self.STRATA))
            self.rng.shuffle(deck)
        run = deck.pop()
        pairs = len(row_sets) * len(col_sets)
        lo = run * pairs // self.STRATA
        hi = (run + 1) * pairs // self.STRATA
        r, c = divmod(self.rng.randrange(lo, hi), len(col_sets))
        return row_sets[r], col_sets[c]


def _core_value(rng: random.Random) -> int:
    return rng.randint(-CORE_RANGE, CORE_RANGE)


def _saddle_free_2x2(rng: random.Random) -> list[list[int]]:
    while True:
        (a, b), (c, d) = [[_core_value(rng) for _ in range(2)] for _ in range(2)]
        if max(min(a, b), min(c, d)) < min(max(a, c), max(b, d)):
            return [[a, b], [c, d]]


def _det3(g: list[list[int]]) -> int:
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _adjugate3(g: list[list[int]]) -> list[list[int]]:
    def cof(r: int, c: int) -> int:
        rs = [i for i in range(3) if i != r]
        cs = [j for j in range(3) if j != c]
        minor = g[rs[0]][cs[0]] * g[rs[1]][cs[1]] - g[rs[0]][cs[1]] * g[rs[1]][cs[0]]
        return minor if (r + c) % 2 == 0 else -minor

    return [[cof(c, r) for c in range(3)] for r in range(3)]


def _full_support_3x3(rng: random.Random) -> list[list[int]]:
    """Nonsingular 3x3 game whose equalizing strategies are strictly positive.

    Such a game is completely mixed, so its optimum is unique and uses every
    row and column: no strategy of the core is dominated, plainly or by a
    blend of two others.
    """
    while True:
        g = [[_core_value(rng) for _ in range(3)] for _ in range(3)]
        if _det3(g) == 0:
            continue
        adj = _adjugate3(g)
        total = sum(map(sum, adj))
        if total == 0:
            continue
        x = [Fraction(sum(adj[r][c] for r in range(3)), total) for c in range(3)]
        y = [Fraction(sum(adj[r]), total) for r in range(3)]
        if all(p > 0 for p in x + y):
            return g


def _planted(
    rng: random.Random,
    core: list[list[int]],
    size: tuple[int, int],
    core_rows: tuple[int, ...],
    core_cols: tuple[int, ...],
) -> Game:
    """Embed ``core`` at ``core_rows`` x ``core_cols`` of a game of ``size``.

    Every other strategy of the game is strictly dominated.

    Padding row r sits strictly below a core row c(r) in every column, and
    padding column s strictly above a core column d(s) in every row, so a
    plain deletion exists until only the core is left.  On a padding x
    padding cell both constraints meet: c(r) - e2 < A[r][s] < c(r) + e1
    around the core cell (c(r), d(s)).
    """
    m, n = size
    g = [[0] * n for _ in range(m)]
    for a, i in enumerate(core_rows):
        for b, j in enumerate(core_cols):
            g[i][j] = core[a][b]
    col_gap = {}  # (core row, padding col) -> gap above the dominating core column
    row_dom = {r: rng.choice(core_rows) for r in range(m) if r not in core_rows}
    col_dom = {s: rng.choice(core_cols) for s in range(n) if s not in core_cols}
    for s, d in col_dom.items():
        for i in core_rows:
            col_gap[i, s] = rng.randint(1, MAX_PAD_GAP)
            g[i][s] = g[i][d] + col_gap[i, s]
    for r, c in row_dom.items():
        for j in core_cols:
            g[r][j] = g[c][j] - rng.randint(1, MAX_PAD_GAP)
        for s, d in col_dom.items():
            below = g[c][d] - g[r][d]  # e2 >= 1
            g[r][s] = g[c][d] + rng.randint(1 - below, col_gap[c, s] - 1)
    return _game(g, rng, core_rows=core_rows, core_cols=core_cols)
