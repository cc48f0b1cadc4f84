"""Seeded games whose whole pipeline outcome is pinned in a golden file.

Each record of ``data/golden_outcomes.json`` holds a game, the pipeline
configuration it is solved under, and the outcome the solver gave when the
file was written: kind, exact strategies, the value (center and spread by
``repr``, so a float and an equal ``Fraction`` differ) and the trace with
its evidence by ``repr``; or, for a game the method cannot reduce, the
residual and the trace.  The test demands the same outcome character for
character, so a refactor of the solver must keep every trace, strategy and
value bit-identical.

The games cover every step kind on both axes and both spread conventions.
Regenerate the file only when a change of outcome is intended::

    PYTHONPATH=src python tests/test_golden_outcomes.py
"""

import collections
import json
import pathlib
import random

import pytest

from fuzzygame import (
    Attitude,
    Axis,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    SpreadConvention,
    StepKind,
    beta_grid,
    enumerate_subgames,
    find_saddle,
    reduce_dominance,
    solve_pipeline,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_outcomes.json"

SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5))
CENTERS = {
    # A narrow integer range makes ties, duplicates and dominance common.
    "small-int": lambda rng: rng.randint(-3, 3),
    "int": lambda rng: rng.randint(-20, 20),
    "tenths": lambda rng: rng.randint(-30, 30) / 10,
    "float": lambda rng: rng.uniform(-5, 5),
}
SPREADS = {
    "crisp": lambda rng: 0,
    "grid": lambda rng: rng.choice((0, 0.1, 0.25, 0.5)),
    "float": lambda rng: rng.uniform(0, 0.5),
}
GAMES_PER_CELL = 30
DONOR_GAMES_PER_AXIS = 10


def _config(rng):
    return {
        "threshold": rng.choice((0.0, 0.0, 0.5)),
        "beta_steps": rng.choice((21, 21, 3, 5)),
        "attitude": rng.choice([a.value for a in Attitude]),
        "convention": rng.choice([c.value for c in SpreadConvention]),
    }


def _pipeline_config(doc):
    return PipelineConfig(
        threshold=doc["threshold"],
        betas=beta_grid(doc["beta_steps"]),
        attitude=Attitude(doc["attitude"]),
        convention=SpreadConvention(doc["convention"]),
    )


def _steps(trace):
    return [
        [
            step.kind.value,
            None if step.deleted is None else [step.deleted.axis.value, step.deleted.index],
            step.dominator,
            [repr(e) for e in step.evidence],
        ]
        for step in trace
    ]


def outcome(pm, config):
    """Canonical, JSON-ready outcome of ``solve_pipeline`` and ``reduce_dominance``."""
    reduced = reduce_dominance(pm, config)
    doc = {"reduce": [list(reduced.row_ids), list(reduced.col_ids), _steps(reduced.trace)]}
    try:
        sol = solve_pipeline(pm, config)
    except NotReducibleError as exc:
        doc["residual"] = [[[e.center, e.spread] for e in row] for row in exc.residual.entries]
        doc["trace"] = _steps(exc.trace)
        return doc
    doc["kind"] = sol.kind.value
    doc["x"] = [str(p) for p in sol.x]
    doc["y"] = [str(p) for p in sol.y]
    doc["value"] = [repr(sol.value.center), repr(sol.value.spread)]
    doc["trace"] = _steps(sol.trace)
    return doc


def _uses_donor(pm, config):
    """The deciding player's axis when the pipeline borrows a donor strategy, else None.

    That happens when the selected sub-game's strategy for the other player
    fails on the whole residual and is taken from another sub-game instead.
    """
    reduced = reduce_dominance(pm, config)
    work = reduced.residual
    shape = (work.rows, work.cols)
    if find_saddle(pm, config.attitude) is not None or not min(shape) == 2 < max(shape):
        return None
    enum = enumerate_subgames(work, config.convention, config.attitude)
    chosen = next(c for c in enum.candidates if c.pair == enum.chosen).solution
    sol = solve_pipeline(pm, config)
    if enum.axis is Axis.COL:
        borrowed = tuple(sol.x[i] for i in reduced.row_ids) != chosen.x
    else:
        borrowed = tuple(sol.y[j] for j in reduced.col_ids) != chosen.y
    return enum.axis.value if borrowed else None


def _generate():
    rng = random.Random(20131107)
    records = []
    for center_name, center in CENTERS.items():
        for spread_name, spread in SPREADS.items():
            for _ in range(GAMES_PER_CELL):
                m, n = rng.choice(SHAPES)
                entries = [[[center(rng), spread(rng)] for _ in range(n)] for _ in range(m)]
                records.append({"family": f"{center_name}/{spread_name}",
                                "config": _config(rng), "entries": entries})
    # Sub-game donors need tied sub-game values, which random games rarely
    # have; search small-integer games for them on both axes.
    donors = collections.Counter()
    while min(donors["row"], donors["col"]) < DONOR_GAMES_PER_AXIS:
        m, n = rng.choice(((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3)))
        entries = [[[rng.randint(-2, 2), rng.choice((0, 0.1, 0.2))] for _ in range(n)]
                   for _ in range(m)]
        config = _config(rng) | {"threshold": 0.0}
        axis = _uses_donor(PayoffMatrix.of(entries), _pipeline_config(config))
        if axis is not None and donors[axis] < DONOR_GAMES_PER_AXIS:
            donors[axis] += 1
            records.append({"family": f"donor/{axis}", "config": config, "entries": entries})
    for record in records:
        pm = PayoffMatrix.of(record["entries"])
        record["outcome"] = outcome(pm, _pipeline_config(record["config"]))
    return records


def _load():
    return json.loads(GOLDEN.read_text())


def _step_kinds(record):
    """(step kind, axis) pairs of the record's trace; a sub-game's is the decider's axis."""
    out = record["outcome"]
    residual_rows = len(out["reduce"][0])
    kinds = set()
    for kind, deleted, _, _ in out["trace"]:
        if deleted is not None:
            kinds.add((kind, deleted[0]))
        elif kind == StepKind.SUBGAME_SELECTION.value:
            kinds.add((kind, "col" if residual_rows == 2 else "row"))
        else:
            kinds.add((kind, None))
    return kinds


WANTED = (
    (StepKind.ROW_DOMINANCE.value, "row"),
    (StepKind.COL_DOMINANCE.value, "col"),
    (StepKind.CONVEX_ROW_DOMINANCE.value, "row"),
    (StepKind.CONVEX_COL_DOMINANCE.value, "col"),
    (StepKind.SUBGAME_SELECTION.value, "row"),
    (StepKind.SUBGAME_SELECTION.value, "col"),
    (StepKind.SADDLE_FOUND.value, None),
)


def test_golden_file_covers_every_step_kind_and_convention():
    records = _load()
    assert len(records) >= 300
    seen = collections.Counter()
    for record in records:
        for kind in _step_kinds(record):
            seen[kind, record["config"]["convention"]] += 1
    for convention in SpreadConvention:
        for kind in WANTED:
            assert seen[kind, convention.value] > 0, (kind, convention)
    assert any("residual" in record["outcome"] for record in records)
    donors = collections.Counter(
        _uses_donor(PayoffMatrix.of(record["entries"]), _pipeline_config(record["config"]))
        for record in records
        if record["family"].startswith("donor/")
    )
    assert donors == {"row": DONOR_GAMES_PER_AXIS, "col": DONOR_GAMES_PER_AXIS}


@pytest.mark.parametrize("chunk", range(4))
def test_outcomes_match_golden_file(chunk):
    records = _load()[chunk::4]
    for record in records:
        pm = PayoffMatrix.of(record["entries"])
        got = outcome(pm, _pipeline_config(record["config"]))
        assert got == record["outcome"], record["entries"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = (json.dumps(record, separators=(",", ":")) for record in _generate())
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
