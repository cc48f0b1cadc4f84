"""What one operation of each workload does, and how its output is judged.

``run_*`` functions are the timed part.  They reach the package only through
module attributes (``fg.cli.main``, ``fg.solver.solve_pipeline``, ...), looked
up at call time, so the layer wrappers of :mod:`perfbench.spans` see every
call.  ``judge_*`` functions run outside the timed region: they turn the raw
result into a canonical outcome (hashed into the outcome digest) and a list
of problems found by the exact checks of :mod:`perfbench.checks`.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from typing import Any

from . import checks
from .workloads import Game


def run_cli_solve(fg: Any, game: Game, path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fg.cli.main(["solve", path, "--format", "machine", "--trace"])
    return code, out.getvalue(), err.getvalue()


def run_parse_solve(fg: Any, game: Game, path: str) -> Any:
    pm = fg.matrix.parse_matrix(game.text)
    try:
        return fg.solver.solve_pipeline(pm)
    except fg.solver.NotReducibleError as exc:
        return exc


def run_check(fg: Any, game: Game, path: str) -> tuple[Any, Any]:
    """What ``fuzzygame check`` does: solve, then check against the oracle."""
    pm = fg.matrix.parse_matrix(game.text)
    try:
        solution = fg.solver.solve_pipeline(pm)
    except fg.solver.NotReducibleError as exc:
        return exc, fg.oracle.oracle_value(fg.oracle.CenterGame.from_payoff(pm))
    return solution, fg.oracle.oracle_check(pm, solution)


def _step(kind: str, deleted: tuple[str, int] | None, dominator: str, evidence) -> list:
    return [kind, deleted and list(deleted), dominator, [repr(float(e)) for e in evidence]]


def _library_trace(trace) -> list:
    return [
        _step(s.kind.value, s.deleted and (s.deleted.axis.value, s.deleted.index),
              s.dominator, s.evidence)
        for s in trace
    ]


def _deleted(trace: list) -> list[tuple[str, int]]:
    return [tuple(step[1]) for step in trace if step[1] is not None]


def judge_cli_solve(game: Game, raw: tuple[int, str, str]) -> tuple[dict, list[str]]:
    code, out, _ = raw
    if code not in (0, 2):
        return {"exit": code}, [f"exit code {code}"]
    doc = json.loads(out)
    trace = [
        _step(s["kind"], s["deleted"] and (s["deleted"]["axis"], s["deleted"]["index"]),
              s["dominator"], s["evidence"])
        for s in doc["trace"]
    ]
    if code == 2:
        if doc.get("error") != "not-reducible":
            return {"exit": code}, ["exit code 2 without a not-reducible document"]
        res = doc["residual"]
        outcome = {"residual": [res["rows"], res["cols"], res["entries"]], "trace": trace}
        deleted = _deleted(trace)
        keep_rows = [i for i in range(game.shape[0]) if ("row", i) not in deleted]
        keep_cols = [j for j in range(game.shape[1]) if ("col", j) not in deleted]
        problems = checks.residual_problems(
            res["entries"], (res["rows"], res["cols"]), game.entries, keep_rows, keep_cols)
        if min(len(keep_rows), len(keep_cols)) < 3:
            problems.append(f"residual {len(keep_rows)}x{len(keep_cols)} is solvable")
        return outcome, problems
    value = doc["value"]
    outcome = {
        "kind": doc["kind"], "x": doc["x_exact"], "y": doc["y_exact"],
        "value": [value["center_exact"], value["spread_exact"]], "trace": trace,
    }
    x = [Fraction(p) for p in doc["x_exact"]]
    y = [Fraction(p) for p in doc["y_exact"]]
    return outcome, checks.solution_problems(game.centers, x, y, Fraction(value["center_exact"]))


def _solution_outcome(game: Game, solution: Any) -> tuple[dict, list[str]]:
    trace = _library_trace(solution.trace)
    outcome = {
        "kind": solution.kind.value,
        "x": [str(p) for p in solution.x],
        "y": [str(p) for p in solution.y],
        "value": [str(Fraction(solution.value.center)), str(Fraction(solution.value.spread))],
        "trace": trace,
    }
    problems = checks.solution_problems(
        game.centers, solution.x, solution.y, Fraction(solution.value.center))
    problems += checks.deletion_problems(
        _deleted(trace), game.core_rows, game.core_cols, game.shape)
    return outcome, problems


def _not_reducible_outcome(game: Game, exc: Any) -> tuple[dict, list[str]]:
    res = exc.residual
    trace = _library_trace(exc.trace)
    entries = [[[e.center, e.spread] for e in row] for row in res.entries]
    outcome = {"residual": [list(res.row_labels), list(res.col_labels), entries],
               "trace": trace}
    problems = checks.deletion_problems(
        _deleted(trace), game.core_rows, game.core_cols, game.shape)
    problems += checks.residual_problems(
        entries, (res.row_labels, res.col_labels), game.entries,
        game.core_rows, game.core_cols)
    return outcome, problems


def judge_parse_solve(game: Game, raw: Any) -> tuple[dict, list[str]]:
    if isinstance(raw, Exception):
        outcome, problems = _not_reducible_outcome(game, raw)
        return outcome, problems + ["planted core was not reached"]
    return _solution_outcome(game, raw)


def judge_check(game: Game, raw: tuple[Any, Any]) -> tuple[dict, list[str]]:
    result, oracle = raw
    if isinstance(result, Exception):
        outcome, problems = _not_reducible_outcome(game, result)
        if len(game.core_rows) < 3:
            problems.append("planted 2x2 core was not solved")
        problems += checks.solution_problems(game.centers, oracle.x, oracle.y, oracle.value)
        outcome["oracle_value"] = str(oracle.value)
        return outcome, problems
    outcome, problems = _solution_outcome(game, result)
    if not oracle.passed:
        problems.append("oracle check failed")
    outcome["oracle_value"] = str(oracle.oracle_center)
    return outcome, problems
