"""Command-line front end.

Subcommands::

    fuzzygame solve GAME.json      solve end to end, print strategies and value
    fuzzygame reduce GAME.json     dominance fixpoint only, print the residual
    fuzzygame rank A B             rank two fuzzy numbers given as center,spread
    fuzzygame validate GAME.json   check a matrix document
    fuzzygame check GAME.json      solve and verify against the exact center-game oracle

Exit codes: 0 success, 1 input error (or a failed check), 2 not reducible by
the dominance method.  In machine mode diagnostics go to stderr and stdout
carries a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .fuzzy import Attitude, Choice, FuzzyNum, prefer_max, prefer_min, rank
from .matrix import Axis, MatrixError, PayoffMatrix, parse_matrix, serialize_matrix
from .oracle import CenterGame, OracleReport, check_size, oracle_check, oracle_value
from .solver import (
    NotReducibleError,
    PipelineConfig,
    ReductionStep,
    Solution,
    SpreadConvention,
    StepKind,
    beta_grid,
    reduce_dominance,
    solve_pipeline,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_REDUCIBLE = 2

MAX_FRACTION_DENOMINATOR = 10**6


def frac_str(value) -> str:
    """Reduced-fraction rendering (15/16 style) with decimal fallback."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    if q.denominator <= MAX_FRACTION_DENOMINATOR:
        return f"{q.numerator}/{q.denominator}"
    return repr(float(q))


def _prob_str(value) -> str:
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{frac_str(q)} ({float(q)})"


def _parse_fuzzy_arg(text: str) -> FuzzyNum:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected center,spread but got {text!r}")
    try:
        center, spread = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"expected two numbers in {text!r}") from None
    return FuzzyNum(center, spread)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        threshold=args.threshold,
        betas=beta_grid(args.beta_steps),
        attitude=Attitude(args.attitude),
        convention=SpreadConvention(args.spread_convention),
    )


def _config_doc(args: argparse.Namespace) -> dict:
    return {
        "threshold": args.threshold,
        "beta_steps": args.beta_steps,
        "attitude": args.attitude,
        "spread_convention": args.spread_convention,
    }


def _step_doc(step: ReductionStep, pm: PayoffMatrix) -> dict:
    deleted = None
    if step.deleted is not None:
        labels = pm.row_labels if step.deleted.axis is Axis.ROW else pm.col_labels
        deleted = {
            "axis": step.deleted.axis.value,
            "index": step.deleted.index,
            "label": labels[step.deleted.index],
        }
    return {
        "kind": step.kind.value,
        "deleted": deleted,
        "dominator": step.dominator,
        "evidence": list(step.evidence),
    }


def _solution_doc(solution: Solution, pm: PayoffMatrix, args: argparse.Namespace) -> dict:
    return {
        "kind": solution.kind.value,
        "x": [float(p) for p in solution.x],
        "x_exact": [frac_str(p) for p in solution.x],
        "y": [float(p) for p in solution.y],
        "y_exact": [frac_str(p) for p in solution.y],
        "value": {
            "center": float(solution.value.center),
            "spread": float(solution.value.spread),
            "center_exact": frac_str(solution.value.center),
            "spread_exact": frac_str(solution.value.spread),
        },
        "trace": [_step_doc(s, pm) for s in solution.trace],
        "config": _config_doc(args),
    }


def _render_trace(steps, pm: PayoffMatrix, out) -> None:
    print("trace:", file=out)
    if not steps:
        print("  (empty)", file=out)
    for k, step in enumerate(steps, start=1):
        line = f"  {k}. {step.kind.value}"
        if step.deleted is not None:
            labels = pm.row_labels if step.deleted.axis is Axis.ROW else pm.col_labels
            line += f": deleted {labels[step.deleted.index]}"
            line += f" (dominated by {step.dominator})"
            line += "; DI = [" + ", ".join(f"{d:g}" for d in step.evidence) + "]"
        else:
            line += f": {step.dominator}"
            if step.kind is StepKind.SUBGAME_SELECTION:
                line += ("; candidate centers = ["
                         + ", ".join(f"{d:g}" for d in step.evidence) + "]")
        print(line, file=out)


def _render_solution(solution: Solution, pm: PayoffMatrix, show_trace: bool) -> None:
    print(f"kind: {solution.kind.value}")
    xs = " ".join(
        f"{label}={_prob_str(p)}" for label, p in zip(pm.row_labels, solution.x)
    )
    ys = " ".join(
        f"{label}={_prob_str(p)}" for label, p in zip(pm.col_labels, solution.y)
    )
    print(f"x: {xs}")
    print(f"y: {ys}")
    center, spread = solution.value.center, solution.value.spread
    print(f"value: <{frac_str(center)}, {frac_str(spread)}>"
          f" = <{float(center)}, {float(spread)}>")
    if show_trace:
        _render_trace(solution.trace, pm, sys.stdout)


def _load_matrix(path: str) -> PayoffMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    return parse_matrix(text)


def cmd_solve(args: argparse.Namespace) -> int:
    machine = args.format == "machine"
    try:
        pm = _load_matrix(args.input)
        config = _config_from_args(args)
    except (MatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        solution = solve_pipeline(pm, config)
    except NotReducibleError as exc:
        if machine:
            doc = {
                "error": "not-reducible",
                "residual": json.loads(serialize_matrix(exc.residual)),
                "trace": [_step_doc(s, pm) for s in exc.trace],
                "config": _config_doc(args),
            }
            print(json.dumps(doc, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
            print("residual matrix:", file=sys.stderr)
            print(serialize_matrix(exc.residual), file=sys.stderr, end="")
            print("hint: `fuzzygame check` still reports the exact center-game value",
                  file=sys.stderr)
        return EXIT_NOT_REDUCIBLE
    if machine:
        print(json.dumps(_solution_doc(solution, pm, args), indent=2))
    else:
        _render_solution(solution, pm, args.trace)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    machine = args.format == "machine"
    try:
        pm = _load_matrix(args.input)
        config = _config_from_args(args)
    except (MatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    result = reduce_dominance(pm, config)
    if machine:
        doc = {
            "matrix": json.loads(serialize_matrix(result.residual)),
            "trace": [_step_doc(s, pm) for s in result.trace],
            "config": _config_doc(args),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(serialize_matrix(result.residual), end="")
        if args.trace:
            _render_trace(result.trace, pm, sys.stdout)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    try:
        a = _parse_fuzzy_arg(args.a)
        b = _parse_fuzzy_arg(args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    attitude = Attitude(args.attitude)
    ranking = rank(a.as_lr_triple(), b.as_lr_triple())
    if a.is_crisp and b.is_crisp:
        print("both numbers are crisp; falling back to a direct center comparison")
    print(f"A = {a}, B = {b}")
    print(f"DI(A < B) = {ranking.di:g}  [{ranking.relation.value}]")
    chosen_min = a if prefer_min(a, b, attitude) is Choice.A else b
    chosen_max = a if prefer_max(a, b, attitude) is Choice.A else b
    print(f"preferred in minimization ({attitude.value}): {chosen_min}")
    print(f"preferred in maximization ({attitude.value}): {chosen_max}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        pm = _load_matrix(args.input)
    except MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"{pm.rows}x{pm.cols} matrix")
    print(f"rows: {', '.join(pm.row_labels)}")
    print(f"cols: {', '.join(pm.col_labels)}")
    return EXIT_OK


def _exact_str(value: Fraction) -> str:
    # The oracle's numbers are exact: n/d whatever the denominator, then the decimal.
    return f"{value} = {float(value)}"


def _render_report(report: OracleReport) -> None:
    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    print(f"oracle value center:   {_exact_str(report.oracle_center)}")
    print(f"pipeline value center: {_exact_str(report.solution_center)}")
    print(f"value match:  {mark(report.value_match)}")
    print(f"x guarantee:  {mark(report.x_guarantee)}"
          f" (worst column payoff {float(report.x_floor)})")
    print(f"y guarantee:  {mark(report.y_guarantee)}"
          f" (best row payoff {float(report.y_ceiling)})")


def cmd_check(args: argparse.Namespace) -> int:
    try:
        pm = _load_matrix(args.input)
        config = _config_from_args(args)
        check_size(pm.rows, pm.cols)  # before solving, which costs more the larger the game
    except (MatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        solution = solve_pipeline(pm, config)
    except NotReducibleError:
        oracle = oracle_value(CenterGame.from_payoff(pm))
        print("pipeline: not reducible by the dominance method (no check performed)")
        print(f"oracle value center: {_exact_str(oracle.value)}")
        return EXIT_OK
    report = oracle_check(pm, solution)
    _render_report(report)
    return EXIT_OK if report.passed else EXIT_INPUT


def _add_pipeline_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threshold", type=float, default=0.0,
                     help="minimum dominance index required for deletions (default 0: weak dominance)")
    sub.add_argument("--beta-steps", type=int, default=21,
                     help="grid size for convex-combination coefficients (default 21)")
    sub.add_argument("--attitude", choices=[a.value for a in Attitude],
                     default=Attitude.PESSIMISTIC.value,
                     help="tie-break attitude for equal centers (default pessimistic)")
    sub.add_argument("--spread-convention", choices=[c.value for c in SpreadConvention],
                     default=SpreadConvention.EXPECTED.value,
                     help="how the value spread is derived (default expected)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzygame",
        description="Solve two-person zero-sum games with symmetric trapezoidal fuzzy payoffs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a game end to end")
    solve.add_argument("input", help="matrix document (JSON)")
    _add_pipeline_options(solve)
    solve.add_argument("--format", choices=["table", "machine"], default="table")
    solve.add_argument("--trace", action="store_true", help="show every reduction step")
    solve.set_defaults(func=cmd_solve)

    reduce_ = commands.add_parser("reduce", help="apply dominance deletions only")
    reduce_.add_argument("input", help="matrix document (JSON)")
    _add_pipeline_options(reduce_)
    reduce_.add_argument("--format", choices=["table", "machine"], default="table")
    reduce_.add_argument("--trace", action="store_true")
    reduce_.set_defaults(func=cmd_reduce)

    rank_ = commands.add_parser("rank", help="rank two fuzzy numbers")
    rank_.add_argument("a", help="first number as center,spread (e.g. 0.3,0.5)")
    rank_.add_argument("b", help="second number as center,spread")
    rank_.add_argument("--attitude", choices=[a.value for a in Attitude],
                       default=Attitude.PESSIMISTIC.value)
    rank_.set_defaults(func=cmd_rank)

    validate = commands.add_parser("validate", help="validate a matrix document")
    validate.add_argument("input")
    validate.set_defaults(func=cmd_validate)

    check = commands.add_parser("check", help="solve and verify against the exact oracle")
    check.add_argument("input")
    _add_pipeline_options(check)
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
