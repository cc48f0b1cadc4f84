"""Command-line front end.

Subcommands::

    fuzzygame solve GAME.json      solve end to end, print strategies and value
    fuzzygame reduce GAME.json     dominance fixpoint only, print the residual
    fuzzygame rank A B             rank two fuzzy numbers given as center,spread
    fuzzygame validate GAME.json   check a matrix document
    fuzzygame check GAME.json      solve and verify against the exact center-game oracle

Exit codes: 0 success, 1 input or usage error (or a failed check), 2 not
reducible by the dominance method.  In machine mode diagnostics go to stderr
and stdout carries a single JSON document.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NoReturn

from .fuzzy import Attitude, Choice, FuzzyNum, prefer_max, prefer_min, rank, ratio
from .matrix import Axis, MatrixError, PayoffMatrix, matrix_doc, parse_matrix, serialize_matrix
from .oracle import OracleReport, center_value, check_size, oracle_check
from .solver import (
    DEFAULT_BETAS,
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


def _number(value) -> str:
    """Table-mode rendering, each number once: n, n/d (decimal), or, when the
    denominator exceeds MAX_FRACTION_DENOMINATOR, the decimal alone."""
    num, den = ratio(value)
    if den == 1:
        return str(num)
    if den <= MAX_FRACTION_DENOMINATOR:
        return f"{num}/{den} ({float(value)})"
    return repr(float(value))


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
    steps = args.beta_steps
    return PipelineConfig(
        threshold=args.threshold,
        # The default grid was built and checked at import; only another size is built per call.
        betas=DEFAULT_BETAS if steps == len(DEFAULT_BETAS) else beta_grid(steps),
        attitude=Attitude(args.attitude),
        convention=SpreadConvention(args.spread_convention),
    )


def _json_number(value: float) -> float | str:
    # Strict JSON has no infinities, so they are named; _print_document refuses a NaN.
    return ("Infinity" if value > 0 else "-Infinity") if math.isinf(value) else value


def _config_doc(config: PipelineConfig) -> dict:
    return {
        "threshold": _json_number(config.threshold),
        "beta_steps": len(config.betas),
        "attitude": config.attitude.value,
        "spread_convention": config.convention.value,
    }


def _deleted_label(step: ReductionStep, pm: PayoffMatrix) -> str:
    labels = pm.row_labels if step.deleted.axis is Axis.ROW else pm.col_labels
    return labels[step.deleted.index]


def _step_doc(step: ReductionStep, pm: PayoffMatrix) -> dict:
    deleted = None
    if step.deleted is not None:
        deleted = {
            "axis": step.deleted.axis.value,
            "index": step.deleted.index,
            "label": _deleted_label(step, pm),
        }
    return {
        "kind": step.kind.value,
        "deleted": deleted,
        "dominator": step.dominator,
        "evidence": [_json_number(e) for e in step.evidence],
    }


def _solution_doc(solution: Solution) -> dict:
    return {
        "kind": solution.kind.value,
        "x": [float(p) for p in solution.x],
        "x_exact": [str(p) for p in solution.x],
        "y": [float(p) for p in solution.y],
        "y_exact": [str(p) for p in solution.y],
        "value": {
            "center": float(solution.value.center),
            "spread": float(solution.value.spread),
            "center_exact": str(Fraction(*ratio(solution.value.center))),
            "spread_exact": str(Fraction(*ratio(solution.value.spread))),
        },
    }


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2, allow_nan=False)``
    writes it; ``newline`` is a line break followed by the current indent."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is float:
        if not -math.inf < value < math.inf:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif kind is dict:
        sep, inner = "{", newline + "  "
        for key, item in value.items():
            out += (sep, inner, encode_basestring_ascii(key), ": ")
            _write_json(item, inner, out)
            sep = ","
        out += (newline, "}") if value else ("{}",)
    elif kind is list or kind is tuple:
        sep, inner = "[", newline + "  "
        for item in value:
            out += (sep, inner)
            _write_json(item, inner, out)
            sep = ","
        out += (newline, "]") if value else ("[]",)
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _print_document(doc: dict, steps, pm: PayoffMatrix, config: PipelineConfig) -> None:
    # The only machine-mode writer: trace and config close every document.  It
    # writes what json.dumps(doc, indent=2, allow_nan=False) would, but json.dumps
    # with an indent encodes in pure Python, at twice the cost of _write_json.
    doc["trace"] = [_step_doc(s, pm) for s in steps]
    doc["config"] = _config_doc(config)
    out: list[str] = []
    _write_json(doc, "\n", out)
    print("".join(out))


def _render_trace(steps, pm: PayoffMatrix) -> None:
    print("trace:")
    if not steps:
        print("  (empty)")
    for k, step in enumerate(steps, start=1):
        numbers = ", ".join(f"{d:g}" for d in step.evidence)
        line = f"  {k}. {step.kind.value}"
        if step.deleted is not None:
            line += f": deleted {_deleted_label(step, pm)}"
            line += f" (dominated by {step.dominator}); DI = [{numbers}]"
        else:
            line += f": {step.dominator}"
            if step.kind is StepKind.SUBGAME_SELECTION:
                line += f"; candidate centers = [{numbers}]"
        print(line)


def _render_solution(solution: Solution, pm: PayoffMatrix, show_trace: bool) -> None:
    print(f"kind: {solution.kind.value}")
    mixes = (("x", pm.row_labels, solution.x), ("y", pm.col_labels, solution.y))
    for name, labels, mix in mixes:
        print(f"{name}: " + " ".join(f"{label}={_number(p)}" for label, p in zip(labels, mix)))
    print(f"value: <{_number(solution.value.center)}, {_number(solution.value.spread)}>")
    if show_trace:
        _render_trace(solution.trace, pm)


def _load_matrix(path: str) -> PayoffMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixError(str(exc)) from exc
    return parse_matrix(text)


def _read_game(args: argparse.Namespace) -> tuple[PayoffMatrix]:
    return (_load_matrix(args.input),)


def _read_pipeline(args: argparse.Namespace) -> tuple[PayoffMatrix, PipelineConfig]:
    return _load_matrix(args.input), _config_from_args(args)


def _read_check(args: argparse.Namespace) -> tuple[PayoffMatrix, PipelineConfig]:
    pm, config = _read_pipeline(args)
    check_size(pm.rows, pm.cols)  # before solving, which costs more the larger the game
    return pm, config


def _read_numbers(args: argparse.Namespace) -> tuple[FuzzyNum, FuzzyNum]:
    return _parse_fuzzy_arg(args.a), _parse_fuzzy_arg(args.b)


def cmd_solve(args: argparse.Namespace, pm: PayoffMatrix, config: PipelineConfig) -> int:
    machine = args.format == "machine"
    try:
        solution = solve_pipeline(pm, config)
    except NotReducibleError as exc:
        if machine:
            doc = {"error": "not-reducible", "residual": matrix_doc(exc.residual)}
            _print_document(doc, exc.trace, pm, config)
        else:
            print(f"error: {exc}", file=sys.stderr)
            print("residual matrix:", file=sys.stderr)
            print(serialize_matrix(exc.residual), file=sys.stderr, end="")
            print("hint: `fuzzygame check` still reports the exact center-game value",
                  file=sys.stderr)
        return EXIT_NOT_REDUCIBLE
    if machine:
        _print_document(_solution_doc(solution), solution.trace, pm, config)
    else:
        _render_solution(solution, pm, args.trace)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace, pm: PayoffMatrix, config: PipelineConfig) -> int:
    result = reduce_dominance(pm, config)
    if args.format == "machine":
        doc = {"matrix": matrix_doc(result.residual)}
        _print_document(doc, result.trace, pm, config)
    else:
        print(serialize_matrix(result.residual), end="")
        if args.trace:
            _render_trace(result.trace, pm)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace, a: FuzzyNum, b: FuzzyNum) -> int:
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


def cmd_validate(args: argparse.Namespace, pm: PayoffMatrix) -> int:
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
          f" (worst column payoff {_exact_str(report.x_floor)})")
    print(f"y guarantee:  {mark(report.y_guarantee)}"
          f" (best row payoff {_exact_str(report.y_ceiling)})")


def cmd_check(args: argparse.Namespace, pm: PayoffMatrix, config: PipelineConfig) -> int:
    try:
        solution = solve_pipeline(pm, config)
    except NotReducibleError:
        value = center_value(pm)
        print("pipeline: not reducible by the dominance method (no check performed)")
        print(f"oracle value center: {_exact_str(value)}")
        return EXIT_OK
    report = oracle_check(pm, solution)
    _render_report(report)
    return EXIT_OK if report.passed else EXIT_INPUT


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as every other input error does."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_game_command(commands, name, help, read, func, *, pipeline=False, output=False):
    """A subcommand on one matrix document; each shared option is declared only here."""
    sub = commands.add_parser(name, help=help)
    sub.add_argument("input", help="matrix document (JSON)")
    if pipeline:
        defaults = PipelineConfig()
        sub.add_argument("--threshold", type=float, default=defaults.threshold,
                         help="minimum dominance index a plain deletion needs on every"
                              " entry (default %(default)g: weak dominance); convex"
                              " deletions ignore it")
        sub.add_argument("--beta-steps", type=int, default=len(defaults.betas),
                         help="grid size for convex-combination coefficients"
                              " (default %(default)s)")
        sub.add_argument("--attitude", choices=[a.value for a in Attitude],
                         default=defaults.attitude.value,
                         help="tie-break between saddle cells of equal center, in the game and in"
                              " each 2x2 sub-game; tied sub-game values always go to the smaller"
                              " spread; reduce does not use it (default %(default)s)")
        sub.add_argument("--spread-convention", choices=[c.value for c in SpreadConvention],
                         default=defaults.convention.value,
                         help="how the value spread is derived; reduce does not use it"
                              " (default %(default)s)")
    if output:
        sub.add_argument("--format", choices=["table", "machine"], default="table")
        sub.add_argument("--trace", action="store_true", help="show every reduction step")
    sub.set_defaults(read=read, func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on first use, and then reused.

    It is not built at import, which stays cheap.  Parsing leaves the parser
    as it was: each call gets a fresh namespace and reads ``sys.stderr`` anew.
    """
    parser = _Parser(
        prog="fuzzygame",
        description="Solve two-person zero-sum games with symmetric trapezoidal fuzzy payoffs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_game_command(commands, "solve", "solve a game end to end",
                      _read_pipeline, cmd_solve, pipeline=True, output=True)
    _add_game_command(commands, "reduce", "apply dominance deletions only",
                      _read_pipeline, cmd_reduce, pipeline=True, output=True)

    rank_ = commands.add_parser("rank", help="rank two fuzzy numbers")
    rank_.add_argument("a", help="first number as center,spread (e.g. 0.3,0.5)")
    rank_.add_argument("b", help="second number as center,spread")
    rank_.add_argument("--attitude", choices=[a.value for a in Attitude],
                       default=Attitude.PESSIMISTIC.value)
    rank_.set_defaults(read=_read_numbers, func=cmd_rank)

    _add_game_command(commands, "validate", "validate a matrix document", _read_game, cmd_validate)
    _add_game_command(commands, "check", "solve and verify against the exact oracle",
                      _read_check, cmd_check, pipeline=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The only input handler.  The subcommand's reader loads and checks every
    # input its command takes, so a failure after it is a fault of the program.
    try:
        inputs = args.read(args)
    except ValueError as exc:  # MatrixError, a bad option, a game above the oracle cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args, *inputs)


if __name__ == "__main__":
    sys.exit(main())
