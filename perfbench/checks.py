"""Exact output checks and canonical outcomes, run outside the timed region.

A check returns a list of problems; an empty list means the output passed.
Everything is compared in exact ``Fraction`` arithmetic on the original
integer centers, so a solution is certified optimal without calling the
solver or the oracle:

    min_j x^T A_j  >=  v  >=  max_i A_i y
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Sequence

Centers = Sequence[Sequence[int]]


def probability_problems(name: str, vec: Sequence[Fraction], size: int) -> list[str]:
    if len(vec) != size:
        return [f"{name} has {len(vec)} entries, expected {size}"]
    if any(not isinstance(p, Fraction) for p in vec):
        return [f"{name} is not exact"]
    if any(p < 0 for p in vec):
        return [f"{name} has a negative probability"]
    if sum(vec) != 1:
        return [f"{name} sums to {sum(vec)}, not 1"]
    return []


def guarantee_problems(
    centers: Centers, x: Sequence[Fraction], y: Sequence[Fraction], value: Fraction
) -> list[str]:
    """Check min_j x^T A_j >= value >= max_i A_i y exactly."""
    m, n = len(centers), len(centers[0])
    floor = min(sum(x[i] * centers[i][j] for i in range(m)) for j in range(n))
    ceiling = max(sum(centers[i][j] * y[j] for j in range(n)) for i in range(m))
    problems = []
    if floor < value:
        problems.append(f"x guarantees only {floor} < value {value}")
    if ceiling > value:
        problems.append(f"y concedes {ceiling} > value {value}")
    return problems


def solution_problems(
    centers: Centers, x: Sequence[Fraction], y: Sequence[Fraction], value: Fraction
) -> list[str]:
    """Both strategies are probability vectors and certify ``value`` exactly."""
    problems = probability_problems("x", x, len(centers))
    problems += probability_problems("y", y, len(centers[0]))
    return problems or guarantee_problems(centers, x, y, value)


def deletion_problems(
    deleted: Sequence[tuple[str, int]],
    core_rows: Sequence[int],
    core_cols: Sequence[int],
    shape: tuple[int, int],
) -> list[str]:
    """The deleted strategies are exactly the padding, each deleted once."""
    rows = [index for axis, index in deleted if axis == "row"]
    cols = [index for axis, index in deleted if axis == "col"]
    pad_rows = sorted(set(range(shape[0])) - set(core_rows))
    pad_cols = sorted(set(range(shape[1])) - set(core_cols))
    problems = []
    if sorted(rows) != pad_rows:
        problems.append(f"deleted rows {sorted(rows)}, padding rows are {pad_rows}")
    if sorted(cols) != pad_cols:
        problems.append(f"deleted columns {sorted(cols)}, padding columns are {pad_cols}")
    return problems


def residual_problems(
    residual: Sequence[Sequence[tuple[float, float]]],
    labels: tuple[Sequence[str], Sequence[str]],
    entries: Sequence[Sequence[tuple[float, float]]],
    keep_rows: Sequence[int],
    keep_cols: Sequence[int],
) -> list[str]:
    """The residual is the original game restricted to ``keep_rows`` x ``keep_cols``.

    ``labels`` are the residual's (row, column) labels, checked against the
    default labels A<i+1> / B<j+1> of the kept original strategies.
    """
    want_labels = [[f"A{i + 1}" for i in keep_rows], [f"B{j + 1}" for j in keep_cols]]
    if [list(labels[0]), list(labels[1])] != want_labels:
        return [f"residual labels {labels}, expected {want_labels}"]
    want = [[tuple(entries[i][j]) for j in keep_cols] for i in keep_rows]
    got = [[tuple(cell) for cell in row] for row in residual]
    if got != want:
        return ["residual entries differ from the original game"]
    return []


def canonical(outcome: dict) -> bytes:
    """Stable byte form of one operation's outcome, for hashing."""
    return json.dumps(outcome, sort_keys=True, separators=(",", ":")).encode()


def digest(blobs: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()
