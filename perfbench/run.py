"""Seeded closed-loop benchmark of ``fuzzygame``: one client, one thread.

Run from the repository root::

    python3 perfbench/run.py --workload mixed_random --seed 1 --seconds 40 --trace 0

The next operation is sent only when the previous one has returned.  With
``--trace 0`` the run measures the end-to-end metrics over whole passes
through the workload's seeded pool of games, as many as fit in
``--seconds`` and at least one.  With ``--trace 1`` it runs the pool once
untraced and once with every layer wrapped, and reports the per-layer
metrics of ``layers.json``; that amount of work is fixed, so counts repeat
exactly for a seed.  Every output is checked exactly outside the timed
region.
End-to-end times are scaled to a reference host speed by the probe of
:mod:`perfbench.hostspeed`; the report also prints them unscaled.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: import perfbench as a package, not its modules
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, hostspeed, operations, workloads  # noqa: E402
from perfbench.hostspeed import ScaledClock  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
PROBES = 3  # host-speed probes before and after each set-up
WARMUP_SEED = 0
COLD_IMPORT = (
    "import time; start = time.perf_counter(); import fuzzygame.cli; "
    "print(time.perf_counter() - start)"
)
LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
UNITS = {
    "calls": "count", "hits": "count", "deletions": "count", "not_reducible": "count",
    "self_ms": "ms", "self_share": "ratio", "hit_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, int], list[workloads.Game]]
    run: Callable[[Any, workloads.Game, str], Any]
    judge: Callable[[workloads.Game, Any], tuple[dict, list[str]]]
    pool: int  # games generated per seed; a run makes whole passes over them
    files: bool  # the operation reads its game from a file


# At the seed commit's speed one pass over the mixed_random pool takes 25 to
# 40 s of wall time on the shared 2-core host where the benchmark was tuned,
# a check_planted pass 14 to 22 s and a planted_plain pass 1.2 to 2.5 s.
# check_planted's pool holds one deck of core positions per shape and core
# size (see workloads._Deck), so every seed has the same mix of costs.
WORKLOADS = {
    "mixed_random": Workload(workloads.mixed_random, operations.run_cli_solve,
                             operations.judge_cli_solve, pool=1200, files=True),
    "planted_plain": Workload(workloads.planted_plain, operations.run_parse_solve,
                              operations.judge_parse_solve, pool=486, files=False),
    "check_planted": Workload(workloads.check_planted, operations.run_check,
                              operations.judge_check, pool=84, files=False),
}


@dataclass
class Setup:
    seconds: float  # at the reference host speed
    raw_seconds: float
    games: list[workloads.Game]
    paths: list[str]


def import_package() -> types.SimpleNamespace:
    """The package's modules, imported from ``src/`` of this checkout."""
    try:
        package = importlib.import_module("fuzzygame")
    except ImportError as exc:
        raise SystemExit(f"cannot import fuzzygame from {ROOT / 'src'}: {exc}") from exc
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fuzzygame was imported from {package.__file__}, not {ROOT / 'src'}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"fuzzygame.{name}")
           for name in ("cli", "matrix", "solver", "oracle")}
    )


def cold_import_s() -> float:
    """Seconds to import the package, with everything it uses, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60,
    )
    if out.returncode != 0:
        raise SystemExit(f"cold import of fuzzygame failed: {out.stderr.strip()}")
    return float(out.stdout)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_inputs(spec: Workload, seed: int, workdir: Path) -> tuple[list[str], str]:
    """Paths of the pool's input files and of the warm-up game's, written if
    the workload reads files.

    The files are written once, before set-up is timed: they stand for the
    user's own input, and creating a thousand files on a shared VM's disk
    took from 30 to 550 ms, noise that says nothing about the program.
    """
    if not spec.files:
        return [""] * spec.pool, ""
    workdir.mkdir(parents=True)
    games = spec.generate(seed, spec.pool)
    paths = [_write(workdir / f"game{k}.json", game.text) for k, game in enumerate(games)]
    return paths, _write(workdir / "warmup.json", spec.generate(WARMUP_SEED, 1)[0].text)


def set_up(spec: Workload, seed: int, fg: types.SimpleNamespace, paths: list[str],
           warm_path: str) -> Setup:
    """Import the package cold, generate the inputs, warm up."""
    before = [hostspeed.probe() for _ in range(PROBES)]
    import_s = cold_import_s()
    start = time.perf_counter()
    games = spec.generate(seed, spec.pool)
    # Warm up on a game that is the same for every seed, so that set-up time
    # does not depend on how costly the seed's first game happens to be.
    try:
        spec.run(fg, spec.generate(WARMUP_SEED, 1)[0], warm_path)
    except Exception:  # the same code path is checked when the timed loop runs it
        pass
    raw = import_s + time.perf_counter() - start
    after = [hostspeed.probe() for _ in range(PROBES)]
    scale = hostspeed.REFERENCE_NS / statistics.median(before + after)
    return Setup(raw * scale, raw, games, paths)


class Ledger:
    """Judges every operation's output and keeps the per-game outcome hashes."""

    def __init__(self, spec: Workload, games: list[workloads.Game]) -> None:
        self.judge = spec.judge
        self.games = games
        self.hashes: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, g: int, raw: Any, error: Exception | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                outcome, problems = self.judge(self.games[g], raw)
                blob = checks.canonical(outcome)
            except Exception as exc:  # output too malformed to judge: a failure
                error = exc
        if error is not None:
            blob = f"raised {type(error).__name__}: {error}".encode()
            problems = [f"raised {error!r}"]
        digest = hashlib.sha256(blob).digest()
        if self.hashes.setdefault(g, digest) != digest:
            problems = problems + ["outcome differs from an earlier run of the same game"]
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"game {g}: {'; '.join(problems)}")

    def outcome_digest(self) -> str:
        return checks.digest([self.hashes[g] for g in range(len(self.games))])


def run_once(spec: Workload, fg: types.SimpleNamespace, setup: Setup,
             g: int) -> tuple[int, Any, Exception | None]:
    """One timed operation: (wall ns, result, unexpected exception)."""
    game, path = setup.games[g], setup.paths[g]
    start = time.perf_counter_ns()
    try:
        raw, error = spec.run(fg, game, path), None
    except Exception as exc:  # counted as a failed operation
        raw, error = None, exc
    return time.perf_counter_ns() - start, raw, error


def one_pass(spec: Workload, fg: types.SimpleNamespace, setup: Setup, ledger: Ledger,
             clock: ScaledClock, tracer: Tracer | None = None) -> None:
    """Run every game of the pool once, in order; judge each output."""
    for g in range(len(setup.games)):
        ns, raw, error = run_once(spec, fg, setup, g)
        if tracer is not None:
            tracer.end_operation()
        clock.add(ns)
        ledger.record(g, raw, error)


def timed_passes(spec: Workload, fg: types.SimpleNamespace, setup: Setup, ledger: Ledger,
                 seconds: float) -> ScaledClock:
    """Whole passes over the pool, as many as fit in ``seconds`` and at least one.

    Every pass runs the same games, so what is measured does not depend on
    how fast the program is: a faster commit only makes more passes.
    """
    budget = int(seconds * 1e9)
    start = time.perf_counter_ns()
    clock = ScaledClock()
    while True:
        begin = time.perf_counter_ns()
        one_pass(spec, fg, setup, ledger, clock)
        end = time.perf_counter_ns()
        if end - start + (end - begin) > budget:  # another pass would overrun
            break
    clock.flush()
    return clock


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples that has ten samples beyond it."""
    return 100 * (n - 10) / n


def tail(samples: list[float]) -> float:
    """The sample at :func:`tail_percentile`: the 11th-largest."""
    return sorted(samples)[-11]


def end_to_end(latencies: list[float], pool: int, setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from operation times in ns, in whole passes over
    a pool of ``pool`` games, and set-up time in s.

    The latency percentiles are taken over each pass's operations; a run
    reports their median over its passes.
    """
    passes = [latencies[k:k + pool] for k in range(0, len(latencies), pool)]
    return {
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(map(statistics.median, passes)) / 1e6, "ms"),
        "latency_tail_ms": (statistics.median(map(tail, passes)) / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(spec: Workload, fg: types.SimpleNamespace, setup: Setup, ledger: Ledger,
                  outdir: Path, label: str) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one untraced and one traced pass over the pool."""
    untraced = ScaledClock()
    one_pass(spec, fg, setup, ledger, untraced)
    untraced.flush()
    traced = ScaledClock()
    tracer = Tracer()
    tracer.install()
    try:
        one_pass(spec, fg, setup, ledger, traced, tracer)
    finally:
        tracer.uninstall()
    traced.flush()
    outdir.mkdir(parents=True, exist_ok=True)
    tracer.write(outdir / f"spans-{label}.jsonl")

    wall_ns = sum(traced.raw)
    metrics = {}
    for layer, entry in LAYERS.items():
        calls = tracer.calls[layer]
        for metric in entry["metrics"]:
            if metric == "calls":
                value = calls
            elif metric == "self_ms":
                value = tracer.self_ns[layer] / 1e6
            elif metric == "self_share":
                value = tracer.self_ns[layer] / wall_ns
            elif metric == "hit_ratio":
                value = tracer.counters[f"{layer}.hits"] / calls if calls else 0.0
            elif metric == "trace_overhead_ratio":
                value = sum(traced.scaled) / sum(untraced.scaled)
            else:
                value = tracer.counters[f"{layer}.{metric}"]
            metrics[f"{layer}.{metric}"] = (value, UNITS[metric])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}"
    rundir = ROOT / ".perfbench_run"
    workdir = rundir / f"work-{label}-{os.getpid()}"

    try:
        fg = import_package()
        paths, warm_path = write_inputs(spec, args.seed, workdir)
        setups = []
        for _ in range(SETUPS):
            setup = None  # let the previous set-up's inputs go before the next one
            setup = set_up(spec, args.seed, fg, paths, warm_path)
            setups.append((setup.seconds, setup.raw_seconds))
        # The pool is the benchmark's, not the program's: keep the collector
        # from rescanning it on every pass, as it would not in a CLI process.
        gc.collect()
        gc.freeze()
        ledger = Ledger(spec, setup.games)
        pool = len(setup.games)
        if args.trace:
            metrics = traced_passes(spec, fg, setup, ledger, rundir, label)
        else:
            clock = timed_passes(spec, fg, setup, ledger, args.seconds)
            metrics = end_to_end(clock.scaled, pool, statistics.median(s for s, _ in setups))
            unscaled = end_to_end(clock.raw, pool, statistics.median(r for _, r in setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{ledger.attempted} operations, {ledger.attempted // pool} passes over {pool} games")
    if not args.trace:
        print(f"  host speed {clock.speed:.3f} x reference ({len(clock.probes)} probes);"
              " times below are scaled to the reference, unscaled in brackets")
    for name, (value, unit) in metrics.items():
        note = ""
        if not args.trace and name != "peak_rss_mb":
            note = f"  [{unscaled[name][0]:.6g}]"
        passes = f"median of {ledger.attempted // pool} passes"
        if name == "latency_tail_ms":
            note += (f"  (p{tail_percentile(pool):.2f} of the {pool} operations of a pass,"
                     f" 10 beyond it; {passes})")
        elif name == "latency_p50_ms":
            note += f"  ({passes})"
        elif name == "setup_s":
            note += f"  (median of {SETUPS} set-ups)"
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':42s} {ledger.failed / ledger.attempted:14.6g} ratio"
              f"  ({ledger.failed} of {ledger.attempted})")
    print(f"  {'outcome_digest':42s} {ledger.outcome_digest()}  ({pool} games)")
    for message in ledger.messages:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
