"""BENCHMARK.json, layers.json and the runner agree; the runner keeps its contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for entry in BENCH["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in BENCH["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in BENCH["end_to_end"] + BENCH["per_layer"] + BENCH["workloads"]:
        assert NAME.match(entry["name"]), entry
    names = [e["name"] for e in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_and_units_match_the_runner():
    e2e = run.end_to_end([1_000_000 * (k + 1) for k in range(21)], 21, 0.5)
    assert [(e["name"], e["unit"]) for e in BENCH["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert [(e["name"], e["unit"]) for e in BENCH["per_layer"]] == [
        (f"{layer}.{metric}", run.UNITS[metric])
        for layer, entry in run.LAYERS.items() for metric in entry["metrics"]
    ]


def test_layer_map_cites_known_names():
    metrics = {e["name"] for e in BENCH["end_to_end"]}
    for entry in run.LAYERS.values():
        for metric, workload in entry["moves"]:
            assert metric in metrics and workload in run.WORKLOADS
        assert set(entry.get("still_on", [])) <= set(run.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1))) == 90
    assert run.tail_percentile(100) == 90.0


def test_latencies_are_taken_per_pass_then_medianed():
    # Three passes over a pool of 21 games; the middle pass is uniformly slow.
    fast = [1_000_000 * (k + 1) for k in range(21)]
    e2e = run.end_to_end(fast + [3 * ns for ns in fast] + fast, 21, 0.5)
    assert e2e["latency_p50_ms"][0] == 11.0
    assert e2e["latency_tail_ms"][0] == 11.0  # 11th slowest of each pass


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_pool_leaves_ten_samples_beyond_a_tail_above_the_median(name):
    assert run.WORKLOADS[name].pool >= 21


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    out = _run(ROOT, "--workload", "planted_plain", "--seed", "2", "--seconds", "0.5",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in wanted]
    if trace == "1":
        assert result["metrics"]["solver.convex_row_dominates.calls"]["value"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "mixed_random", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
