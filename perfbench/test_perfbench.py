"""Checks of the benchmark itself, on the smoke scenes.

    python3 -m pytest perfbench

Every case runs ``perfbench/run.py`` as its own process, as the benchmark
is run, from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for m in metrics.values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_their_counts(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    computed = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] in ("count", "bytes")]
    assert {n: first[n]["value"] for n in computed} == \
        {n: second[n]["value"] for n in computed}


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bench)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
