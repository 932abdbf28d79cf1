"""Smoke test for the benchmark: every workload at toy sizes, traced and untraced.

Run with ``python3 -m pytest -q bench/test_smoke.py`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# workload-specific metrics that must be printed beside the common ones
STAGE_METRICS = {
    "stride-pipeline": ["stage.gen_s", "stage.preprocess_s", "stage.train_s", "stage.eval_s",
                        "stage.simulate_s", "model.test_f1", "model.coverage",
                        "model.accuracy", "rules.coverage", "stages_failed"],
    "latency-sweep": ["stage.gen_s", "stage.sweep_s", "model.coverage", "model.accuracy",
                      "stages_failed"],
    "rules-llc": ["stage.gen_s", "stage.simulate_s", "rules.coverage", "stages_failed"],
}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        assert set(STAGE_METRICS[workload]) <= printed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
