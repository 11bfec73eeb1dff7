"""Checks on the benchmark itself.

Run from the repository root (the traced runs take about three minutes):
    python3 -m pytest perfbench/test_counters.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Counts later changes may cite; each must repeat exactly for a seed.
EXACT = (
    "diffs.scan_candidates",
    "intersect.members_raw",
    "intersect.members_distinct",
    "balls.oracle_calls",
    "reconstruct.inverse_ball_words",
    "reconstruct.channel_draws",
    "reconstruct.candidates",
)


def _traced(workload: str, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_across_traced_runs(workload):
    first = _traced(workload, "1")
    second = _traced(workload, "2")
    assert first["correct"] and second["correct"]
    counts = {name: first["metrics"][name]["value"] for name in EXACT}
    assert counts == {name: second["metrics"][name]["value"] for name in EXACT}
    assert any(counts.values())


def test_metric_specs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-q4n40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
