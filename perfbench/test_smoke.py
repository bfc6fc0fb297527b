"""Tests of the benchmark itself, on tiny scenes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import prefix_cap_ok  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_and_check(trace):
    report, result = parse(bench("--workload", "all", "--smoke",
                                 "--seconds", "1", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"] for m in spec()[kind]}
    workloads = [w["name"] for w in spec()["workloads"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads
                                      for n in names}
    assert report["machine"]["traced"] is (trace == "1")
    for name in workloads:
        section = report["workloads"][name]
        assert section["errors"] == [] and section["output_sha256"]
        if trace == "1":
            assert section["trace"]["self_sum_gap_s"] < 1e-6


def test_single_workload_is_deterministic_per_seed():
    args = ("--workload", "hd-poisson", "--smoke", "--seed", "7",
            "--seconds", "1", "--trace", "0")
    first, result = parse(bench(*args))
    second, _ = parse(bench(*args))
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    for key in ("inputs", "output_sha256", "run_digest"):
        assert (first["workloads"]["hd-poisson"][key]
                == second["workloads"]["hd-poisson"][key])
    other, _ = parse(bench("--workload", "hd-poisson", "--smoke", "--seed",
                           "8", "--seconds", "1", "--trace", "0"))
    assert (other["workloads"]["hd-poisson"]["inputs"]
            != first["workloads"]["hd-poisson"]["inputs"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "csv-log", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_prefix_cap_bound():
    alpha = 0.25
    assert prefix_cap_ok(np.array([0, 1, 1, 1, 0, 2, 1, 1, 0]), alpha)
    assert not prefix_cap_ok(np.array([0, 0]), alpha)
    assert not prefix_cap_ok(np.array([0, 1, 1, 1, 0, 0]), alpha)
