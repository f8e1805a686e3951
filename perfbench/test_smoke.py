"""Smoke test of the benchmark itself: every workload at a tiny size.

Checks the output schema, that every metric ``BENCHMARK.json`` names is
reported with its unit, and that no operation failed.  Run from the
repository root: ``python3 -m pytest perfbench/test_smoke.py -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace, section):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--ops", "2",
                 "--setup-repeats", "1"])
    result = _result(done)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails loudly."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
