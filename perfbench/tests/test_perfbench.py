"""Tests of the benchmark's own code, on tiny instances of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
        "workloads": [w["name"] for w in doc["workloads"]],
    }


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "1", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_leave_simulated_outputs_unchanged(workload):
    plain = run.run_child(workload, 3, trace=False, tiny=True)
    traced = run.run_child(workload, 3, trace=True, tiny=True)
    assert "error" not in plain and "error" not in traced, (plain, traced)
    assert run.outputs(traced) == run.outputs(plain)
    assert all(not t["error"] for t in plain["trials"])
    assert traced["layers"]["events"] == sum(
        t["events"] for t in plain["trials"] if not t["name"].startswith("restart:")
    )


def test_emitted_names_are_declared():
    declared = _declared()
    assert declared["workloads"] == list(run.WORKLOADS)
    assert run.END_TO_END == declared["end_to_end"]
    assert run.PER_LAYER == declared["per_layer"]
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "scale_restart", "--seed", "2", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(declared[kind])
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == declared[kind][name]


def test_seed_changes_the_generated_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 1) == workloads.make_inputs(workload, 1)
        assert workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)


def test_generator_time_excludes_suspension():
    tracer = LayerTracer()
    pause = 0.05

    def body():
        yield 1
        yield 2

    gen = tracer.wrap(body, "workload")()
    for _ in gen:
        time.sleep(pause)
    assert tracer.other_self["workload"] < pause / 5
    assert tracer.calls["workload"] == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_leaves_the_working_tree_clean():
    def status():
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            pytest.skip("not a git checkout")
        return proc.stdout

    before = status()
    proc = _bench("--workload", "paper_sweep", "--seed", "4", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert status() == before


def test_a_tree_without_the_simulator_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
