"""Smoke tests of the benchmark harness: every workload at d = 3.

    python3 -m pytest perfbench/test_smoke.py -q

Each run must pass its own output checks and emit exactly the metrics that
BENCHMARK.json declares, under the names the layer predictions use.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# The per-layer metrics later performance claims are stated against.
REQUIRED_LAYER_METRICS = {
    "steering.project.calls", "steering.project.self_s",
    "steering.project.zero_prob", "steering.project.useful_ratio",
    "steering.enumerate_paths.calls", "steering.enumerate_paths.self_s",
    "steering.persistency_stats.calls", "steering.persistency_stats.self_s",
    "measures.purity_profile.calls", "measures.purity_profile.self_s",
    "states.build_state.calls", "states.build_state.self_s",
    "states.family_reduced_state.calls", "states.family_reduced_state.self_s",
    "classify.canonicalize.calls", "classify.canonicalize.self_s",
    "classify.replay.calls", "classify.replay.self_s",
    "graphs.AdjacencyMatrix.constructed",
    "classify.profile_class.self_s", "classify.oracle.self_s", "classify.sweep.self_s",
    "report.build_report.self_s",
    "cli.emit.self_s", "cli.emit.bytes", "cli.graph_amplitudes.self_s",
    "trace.overhead_s",
}
REQUIRED_END_TO_END = {"setup_s", "wall_s", "items_per_s", "peak_rss_mb", "success_frac"}


def _declared(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[key]}


def _run(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(HERE, "run.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_declared_workloads_and_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert REQUIRED_END_TO_END == set(_declared("end_to_end"))
    assert REQUIRED_LAYER_METRICS <= set(_declared("per_layer"))
    for workload in WORKLOADS.values():
        assert set(workload.moves) | set(workload.still) <= set(_declared("per_layer"))
        assert not set(workload.moves) & set(workload.still)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    env = json.loads(record_line)["record"]["env"]
    for key in ("cpu_count", "affinity_cpus", "python", "numpy", "blas",
                "blas_threads", "loadavg_start", "loadavg_end"):
        assert key in env
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}

    if trace:
        projected = result["metrics"]["steering.project.calls"]["value"]
        assert (projected > 0) == (workload == "tables-d2to13")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("tables-d2to13", 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
