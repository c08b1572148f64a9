"""The four CLI workloads of the benchmark, their output checks, and the
layer metrics each one is expected to move.

A workload is one CLI invocation. ``job(seed, smoke)`` gives the argv, the
number of items it processes, and the sha256 its stdout must have, when the
output is fixed. Every invocation is also checked structurally by
``check(stdout)``, so a run at a seed without a recorded hash, or at the
smoke size, still verifies its output.

Why each workload was chosen is stated next to its name in BENCHMARK.json.
``moves`` and ``still`` record, before any optimisation is measured, which
per-layer metrics should change on this workload when the layer behind them
changes, and which should stay put (zero calls, or too little time to show).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

# Seed at which the output of the random census is recorded by hash.
REFERENCE_SEED = 7

TABLES_D = (2, 3, 5, 7, 11, 13)
FAMILIES = 3


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int
    sha256: str | None
    check: Callable[[bytes], None]


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[[int, bool], Job]
    moves: tuple[str, ...]
    still: tuple[str, ...]


class OutputMismatch(Exception):
    """The CLI output fails a structural check of its workload."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OutputMismatch(what)


def _check_tables(d_values):
    def check(out: bytes) -> None:
        bundle = json.loads(out)
        _require(bundle["all_pass"] is True, "tables: all_pass is not true")
        _require(bundle["metadata"]["d_values"] == list(d_values), "tables: wrong d_values")
        _require(len(bundle["checks"]) > 0, "tables: no checks listed")
        _require(all(row["pass"] for row in bundle["checks"]), "tables: a check failed")

    return check


def _check_census(d: int, total: int):
    def check(out: bytes) -> None:
        census = json.loads(out)
        _require(census["d"] == d, "census: wrong d")
        _require(census["total"] == total, f"census: total {census['total']} != {total}")
        _require(sum(census["counts"].values()) == total, "census: counts do not sum to total")
        _require(census["mismatches"] == 0, "census: oracle mismatches")

    return check


_PHASE_ROW = re.compile(rb"^amplitudes\[\d+\]\.phase_exp,\d+$", re.M)


def _check_state_csv(d: int):
    def check(out: bytes) -> None:
        _require(out.startswith(b"path,value\n"), "state: missing CSV header")
        _require(b"\nmetadata.d,%d\n" % d in out, "state: wrong metadata.d")
        rows = len(_PHASE_ROW.findall(out))
        _require(rows == d**4, f"state: {rows} phase rows, expected {d**4}")

    return check


def _tables(seed: int, smoke: bool) -> Job:
    d_values = (3,) if smoke else TABLES_D
    argv = ("tables", *(a for d in d_values for a in ("--d", str(d))))
    sha = None if smoke else "208b079d8285bcde98c0198038696978b0b42187364af3fb22abfe9224db3c64"
    return Job(argv, FAMILIES * len(d_values), sha, _check_tables(d_values))


def _exhaustive(seed: int, smoke: bool) -> Job:
    d = 3 if smoke else 5
    sha = None if smoke else "c13e9dc9ebd341abedf09ae405564ca8111d811e7b76310a3b1e728e4b24c1e0"
    return Job(("classify", "--exhaustive", "--d", str(d)), d**6, sha, _check_census(d, d**6))


def _random(seed: int, smoke: bool) -> Job:
    d, n = (3, 20) if smoke else (11, 2000)
    sha = None
    if not smoke and seed == REFERENCE_SEED:
        sha = "61a87dcf83907e95eca346f50b883c149832b79d263f84f59b7259361801f6ed"
    argv = ("classify", "--random", str(n), "--seed", str(seed), "--d", str(d))
    return Job(argv, n, sha, _check_census(d, n))


def _state_dump(seed: int, smoke: bool) -> Job:
    d = 3 if smoke else 13
    sha = None if smoke else "6996e5e1031b35fc3e2f63ad9c90bf283fbb2f1a4e0102304ae0b316751d49cc"
    argv = ("state", "build", "--family", "P", "--d", str(d), "--format", "csv")
    return Job(argv, d**4, sha, _check_state_csv(d))


_SWEEP_LAYERS = (
    "states.build_state.calls",
    "states.build_state.self_s",
    "measures.purity_profile.calls",
    "measures.purity_profile.self_s",
    "classify.canonicalize.calls",
    "classify.canonicalize.self_s",
    "classify.replay.calls",
    "classify.replay.self_s",
    "graphs.AdjacencyMatrix.constructed",
    "classify.profile_class.self_s",
    "classify.oracle.self_s",
    "classify.sweep.self_s",
)
_STEERING_LAYERS = (
    "steering.project.calls",
    "steering.project.self_s",
    "steering.project.zero_prob",
    "steering.project.useful_ratio",
    "steering.enumerate_paths.calls",
    "steering.enumerate_paths.self_s",
    "steering.persistency_stats.calls",
    "steering.persistency_stats.self_s",
)
_CLASSIFY_LAYERS = (
    "classify.canonicalize.calls",
    "classify.canonicalize.self_s",
    "classify.replay.calls",
    "classify.replay.self_s",
    "graphs.AdjacencyMatrix.constructed",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tables-d2to13",
            job=_tables,
            moves=(
                *_STEERING_LAYERS,
                "measures.purity_profile.calls",
                "measures.purity_profile.self_s",
                "states.family_reduced_state.calls",
                "states.family_reduced_state.self_s",
                "report.build_report.self_s",
            ),
            still=_CLASSIFY_LAYERS,
        ),
        Workload(
            name="classify-exhaustive-d5",
            job=_exhaustive,
            moves=_SWEEP_LAYERS,
            still=_STEERING_LAYERS,
        ),
        Workload(
            name="classify-random-d11",
            job=_random,
            moves=(
                "states.build_state.calls",
                "states.build_state.self_s",
                "measures.purity_profile.calls",
                "measures.purity_profile.self_s",
                "classify.oracle.self_s",
                "classify.profile_class.self_s",
                "classify.sweep.self_s",
            ),
            still=_STEERING_LAYERS,
        ),
        Workload(
            name="state-dump-d13",
            job=_state_dump,
            moves=(
                "cli.emit.self_s",
                "cli.emit.bytes",
                "cli.graph_amplitudes.self_s",
                "report.flatten_json.self_s",
            ),
            still=(
                *_STEERING_LAYERS,
                *_CLASSIFY_LAYERS,
                "measures.purity_profile.calls",
            ),
        ),
    )
}
