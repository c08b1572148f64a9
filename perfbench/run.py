"""Benchmark of the quditgraph CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each CLI invocation is a fresh Python process (``child.py``) that imports
quditgraph from ``src/``; invocations run one at a time in a closed loop
from this single parent process, for at least ``--seconds`` seconds. BLAS
threading is left as the user's environment has it and is recorded, not
pinned. Every invocation's exit code and stdout are checked (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics, from untraced invocations:

* ``setup_s``: median time from process spawn to the call into
  ``quditgraph.cli.main``, over several import-only probes and every
  invocation;
* ``wall_s``: median wall time of one invocation, set-up included;
* ``items_per_s``: median of items / in-process time of ``main(argv)``;
* ``peak_rss_mb``: median over invocations of the child's peak RSS;
* ``success_frac``: invocations that passed their checks / invocations
  attempted, the complement of the failed fraction.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (calls and self time per span, see
``child.py``) plus ``trace.overhead_s``, traced minus untraced median wall
time. Call counts must repeat exactly between traced invocations.

``--smoke`` runs the workload at a tiny size (d = 3; 20 random matrices),
for checking that every metric is emitted.

The second-to-last line of stdout is a JSON record with the environment
stamp and the raw samples; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from workloads import WORKLOADS, Job, OutputMismatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CLOCK = time.CLOCK_MONOTONIC

SETUP_SAMPLES = 12
MIN_TRACED = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}

CALLS_AND_SELF = (
    "steering.project",
    "steering.enumerate_paths",
    "steering.persistency_stats",
    "measures.purity_profile",
    "states.build_state",
    "states.family_reduced_state",
    "classify.canonicalize",
    "classify.replay",
)
SELF_ONLY = (
    "classify.profile_class",
    "classify.sweep",
    "report.build_report",
    "report.flatten_json",
    "cli.emit",
    "cli.graph_amplitudes",
)
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in CALLS_AND_SELF
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{span}.self_s": "s" for span in SELF_ONLY},
    "steering.project.zero_prob": "count",
    "steering.project.useful_ratio": "frac",
    "graphs.AdjacencyMatrix.constructed": "count",
    "classify.oracle.self_s": "s",
    "cli.emit.bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    mode: str
    wall_s: float
    setup_s: float | None
    main_s: float | None
    rss_mb: float
    stdout_bytes: int
    error: str | None
    trace: dict | None


def invoke(job: Job, mode: str, run_dir: str) -> Sample:
    """Run one child process to completion and check what it produced."""
    stats_path = os.path.join(run_dir, "stats.json")
    if os.path.exists(stats_path):
        os.remove(stats_path)
    with open(os.path.join(run_dir, "stderr"), "w+b") as err:
        start = time.clock_gettime(CLOCK)
        proc = subprocess.Popen(
            [sys.executable, CHILD, stats_path, mode, *job.argv],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
        )
        out = None
        try:
            out = proc.stdout.read()
        finally:
            if out is None:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        end = time.clock_gettime(CLOCK)
        err.seek(0)
        stderr = err.read()[-2000:].decode(errors="replace")

    stats = None
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    error = _check(job, mode, proc.returncode, out, stats, stderr)
    return Sample(
        mode=mode,
        wall_s=end - start,
        setup_s=stats["t_main"] - start if stats else None,
        main_s=stats["t_end"] - stats["t_main"] if stats else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout_bytes=len(out),
        error=error,
        trace=stats["trace"] if stats else None,
    )


def _check(job: Job, mode: str, rc: int, out: bytes, stats, stderr: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()}"
    if stats is None:
        return "child wrote no stats"
    if not stats["package"].startswith(SRC + os.sep):
        return f"imported quditgraph from {stats['package']}, not from {SRC}"
    if mode == "probe":
        return None
    try:
        job.check(out)
    except (OutputMismatch, ValueError, KeyError, TypeError) as exc:
        return f"output check failed: {exc!r}"
    if job.sha256 is not None and hashlib.sha256(out).hexdigest() != job.sha256:
        return "stdout sha256 differs from the recorded reference"
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "loadavg_start": list(os.getloadavg()),
    }


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _warm_up(smoke_job: Job, run_dir: str) -> None:
    """Untimed import and smoke-size invocation before the measured ones.

    The import fills the bytecode cache; the first full invocation of a run
    was otherwise slower than the rest in most runs.
    """
    probe = invoke(smoke_job, "probe", run_dir)
    if probe.error:
        raise SystemExit(f"perfbench: quditgraph does not import: {probe.error}")
    invoke(smoke_job, "run", run_dir)


def end_to_end(job: Job, seconds: float, run_dir: str) -> tuple[dict, list[Sample]]:
    # Set-up time drifts with the load on the machine, so import-only probes
    # are spread over the whole run, one before each invocation, then topped
    # up to SETUP_SAMPLES set-up samples in all.
    probes, runs = [], []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        probes.append(invoke(job, "probe", run_dir))
        runs.append(invoke(job, "run", run_dir))
    while len(probes) + len(runs) < SETUP_SAMPLES:
        probes.append(invoke(job, "probe", run_dir))
    metrics = {
        "setup_s": _median(s.setup_s for s in probes + runs),
        "wall_s": _median(r.wall_s for r in runs),
        "items_per_s": _median(job.items / r.main_s for r in runs if r.main_s),
        "peak_rss_mb": _median(r.rss_mb for r in runs),
        "success_frac": sum(r.error is None for r in runs) / len(runs),
    }
    return metrics, probes + runs


def _counts(trace: dict) -> dict:
    return {"calls": trace["calls"], "zero_prob": trace["zero_prob"],
            "constructed": trace["constructed"]}


def per_layer(job: Job, seconds: float, run_dir: str) -> tuple[dict, list[Sample], str | None]:
    samples = []
    start = time.monotonic()
    while len(samples) < 2 * MIN_TRACED or time.monotonic() - start < seconds:
        samples.append(invoke(job, "run", run_dir))
        samples.append(invoke(job, "trace", run_dir))
    traced = [s for s in samples if s.mode == "trace" and s.trace]
    untraced = [s for s in samples if s.mode == "run"]
    if not traced:
        return {name: 0.0 for name in PER_LAYER}, samples, "no traced invocation completed"

    repeat_error = None
    if any(_counts(t.trace) != _counts(traced[0].trace) for t in traced[1:]):
        repeat_error = "call counts differ between traced invocations"

    first = traced[0].trace
    calls = first["calls"]
    metrics = {}
    for span in CALLS_AND_SELF:
        metrics[f"{span}.calls"] = calls[span]
    for span in CALLS_AND_SELF + SELF_ONLY:
        metrics[f"{span}.self_s"] = _median(t.trace["self_s"][span] for t in traced)
    project_calls = calls["steering.project"]
    metrics["steering.project.zero_prob"] = first["zero_prob"]
    metrics["steering.project.useful_ratio"] = (
        (project_calls - first["zero_prob"]) / project_calls if project_calls else 0.0
    )
    metrics["graphs.AdjacencyMatrix.constructed"] = first["constructed"]
    metrics["classify.oracle.self_s"] = _median(t.trace["oracle_s"] for t in traced)
    metrics["cli.emit.bytes"] = traced[0].stdout_bytes if calls["cli.emit"] else 0
    metrics["trace.overhead_s"] = (
        _median(t.wall_s for t in traced) - _median(u.wall_s for u in untraced)
    )
    return metrics, samples, repeat_error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (d = 3)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quditgraph", "cli.py")):
        print(f"perfbench: no quditgraph sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    job = workload.job(args.seed, args.smoke)
    env = environment()
    run_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        _warm_up(workload.job(args.seed, True), run_dir)
        if args.trace:
            values, samples, extra_error = per_layer(job, args.seconds, run_dir)
            units = PER_LAYER
        else:
            values, samples = end_to_end(job, args.seconds, run_dir)
            extra_error, units = None, END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    attempts = [s for s in samples if s.mode != "probe"]
    errors = [s.error for s in samples if s.error]
    failed = sum(s.error is not None for s in attempts)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": list(job.argv),
        "items": job.items,
        "env": env,
        "errors": errors[:5] + ([extra_error] if extra_error else []),
        "samples": [
            {"mode": s.mode, "wall_s": s.wall_s, "setup_s": s.setup_s,
             "main_s": s.main_s, "rss_mb": s.rss_mb, "ok": s.error is None}
            for s in samples
        ],
    }
    result = {
        "correct": not errors and extra_error is None,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
